package core

import (
	"testing"

	"hydra/internal/platform"
)

func TestRawPairCaching(t *testing.T) {
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, 51)
	if sys.CacheSize() != 0 {
		t.Fatal("cache should start empty")
	}
	pv1, err := sys.RawPair(platform.Twitter, 0, platform.Facebook, 1)
	if err != nil {
		t.Fatal(err)
	}
	n1 := sys.CacheSize()
	pv2, err := sys.RawPair(platform.Twitter, 0, platform.Facebook, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.CacheSize() != n1 {
		t.Fatal("repeat access should not grow the cache")
	}
	// Cached vectors are identical objects.
	for d := range pv1.X {
		if pv1.X[d] != pv2.X[d] || pv1.Mask[d] != pv2.Mask[d] {
			t.Fatal("cache returned different data")
		}
	}
}

func TestRawPairOutOfRange(t *testing.T) {
	_, sys := buildSystem(t, 10, platform.EnglishPlatforms, 52)
	if _, err := sys.RawPair(platform.Twitter, 999, platform.Facebook, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := sys.RawPair("bogus", 0, platform.Facebook, 0); err == nil {
		t.Fatal("expected unknown-platform error")
	}
	// Friends range-checks like every other store query (it used to
	// panic inside the interaction graph).
	n := sys.NumAccounts(platform.Twitter)
	for _, local := range []int{n, -1} {
		if _, err := sys.Friends(platform.Twitter, local, 3); err == nil {
			t.Fatalf("expected out-of-range error from Friends(twitter, %d, 3)", local)
		}
	}
}

func TestViewsLazyAndStable(t *testing.T) {
	_, sys := buildSystem(t, 15, platform.EnglishPlatforms, 53)
	v1, err := sys.Views(platform.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := sys.Views(platform.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	if &v1[0] != &v2[0] {
		t.Fatal("views rebuilt instead of cached")
	}
	if _, err := sys.Views("bogus"); err == nil {
		t.Fatal("expected unknown-platform error")
	}
}

func TestEmbeddingsMatchViews(t *testing.T) {
	_, sys := buildSystem(t, 15, platform.EnglishPlatforms, 54)
	views, _ := sys.Views(platform.Twitter)
	embs, err := sys.Embeddings(platform.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	if len(embs) != len(views) {
		t.Fatal("length mismatch")
	}
	for i := range embs {
		if &embs[i][0] != &views[i].Embedding[0] {
			t.Fatal("embeddings should alias view embeddings")
		}
	}
	if _, err := sys.Embeddings("bogus"); err == nil {
		t.Fatal("expected unknown-platform error")
	}
}

func TestImputeNoFriendsFallsBack(t *testing.T) {
	w, sys := buildSystem(t, 20, platform.EnglishPlatforms, 55)
	// Find an isolated account (or accept none exist for this seed).
	tw, _ := w.Dataset.Platform(platform.Twitter)
	for a := 0; a < tw.NumAccounts(); a++ {
		if tw.Graph.Degree(a) > 0 {
			continue
		}
		x, err := sys.Impute(platform.Twitter, a, platform.Facebook, 0, HydraM, 3)
		if err != nil {
			t.Fatal(err)
		}
		pv, _ := sys.RawPair(platform.Twitter, a, platform.Facebook, 0)
		for d, m := range pv.Mask {
			if !m && x[d] != 0 {
				t.Fatal("isolated account should fall back to zero fill")
			}
		}
		return
	}
	t.Skip("no isolated accounts at this seed")
}

func TestImputeBadTopFriendsDefaulted(t *testing.T) {
	_, sys := buildSystem(t, 15, platform.EnglishPlatforms, 56)
	// topFriends <= 0 must default to 3, not panic.
	if _, err := sys.Impute(platform.Twitter, 0, platform.Facebook, 0, HydraM, 0); err != nil {
		t.Fatal(err)
	}
}

func TestModelScoreOutOfRange(t *testing.T) {
	_, sys := buildSystem(t, 25, platform.EnglishPlatforms, 57)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(57))
	m, err := Train(sys, task, DefaultConfig(57))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score(platform.Twitter, 999, platform.Facebook, 0); err == nil {
		t.Fatal("expected out-of-range score error")
	}
}

func TestHydraLinkerUnfitted(t *testing.T) {
	l := &HydraLinker{Cfg: DefaultConfig(1)}
	if _, err := l.PairScore(platform.Twitter, 0, platform.Facebook, 0); err == nil {
		t.Fatal("expected unfitted error")
	}
	if l.Model() != nil {
		t.Fatal("unfitted model should be nil")
	}
	if l.Name() != "HYDRA-M" {
		t.Fatalf("name = %s", l.Name())
	}
	z := &HydraLinker{Cfg: Config{Variant: HydraZ}}
	if z.Name() != "HYDRA-Z" {
		t.Fatalf("name = %s", z.Name())
	}
}

func TestBlockSortedLabelIndices(t *testing.T) {
	b := &Block{Labels: map[int]float64{5: 1, 1: -1, 3: 1}}
	idx := b.SortedLabelIndices()
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 3 || idx[2] != 5 {
		t.Fatalf("sorted indices = %v", idx)
	}
}
