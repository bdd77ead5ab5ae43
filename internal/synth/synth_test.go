package synth

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hydra/internal/platform"
)

func smallWorld(t *testing.T, persons int, seed int64) *World {
	t.Helper()
	w, err := Generate(DefaultConfig(persons, platform.EnglishPlatforms, seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(DefaultConfig(0, platform.EnglishPlatforms, 1)); err == nil {
		t.Fatal("expected error for zero persons")
	}
	if _, err := Generate(DefaultConfig(10, []platform.ID{platform.Twitter}, 1)); err == nil {
		t.Fatal("expected error for one platform")
	}
	cfg := DefaultConfig(10, platform.EnglishPlatforms, 1)
	cfg.Span.End = cfg.Span.Start
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected error for empty span")
	}
}

// TestGenerateRefusesBadMissingScale: a negative or NaN scale would write
// a world with no missing attributes, as if it were valid. Generate
// refuses it.
func TestGenerateRefusesBadMissingScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN()} {
		cfg := DefaultConfig(10, platform.EnglishPlatforms, 1)
		cfg.MissingScale = scale
		if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "MissingScale") {
			t.Fatalf("Generate(MissingScale=%v) = %v, want a MissingScale error", scale, err)
		}
	}
	cfg := DefaultConfig(10, platform.EnglishPlatforms, 1)
	cfg.MissingScale = 0 // no attribute ever missing is a valid world
	if _, err := Generate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateStructure(t *testing.T) {
	w := smallWorld(t, 60, 7)
	if w.Dataset.NumPersons() != 60 {
		t.Fatalf("NumPersons = %d", w.Dataset.NumPersons())
	}
	for _, pid := range platform.EnglishPlatforms {
		p, err := w.Dataset.Platform(pid)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumAccounts() != 60 {
			t.Fatalf("%s accounts = %d", pid, p.NumAccounts())
		}
		degrees := 0
		for u := 0; u < p.Graph.Len(); u++ {
			degrees += p.Graph.Degree(u)
		}
		if degrees == 0 {
			t.Fatalf("%s has empty social graph", pid)
		}
		// Every account's Person must round-trip through the dataset map.
		for _, acc := range p.Accounts {
			local, ok := w.Dataset.AccountOf(acc.Person, pid)
			if !ok || local != acc.Local {
				t.Fatalf("ground-truth map broken for person %d", acc.Person)
			}
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := smallWorld(t, 30, 42)
	b := smallWorld(t, 30, 42)
	pa, _ := a.Dataset.Platform(platform.Twitter)
	pb, _ := b.Dataset.Platform(platform.Twitter)
	for i := range pa.Accounts {
		if pa.Accounts[i].Profile.Username != pb.Accounts[i].Profile.Username {
			t.Fatal("same seed produced different usernames")
		}
		if len(pa.Accounts[i].Posts) != len(pb.Accounts[i].Posts) {
			t.Fatal("same seed produced different post counts")
		}
	}
	c := smallWorld(t, 30, 43)
	pc, _ := c.Dataset.Platform(platform.Twitter)
	same := true
	for i := range pa.Accounts {
		if pa.Accounts[i].Profile.Username != pc.Accounts[i].Profile.Username {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical worlds")
	}
}

func TestLocalIDsAreShuffled(t *testing.T) {
	w := smallWorld(t, 80, 9)
	p, _ := w.Dataset.Platform(platform.Facebook)
	identity := 0
	for _, acc := range p.Accounts {
		if acc.Local == acc.Person {
			identity++
		}
	}
	if identity > 20 {
		t.Fatalf("local ids look unshuffled: %d/80 fixed points", identity)
	}
}

func TestMissingnessRegime(t *testing.T) {
	// Figure 2(a) regime: ≥80%% of users missing ≥2 of six core attributes,
	// only ~5%% with everything filled.
	w := smallWorld(t, 300, 11)
	p, _ := w.Dataset.Platform(platform.Twitter)
	missing2, full := 0, 0
	for _, acc := range p.Accounts {
		mc := len(acc.Profile.MissingSet())
		if mc >= 2 {
			missing2++
		}
		if mc == 0 {
			full++
		}
	}
	n := float64(p.NumAccounts())
	if frac := float64(missing2) / n; frac < 0.6 {
		t.Fatalf("missing≥2 fraction = %v, want >0.6", frac)
	}
	if frac := float64(full) / n; frac > 0.15 {
		t.Fatalf("fully-filled fraction = %v, want <0.15", frac)
	}
}

func TestPostsCarryPersonSignal(t *testing.T) {
	w := smallWorld(t, 20, 13)
	p, _ := w.Dataset.Platform(platform.Twitter)
	// Find a reasonably active account and check its texts contain that
	// person's style words somewhere.
	found := false
	for _, acc := range p.Accounts {
		if len(acc.Posts) < 5 {
			continue
		}
		all := ""
		for _, post := range acc.Posts {
			all += " " + post.Text
		}
		for j := 0; j < 3; j++ {
			if strings.Contains(all, StyleWord(acc.Person, j)) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no account exhibits its person's style words")
	}
}

func TestEventsWithinSpan(t *testing.T) {
	w := smallWorld(t, 40, 17)
	for _, pid := range platform.EnglishPlatforms {
		p, _ := w.Dataset.Platform(pid)
		for _, acc := range p.Accounts {
			for _, ev := range acc.Events {
				if ev.Time.Before(w.Config.Span.Start) || !ev.Time.Before(w.Config.Span.End) {
					t.Fatalf("event at %v outside span", ev.Time)
				}
			}
			for _, post := range acc.Posts {
				if post.Time.Before(w.Config.Span.Start) || !post.Time.Before(w.Config.Span.End) {
					t.Fatalf("post at %v outside span", post.Time)
				}
			}
		}
	}
}

func TestSharedMediaAcrossPlatforms(t *testing.T) {
	w := smallWorld(t, 60, 19)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	shared := 0
	for person := 0; person < 60; person++ {
		lt, _ := w.Dataset.AccountOf(person, platform.Twitter)
		lf, _ := w.Dataset.AccountOf(person, platform.Facebook)
		mt := map[uint64]bool{}
		for _, ev := range tw.Accounts[lt].Events {
			if ev.MediaID != 0 {
				mt[ev.MediaID] = true
			}
		}
		for _, ev := range fb.Accounts[lf].Events {
			if ev.MediaID != 0 && mt[ev.MediaID] {
				shared++
				break
			}
		}
	}
	if shared < 10 {
		t.Fatalf("only %d/60 persons share media across platforms", shared)
	}
}

func TestChineseUsernamesDiverge(t *testing.T) {
	w, err := Generate(DefaultConfig(100, platform.ChinesePlatforms, 23))
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := w.Dataset.Platform(platform.SinaWeibo)
	rr, _ := w.Dataset.Platform(platform.Renren)
	exact := 0
	for person := 0; person < 100; person++ {
		a, _ := w.Dataset.AccountOf(person, platform.SinaWeibo)
		b, _ := w.Dataset.AccountOf(person, platform.Renren)
		if sw.Accounts[a].Profile.Username == rr.Accounts[b].Profile.Username {
			exact++
		}
	}
	if exact > 60 {
		t.Fatalf("Chinese usernames too consistent: %d/100 exact matches", exact)
	}
}

func TestBuildLexicons(t *testing.T) {
	lx := BuildLexicons(4, 10)
	if len(lx.TopicWords) != 4 || len(lx.TopicWords[0]) != 10 {
		t.Fatal("topic words wrong shape")
	}
	if len(lx.Genre) == 0 || len(lx.Sentiment) == 0 || len(lx.Filler) == 0 {
		t.Fatal("lexicons empty")
	}
	// Genre lexicon values must be valid genres.
	for _, g := range lx.Genre {
		found := false
		for _, known := range []string{"sports", "music", "entertainment", "society", "history",
			"science", "art", "hightech", "commercial", "politics", "geography",
			"traveling", "fashions", "digitalgame", "industry", "luxury", "violence"} {
			if g == known {
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown genre %q in lexicon", g)
		}
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed uint8) bool {
		v := dirichlet(rng, 5, 0.3)
		if math.Abs(v.Sum()-1) > 1e-9 {
			return false
		}
		for _, p := range v {
			if p < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		sum += float64(poisson(rng, 7))
	}
	mean := sum / float64(n)
	if math.Abs(mean-7) > 0.5 {
		t.Fatalf("poisson mean = %v, want ≈7", mean)
	}
	if poisson(rng, 0) != 0 {
		t.Fatal("poisson(0) should be 0")
	}
}

func TestGammaSamplePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []float64{0.1, 0.5, 1, 2, 10} {
		for i := 0; i < 50; i++ {
			if g := gammaSample(rng, shape); g <= 0 || math.IsNaN(g) {
				t.Fatalf("gammaSample(%v) = %v", shape, g)
			}
		}
	}
}

func TestUsernameFor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pn := randPersonName(rng)
	for i := 0; i < 50; i++ {
		en := usernameFor(pn, "en", rng, 0.2)
		zh := usernameFor(pn, "zh", rng, 0.2)
		if en == "" || zh == "" {
			t.Fatal("empty username generated")
		}
	}
}

func TestSampleCat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	probs := dirichlet(rng, 4, 1)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[sampleCat(rng, probs)]++
	}
	for k := 0; k < 4; k++ {
		got := float64(counts[k]) / 4000
		if math.Abs(got-probs[k]) > 0.05 {
			t.Fatalf("category %d frequency %v, want %v", k, got, probs[k])
		}
	}
}
