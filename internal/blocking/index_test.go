package blocking

import (
	"sort"
	"testing"

	"hydra/internal/platform"
	"hydra/internal/synth"
	"hydra/internal/vision"
)

// indexWorld builds a small two-platform world for index tests.
func indexWorld(t *testing.T, persons int, seed int64) (*platform.Platform, *platform.Platform, *vision.Matcher) {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(persons, platform.EnglishPlatforms, seed))
	if err != nil {
		t.Fatal(err)
	}
	pa, err := w.Dataset.Platform(platform.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := w.Dataset.Platform(platform.Facebook)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb, vision.NewMatcher(seed)
}

// TestIndexMatchesGenerate asserts the serving-side contract: the union of
// the per-A-side shards is exactly the candidate set Generate returns
// under the same rules.
func TestIndexMatchesGenerate(t *testing.T) {
	pa, pb, faces := indexWorld(t, 40, 3)
	rules := DefaultRules()
	cands, err := Generate(pa, pb, faces, rules)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(pa, pb, faces, rules)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumShards() != pa.NumAccounts() {
		t.Fatalf("NumShards = %d, want %d", ix.NumShards(), pa.NumAccounts())
	}
	var flat []Candidate
	sizes := ix.ShardSizes()
	for a := 0; a < ix.NumShards(); a++ {
		shard, err := ix.Candidates(a)
		if err != nil {
			t.Fatal(err)
		}
		if sizes[a] != len(shard) {
			t.Fatalf("ShardSizes()[%d] = %d, shard holds %d", a, sizes[a], len(shard))
		}
		for _, c := range shard {
			if c.A != a {
				t.Fatalf("shard %d holds candidate with A=%d", a, c.A)
			}
		}
		flat = append(flat, shard...)
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].A != flat[j].A {
			return flat[i].A < flat[j].A
		}
		return flat[i].B < flat[j].B
	})
	if len(flat) != len(cands) {
		t.Fatalf("index holds %d candidates, Generate returns %d", len(flat), len(cands))
	}
	for i := range cands {
		if flat[i] != cands[i] {
			t.Fatalf("candidate %d differs: index %+v vs Generate %+v", i, flat[i], cands[i])
		}
	}
}

// TestIndexWorkersDeterminism asserts identical shards at any worker
// count.
func TestIndexWorkersDeterminism(t *testing.T) {
	pa, pb, faces := indexWorld(t, 30, 5)
	build := func(workers int) *Index {
		rules := DefaultRules()
		rules.Workers = workers
		ix, err := BuildIndex(pa, pb, faces, rules)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix1, ix4 := build(1), build(4)
	for a := 0; a < ix1.NumShards(); a++ {
		s1, _ := ix1.Candidates(a)
		s4, _ := ix4.Candidates(a)
		if len(s1) != len(s4) {
			t.Fatalf("shard %d length differs: %d vs %d", a, len(s1), len(s4))
		}
		for i := range s1 {
			if s1[i] != s4[i] {
				t.Fatalf("shard %d candidate %d differs: %+v vs %+v", a, i, s1[i], s4[i])
			}
		}
	}
}

// TestIndexOutOfRange asserts range checking on shard lookup.
func TestIndexOutOfRange(t *testing.T) {
	pa, pb, faces := indexWorld(t, 20, 7)
	ix, err := BuildIndex(pa, pb, faces, DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Candidates(-1); err == nil {
		t.Fatal("expected error for negative account id")
	}
	if _, err := ix.Candidates(ix.NumShards()); err == nil {
		t.Fatal("expected error for out-of-range account id")
	}
}
