package core

import (
	"encoding/json"
	"math"
	"testing"

	"hydra/internal/platform"
)

// TestModelCodecRoundTrip trains a model, reduces it to ModelParts,
// round-trips the parts through JSON, rebuilds the model and asserts
// bit-identical Score/Link on every candidate pair — the core half of the
// bundle round-trip contract.
func TestModelCodecRoundTrip(t *testing.T) {
	const seed = 2
	_, sys := buildSystem(t, 40, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}

	parts, err := m.Parts()
	if err != nil {
		t.Fatal(err)
	}
	if parts.KernelKind != KernelRBF || parts.KernelSigma <= 0 {
		t.Fatalf("expected rbf parts with learned bandwidth, got %q σ=%g", parts.KernelKind, parts.KernelSigma)
	}
	blob, err := json.Marshal(parts)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ModelParts
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	m2, err := ModelFromParts(sys.LazyStore, decoded)
	if err != nil {
		t.Fatal(err)
	}

	b := task.Blocks[0]
	for _, c := range b.Cands {
		s1, err := m.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := m2.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Fatalf("score differs for (%d,%d): %v vs %v", c.A, c.B, s1, s2)
		}
	}
}

// TestModelFromPartsValidation asserts the codec rejects inconsistent or
// unknown parts instead of serving garbage.
func TestModelFromPartsValidation(t *testing.T) {
	const seed = 2
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := m.Parts()
	if err != nil {
		t.Fatal(err)
	}

	bad := parts
	bad.KernelKind = "spline"
	if _, err := ModelFromParts(sys.LazyStore, bad); err == nil {
		t.Fatal("expected error for unknown kernel kind")
	}
	bad = parts
	bad.Alpha = bad.Alpha[:len(bad.Alpha)-1]
	if _, err := ModelFromParts(sys.LazyStore, bad); err == nil {
		t.Fatal("expected error for alpha/xs length mismatch")
	}
	bad = parts
	bad.KernelSigma = 0
	if _, err := ModelFromParts(sys.LazyStore, bad); err == nil {
		t.Fatal("expected error for zero rbf bandwidth")
	}
	if _, err := ModelFromParts(nil, parts); err == nil {
		t.Fatal("expected error for nil system")
	}
}

// TestLimitPairCacheBoundsAndPreservesScores asserts the serve-side cache
// cap keeps the pair cache bounded without changing a single score — at
// caps below 8, where an eighth of the cap is zero and batch eviction
// must still drop at least one entry per insert, and above.
func TestLimitPairCacheBoundsAndPreservesScores(t *testing.T) {
	const seed = 6
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := task.Blocks[0]
	want := make([]float64, len(b.Cands))
	for i, c := range b.Cands {
		if want[i], err = m.Score(b.PA, c.A, b.PB, c.B); err != nil {
			t.Fatal(err)
		}
	}

	for _, cap := range []int{1, 2, 3, 4, 5, 6, 7, 16, 100} {
		sys.LimitPairCache(cap)
		if n := sys.CacheSize(); n > cap {
			t.Fatalf("LimitPairCache(%d) left %d entries", cap, n)
		}
		for round := 0; round < 2; round++ {
			for i, c := range b.Cands {
				got, err := m.Score(b.PA, c.A, b.PB, c.B)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("cap %d round %d: capped-cache score %d differs: %v vs %v", cap, round, i, got, want[i])
				}
				if n := sys.CacheSize(); n > cap {
					t.Fatalf("cache grew to %d entries past the cap %d", n, cap)
				}
			}
		}
	}
}

// TestScoreBatchWorkersMatchesScore asserts the batched serving path is
// bit-identical to one-at-a-time scoring at any worker count.
func TestScoreBatchWorkersMatchesScore(t *testing.T) {
	const seed = 6
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	b := task.Blocks[0]
	pairs := make([][2]int, len(b.Cands))
	want := make([]float64, len(b.Cands))
	for i, c := range b.Cands {
		pairs[i] = [2]int{c.A, c.B}
		s, err := m.Score(b.PA, c.A, b.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	for _, workers := range []int{1, 4} {
		got, err := m.ScoreBatchWorkers(b.PA, b.PB, pairs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: batch score %d differs: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}
