package core

import (
	"math"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/platform"
)

// referenceScore is the scalar serving path, kept as the bit-exactness
// oracle: impute by the single-pair reference walk, then walk the FULL
// candidate expansion skipping α=0 entries per call, with no support
// compaction, batching or plan.
func referenceScore(t *testing.T, m *Model, pa platform.ID, a int, pb platform.ID, b int) float64 {
	t.Helper()
	x := mustReferenceImpute(t, m.store, pa, a, pb, b, m.cfg.Variant, m.cfg.TopFriends)
	s := m.bias
	for j, xj := range m.xs {
		if m.alpha[j] == 0 {
			continue
		}
		s += m.alpha[j] * m.kern.Eval(xj, x)
	}
	return s
}

// TestFastPathWorkersBitExact locks the serving fast path to the scalar
// reference on the full candidate surface: Score, ScoreBatchWorkers and
// ScoreBatchInto must reproduce the pre-compaction per-pair loop bit for
// bit at one and at four workers.
func TestFastPathWorkersBitExact(t *testing.T) {
	const seed = 21
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	blk := task.Blocks[0]
	pairs := make([][2]int, len(blk.Cands))
	want := make([]float64, len(blk.Cands))
	for i, c := range blk.Cands {
		pairs[i] = [2]int{c.A, c.B}
		want[i] = referenceScore(t, m, blk.PA, c.A, blk.PB, c.B)
	}
	for i, c := range blk.Cands {
		got, err := m.Score(blk.PA, c.A, blk.PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("Score(%d,%d) = %v, reference scalar path %v", c.A, c.B, got, want[i])
		}
	}
	for _, workers := range []int{1, 4} {
		got, err := m.ScoreBatchWorkers(blk.PA, blk.PB, pairs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: batch score %d = %v, reference %v", workers, i, got[i], want[i])
			}
		}
		// Run the Into form twice on the same model to exercise the
		// recycled scratch, not just fresh buffers.
		out := make([]float64, len(pairs))
		for rep := 0; rep < 2; rep++ {
			if err := m.ScoreBatchInto(blk.PA, blk.PB, pairs, workers, out); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("workers=%d rep=%d: ScoreBatchInto %d = %v, reference %v", workers, rep, i, out[i], want[i])
				}
			}
		}
	}
	if m.NumSupport() > len(pairs) {
		t.Fatalf("support set %d larger than candidate set %d", m.NumSupport(), len(pairs))
	}
}

// TestCompactionZeroedDualsBitExact zeroes a spread of dual coefficients
// in a trained model's parts, restores it (which compacts the support
// set once), and asserts the compacted model scores bit-identically to
// the reference loop that re-skips the zeros on every call.
func TestCompactionZeroedDualsBitExact(t *testing.T) {
	const seed = 22
	_, sys := buildSystem(t, 24, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := m.Parts()
	if err != nil {
		t.Fatal(err)
	}
	// Zero every third dual (first and last included) without touching
	// the trained model's slice.
	alpha := parts.Alpha.Clone()
	zeroed := 0
	for j := range alpha {
		if j%3 == 0 || j == len(alpha)-1 {
			if alpha[j] != 0 {
				zeroed++
			}
			alpha[j] = 0
		}
	}
	if zeroed == 0 {
		t.Fatal("fixture zeroed no duals; pick a different seed")
	}
	parts.Alpha = alpha
	restored, err := ModelFromParts(sys.LazyStore, parts)
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, a := range alpha {
		if a != 0 {
			nonzero++
		}
	}
	if restored.NumSupport() != nonzero {
		t.Fatalf("compacted support = %d, want %d non-zero duals", restored.NumSupport(), nonzero)
	}
	for _, c := range task.Blocks[0].Cands {
		want := referenceScore(t, restored, task.Blocks[0].PA, c.A, task.Blocks[0].PB, c.B)
		got, err := restored.Score(task.Blocks[0].PA, c.A, task.Blocks[0].PB, c.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("compacted score (%d,%d) = %v, reference %v", c.A, c.B, got, want)
		}
	}
}

// TestTrainImputeMatchesReferenceWorkers holds Train's planned batch
// imputation to the single-pair reference walk for every candidate, on
// an uncapped System store, at one and four workers, under HYDRA-M and
// HYDRA-Z. The block is extended with candidates whose A side has no
// friends at all, the "no social context" verdict: their missing
// dimensions must stay zero in both.
func TestTrainImputeMatchesReferenceWorkers(t *testing.T) {
	const seed = 20
	w, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	base := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	blk := base.Blocks[0]
	tw, _ := w.Dataset.Platform(platform.Twitter)
	iso := -1
	for a := 0; a < tw.NumAccounts() && iso < 0; a++ {
		if tw.Graph.Degree(a) == 0 {
			iso = a
		}
	}
	if iso < 0 {
		t.Fatal("fixture has no friendless twitter account; pick a different seed")
	}
	cands := append([]blocking.Candidate(nil), blk.Cands...)
	friendless := 0
	for b := 0; b < 8; b++ {
		cands = append(cands, blocking.Candidate{A: iso, B: b})
		pv, err := sys.RawPair(platform.Twitter, iso, platform.Facebook, b)
		if err != nil {
			t.Fatal(err)
		}
		if hasMissing(pv.Mask) {
			friendless++
		}
	}
	if friendless == 0 {
		t.Fatal("no friendless candidate has a missing dimension; the no-friends verdict went untested")
	}
	task := &Task{Blocks: []*Block{{PA: blk.PA, PB: blk.PB, Cands: cands, Labels: blk.Labels}}}
	for _, v := range []Variant{HydraM, HydraZ} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultConfig(seed)
			cfg.Variant, cfg.Workers = v, workers
			m, err := Train(sys, task, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.xs) != len(cands) {
				t.Fatalf("%s workers=%d: %d trained vectors for %d candidates", v, workers, len(m.xs), len(cands))
			}
			for i, c := range cands {
				want := mustReferenceImpute(t, sys.LazyStore, blk.PA, c.A, blk.PB, c.B, v, cfg.TopFriends)
				for d := range want {
					if math.Float64bits(m.xs[i][d]) != math.Float64bits(want[d]) {
						t.Fatalf("%s workers=%d: candidate %d (%d,%d) dim %d = %v, reference %v",
							v, workers, i, c.A, c.B, d, m.xs[i][d], want[d])
					}
				}
			}
		}
	}
}
