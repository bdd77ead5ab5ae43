package core

import (
	"math"
	"reflect"
	"testing"

	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// trainedParts trains a small model through the real pipeline and
// returns its serialized parts — the input BuildPrescreen sees at pack
// time.
func trainedParts(t testing.TB) (*System, *Task, ModelParts) {
	t.Helper()
	const seed = 2
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := m.Parts()
	if err != nil {
		t.Fatal(err)
	}
	return sys, task, parts
}

// blockRows imputes every candidate pair of the task's first block —
// the shape of a packed index's rows, the set a pack certifies over.
func blockRows(tb testing.TB, sys *System, task *Task, parts ModelParts) []linalg.Vector {
	tb.Helper()
	m, err := ModelFromParts(sys.LazyStore, parts)
	if err != nil {
		tb.Fatal(err)
	}
	b := task.Blocks[0]
	pairs := make([][2]int, len(b.Cands))
	for i, c := range b.Cands {
		pairs[i] = [2]int{c.A, c.B}
	}
	rows, err := m.ImputedPairRows(b.PA, b.PB, pairs, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// TestBuildPrescreenDeterministicAndCertified asserts the build is a
// pure function of its inputs (two builds are deep-equal, so packed
// bundles stay byte-reproducible), that the certified margin bounds the
// prescreen error on every certified pair, and that EpsRaw is exactly
// the largest of those errors: safety 1, nothing sampled.
func TestBuildPrescreenDeterministicAndCertified(t *testing.T) {
	sys, task, parts := trainedParts(t)
	qs := blockRows(t, sys, task, parts)
	ps, err := BuildPrescreen(parts, PrescreenOpts{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := BuildPrescreen(parts, PrescreenOpts{Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, ps2) {
		t.Fatal("two builds from the same parts differ")
	}
	if ps.Safety != 1 || ps.Eps != math.Nextafter(ps.EpsRaw, math.Inf(1)) {
		t.Fatalf("margin ε=%g (raw %g, safety %g) is not the measured maximum one ulp up", ps.Eps, ps.EpsRaw, ps.Safety)
	}
	state := newPrescreenState(ps)
	sigma2 := 2 * parts.KernelSigma * parts.KernelSigma
	worst := 0.0
	for _, x := range qs {
		exact := parts.Bias
		for j, a := range parts.Alpha {
			if a == 0 {
				continue
			}
			exact += a * math.Exp(-linalg.SqDist(parts.Xs[j], x)/sigma2)
		}
		worst = max(worst, math.Abs(exact-state.score(x, parts.Bias)))
	}
	if worst != ps.EpsRaw {
		t.Fatalf("largest certified-pair error %g, measured EpsRaw %g", worst, ps.EpsRaw)
	}
}

// TestBuildPrescreenRefusesEmptyCertificationSet asserts a build with no
// pairs to certify fails instead of recording a margin that bounds
// nothing.
func TestBuildPrescreenRefusesEmptyCertificationSet(t *testing.T) {
	_, _, parts := trainedParts(t)
	if _, err := BuildPrescreen(parts, PrescreenOpts{}); err == nil {
		t.Fatal("expected an error for an empty certification set")
	}
}

// prescreenQuerySample imputes about n pairs strided over the
// twitter × facebook cross product: a certification set of any chosen
// size.
func prescreenQuerySample(tb testing.TB, sys *System, parts ModelParts, n int) []linalg.Vector {
	tb.Helper()
	m, err := ModelFromParts(sys.LazyStore, parts)
	if err != nil {
		tb.Fatal(err)
	}
	na, nb := sys.NumAccounts(platform.Twitter), sys.NumAccounts(platform.Facebook)
	step := max(1, na*nb/n)
	var pairs [][2]int
	for idx := 0; idx < na*nb; idx += step {
		pairs = append(pairs, [2]int{idx / nb, idx % nb})
	}
	rows, err := m.ImputedPairRows(platform.Twitter, platform.Facebook, pairs, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return rows
}

// TestBuildPrescreenWorkersBitIdentical asserts the fanned-out build —
// per-point loops on the pool, the Gram triangle in row bands — yields
// the same parts, bit for bit, at 1, 2 and 4 workers (run under -race
// by `make race`).
func TestBuildPrescreenWorkersBitIdentical(t *testing.T) {
	sys, _, parts := trainedParts(t)
	qs := prescreenQuerySample(t, sys, parts, 1000)
	var want *PrescreenParts
	for _, workers := range []int{1, 2, 4} {
		ps, err := BuildPrescreen(parts, PrescreenOpts{Queries: qs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = ps
			continue
		}
		if !reflect.DeepEqual(ps, want) || math.Float64bits(ps.EpsRaw) != math.Float64bits(want.EpsRaw) {
			t.Fatalf("workers=%d: prescreen parts differ from workers=1 (ε %v vs %v)", workers, ps.EpsRaw, want.EpsRaw)
		}
		for j := range want.V {
			if math.Float64bits(ps.V[j]) != math.Float64bits(want.V[j]) {
				t.Fatalf("workers=%d: fitted weight %d is %v, want %v", workers, j, ps.V[j], want.V[j])
			}
		}
	}
}

// TestTriangleBands asserts the Gram bands tile the rows in order and
// split the triangle's cells about evenly.
func TestTriangleBands(t *testing.T) {
	for _, c := range []struct{ m, parts int }{{64, 1}, {64, 2}, {64, 4}, {3, 8}, {1, 2}, {0, 4}} {
		b := triangleBands(c.m, c.parts)
		if b[0] != 0 || b[len(b)-1] != c.m || len(b)-1 > c.parts {
			t.Fatalf("triangleBands(%d, %d) = %v", c.m, c.parts, b)
		}
		area := func(k int) int { return b[k+1]*(b[k+1]+1)/2 - b[k]*(b[k]+1)/2 }
		for k := 0; k+1 < len(b); k++ {
			if b[k+1] <= b[k] {
				t.Fatalf("triangleBands(%d, %d) = %v: empty or reversed band", c.m, c.parts, b)
			}
			if c.m >= 16*c.parts && math.Abs(float64(area(k))-float64(c.m*(c.m+1)/2)/float64(c.parts)) > float64(c.m) {
				t.Fatalf("triangleBands(%d, %d) = %v: band %d holds %d cells", c.m, c.parts, b, k, area(k))
			}
		}
	}
}

// BenchmarkBuildPrescreen times the pack-time prescreen build over a
// trained model's parts plus a fixed 4 096-pair certification set.
func BenchmarkBuildPrescreen(b *testing.B) {
	sys, _, parts := trainedParts(b)
	qs := prescreenQuerySample(b, sys, parts, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPrescreen(parts, PrescreenOpts{Queries: qs}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildPrescreenRejectsNonRBF asserts non-RBF models serve
// exact-only rather than getting an uncertifiable prescreen.
func TestBuildPrescreenRejectsNonRBF(t *testing.T) {
	sys, task, parts := trainedParts(t)
	qs := blockRows(t, sys, task, parts)
	bad := parts
	bad.KernelKind = "linear"
	bad.KernelSigma = 0
	if _, err := BuildPrescreen(bad, PrescreenOpts{Queries: qs}); err == nil {
		t.Fatal("expected error for a linear-kernel model")
	}
}

// TestPrescreenPartsValidate asserts tampered parts are rejected before
// they can mis-prune.
func TestPrescreenPartsValidate(t *testing.T) {
	sys, task, parts := trainedParts(t)
	ps, err := BuildPrescreen(parts, PrescreenOpts{Queries: blockRows(t, sys, task, parts)})
	if err != nil {
		t.Fatal(err)
	}
	bad := *ps
	bad.Eps = bad.EpsRaw / 2
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for ε below the measured error")
	}
	bad = *ps
	bad.C = bad.C[:len(bad.C)-1]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for truncated centers")
	}
	bad = *ps
	bad.Sigma = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for a zeroed reduced-set bandwidth")
	}
	bad = *ps
	bad.V = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for a missing fitted vector")
	}
}

// TestPrescreenBatchIntoMatchesState asserts the batched prescreen path
// equals the scalar fold on the imputed vectors, at 1 and 4 workers —
// the determinism the two-tier rescore order relies on — that the
// memoized fold returns the same bits cold, warm and with a memo so
// small it evicts inside one batch, and that the margin holds on the
// pairs it was certified over, not just training candidates.
func TestPrescreenBatchIntoMatchesState(t *testing.T) {
	sys, task, parts := trainedParts(t)
	ps, err := BuildPrescreen(parts, PrescreenOpts{Queries: blockRows(t, sys, task, parts)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFromParts(sys.LazyStore, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPrescreen(ps); err != nil {
		t.Fatal(err)
	}
	if !m.HasPrescreen() || m.PrescreenEps() != ps.Eps {
		t.Fatal("prescreen not attached")
	}
	b := task.Blocks[0]
	pairs := make([][2]int, len(b.Cands))
	for i, c := range b.Cands {
		pairs[i] = [2]int{c.A, c.B}
	}
	var want []float64
	for _, workers := range []int{1, 4} {
		got := make([]float64, len(pairs))
		if err := m.PrescreenBatchInto(b.PA, b.PB, pairs, workers, got); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=4: prescreen score %d differs: %v vs %v", i, got[i], want[i])
			}
		}
	}
	fc := &m.pre.cache
	for _, workers := range []int{1, 4} {
		// The evicting state memoizes the first half, then lowers the cap
		// below it: the batch reads those hits, and storing its misses
		// evicts them.
		half := len(pairs) / 2
		for _, state := range []struct {
			name    string
			reset   bool
			prefill int
			cap     int
		}{
			{"cold", true, 0, foldCacheEntries},
			{"warm", false, 0, foldCacheEntries},
			{"evicting", true, half, 5},
		} {
			if state.reset {
				fc.m = nil
			}
			fc.cap = foldCacheEntries
			if err := m.PrescreenMemoInto(b.PA, b.PB, pairs[:state.prefill], workers, make([]float64, state.prefill)); err != nil {
				t.Fatal(err)
			}
			fc.cap = state.cap
			h0, m0, _ := fc.stats()
			got := make([]float64, len(pairs))
			if err := m.PrescreenMemoInto(b.PA, b.PB, pairs, workers, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %s memo: prescreen score %d differs: %v vs %v", workers, state.name, i, got[i], want[i])
				}
			}
			h1, m1, _ := fc.stats()
			if hits, misses := h1-h0, m1-m0; hits+misses != uint64(len(pairs)) {
				t.Fatalf("workers=%d %s memo: %d hits + %d misses for %d lookups", workers, state.name, hits, misses, len(pairs))
			} else if state.name == "warm" && misses != 0 {
				t.Fatalf("workers=%d warm memo missed %d of %d pairs", workers, misses, len(pairs))
			} else if state.reset && hits != uint64(state.prefill) {
				t.Fatalf("workers=%d %s memo hit %d of %d pairs, want %d", workers, state.name, hits, len(pairs), state.prefill)
			}
			if n := fc.size(); state.cap < half && n != len(pairs)-half {
				t.Fatalf("workers=%d %s memo holds %d entries, want only the batch's %d misses", workers, state.name, n, len(pairs)-half)
			}
		}
	}
	exact, err := m.ScoreBatchWorkers(b.PA, b.PB, pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if gap := math.Abs(exact[i] - want[i]); gap > ps.Eps {
			t.Fatalf("pair %d: |f − f̃| = %g exceeds the certified ε = %g", i, gap, ps.Eps)
		}
	}
}

// TestSetPrescreenRejectsNarrowProjection asserts a projection narrower
// than the model's feature space is refused — it would silently ignore
// trailing features and void the certified margin.
func TestSetPrescreenRejectsNarrowProjection(t *testing.T) {
	sys, task, parts := trainedParts(t)
	ps, err := BuildPrescreen(parts, PrescreenOpts{Queries: blockRows(t, sys, task, parts)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelFromParts(sys.LazyStore, parts)
	if err != nil {
		t.Fatal(err)
	}
	narrow := *ps
	narrow.Dim = ps.Dim - 1
	narrow.C = ps.C[:narrow.Features*narrow.Dim]
	if err := m.SetPrescreen(&narrow); err == nil {
		t.Fatal("expected error for a projection narrower than the feature space")
	}
	if m.HasPrescreen() {
		t.Fatal("failed SetPrescreen must not attach")
	}
}
