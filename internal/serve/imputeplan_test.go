package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// referenceScore is the oracle the planned Eqn-18 walk is held to,
// written on the store's and the model's exported surface only: the
// pair imputed one at a time — every friend pair resolved whole through
// RawPair in walk order, friendsA-major, no impute table and no plan —
// and scored over the model's full candidate expansion, skipping α=0
// per call, bias first.
func referenceScore(t *testing.T, eng *Engine, pa platform.ID, a int, pb platform.ID, b int) float64 {
	t.Helper()
	st := eng.Sys.(*core.LazyStore)
	parts, err := eng.Model.Parts()
	if err != nil {
		t.Fatal(err)
	}
	pv, err := st.RawPair(pa, a, pb, b)
	if err != nil {
		t.Fatal(err)
	}
	x := append(linalg.Vector(nil), pv.X...)
	missing := false
	for _, m := range pv.Mask {
		missing = missing || !m
	}
	if parts.Cfg.Variant == core.HydraM && missing {
		k := parts.Cfg.ResolvedTopFriends()
		fa, err := st.Friends(pa, a, k)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := st.Friends(pb, b, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(fa) > 0 && len(fb) > 0 {
			sums := make([]float64, len(x))
			for _, f := range fa {
				for _, g := range fb {
					fpv, err := st.RawPair(pa, f.ID, pb, g.ID)
					if err != nil {
						t.Fatal(err)
					}
					for d, obs := range fpv.Mask {
						if obs {
							sums[d] += fpv.X[d]
						}
					}
				}
			}
			count := float64(len(fa) * len(fb))
			for d, obs := range pv.Mask {
				if !obs {
					x[d] = sums[d] / count
				}
			}
		}
	}
	kern := kernel.NewRBF(parts.KernelSigma)
	s := parts.Bias
	for j, xj := range parts.Xs {
		if parts.Alpha[j] != 0 {
			s += parts.Alpha[j] * kern.Eval(xj, x)
		}
	}
	return s
}

// coldReference is coldAnswers computed by referenceScore on eng's store
// and model: the same singles, and each listed account's candidates
// rows[i] ranked by their reference scores in the engine's (score desc,
// B asc) order.
func coldReference(t *testing.T, eng *Engine, as []int, rows [][]int, singles [][2]int) []float64 {
	t.Helper()
	var out []float64
	score := func(a, b int) float64 { return referenceScore(t, eng, platform.Twitter, a, platform.Facebook, b) }
	for i, a := range as {
		for _, b := range rows[i][:min(8, len(rows[i]))] {
			out = append(out, score(a, b))
		}
		ranked := make([]Scored, len(rows[i]))
		for j, b := range rows[i] {
			ranked[j] = Scored{B: b, Score: score(a, b)}
		}
		sort.Slice(ranked, func(x, y int) bool { return ScoredLess(ranked[x], ranked[y]) })
		for _, r := range ranked {
			out = append(out, float64(r.B), r.Score)
		}
	}
	for _, p := range singles {
		out = append(out, score(p[0], p[1]))
	}
	return out
}

// coldAnswers runs the plan's two serving paths on eng and returns every
// score in order. For each listed A account it first scores up to eight
// of its candidates (rows[i]) as /score singles — a plan of one pair,
// whose friend pairs want only that pair's missing dimensions — and then
// its whole-shard top-k, one planned batch whose friend pairs want the
// union over the row, so a friend pair the singles computed is read
// again under a wider want. Then it scores the listed extra singles.
func coldAnswers(t *testing.T, eng *Engine, as []int, rows [][]int, singles [][2]int) []float64 {
	t.Helper()
	var out []float64
	score := func(a, b int) {
		s, err := eng.Score(platform.Twitter, a, platform.Facebook, b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	for i, a := range as {
		for _, b := range rows[i][:min(8, len(rows[i]))] {
			score(a, b)
		}
		top, err := eng.TopK(platform.Twitter, a, platform.Facebook, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range top {
			out = append(out, float64(r.B), r.Score)
		}
	}
	for _, p := range singles {
		score(p[0], p[1])
	}
	return out
}

// TestColdImputePlanWorkersBitIdentical holds the planned Eqn-18 walk to
// the reference walk where it matters, on the cold tier: friend pairs a
// capped cache declines are computed over their candidates' missing
// dimensions only, yet 64 cold top-ks and the /score singles around them
// on a tile must score and rank bit for bit what referenceScore gives —
// every friend pair computed whole, one pair at a time — on an uncapped
// engine and at caps that decline almost everything (1), most things (8)
// and little (4 096), with the plan inline and fanned out.
func TestColdImputePlanWorkersBitIdentical(t *testing.T) {
	const n = 4096
	tile := coldTile(t, n, 32)
	as := coldAccounts(n, 64)
	rng := rand.New(rand.NewSource(9))
	singles := make([][2]int, 64)
	for i := range singles {
		singles[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	engine := func(workers, cacheCap int) *Engine {
		eng, err := NewEngineFromBundle(tile, workers)
		if err != nil {
			t.Fatal(err)
		}
		eng.Sys.(*core.LazyStore).LimitPairCache(cacheCap)
		return eng
	}
	ref := engine(1, 0)
	rows := make([][]int, len(as))
	for i, a := range as {
		top, err := ref.TopK(platform.Twitter, a, platform.Facebook, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range top {
			rows[i] = append(rows[i], r.B)
		}
	}
	want := coldReference(t, ref, as, rows, singles)
	same := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: value %d = %v, reference %v", name, i, got[i], want[i])
			}
		}
	}
	same("uncapped", coldAnswers(t, ref, as, rows, singles))
	if h := ref.ImputeHealth(); h.PairCacheDeclined != 0 || h.PairCacheSize == 0 {
		t.Fatalf("the uncapped engine declined %d vectors and cached %d", h.PairCacheDeclined, h.PairCacheSize)
	}
	for _, workers := range []int{1, 2} {
		for _, cacheCap := range []int{1, 8, 4096} {
			eng := engine(workers, cacheCap)
			same(fmt.Sprintf("workers %d, cap %d", workers, cacheCap), coldAnswers(t, eng, as, rows, singles))
			if h := eng.ImputeHealth(); h.PairCacheDeclined == 0 {
				t.Fatalf("workers %d, cap %d: no friend pair was declined — the partial path went untested", workers, cacheCap)
			}
		}
	}
}

// TestScoreBatchLowestErrorWorkers keeps ScoreBatchInto's error contract
// through the plan: with out-of-range pairs at indices 3 and 9 of a
// 16-pair cold batch, the error is pair 3's — what a sequential loop hits
// first — inline and fanned out.
func TestScoreBatchLowestErrorWorkers(t *testing.T) {
	const n = 4096
	tile := coldTile(t, n, 32)
	pairs := make([][2]int, 16)
	for i, a := range coldAccounts(n, 16) {
		pairs[i] = [2]int{a, (a * 7) % n}
	}
	pairs[3] = [2]int{n + 3, 0}
	pairs[9] = [2]int{0, -9}
	for _, workers := range []int{1, 2} {
		eng, err := NewEngineFromBundle(tile, workers)
		if err != nil {
			t.Fatal(err)
		}
		_, want := eng.Score(platform.Twitter, pairs[3][0], platform.Facebook, pairs[3][1])
		if want == nil || !strings.Contains(want.Error(), "out of range") {
			t.Fatalf("pair 3 alone reports %v, want an out-of-range error", want)
		}
		out := make([]float64, len(pairs))
		err = eng.Model.ScoreBatchInto(platform.Twitter, platform.Facebook, pairs, workers, out)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("workers %d: ScoreBatchInto reports %v, want pair 3's %v", workers, err, want)
		}
	}
}
