package serve

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// coldAnswers runs the plan's two serving paths on eng and returns every
// score in order. For each listed A account it first scores up to eight
// of its candidates (rows[i]) as /score singles — the single-pair walk,
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
// the full one where it matters, on the cold tier: friend pairs a capped
// cache declines are computed over their candidates' missing dimensions
// only, yet 64 cold top-ks and the /score singles around them on a tile
// must score bit for bit what an uncapped engine — every friend pair
// computed whole and cached — scores, at caps that decline almost
// everything (1), most things (8) and little (4 096), with the plan
// inline and fanned out.
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
	want := coldAnswers(t, ref, as, rows, singles)
	if h := ref.ImputeHealth(); h.PairCacheDeclined != 0 || h.PairCacheSize == 0 {
		t.Fatalf("the uncapped reference declined %d vectors and cached %d", h.PairCacheDeclined, h.PairCacheSize)
	}
	for _, workers := range []int{1, 2} {
		for _, cacheCap := range []int{1, 8, 4096} {
			eng := engine(workers, cacheCap)
			got := coldAnswers(t, eng, as, rows, singles)
			if len(got) != len(want) {
				t.Fatalf("workers %d, cap %d: %d values, reference %d", workers, cacheCap, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers %d, cap %d: value %d = %v, uncapped reference %v", workers, cacheCap, i, got[i], want[i])
				}
			}
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
