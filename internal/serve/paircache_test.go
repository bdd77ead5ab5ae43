package serve

import (
	"math/rand"
	"testing"

	"hydra/internal/core"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// coldTile tiles the fixture bundle to n accounts per platform with ≈ cands
// candidates per A-side account: the benchmark's cold tier in miniature,
// in memory. The tile carries no prescreen and no impute table, so every
// top-k scores its whole row and walks Eqn 18 live for each candidate
// with a missing dimension.
func coldTile(tb testing.TB, n, cands int) *pipeline.Bundle {
	tb.Helper()
	tiled, err := pipeline.TiledBundle(getEnv(tb).bundle, n, cands, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return tiled
}

// coldAccounts picks count distinct A-side accounts of an n-account tile
// in seeded random order, as the benchmark's cold traffic does.
func coldAccounts(n, count int) []int {
	return rand.New(rand.NewSource(3)).Perm(n)[:count]
}

// sweep runs one top-5 per listed A-side account.
func sweep(tb testing.TB, eng *Engine, as []int) {
	tb.Helper()
	var dst []Scored
	for _, a := range as {
		var err error
		if dst, err = eng.TopKAppend(dst[:0], platform.Twitter, a, platform.Facebook, 5); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestColdSweepLeavesPairCacheSmall is the cold tier's memory regression
// test: top-ks on distinct A accounts compute pair vectors — candidates
// and their Eqn-18 friend pairs — that almost never come back, so a
// cache that stores every vector it computes fills to its cap, while one
// that admits a pair on its second touch stays near empty.
func TestColdSweepLeavesPairCacheSmall(t *testing.T) {
	const capEntries = 4096
	eng, err := NewEngineFromBundle(coldTile(t, 4096, 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Sys.(*core.LazyStore).LimitPairCache(capEntries)
	sweep(t, eng, coldAccounts(4096, 64))
	h := eng.ImputeHealth()
	t.Logf("cache %d entries, %d hits, %d misses, %d declined", h.PairCacheSize, h.PairCacheHits, h.PairCacheMisses, h.PairCacheDeclined)
	if h.PairCacheMisses < 2*capEntries {
		t.Fatalf("the sweep computed only %d pair vectors — too few to fill a %d-entry cache", h.PairCacheMisses, capEntries)
	}
	if h.PairCacheSize > capEntries/4 {
		t.Fatalf("a cold sweep left %d cached pair vectors, want ≤ %d (a quarter of the cap)", h.PairCacheSize, capEntries/4)
	}
}

// TestPrewarmAdmitsPairs holds Prewarm to its promise under second-touch
// admission: the sweep it runs stores every vector it computes, so
// replaying that sweep afterwards is answered from the cache alone —
// hits grow by exactly the replay's lookups. The same sweep on an engine
// that was not prewarmed declines its first touches.
func TestPrewarmAdmitsPairs(t *testing.T) {
	e := getEnv(t)
	replay := func(eng *Engine) {
		t.Helper()
		for _, pp := range eng.Pairs() {
			var dst []Scored
			for a := 0; a < eng.NumAccounts(pp[0]); a++ {
				var err error
				if dst, err = eng.TopKAppend(dst[:0], pp[0], a, pp[1], 5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	warm, err := NewEngineFromBundle(e.bundle, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Prewarm(0); err != nil {
		t.Fatal(err)
	}
	before := warm.ImputeHealth()
	if before.PairCacheDeclined != 0 || before.PairCacheSize == 0 {
		t.Fatalf("prewarm declined %d vectors and cached %d", before.PairCacheDeclined, before.PairCacheSize)
	}
	replay(warm)
	after := warm.ImputeHealth()
	lookups := (after.PairCacheHits + after.PairCacheMisses) - (before.PairCacheHits + before.PairCacheMisses)
	if lookups == 0 {
		t.Fatal("the replay looked nothing up")
	}
	if hits := after.PairCacheHits - before.PairCacheHits; hits != lookups {
		t.Fatalf("replay after prewarm: %d hits of %d lookups", hits, lookups)
	}

	cold, err := NewEngineFromBundle(e.bundle, 1)
	if err != nil {
		t.Fatal(err)
	}
	replay(cold)
	if h := cold.ImputeHealth(); h.PairCacheDeclined == 0 {
		t.Fatal("the sweep without prewarm declined nothing — admission never engaged")
	}
}
