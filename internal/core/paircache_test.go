package core

import (
	"math"
	"sync"
	"testing"

	"hydra/internal/features"
	"hydra/internal/platform"
)

// samePairVector reports whether two raw pair vectors agree bit for bit.
func samePairVector(x, y features.PairVector) bool {
	if len(x.X) != len(y.X) || len(x.Mask) != len(y.Mask) {
		return false
	}
	for d := range x.X {
		if math.Float64bits(x.X[d]) != math.Float64bits(y.X[d]) || x.Mask[d] != y.Mask[d] {
			return false
		}
	}
	return true
}

// TestPairCacheAdmitsOnSecondTouch pins the capped cache's admission rule:
// a first miss is computed and declined, a second miss is stored, a third
// touch hits; an uncapped store (and one whose cap LimitPairCache(0)
// lifted) stores on first miss; and no score moves at any cap.
func TestPairCacheAdmitsOnSecondTouch(t *testing.T) {
	const seed = 6
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, seed)
	touch := func(a, b int) features.PairVector {
		t.Helper()
		pv, err := sys.RawPair(platform.Twitter, a, platform.Facebook, b)
		if err != nil {
			t.Fatal(err)
		}
		return pv
	}
	expect := func(step string, size int, hits, misses, declined uint64) {
		t.Helper()
		h, m, d := sys.PairCacheStats()
		if n := sys.CacheSize(); n != size || h != hits || m != misses || d != declined {
			t.Fatalf("%s: size %d, hits %d, misses %d, declined %d; want %d, %d, %d, %d",
				step, n, h, m, d, size, hits, misses, declined)
		}
	}

	// Uncapped (training and packing): stored on first miss.
	want := touch(0, 1)
	expect("uncapped first touch", 1, 0, 1, 0)

	sys.LimitPairCache(1 << 16)
	if sys.pairs.door.Load() != nil {
		t.Fatal("the fingerprint table was allocated before any miss needed it")
	}
	if got := touch(2, 3); !samePairVector(got, touch(2, 3)) {
		t.Fatal("a declined vector differs from its recompute")
	}
	expect("capped first and second touch", 2, 0, 3, 1)
	if d := sys.pairs.door.Load(); d == nil || len(*d) != 1<<16 {
		t.Fatal("a capped cache's miss did not allocate one fingerprint slot per entry")
	}
	touch(2, 3)
	expect("capped third touch", 2, 1, 3, 1)
	if got := touch(0, 1); !samePairVector(got, want) {
		t.Fatal("capping changed a cached vector")
	}
	expect("vector cached before the cap", 2, 2, 3, 1)

	sys.LimitPairCache(0)
	touch(4, 5)
	expect("cap lifted", 3, 2, 4, 1)
	if sys.pairs.door.Load() != nil {
		t.Fatal("LimitPairCache(0) kept the fingerprint table")
	}

	// Scores are bit-identical at every cap, through the one-pair and the
	// batched paths, on cold and warm rounds alike.
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(seed))
	m, err := Train(sys, task, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	blk := task.Blocks[0]
	pairs := make([][2]int, len(blk.Cands))
	ref := make([]float64, len(blk.Cands))
	for i, c := range blk.Cands {
		pairs[i] = [2]int{c.A, c.B}
		if ref[i], err = m.Score(blk.PA, c.A, blk.PB, c.B); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]float64, len(pairs))
	for _, cap := range []int{1, 8, 1 << 16, 0} {
		sys.LimitPairCache(cap)
		for round := 0; round < 3; round++ {
			if err := m.ScoreBatchInto(blk.PA, blk.PB, pairs, 1, out); err != nil {
				t.Fatal(err)
			}
			for i, c := range blk.Cands {
				got, err := m.Score(blk.PA, c.A, blk.PB, c.B)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(ref[i]) || math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("cap %d round %d: pair %d scores %v (one) / %v (batch), want %v", cap, round, i, got, out[i], ref[i])
				}
			}
			if n := sys.CacheSize(); cap > 0 && n > cap {
				t.Fatalf("cap %d: cache holds %d entries", cap, n)
			}
		}
	}
}

// TestPairCacheAdmissionConcurrent races four goroutines through one
// store capped far below the pairs they touch, so admissions, declines,
// fingerprint overwrites and evictions interleave; every vector must
// still equal the uncapped reference bit for bit.
func TestPairCacheAdmissionConcurrent(t *testing.T) {
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, 53)
	const n = 12
	ref := make([]features.PairVector, n*n)
	for i := range ref {
		pv, err := sys.RawPair(platform.Twitter, i/n, platform.Facebook, i%n)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = pv
	}
	sys.LimitPairCache(8) // trims the reference entries and arms the doorkeeper

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range ref {
					i := (j*(2*g+1) + round) % len(ref)
					pv, err := sys.RawPair(platform.Twitter, i/n, platform.Facebook, i%n)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !samePairVector(pv, ref[i]) {
						errs <- "a vector differs from the uncapped reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if size := sys.CacheSize(); size > 8 {
		t.Fatalf("cache holds %d entries past its cap of 8", size)
	}
	if _, _, declined := sys.PairCacheStats(); declined == 0 {
		t.Fatal("no vector was declined — the doorkeeper never engaged")
	}
}
