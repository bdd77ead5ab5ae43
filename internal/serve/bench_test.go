package serve

import (
	"bytes"
	"runtime"
	"testing"

	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// benchEnv reuses the test fixture; training dominates setup, so the
// benchmarks share one engine — the bundle-backed one, whose snapshot
// store serves friend lookups allocation-free (the builder-backed
// reference engine is bit-identical but ranks live-graph friends per
// miss). The pair cache is pre-warmed with a full batch so the numbers
// reflect a long-lived server's steady state.
func benchEnv(b *testing.B) (testEnv, [][2]int) {
	b.Helper()
	envOnce.Do(func() { env, envErr = buildEnv() })
	if envErr != nil {
		b.Fatal(envErr)
	}
	blk := env.task.Blocks[0]
	pairs := make([][2]int, len(blk.Cands))
	for i, c := range blk.Cands {
		pairs[i] = [2]int{c.A, c.B}
	}
	if _, err := env.beng.ScoreBatch(blk.PA, blk.PB, pairs); err != nil {
		b.Fatal(err)
	}
	return env, pairs
}

// BenchmarkServeScore measures single-pair score latency on the serving
// path (warm pair cache: batched kernel fold over the compacted support
// set). Allocs/op is the zero-alloc steady-state claim, measured.
func BenchmarkServeScore(b *testing.B) {
	e, pairs := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := e.beng.Score(platform.Twitter, p[0], platform.Facebook, p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTopK measures a top-k query: one sharded index lookup,
// a batched scoring pass over the shard, and bounded partial selection —
// through the recycled-buffer TopKAppend, so the steady state is
// allocation-free.
func BenchmarkServeTopK(b *testing.B) {
	e, pairs := benchEnv(b)
	var dst []Scored
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := pairs[i%len(pairs)][0]
		var err error
		if dst, err = e.beng.TopKAppend(dst[:0], platform.Twitter, a, platform.Facebook, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTopKImputeTableOn / ...Off price the pack-time Eqn-18
// table on the same top-k stream: identical engines from the same
// bundle, one with the table consulted and one with it switched off
// (SetImputeTableEnabled), so the delta is exactly the cost of
// re-deriving friend-pair sums live per scored pair with missing dims.
func BenchmarkServeTopKImputeTableOn(b *testing.B) {
	benchTopKImputeTable(b, true)
}

func BenchmarkServeTopKImputeTableOff(b *testing.B) {
	benchTopKImputeTable(b, false)
}

func benchTopKImputeTable(b *testing.B, on bool) {
	e, pairs := benchEnv(b)
	if e.beng.Sys.ImputeTable() == nil {
		b.Fatal("fixture bundle carries no impute table")
	}
	eng, err := NewEngineFromBundle(e.bundle, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetImputeTableEnabled(on)
	var dst []Scored
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := pairs[i%len(pairs)][0]
		if dst, err = eng.TopKAppend(dst[:0], platform.Twitter, a, platform.Facebook, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTopKColdSweep runs the cold tier in miniature: per op, a
// fresh engine over a 4 096-account tile (built outside the timer)
// answers 64 top-ks on distinct A accounts, nothing warmed. Besides the
// time it reports what the pair cache kept — cache-entries, the cached
// vector count after the last sweep, and live-heap-MB, the heap after a
// GC with that engine still live — the in-package instrument for the
// serving cache's admission rule.
func BenchmarkServeTopKColdSweep(b *testing.B) {
	tiled := coldTile(b, 4096, 32)
	as := coldAccounts(4096, 64)
	var eng *Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var err error
		if eng, err = NewEngineFromBundle(tiled, 1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sweep(b, eng, as)
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(eng.Sys.CacheSize()), "cache-entries")
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-heap-MB")
	runtime.KeepAlive(eng)
}

// BenchmarkServeBatch measures batched score throughput over the whole
// candidate set (pairs/op = len(pairs)) into a reused output slice.
func BenchmarkServeBatch(b *testing.B) {
	e, pairs := benchEnv(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.beng.Model.ScoreBatchInto(platform.Twitter, platform.Facebook, pairs, e.beng.Workers, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBundleDecodeV3 isolates the streaming decode of the v3
// wire format — what an in-memory engine pays before
// NewEngineFromBundle.
func BenchmarkServeBundleDecodeV3(b *testing.B) {
	e, _ := benchEnv(b)
	b.SetBytes(int64(len(e.bundleBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.ReadBundle(bytes.NewReader(e.bundleBytes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBundleColdStartBundle measures the in-memory startup path
// from the serialized bundle: decode the precomputed views and index
// shards and restore the snapshot store — no dataset, no retraining.
func BenchmarkBundleColdStartBundle(b *testing.B) {
	e, _ := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle, err := pipeline.ReadBundle(bytes.NewReader(e.bundleBytes))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewEngineFromBundle(bundle, 0); err != nil {
			b.Fatal(err)
		}
	}
}
