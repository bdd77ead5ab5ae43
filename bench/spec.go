package main

// The benchmark's schema: workloads, sizes and metric declarations.
// BENCHMARK.json at the repository root is generated from these tables
// (`-emit-spec`) and bench_test.go fails when the two drift apart, so a
// metric name means one thing in the program, the contract file and the
// README.

import (
	"encoding/json"
	"math"
	"runtime"
)

// Workload names. Later issues refer to workloads by these names.
const (
	wlTrainPack  = "train-pack"
	wlTopKWide   = "topk-wide"
	wlScorePool  = "score-pool"
	wlTopKRouter = "topk-router"
	wlTopKCold   = "topk-cold50k"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wlTrainPack, "Training side: Systemize, Block, Fit, pack with wide index, prescreen and impute table, Save, Evaluate; serve and router do nothing, so work moved to pack time shows here."},
	{wlTopKWide, "Headline query on the fast stack: mapped engine, GET /topk k=5 over a prewarmed 64-wide index with a sampled certificate; fold memo, two-tier rescore and kernel dominate."},
	{wlScorePool, "Same engine used differently: POST /score singles and 16-batches from a pre-executed pool, half table hits and half live Eqn-18 walks; no index or prescreen, JSON bodies decoded."},
	{wlTopKRouter, "Router layer: 2 shards x 2 replicas behind router.New over HTTP backends, same stream as topk-wide; scatter, per-shard JSON, merge, hedging and breakers do the extra work."},
	{wlTopKCold, "Working set far beyond every cache: 50k-account tiled bundle, mapped, no warm-up, no prescreen or table; first-touch views, pair-cache misses and live imputation dominate."},
}

// sizes are the fixed inputs of a set. Every run uses full; quick exists
// so the harness itself can be tested inside `go test` in seconds.
type sizes struct {
	Persons     int     // shared world
	IndexK      int     // Rules.TopK the bundle's index is packed with
	ColdPerPlat int     // accounts per platform of the tiled bundle
	ColdCands   int     // mean candidates per A-side account in the tile
	Pool        int     // score-pool pairs
	ColdStarts  int     // fresh children cold_start_ms is the median of
	SetUps      int     // times a serving run stands its system up; setup_s is the median
	TraceReqs   int     // traced requests on the warm workloads
	TraceCold   int     // traced requests on topk-cold50k
	Seconds     float64 // default timed window
	ReplayEvery int     // topk-cold50k: 1 in this many answers replayed on the oracle
}

var (
	fullSizes  = sizes{Persons: 130, IndexK: 64, ColdPerPlat: 25000, ColdCands: 64, Pool: 2048, ColdStarts: 15, SetUps: 3, TraceReqs: 2000, TraceCold: 200, Seconds: 10, ReplayEvery: 16}
	quickSizes = sizes{Persons: 20, IndexK: 16, ColdPerPlat: 500, ColdCands: 8, Pool: 128, ColdStarts: 1, SetUps: 2, TraceReqs: 40, TraceCold: 16, Seconds: 0.1, ReplayEvery: 4}
)

const (
	clients   = 2 // closed-loop clients, one keep-alive connection each
	topK      = 5
	batchSize = 16 // pairs in a score-pool batch request
	// worldSeed fixes the synthetic world, its labels and the model
	// trained on it, so that f1, bundle_mb and the prescreen certificate
	// are the same on every run; --seed drives what is asked of them.
	worldSeed = 1
)

// maxProcs is the GOMAXPROCS every process of a run is pinned to.
func maxProcs() int { return min(runtime.NumCPU(), 2) }

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	def    string  // what the number is; README.md carries the same text
}

// worseBy is how much worse b reads than a, as a share of a.
func (e e2eSpec) worseBy(a, b float64) float64 {
	if e.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree reports whether two sets' readings of the metric are within its
// bound of each other. Either set may be the unlucky one, so a difference
// in either direction counts. A reading of 0 was not measured and makes the
// share NaN or Inf, which is no agreement either.
func (e e2eSpec) agree(a, b float64) bool { return math.Abs(e.worseBy(a, b)) <= e.Bound }

// endToEnd is what a user of the system sees. The driver wants every
// metric from every workload, so each is defined on all five: on
// train-pack the operation the timing metrics describe is one training
// cycle, and the serving workloads report f1 and bundle_mb of the bundle
// they serve. Timing metrics are taken over the whole window.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25, "what the workload did before its timed window, training excluded: synth.Generate (median of 21 calls per cycle, then of the cycles) on train-pack; open, split or tile+save, prewarm, pool warm-up on the others, median of three set-ups"},
	{"f1", "ratio", "higher", 0.005, "pipeline.Evaluate F1 on the training task"},
	{"bundle_mb", "MB", "lower", 0.02, "size of the bundle file the workload serves"},
	{"cold_start_ms", "ms", "lower", 0.25, "bundle file -> OpenBundleMapped -> NewEngineFromMapped -> first verified top-k answer, median of 15 fresh children (page cache warm)"},
	{"throughput_rps", "1/s", "higher", 0.25, "verified-correct operations over the length of the window (cycles over the time they took on train-pack)"},
	{"p50_ms", "ms", "lower", 0.25, "median client-side latency of an operation over the window (median cycle on train-pack)"},
	{"p90_ms", "ms", "lower", 0.25, "90th-percentile latency over the window, the highest percentile every serving workload supports with ten samples beyond it (slower cycle of the two on train-pack)"},
	{"rss_peak_mb", "MB", "lower", 0.20, "VmHWM of the process that did the workload's timed work, read when the window ends (median training child on train-pack)"},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// moves names the end-to-end metric and workload the number is
	// expected to move; on workloads not named the prediction is no
	// change. A traced run reports 0 for a layer its workload never calls.
	moves string
}

var perLayer = []layerSpec{
	{"synth.generate_s", "s", "lower", "setup_s@train-pack"},

	{"features.build_view_us", "us", "lower", "p50_ms@train-pack"},
	{"features.pair_us", "us", "lower", "p50_ms@topk-cold50k, p50_ms@train-pack"},

	{"blocking.generate_s", "s", "lower", "p50_ms@train-pack"},
	{"blocking.build_index_s", "s", "lower", "p50_ms@train-pack"},
	{"blocking.candidates_ns", "ns", "lower", "p50_ms@topk-wide (warm), @topk-cold50k (lazy-mapped first touch)"},
	{"blocking.fanout_mean", "count", "lower", "p50_ms on every top-k workload"},
	{"blocking.fanout_p99", "count", "lower", "p90_ms on every top-k workload"},

	{"kernel.crossgram_ns_per_eval", "ns", "lower", "p50_ms@score-pool first, @topk-wide second"},
	{"kernel.evals_per_topk", "count", "lower", "p50_ms@topk-wide, @topk-router, @topk-cold50k (survivors x support vectors; an operation count, not a roofline)"},
	{"kernel.evals_per_score_pair", "count", "lower", "p50_ms@score-pool (= support vectors)"},

	{"core.support_vectors", "count", "lower", "every latency metric; bundle_mb"},
	{"core.build_impute_table_s", "s", "lower", "p50_ms@train-pack"},
	{"core.prescreen_eps", "ratio", "lower", "p50_ms,throughput_rps@topk-wide,@topk-router via the pruned ratio"},
	{"core.prescreen_pruned_ratio", "ratio", "higher", "p50_ms,throughput_rps@topk-wide,@topk-router; nothing @score-pool,@topk-cold50k"},
	{"core.survivors_per_topk", "count", "lower", "p50_ms@topk-wide,@topk-router"},
	{"core.fold_memo_hit_ratio", "ratio", "higher", "p50_ms@topk-wide,@topk-router"},
	{"core.prescreen_fold_ns_per_pair", "ns", "lower", "p50_ms@topk-wide,@topk-router"},
	{"core.impute_table_hit_ratio", "ratio", "higher", "p50_ms@topk-wide, table half of @score-pool"},
	{"core.impute_table_ns", "ns", "lower", "p50_ms@topk-wide, table half of @score-pool"},
	{"core.impute_live_us", "us", "lower", "p50_ms@topk-cold50k, miss half of @score-pool"},
	{"core.pair_cache_hit_ratio", "ratio", "higher", "p50_ms@topk-cold50k (near 0 there, near 1 warm)"},
	{"core.rawpair_cold_us", "us", "lower", "p50_ms@topk-cold50k, setup_s on the warm workloads"},
	{"core.rawpair_warm_ns", "ns", "lower", "p50_ms@score-pool"},
	{"core.score_batch_ns_per_pair", "ns", "lower", "p50_ms@score-pool"},
	{"core.score_batch_self_ns_per_pair", "ns", "lower", "p50_ms@score-pool (ScoreBatchInto minus impute and kernel)"},

	{"pipeline.train_s", "s", "lower", "p50_ms,throughput_rps@train-pack: one training cycle, the sum of the six stages below"},
	{"pipeline.systemize_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.block_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.fit_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.pack_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.save_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.evaluate_s", "s", "lower", "pipeline.train_s"},
	{"pipeline.open_mapped_ms", "ms", "lower", "cold_start_ms, setup_s"},
	{"pipeline.load_decoded_ms", "ms", "lower", "nothing served today (the oracle's reader); the cost ROADMAP item 2 removes"},
	{"pipeline.view_first_touch_us", "us", "lower", "p50_ms,rss_peak_mb@topk-cold50k; nothing warm"},
	{"pipeline.view_warm_ns", "ns", "lower", "p50_ms on the warm workloads"},
	{"pipeline.friends_first_touch_us", "us", "lower", "p50_ms@topk-cold50k"},
	{"pipeline.vec_aliased_ratio", "ratio", "higher", "rss_peak_mb,p50_ms@topk-cold50k"},
	{"pipeline.resident_views_ratio", "ratio", "lower", "rss_peak_mb@topk-cold50k"},
	{"pipeline.split_s", "s", "lower", "setup_s@topk-router"},
	{"pipeline.tile_s", "s", "lower", "setup_s@topk-cold50k"},
	{"pipeline.tile_save_s", "s", "lower", "setup_s@topk-cold50k"},

	{"serve.topk_engine_us", "us", "lower", "p50_ms on every top-k workload"},
	{"serve.topk_self_us", "us", "lower", "p50_ms@topk-wide (TopKAppend minus index, fold and rescore)"},
	{"serve.score_engine_us_per_pair", "us", "lower", "p50_ms@score-pool"},
	{"serve.handler_topk_us", "us", "lower", "p50_ms on every top-k workload"},
	{"serve.handler_score_us", "us", "lower", "p50_ms@score-pool"},
	{"serve.handler_topk_self_us", "us", "lower", "p50_ms@topk-router most (per-shard parse + JSON), @topk-cold50k not at all"},
	{"serve.handler_score_self_us", "us", "lower", "p50_ms@score-pool"},
	{"serve.http_rtt_self_us", "us", "lower", "p50_ms@score-pool,@topk-wide,@topk-router (net/http and loopback around the handler)"},
	{"serve.response_bytes_topk", "B", "lower", "serve.handler_topk_self_us"},
	{"serve.allocs_per_topk", "count", "lower", "p90_ms, bench.p99_ms via GC"},
	{"serve.prewarm_s", "s", "lower", "setup_s on the warm workloads"},
	{"serve.rps_1core", "1/s", "higher", "throughput_rps; base of serve.scaling_2c"},
	{"serve.scaling_2c", "ratio", "higher", "throughput_rps@topk-wide,@score-pool: the speedup at more than one core"},

	{"router.topk_local_us", "us", "lower", "p50_ms@topk-router"},
	{"router.merge_self_us", "us", "lower", "p50_ms@topk-router (Router.TopKAppend over Local backends minus the slowest shard engine)"},
	{"router.topk_http_us", "us", "lower", "p50_ms@topk-router"},
	{"router.slowest_shard_us", "us", "lower", "p50_ms@topk-router: a scatter waits for its slowest shard, so shard tail surfaces in the routed median"},
	{"router.scatter_self_us", "us", "lower", "p50_ms@topk-router (Router.TopKAppend over HTTP backends minus the slowest shard handler)"},
	{"router.handler_self_us", "us", "lower", "p50_ms@topk-router (router handler minus Router.TopKAppend)"},
	{"router.refresh_ms", "ms", "lower", "setup_s@topk-router"},
	{"router.hedge_fired_ratio", "ratio", "lower", "p90_ms,bench.p99_ms,throughput_rps@topk-router"},
	{"router.hedge_won_ratio", "ratio", "higher", "p90_ms,bench.p99_ms@topk-router"},
	{"router.retry_exhausted", "count", "lower", "failed@topk-router"},
	{"router.breaker_opens", "count", "lower", "failed@topk-router"},
	{"router.degraded_ratio", "ratio", "lower", "failed@topk-router"},

	{"runtime.gc_pause_total_ms", "ms", "lower", "p90_ms, bench.p99_ms everywhere"},
	{"runtime.gc_cycles", "count", "lower", "p90_ms, bench.p99_ms everywhere"},
	{"runtime.heap_alloc_mb", "MB", "lower", "rss_peak_mb"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "throughput_rps"},

	{"bench.client_overhead_us", "us", "lower", "floor of p50_ms: the generator against a no-op handler"},
	{"bench.tracing_overhead_ratio", "ratio", "lower", "traced p50 over untraced p50, one client each"},
	{"bench.layer_coverage_ratio", "ratio", "higher", "sum of layer self times over the traced p50; ROADMAP wants 0.9, reported and not gated"},
	{"bench.samples", "count", "higher", "operations behind the traced numbers"},
	{"bench.p99_ms", "ms", "lower", "nothing gated: the 99th percentile of the traced run's short two-client window, where ten samples lie beyond it; too unsteady on this sandbox for an end-to-end bound"},
}

// benchmarkJSON renders the contract file from the tables above.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2eSpec      `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: int(fullSizes.Seconds),
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers cannot fail to marshal
	}
	return append(out, '\n')
}
