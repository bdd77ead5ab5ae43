package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prescreen observability. The serving engine reports how many
// candidates survived the approximate prescreen into the exact rescore
// (a histogram — the shape tells you whether ε is doing any pruning)
// and how often the two-tier path stepped aside entirely (tiny shards,
// a disabled prescreen, prescreen-less bundles). Metrics satisfies
// serve.PrescreenObserver structurally, so the serve package never
// imports obs.
//
// The router side is different: it doesn't run a prescreen, it scrapes
// each shard's /healthz prescreen block. SetShardPrescreen publishes
// that snapshot as per-shard gauges, so one router /metrics page shows
// pruning health across the whole fleet.

// survivorBuckets are the histogram upper bounds in candidates
// rescored per engaged top-k query.
var survivorBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128}

// ObservePrescreen records one engaged two-tier query that rescored
// the given number of surviving candidates exactly.
func (m *Metrics) ObservePrescreen(survivors int) {
	m.preQueries.Add(1)
	m.preSum.Add(uint64(survivors))
	for i, ub := range survivorBuckets {
		if survivors <= ub {
			m.preBuckets[i].Add(1)
			return
		}
	}
	// Beyond the last bound: counted only in +Inf (preQueries).
}

// ObservePrescreenSkipped records one top-k query the two-tier path
// declined (shard too small, prescreen disabled or absent).
func (m *Metrics) ObservePrescreenSkipped() {
	m.preSkipped.Add(1)
}

// ShardPrescreen is one shard's prescreen health as scraped from its
// /healthz by the router.
type ShardPrescreen struct {
	Enabled    bool
	Features   int
	Eps        float64
	Queries    uint64
	Survivors  uint64
	Pruned     uint64
	Skipped    uint64
	FoldHits   uint64
	FoldMisses uint64
}

// SetShardPrescreen publishes a shard's latest prescreen health
// snapshot (gauges — each scrape replaces the previous value).
func (m *Metrics) SetShardPrescreen(shard string, s ShardPrescreen) {
	m.shardMu.Lock()
	if m.shardPrescreen == nil {
		m.shardPrescreen = make(map[string]ShardPrescreen)
	}
	m.shardPrescreen[shard] = s
	m.shardMu.Unlock()
}

// renderPrescreen writes the prescreen metrics; called from Render.
func (m *Metrics) renderPrescreen(w io.Writer) {
	queries := m.preQueries.Load()
	fmt.Fprintf(w, "# HELP hydra_prescreen_survivors Candidates surviving the approximate prescreen into the exact rescore, per engaged top-k query.\n")
	fmt.Fprintf(w, "# TYPE hydra_prescreen_survivors histogram\n")
	var cum uint64
	for i, ub := range survivorBuckets {
		cum += m.preBuckets[i].Load()
		fmt.Fprintf(w, "hydra_prescreen_survivors_bucket{le=%q} %d\n", strconv.Itoa(ub), cum)
	}
	fmt.Fprintf(w, "hydra_prescreen_survivors_bucket{le=\"+Inf\"} %d\n", queries)
	fmt.Fprintf(w, "hydra_prescreen_survivors_sum %d\n", m.preSum.Load())
	fmt.Fprintf(w, "hydra_prescreen_survivors_count %d\n", queries)

	fmt.Fprintf(w, "# HELP hydra_prescreen_skipped_total Top-k queries the two-tier path declined (small shard, disabled, or no prescreen in the bundle).\n")
	fmt.Fprintf(w, "# TYPE hydra_prescreen_skipped_total counter\n")
	fmt.Fprintf(w, "hydra_prescreen_skipped_total %d\n", m.preSkipped.Load())

	m.shardMu.Lock()
	shards := make([]string, 0, len(m.shardPrescreen))
	for name := range m.shardPrescreen {
		shards = append(shards, name)
	}
	sort.Strings(shards)
	if len(shards) > 0 {
		fmt.Fprintf(w, "# HELP hydra_shard_prescreen Per-shard prescreen health scraped from backend /healthz (enabled flag, certified eps, query/survivor/pruned/skipped counters).\n")
		fmt.Fprintf(w, "# TYPE hydra_shard_prescreen gauge\n")
		for _, name := range shards {
			s := m.shardPrescreen[name]
			enabled := 0
			if s.Enabled {
				enabled = 1
			}
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"enabled\"} %d\n", name, enabled)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"eps\"} %g\n", name, s.Eps)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"queries\"} %d\n", name, s.Queries)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"survivors\"} %d\n", name, s.Survivors)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"pruned\"} %d\n", name, s.Pruned)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"skipped\"} %d\n", name, s.Skipped)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"fold_hits\"} %d\n", name, s.FoldHits)
			fmt.Fprintf(w, "hydra_shard_prescreen{shard=%q,stat=\"fold_misses\"} %d\n", name, s.FoldMisses)
		}
	}
	m.shardMu.Unlock()
}
