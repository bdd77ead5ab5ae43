package obs

import (
	"fmt"
	"io"
	"sort"
)

// Imputation observability. Unlike the prescreen (where the engine
// pushes one observation per query), the imputation layer's counters
// live where the work happens — the pack-time Eqn-18 table and the
// pair-vector cache increment their own atomics on every lookup — so
// the serve side is pull-style: SetImputeSource wires a snapshot
// function (engine → ImputeHealth) that Render evaluates per scrape.
//
// The router side matches the prescreen pattern instead: it scrapes
// each shard's /healthz impute block and SetShardImpute republishes the
// snapshot as per-shard gauges.

// ImputeStats is one engine's imputation-layer health: the pack-time
// table (entries, hit/miss counters, runtime toggle) and the
// pair-vector cache (size, hit/miss counters). Mirrors
// serve.ImputeHealth field for field; obs stays import-free of serve.
type ImputeStats struct {
	Enabled         bool
	TableEntries    int
	TableHits       uint64
	TableMisses     uint64
	PairCacheSize   int
	PairCacheHits   uint64
	PairCacheMisses uint64
}

// SetImputeSource wires the snapshot function Render calls per scrape.
// Call before the process starts serving; the field is not synchronized.
func (m *Metrics) SetImputeSource(src func() ImputeStats) {
	m.imputeSource = src
}

// SetShardImpute publishes a shard's latest impute health snapshot
// (gauges — each scrape replaces the previous value).
func (m *Metrics) SetShardImpute(shard string, s ImputeStats) {
	m.shardMu.Lock()
	if m.shardImpute == nil {
		m.shardImpute = make(map[string]ImputeStats)
	}
	m.shardImpute[shard] = s
	m.shardMu.Unlock()
}

// renderImpute writes the imputation metrics; called from Render.
func (m *Metrics) renderImpute(w io.Writer) {
	if m.imputeSource != nil {
		s := m.imputeSource()
		enabled := 0
		if s.Enabled {
			enabled = 1
		}
		fmt.Fprintf(w, "# HELP hydra_impute_table_enabled Whether the pack-time Eqn-18 impute table is attached and enabled (0 = absent or disabled).\n")
		fmt.Fprintf(w, "# TYPE hydra_impute_table_enabled gauge\n")
		fmt.Fprintf(w, "hydra_impute_table_enabled %d\n", enabled)
		fmt.Fprintf(w, "# HELP hydra_impute_table_entries Precomputed candidate-pair entries in the impute table.\n")
		fmt.Fprintf(w, "# TYPE hydra_impute_table_entries gauge\n")
		fmt.Fprintf(w, "hydra_impute_table_entries %d\n", s.TableEntries)
		fmt.Fprintf(w, "# HELP hydra_impute_table_lookups_total Impute-table lookups by result; a miss falls back to the live Eqn-18 friend walk.\n")
		fmt.Fprintf(w, "# TYPE hydra_impute_table_lookups_total counter\n")
		fmt.Fprintf(w, "hydra_impute_table_lookups_total{result=\"hit\"} %d\n", s.TableHits)
		fmt.Fprintf(w, "hydra_impute_table_lookups_total{result=\"miss\"} %d\n", s.TableMisses)
		fmt.Fprintf(w, "# HELP hydra_impute_pair_cache_entries Cached raw pair vectors.\n")
		fmt.Fprintf(w, "# TYPE hydra_impute_pair_cache_entries gauge\n")
		fmt.Fprintf(w, "hydra_impute_pair_cache_entries %d\n", s.PairCacheSize)
		fmt.Fprintf(w, "# HELP hydra_impute_pair_cache_lookups_total Pair-vector cache lookups by result.\n")
		fmt.Fprintf(w, "# TYPE hydra_impute_pair_cache_lookups_total counter\n")
		fmt.Fprintf(w, "hydra_impute_pair_cache_lookups_total{result=\"hit\"} %d\n", s.PairCacheHits)
		fmt.Fprintf(w, "hydra_impute_pair_cache_lookups_total{result=\"miss\"} %d\n", s.PairCacheMisses)
	}

	m.shardMu.Lock()
	shards := make([]string, 0, len(m.shardImpute))
	for name := range m.shardImpute {
		shards = append(shards, name)
	}
	sort.Strings(shards)
	if len(shards) > 0 {
		fmt.Fprintf(w, "# HELP hydra_shard_impute Per-shard imputation health scraped from backend /healthz (table enabled/entries/hits/misses, pair-cache size/hits/misses).\n")
		fmt.Fprintf(w, "# TYPE hydra_shard_impute gauge\n")
		for _, name := range shards {
			s := m.shardImpute[name]
			enabled := 0
			if s.Enabled {
				enabled = 1
			}
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"enabled\"} %d\n", name, enabled)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"table_entries\"} %d\n", name, s.TableEntries)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"table_hits\"} %d\n", name, s.TableHits)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"table_misses\"} %d\n", name, s.TableMisses)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"pair_cache_size\"} %d\n", name, s.PairCacheSize)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"pair_cache_hits\"} %d\n", name, s.PairCacheHits)
			fmt.Fprintf(w, "hydra_shard_impute{shard=%q,stat=\"pair_cache_misses\"} %d\n", name, s.PairCacheMisses)
		}
	}
	m.shardMu.Unlock()
}
