package serve

import (
	"io"

	"hydra/internal/obs"
)

// The engine's block of a /metrics page, written from the engine's own
// counters on every scrape (register it with obs.Metrics.Add). Nothing
// is wired at startup and nothing re-attached on a swap: a Swappable
// writes whatever generation is installed, and engine-owned counters
// restart with a new generation.

// newSurvivorHistogram counts the candidates rescored exactly per engaged
// two-tier top-k query — the shape tells whether ε is doing any pruning.
func newSurvivorHistogram() *obs.Histogram {
	return obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128}, 1)
}

// WritePrescreenMetrics writes the survivor histogram and the skip
// counter. The router, which prescreens nothing itself, writes the same
// two families at zero (survivors nil) ahead of its per-shard gauges.
func WritePrescreenMetrics(w io.Writer, survivors *obs.Histogram, skipped uint64) {
	if survivors == nil {
		survivors = newSurvivorHistogram()
	}
	obs.NewFamily(w, "hydra_prescreen_survivors", "histogram", "Candidates surviving the approximate prescreen into the exact rescore, per engaged top-k query.").
		Histogram(survivors)
	obs.NewFamily(w, "hydra_prescreen_skipped_total", "counter", "Top-k queries the two-tier path declined (small shard, disabled, or no prescreen in the bundle).").
		Sample(skipped)
}

// WriteMetrics writes the prescreen, imputation, mapped-residency and
// blocking fan-out families. All of it is free to snapshot: atomic loads
// and length-table sums, no section materialization.
func (e *Engine) WriteMetrics(w io.Writer) {
	WritePrescreenMetrics(w, e.survivors, e.preSkipped.Load())

	ih := e.ImputeHealth()
	obs.NewFamily(w, "hydra_impute_table_enabled", "gauge", "Whether the pack-time Eqn-18 impute table is attached and enabled (0 = absent or disabled).").
		Sample(ih.Enabled)
	obs.NewFamily(w, "hydra_impute_table_entries", "gauge", "Precomputed candidate-pair entries in the impute table.").
		Sample(ih.TableEntries)
	f := obs.NewFamily(w, "hydra_impute_table_lookups_total", "counter", "Impute-table lookups by result; a miss falls back to the live Eqn-18 friend walk.")
	f.Sample(ih.TableHits, "result", "hit")
	f.Sample(ih.TableMisses, "result", "miss")
	obs.NewFamily(w, "hydra_impute_pair_cache_entries", "gauge", "Cached raw pair vectors.").
		Sample(ih.PairCacheSize)
	f = obs.NewFamily(w, "hydra_impute_pair_cache_lookups_total", "counter", "Pair-vector cache lookups by result.")
	f.Sample(ih.PairCacheHits, "result", "hit")
	f.Sample(ih.PairCacheMisses, "result", "miss")
	obs.NewFamily(w, "hydra_impute_pair_cache_declined_total", "counter", "Pair vectors computed on a cache miss but not stored: a capped cache admits a pair on its second miss.").
		Sample(ih.PairCacheDeclined)

	if ms := e.MappedStats(); ms != nil {
		obs.NewFamily(w, "hydra_bundle_mapped", "gauge", "Whether the serving bundle is memory-mapped (0 = heap copy fallback).").
			Sample(ms.Mapped)
		obs.NewFamily(w, "hydra_bundle_bytes", "gauge", "Size of the serving bundle backing the mapped engine.").
			Sample(ms.Bytes)
		f = obs.NewFamily(w, "hydra_bundle_vec_decodes_total", "counter", "Vector decodes from the mapped bundle by mode; aliased vectors reinterpret mapped bytes zero-copy, copied ones fall back to a heap decode.")
		f.Sample(ms.AliasedVecs, "mode", "aliased")
		f.Sample(ms.CopiedVecs, "mode", "copied")
		f = obs.NewFamily(w, "hydra_bundle_resident", "gauge", "Materialized entries per lazy bundle section (the working set); total is the packed entry count.")
		f.Sample(ms.ResidentViews, "section", "views", "stat", "resident")
		f.Sample(ms.TotalViews, "section", "views", "stat", "total")
		f.Sample(ms.ResidentFriends, "section", "friends", "stat", "resident")
		f.Sample(ms.TotalFriends, "section", "friends", "stat", "total")
		f.Sample(ms.ResidentRows, "section", "index_rows", "stat", "resident")
		f.Sample(ms.TotalRows, "section", "index_rows", "stat", "total")
	}

	if pairs := e.Pairs(); len(pairs) > 0 {
		f = obs.NewFamily(w, "hydra_blocking_fanout", "gauge", "Candidate-set size distribution per indexed platform pair (rows = A-side accounts, candidates emitted per account: mean/p99/max).")
		for _, pp := range pairs {
			fan, pa, pb := e.indexes[pp].Fanout(), string(pp[0]), string(pp[1])
			f.Sample(fan.Rows, "pa", pa, "pb", pb, "stat", "rows")
			f.Sample(fan.Total, "pa", pa, "pb", pb, "stat", "candidates")
			f.Sample(fan.Mean, "pa", pa, "pb", pb, "stat", "mean")
			f.Sample(fan.P99, "pa", pa, "pb", pb, "stat", "p99")
			f.Sample(fan.Max, "pa", pa, "pb", pb, "stat", "max")
		}
	}
}

// WriteMetrics writes the block of whatever engine generation is
// installed.
func (s *Swappable) WriteMetrics(w io.Writer) {
	eng, _ := Pin(s)
	defer eng.Release()
	eng.WriteMetrics(w)
}
