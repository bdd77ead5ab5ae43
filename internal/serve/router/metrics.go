package router

import (
	"io"
	"strconv"

	"hydra/internal/obs"
	"hydra/internal/serve"
)

// WriteMetrics writes the router's block of a /metrics page (register it
// with obs.Metrics.Add): each shard's prescreen and imputation health as
// of its last successful probe — gauges, every probe replaces the
// previous value, so one page shows pruning and imputation health
// fleet-wide — then the breaker states, hedge outcomes and retry-budget
// exhaustions, snapshotted per scrape.
func (r *Router) WriteMetrics(w io.Writer) {
	r.mu.RLock()
	health := append([]Health(nil), r.health...)
	r.mu.RUnlock()

	serve.WritePrescreenMetrics(w, nil, 0)
	f := obs.NewFamily(w, "hydra_shard_prescreen", "gauge", "Per-shard prescreen health scraped from backend /healthz (enabled flag, certified eps, query/survivor/pruned/skipped counters).")
	for si, h := range health {
		shard, p := strconv.Itoa(si), h.Prescreen
		if p == nil {
			p = &serve.PrescreenHealth{} // a prescreen-less shard reads all zero
		}
		f.Sample(p.Enabled, "shard", shard, "stat", "enabled")
		f.Sample(p.Eps, "shard", shard, "stat", "eps")
		f.Sample(p.Queries, "shard", shard, "stat", "queries")
		f.Sample(p.Survivors, "shard", shard, "stat", "survivors")
		f.Sample(p.Pruned, "shard", shard, "stat", "pruned")
		f.Sample(p.Skipped, "shard", shard, "stat", "skipped")
		f.Sample(p.FoldHits, "shard", shard, "stat", "fold_hits")
		f.Sample(p.FoldMisses, "shard", shard, "stat", "fold_misses")
	}
	f = obs.NewFamily(w, "hydra_shard_impute", "gauge", "Per-shard imputation health scraped from backend /healthz (table enabled/entries/hits/misses, pair-cache size/hits/misses).")
	for si, h := range health {
		shard, m := strconv.Itoa(si), h.Impute
		if m == nil {
			m = &serve.ImputeHealth{}
		}
		f.Sample(m.Enabled, "shard", shard, "stat", "enabled")
		f.Sample(m.TableEntries, "shard", shard, "stat", "table_entries")
		f.Sample(m.TableHits, "shard", shard, "stat", "table_hits")
		f.Sample(m.TableMisses, "shard", shard, "stat", "table_misses")
		f.Sample(m.PairCacheSize, "shard", shard, "stat", "pair_cache_size")
		f.Sample(m.PairCacheHits, "shard", shard, "stat", "pair_cache_hits")
		f.Sample(m.PairCacheMisses, "shard", shard, "stat", "pair_cache_misses")
	}

	st := r.RobustStats()
	f = obs.NewFamily(w, "hydra_breaker_state", "gauge", "Circuit breaker state per shard replica (0=closed, 1=open, 2=half-open).")
	stateValue := map[string]int{"closed": 0, "open": 1, "half-open": 2}
	for _, b := range st.Breakers {
		f.Sample(stateValue[b.State], breakerLabels(b)...)
	}
	f = obs.NewFamily(w, "hydra_breaker_opens_total", "counter", "Times each replica's circuit breaker tripped open.")
	for _, b := range st.Breakers {
		f.Sample(b.Opens, breakerLabels(b)...)
	}
	f = obs.NewFamily(w, "hydra_hedge_total", "counter", "Hedged top-k requests by outcome.")
	f.Sample(st.HedgeFired, "outcome", "fired")
	f.Sample(st.HedgeWon, "outcome", "won")
	f.Sample(st.HedgeCancelled, "outcome", "cancelled")
	obs.NewFamily(w, "hydra_retry_budget_exhausted_total", "counter", "Shard calls that ran out of retry or deadline budget.").
		Sample(st.RetryExhausted)
	obs.NewFamily(w, "hydra_breaker_failfast_total", "counter", "Replica attempts denied by an open circuit breaker.").
		Sample(st.FailFast)
}

func breakerLabels(b BreakerStatus) []string {
	return []string{"shard", strconv.Itoa(b.Shard), "replica", strconv.Itoa(b.Replica), "name", b.Name}
}
