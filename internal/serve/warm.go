package serve

import (
	"fmt"
)

// Prewarm runs one discarded top-k per indexed A-side account, before
// the engine is published: it populates the pair cache and the
// certified prescreen's fold memo, materializes a mapped bundle's hot
// sections, and primes the scratch pool — so the first real queries
// after a hot swap don't pay the cold-cache tail (PR 6 measured the
// swap pause p99 at 11.5 ms, almost all of it post-swap cache warmup).
// The pair cache stores every vector the sweep computes on its first
// miss (core.LazyStore.WarmPairCache), where served queries admit a pair
// only on its second: a pair prewarmed once is already warm. Queries are
// pure, so prewarming cannot change a single served bit; it only moves
// the warmup cost from the first unlucky clients to the swap path
// itself, where it overlaps with the old generation still serving.
//
// limit caps how many A-side accounts are warmed per platform pair
// (spread from account 0 upward; ≤ 0 warms every account). Capping
// matters for out-of-RAM mapped engines, where full prewarming would
// read in the entire working set that lazy opening exists to avoid —
// and a mapped bundle keeps only a bounded set of decoded views, and the
// pair cache only DefaultPairCacheEntries vectors, so prewarming more
// accounts than those hold leaves just the last ones warm.
func (e *Engine) Prewarm(limit int) error {
	return e.Sys.WarmPairCache(func() error { return e.prewarm(limit) })
}

// prewarm is Prewarm's sweep.
func (e *Engine) prewarm(limit int) error {
	var dst []Scored
	for _, pp := range e.Pairs() {
		pa, pb := pp[0], pp[1]
		n := e.NumAccounts(pa)
		if n < 0 {
			continue
		}
		if limit > 0 && n > limit {
			n = limit
		}
		for a := 0; a < n; a++ {
			var err error
			dst, err = e.TopKAppend(dst[:0], pa, a, pb, 5)
			if err != nil {
				return fmt.Errorf("serve: prewarm %s/%d->%s: %w", pa, a, pb, err)
			}
		}
	}
	return nil
}
