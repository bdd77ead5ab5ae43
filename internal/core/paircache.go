package core

import (
	"sync"
	"sync/atomic"

	"hydra/internal/platform"
)

type pairKey struct {
	pa, pb platform.ID
	a, b   int
}

// pairMemo is the mutex-guarded per-pair memo behind every cache in this
// package: the store's pair-vector cache, the prescreen's fold memo and
// the per-batch friend-pair memo. Memoized values are pure functions of
// the pair, so eviction only ever costs a recompute — it never changes a
// result. The zero value is ready to use and unbounded.
type pairMemo[V any] struct {
	mu sync.Mutex
	m  map[pairKey]V
	// cap, when positive, bounds the memo (see limit).
	cap int
	// hits/misses count lookups since process start — imputation and
	// prescreen health for /metrics, atomic so stats reads never take
	// the mutex.
	hits, misses atomic.Uint64
}

// lookup returns the memoized value for key, if present.
func (c *pairMemo[V]) lookup(key pairKey) (V, bool) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// stats reports the lookup counters since process start.
func (c *pairMemo[V]) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// store memoizes one computed value, evicting arbitrary entries first if
// a cap is set. When two goroutines race on a missing pair both compute
// the same deterministic value and one write wins.
func (c *pairMemo[V]) store(key pairKey, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[pairKey]V)
	}
	if _, exists := c.m[key]; !exists {
		c.evictLocked(1)
	}
	c.m[key] = v
}

// evictLocked makes room for `incoming` new entries under the cap
// (no-op when uncapped or when they fit; a cap below incoming empties the
// memo). A full memo drops arbitrary entries in a batch — at least
// incoming and at least an eighth of the cap — so a serving cache at its
// cap starts one map iteration per cap/8 inserts, not one per insert.
// This is the package's one eviction loop.
func (c *pairMemo[V]) evictLocked(incoming int) {
	if c.cap <= 0 || len(c.m)+incoming <= c.cap {
		return
	}
	keep := c.cap - max(incoming, c.cap/8)
	for k := range c.m {
		if len(c.m) <= keep {
			return
		}
		delete(c.m, k)
	}
}

// limit bounds the memo to at most n entries, trimming immediately if it
// is already larger (n ≤ 0 restores the default unbounded behavior).
func (c *pairMemo[V]) limit(n int) {
	c.mu.Lock()
	c.cap = n
	c.evictLocked(0)
	c.mu.Unlock()
}

// reset empties the memo, keeping the map's capacity — the per-batch
// memo's warm path allocates nothing.
func (c *pairMemo[V]) reset() {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[pairKey]V, 16)
	} else {
		clear(c.m)
	}
	c.mu.Unlock()
}

// size reports the number of memoized entries.
func (c *pairMemo[V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
