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

// fingerprint hashes the key (64-bit FNV-1a over its platform ids and
// account ids) for a memo's doorkeeper. Deterministic, so which pairs a
// capped memo admits is a function of the query stream alone.
func (k pairKey) fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range [2]platform.ID{k.pa, k.pb} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	}
	for _, n := range [2]int{k.a, k.b} {
		for v, i := uint64(n), 0; i < 8; v, i = v>>8, i+1 {
			h = (h ^ v&0xff) * prime
		}
	}
	return h
}

// doorkeeper is a capped memo's admission filter: one slot per cache
// entry, direct-mapped, each holding the fingerprint of the last key
// declined there.
type doorkeeper []atomic.Uint64

// pairMemo is the mutex-guarded per-pair memo behind every cache in this
// package: the store's pair-vector cache, the prescreen's fold memo and
// the per-batch friend-pair memo. Memoized values are pure functions of
// the pair, so eviction — or declining to store a value at all — only
// ever costs a recompute; it never changes a result. The zero value is
// ready to use, unbounded, and admits every value it is offered.
type pairMemo[V any] struct {
	mu sync.Mutex
	m  map[pairKey]V
	// cap, when positive, bounds the memo (see limit).
	cap int
	// doorSlots, when positive, makes the memo admit a key only on its
	// second miss (see admit), through door: a doorkeeper of that many
	// slots, allocated by the first miss that consults it. limit sets
	// both. warming, while positive, admits every key anyway.
	doorSlots atomic.Int64
	door      atomic.Pointer[doorkeeper]
	warming   atomic.Int32
	// hits/misses count lookups since process start, declined the misses
	// whose value admit turned away — imputation and prescreen health for
	// /metrics, atomic so stats reads never take the mutex.
	hits, misses, declined atomic.Uint64
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

// stats reports the lookup and admission counters since process start.
func (c *pairMemo[V]) stats() (hits, misses, declined uint64) {
	return c.hits.Load(), c.misses.Load(), c.declined.Load()
}

// admit reports whether a value just computed for a missed key should be
// stored. Without a doorkeeper, or while warming, every key is admitted.
// Behind one a key is admitted on its second miss: the first writes its
// fingerprint to the key's slot and is declined, so a pair computed once
// and never asked for again — almost every friend pair of an Eqn-18 walk
// on a cold workload — costs no entry. A colliding key overwrites the
// slot, which only delays an admission.
func (c *pairMemo[V]) admit(key pairKey) bool {
	if c.doorSlots.Load() == 0 || c.warming.Load() > 0 {
		return true
	}
	d := c.door.Load()
	if d == nil {
		if d = c.openDoor(); d == nil {
			return true
		}
	}
	fp := key.fingerprint()
	slot := &(*d)[(fp^fp>>32)%uint64(len(*d))]
	if slot.Load() == fp {
		return true
	}
	slot.Store(fp)
	c.declined.Add(1)
	return false
}

// openDoor allocates the doorkeeper limit sized, once — so a serving
// engine whose prewarm left it nothing to miss never pays for the table
// — and returns it, nil if the memo has been uncapped since.
func (c *pairMemo[V]) openDoor() *doorkeeper {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.door.Load(); d != nil {
		return d
	}
	n := c.doorSlots.Load()
	if n == 0 {
		return nil
	}
	d := make(doorkeeper, n)
	c.door.Store(&d)
	return &d
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
// is already larger, and puts a doorkeeper of n slots in front of it
// (n ≤ 0 restores the default: unbounded, admitting on first miss).
func (c *pairMemo[V]) limit(n int) {
	c.mu.Lock()
	c.cap = n
	c.evictLocked(0)
	c.doorSlots.Store(int64(max(n, 0)))
	c.door.Store(nil)
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
