package router

import (
	"sync"
	"time"
)

// Tied hedged requests for the top-k scatter: when a replica has not
// answered after the hedge delay, the same query is flown at a backup
// replica and the first success wins — the loser's context is cancelled
// and its outcome is abandoned so it cannot poison the winner's breaker
// bookkeeping (see attempt). Every top-k attempt runs this way, whatever
// the backend; probes and score batches never hedge.

// latWindow is a shard's ring of recent successful top-k attempt
// latencies; its slowest entry drives the adaptive hedge delay ("hedge
// only when this attempt is already slower than everything we've seen
// lately").
type latWindow struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // filled entries (≤ len(buf))
	next int
}

func (w *latWindow) record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// slowest returns the window's largest latency, or 0 while fewer than
// 8 samples exist (not enough signal to hedge on).
func (w *latWindow) slowest() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 8 {
		return 0
	}
	var m time.Duration
	for _, d := range w.buf[:w.n] {
		m = max(m, d)
	}
	return m
}

// hedgeDelay is how long a shard's top-k attempt may run before the
// backup flies: a fixed Options.HedgeAfter when set, otherwise the
// slowest latency in the shard's window clamped to [hedgeMin,
// timeout/2], falling back to timeout/4 before enough samples exist.
func (r *Router) hedgeDelay(si int) time.Duration {
	if d := r.opts.HedgeAfter; d > 0 {
		return d
	}
	d := r.lats[si].slowest()
	if d <= 0 {
		return r.opts.timeout() / 4
	}
	return min(max(d, hedgeMin), r.opts.timeout()/2)
}

// backup picks the replica a hedge of the attempt at idx flies to: the
// next breaker-closed replica in ring order, or -1 when hedging is
// disabled, the retry budget has no headroom left, or the primary is not
// closed — it holds its breaker's half-open probe slot, and abandoning
// that probe unanswered to a faster backup would leave the replica
// half-open for good.
func (w *walk) backup(idx int) int {
	bks := w.r.breakers[w.si]
	if w.r.opts.HedgeAfter < 0 || w.attempts >= w.maxAttempts || !bks[idx].closedNow() {
		return -1
	}
	for o := 1; o < len(w.reps); o++ {
		if c := (idx + o) % len(w.reps); bks[c].closedNow() {
			return c
		}
	}
	return -1
}
