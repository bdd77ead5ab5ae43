package router

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/serve"
)

// Tied hedged requests for the top-k scatter: when a replica has not
// answered after the hedge delay, the same query is fired at a backup
// replica and the first success wins — the loser's context is cancelled
// and its outcome is abandoned so it cannot poison the winner's breaker
// bookkeeping. Every top-k attempt runs this way, whatever the backend.

// latWindow is a shard's ring of recent successful top-k attempt
// latencies; its p99 drives the adaptive hedge delay ("hedge only when
// this attempt is already slower than almost everything we've seen").
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

// p99 returns the window's 99th-percentile latency, or 0 while fewer
// than 8 samples exist (not enough signal to hedge on).
func (w *latWindow) p99() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 8 {
		return 0
	}
	var tmp [64]time.Duration
	copy(tmp[:w.n], w.buf[:w.n])
	s := tmp[:w.n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (w.n * 99) / 100
	if idx >= w.n {
		idx = w.n - 1
	}
	return s[idx]
}

// hedgeDelay is how long a shard's top-k attempt may run before the
// backup fires: a fixed Options.HedgeAfter when set, otherwise the
// shard's observed p99 clamped to [hedgeMin, timeout/2], falling back
// to timeout/4 before enough samples exist.
func (r *Router) hedgeDelay(si int) time.Duration {
	if d := r.opts.HedgeAfter; d > 0 {
		return d
	}
	d := r.lats[si].p99()
	if d <= 0 {
		return r.opts.timeout() / 4
	}
	return min(max(d, hedgeMin), r.opts.timeout()/2)
}

// hedgeFlight is one in-flight timed call's handle: its cancel and the
// abandoned flag the winner sets (before cancelling) so the loser skips
// breaker bookkeeping for a cancellation it did not earn.
type hedgeFlight struct {
	cancel func()
	ab     *atomic.Bool
}

// timedTopK runs one top-k attempt against reps[idx] with the
// per-attempt timeout (capped by the deadline budget), hedging to the
// next breaker-closed replica after the hedge delay. It owns breaker
// and latency bookkeeping for the calls it fires, counts each in the
// walk's attempts, and on success stores the winner's answer in
// j.res/j.gen and returns the winning replica index. The returned error
// is already wrapped with the replica name (unless it is a query error,
// which propagates untouched).
func (r *Router) timedTopK(j *topkJob, idx int, w *walk) (int, error) {
	// Copies, not w: the flights below can outlive this call.
	reps, budgetT, hasBudget := w.reps, w.budgetT, w.hasBudget
	type outcome struct {
		idx int
		res []serve.Scored
		gen uint64
		err error
	}
	ch := make(chan outcome, 2)
	launch := func(i int) hedgeFlight {
		cctx, cancel := r.attemptCtx(j.ctx, budgetT, hasBudget)
		ab := &atomic.Bool{}
		// A flight reads only j's query fields, which nothing writes once
		// the fan-out has built the job.
		go func() {
			defer cancel()
			t0 := time.Now()
			res, gen, err := reps[i].TopK(cctx, j.pa, j.a, j.pb, j.k)
			dur := time.Since(t0)
			if ab.Load() {
				return // abandoned: the winner already answered and cancelled us
			}
			switch {
			case err == nil:
				r.breakers[j.si][i].success()
				r.lats[j.si].record(dur)
			case IsQueryError(err):
				r.breakers[j.si][i].success() // the replica answered; the query is at fault
			default:
				r.breakerFailure(j.si, i)
			}
			ch <- outcome{idx: i, res: res, gen: gen, err: err}
		}()
		return hedgeFlight{cancel: cancel, ab: ab}
	}

	w.attempts++
	prim := launch(idx)
	var back hedgeFlight
	defer func() {
		prim.cancel()
		if back.cancel != nil {
			back.cancel()
		}
	}()

	// A hedge needs a distinct breaker-closed backup, retry-budget
	// headroom, and hedging enabled.
	backup := -1
	if r.opts.HedgeAfter >= 0 && len(reps) > 1 && w.attempts < w.maxAttempts {
		for o := 1; o < len(reps); o++ {
			c := (idx + o) % len(reps)
			if r.breakers[j.si][c].closedNow() {
				backup = c
				break
			}
		}
	}
	var hedgeC <-chan time.Time
	if backup >= 0 {
		t := time.NewTimer(r.hedgeDelay(j.si))
		defer t.Stop()
		hedgeC = t.C
	}

	hedged := false
	inFlight := 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			r.robust.hedgeFired.Add(1)
			w.attempts++
			back = launch(backup)
			inFlight++
		case oc := <-ch:
			inFlight--
			loser := prim
			if oc.idx == idx {
				loser = back
			}
			if oc.err == nil {
				j.res, j.gen = oc.res, oc.gen
				if hedged {
					if oc.idx == backup {
						r.robust.hedgeWon.Add(1)
					}
					if inFlight > 0 {
						loser.ab.Store(true)
						loser.cancel()
						r.robust.hedgeCancelled.Add(1)
					}
				}
				return oc.idx, nil
			}
			if IsQueryError(oc.err) {
				if inFlight > 0 {
					loser.ab.Store(true)
					loser.cancel()
				}
				return oc.idx, oc.err
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", reps[oc.idx].Name(), oc.err)
			}
			if inFlight == 0 {
				return -1, firstErr
			}
			hedgeC = nil // the pair is down to one flight; no further hedging
		case <-j.ctx.Done():
			return -1, fmt.Errorf("router: shard %d: %w", j.si, j.ctx.Err())
		}
	}
}
