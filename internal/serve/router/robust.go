package router

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"
)

// robustCounters are the router's failure-handling telemetry, all
// monotonic and atomic — snapshot them with RobustStats for /metrics.
type robustCounters struct {
	hedgeFired     atomic.Uint64
	hedgeWon       atomic.Uint64
	hedgeCancelled atomic.Uint64
	retryExhausted atomic.Uint64 // requests that ran out of retry or deadline budget
	failFast       atomic.Uint64 // replica attempts denied by an open breaker
}

// BreakerStatus is one replica's circuit-breaker row in RobustStats.
type BreakerStatus struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Name    string `json:"name"`
	State   string `json:"state"` // closed | open | half-open
	Opens   uint64 `json:"opens"` // total times this breaker tripped
}

// RobustStats snapshots the router's failure-handling state: breaker
// states, hedge outcomes, retry-budget exhaustions and fail-fast
// denials. WriteMetrics publishes it on /metrics.
type RobustStats struct {
	Breakers       []BreakerStatus `json:"breakers"`
	HedgeFired     uint64          `json:"hedge_fired"`
	HedgeWon       uint64          `json:"hedge_won"`
	HedgeCancelled uint64          `json:"hedge_cancelled"`
	RetryExhausted uint64          `json:"retry_exhausted"`
	FailFast       uint64          `json:"fail_fast"`
}

// RobustStats snapshots breaker and hedge telemetry. Safe for
// concurrent use; the snapshot is not atomic across counters.
func (r *Router) RobustStats() RobustStats {
	st := RobustStats{
		HedgeFired:     r.robust.hedgeFired.Load(),
		HedgeWon:       r.robust.hedgeWon.Load(),
		HedgeCancelled: r.robust.hedgeCancelled.Load(),
		RetryExhausted: r.robust.retryExhausted.Load(),
		FailFast:       r.robust.failFast.Load(),
	}
	for si := range r.breakers {
		for ri := range r.breakers[si] {
			b := &r.breakers[si][ri]
			st.Breakers = append(st.Breakers, BreakerStatus{
				Shard: si, Replica: ri, Name: r.shards[si][ri].Name(),
				State: b.stateName(), Opens: b.opens.Load(),
			})
		}
	}
	return st
}

func (r *Router) breakerAllow(si, ri int) (ok, probe bool) {
	return r.breakers[si][ri].allow(time.Now().UnixNano())
}

func (r *Router) breakerFailure(si, ri int) {
	r.breakers[si][ri].failure(time.Now().UnixNano(), r.opts.breakerThreshold(), r.opts.breakerOpenFor())
}

// backoffWait sleeps the full-jitter exponential backoff before ring
// pass `pass` (≥ 1): uniform over [0, min(backoffMax, BackoffBase·2^(pass-1))].
// It returns false — without sleeping uselessly — when the wait would
// outlive the deadline budget or the context.
func (r *Router) backoffWait(ctx context.Context, pass int, budgetT time.Time, hasBudget bool) bool {
	mx := r.opts.backoffBase() << uint(pass-1)
	mx = min(mx, backoffMax)
	d := time.Duration(rand.Int63n(int64(mx) + 1))
	if hasBudget && time.Until(budgetT) <= d {
		return false
	}
	if d == 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// afterErr names the last replica failure in budget-exhaustion errors,
// or explains that nothing ever completed.
func afterErr(lastErr error) error {
	if lastErr != nil {
		return lastErr
	}
	return errors.New("no replica attempt completed")
}

// StartAutoRefresh re-probes the serving set in the background on a
// jittered interval (uniform over [interval/2, 3·interval/2]), so a
// recovered replica rejoins and a repaired topology is picked up
// without waiting for a SIGHUP — SIGHUP stays as the forced path.
// onResult, when non-nil, observes every probe's outcome. The returned
// stop function halts the loop and waits for an in-flight probe to
// finish.
func (r *Router) StartAutoRefresh(interval time.Duration, onResult func(error)) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			d := interval/2 + time.Duration(rand.Int63n(int64(interval)+1))
			t := time.NewTimer(d)
			select {
			case <-done:
				t.Stop()
				return
			case <-t.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(),
				2*r.opts.timeout()*time.Duration(len(r.shards)))
			err := r.Refresh(ctx)
			cancel()
			if onResult != nil {
				onResult(err)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
