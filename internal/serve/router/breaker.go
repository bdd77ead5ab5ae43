package router

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// breaker is one replica's circuit breaker. The classic three-state
// machine, all-atomic so the scatter pays one atomic load per replica
// check and never takes a lock:
//
//   - closed: calls flow; BreakerThreshold consecutive failures trip it
//     open.
//   - open: calls are denied (fail-fast, no timeout paid) until the open
//     window elapses. The window doubles on consecutive trips (capped)
//     and carries full jitter so a fleet of routers doesn't re-probe a
//     recovering replica in lockstep.
//   - half-open: exactly one probe call is admitted (the CAS in allow
//     wins it). Success closes the breaker; failure re-opens it with a
//     longer window; a probe its caller abandoned hands the slot back
//     (release).
//
// Races between concurrent successes/failures are benign: the worst
// outcome is an extra probe or an open window computed from a slightly
// stale streak, never a wedged state — success always fully resets.
type breaker struct {
	state     atomic.Int32 // bkClosed | bkOpen | bkHalfOpen
	fails     atomic.Int32 // consecutive failures while closed
	streak    atomic.Int32 // consecutive trips (exponential open window)
	openUntil atomic.Int64 // unix nanos the open window ends at
	opens     atomic.Uint64
}

const (
	bkClosed int32 = iota
	bkOpen
	bkHalfOpen
)

// allow reports whether a call may proceed now, and whether that call
// claimed the half-open probe slot. The caller that claims it MUST report
// success or failure, or release the slot, or the breaker stays
// half-open for good.
func (b *breaker) allow(now int64) (ok, probe bool) {
	switch b.state.Load() {
	case bkClosed:
		return true, false
	case bkOpen:
		probe = now >= b.openUntil.Load() && b.state.CompareAndSwap(bkOpen, bkHalfOpen)
		return probe, probe
	default: // half-open: the probe slot is taken
		return false, false
	}
}

// release hands back a claimed probe slot whose call proved nothing
// about the replica: the breaker returns to open with its window
// unchanged (already elapsed), so the next call probes at once.
func (b *breaker) release() { b.state.CompareAndSwap(bkHalfOpen, bkOpen) }

// closedNow is a read-only peek used when choosing hedge backups: a
// half-open probe or an open replica is not a good place to send a
// latency-motivated duplicate.
func (b *breaker) closedNow() bool { return b.state.Load() == bkClosed }

func (b *breaker) success() {
	b.state.Store(bkClosed)
	b.fails.Store(0)
	b.streak.Store(0)
}

func (b *breaker) failure(now int64, threshold int32, openFor time.Duration) {
	switch b.state.Load() {
	case bkHalfOpen: // the probe failed: straight back open, longer window
		b.trip(now, openFor)
	case bkClosed:
		if b.fails.Add(1) >= threshold {
			b.trip(now, openFor)
		}
	} // already open: a straggling failure from before the trip — ignore.
}

func (b *breaker) trip(now int64, openFor time.Duration) {
	s := b.streak.Add(1)
	if s > 6 {
		s = 6 // 32× the base window is the exponential ceiling
	}
	d := min(openFor<<uint(s-1), breakerMaxOpen)
	// Full jitter over [d/2, d): desynchronizes probe traffic across
	// routers without ever halving the floor below d/2.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	b.openUntil.Store(now + int64(d))
	b.fails.Store(0)
	b.opens.Add(1)
	b.state.Store(bkOpen)
}

// stateName renders the breaker state for metrics and status reports.
func (b *breaker) stateName() string {
	switch b.state.Load() {
	case bkOpen:
		return "open"
	case bkHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
