package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries the remaining end-to-end answer budget of a
// request, in (possibly fractional) milliseconds, decremented at every
// hop: client → router → shard. The receiver converts it to an absolute
// deadline on arrival, so only relative durations — not wall clocks —
// cross the wire.
const DeadlineHeader = "X-Hydra-Deadline-Ms"

// maxBudgetMs is the largest budget a header can ask for, one day.
// Larger values (and ±Inf) are clamped to it before the conversion to
// time.Duration, which overflows from ≈ 9.2e12 ms: an unclamped 1e13
// lands 292 years in the past and the client that asked for the most
// time is told its budget is spent.
const maxBudgetMs = float64(24 * time.Hour / time.Millisecond)

// ParseDeadline reads the deadline budget header: the absolute wall time
// the budget expires at, and whether a budget was present at all. A
// malformed value, NaN included, is an error (a client that tried to set
// a budget and failed should hear about it, not silently run unbounded).
func ParseDeadline(h http.Header) (time.Time, bool, error) {
	s := h.Get(DeadlineHeader)
	if s == "" {
		return time.Time{}, false, nil
	}
	ms, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(ms) {
		err = strconv.ErrSyntax
	}
	if err != nil {
		return time.Time{}, false, fmt.Errorf("bad %s=%q: %w", DeadlineHeader, s, err)
	}
	ms = max(min(ms, maxBudgetMs), -maxBudgetMs)
	return time.Now().Add(time.Duration(ms * float64(time.Millisecond))), true, nil
}

// SetDeadline stamps the remaining budget until t onto an outgoing
// request's headers. A non-positive remainder is stamped as 0 — the
// receiver rejects it instead of this hop guessing.
func SetDeadline(h http.Header, t time.Time) {
	rem := time.Until(t)
	if rem < 0 {
		rem = 0
	}
	h.Set(DeadlineHeader, strconv.FormatFloat(float64(rem)/float64(time.Millisecond), 'f', 3, 64))
}

// DeadlineObserver receives each arriving request's remaining budget —
// obs.Metrics implements it to feed the per-hop deadline-remaining
// histogram on /metrics.
type DeadlineObserver interface {
	ObserveDeadlineRemaining(rem time.Duration)
}

// DeadlineMiddleware enforces the per-hop deadline budget on a serving
// front-end: requests without the header pass through untouched;
// requests carrying one get the deadline installed on their context (so
// downstream work is cancellable) and are rejected with 504 when the
// budget is already spent — running a query nobody is still waiting for
// only steals capacity from requests that can still make it. obs may be
// nil.
func DeadlineMiddleware(next http.Handler, obs DeadlineObserver) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, ok, err := ParseDeadline(r.Header)
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		rem := time.Until(t)
		if obs != nil {
			obs.ObserveDeadlineRemaining(rem)
		}
		if rem <= 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGatewayTimeout)
			json.NewEncoder(w).Encode(map[string]string{
				"error": "deadline budget exhausted before the request was served",
			})
			return
		}
		ctx, cancel := context.WithDeadline(r.Context(), t)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
