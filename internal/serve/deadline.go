package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"hydra/internal/obs"
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

// ErrBudgetSpent refuses (504) a request whose deadline budget ran out
// before this hop could serve it.
var ErrBudgetSpent = errors.New("deadline budget exhausted before the request was served")

// DeadlineMiddleware enforces the per-hop deadline budget on a serving
// front-end: requests without the header pass through untouched;
// requests carrying one are rejected with 504 when the budget is already
// spent — running a query nobody is still waiting for only steals
// capacity from requests that can still make it — and otherwise get the
// deadline installed on their context. Only handlers that read the
// context honour it: on hydra-serve the engine's queries take no
// context (pinned.ScoreBatch and pinned.TopK drop it), so there the
// budget refuses spent requests at this hop and nothing more. Each
// arriving budget feeds m's deadline-remaining histogram; m may be nil.
func DeadlineMiddleware(next http.Handler, m *obs.Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, ok, err := ParseDeadline(r.Header)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		rem := time.Until(t)
		if m != nil {
			m.ObserveDeadlineRemaining(rem)
		}
		if rem <= 0 {
			HTTPError(w, http.StatusGatewayTimeout, ErrBudgetSpent)
			return
		}
		ctx, cancel := context.WithDeadline(r.Context(), t)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
