package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// Admission is bounded in-flight admission control: at most Max
// requests run concurrently, everything beyond is shed with 429 +
// Retry-After instead of queueing into latency collapse. /healthz and
// /metrics always pass — an overloaded server that can't be observed
// can't be fixed.
type Admission struct {
	max      int64
	inflight atomic.Int64
	shed     atomic.Uint64
}

// NewAdmission builds an admission gate for at most max in-flight
// requests; max <= 0 disables the gate (Middleware passes through).
func NewAdmission(max int) *Admission {
	return &Admission{max: int64(max)}
}

// Stats reports the gate's current in-flight count, its limit, and the
// total requests shed.
func (a *Admission) Stats() (inflight, max int64, shed uint64) {
	return a.inflight.Load(), a.max, a.shed.Load()
}

// Middleware enforces the admission gate around next.
func (a *Admission) Middleware(next http.Handler) http.Handler {
	if a.max <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		n := a.inflight.Add(1)
		defer a.inflight.Add(-1)
		if n > a.max {
			a.shed.Add(1)
			w.Header().Set("Retry-After", "1") // seconds
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, "{\"error\":\"overloaded: %d requests in flight (limit %d)\"}\n", n, a.max)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// WriteMetrics writes the gate's block of a /metrics page (see
// Metrics.Add).
func (a *Admission) WriteMetrics(w io.Writer) {
	inflight, max, shed := a.Stats()
	NewFamily(w, "hydra_inflight_requests", "gauge", "Requests currently being served.").Sample(inflight)
	NewFamily(w, "hydra_inflight_limit", "gauge", "Admission gate: max in-flight requests before shedding.").Sample(max)
	NewFamily(w, "hydra_shed_total", "counter", "Requests shed with 429 by the admission gate.").Sample(shed)
}
