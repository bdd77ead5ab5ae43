// Package obs is the serving tier's observability kit: the request
// middleware (per-endpoint counters, error counters and latency
// histograms, plus optional JSON request logs), the admission gate, one
// histogram type and a small writer for the Prometheus text exposition
// format. What a /metrics page says beyond the request block is written
// by the package that counts it — serve.Engine and router.Router each
// write their own block straight from their own state, registered with
// Metrics.Add — so obs imports nothing of HYDRA's and mirrors no one's
// structs. The exposition format is a few lines of text; hand-rolling it
// keeps the serving binaries self-contained.
package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// endpointStats is one endpoint's counters. Everything is atomic so the
// hot path never takes a lock.
type endpointStats struct {
	errors  atomic.Uint64 // responses with status >= 400
	latency *Histogram    // its count is the endpoint's request count
}

// Metrics collects per-endpoint serving metrics and renders them, followed
// by every registered block, in Prometheus text exposition format. The
// zero value is not usable; call NewMetrics.
type Metrics struct {
	mu        sync.RWMutex
	endpoints map[string]*endpointStats
	start     time.Time

	// blocks are the page's owner-written sections, in Add order.
	blocks []func(io.Writer)
	// deadline is the per-hop deadline-remaining histogram
	// (serve.DeadlineMiddleware feeds it), rendered last and only once a
	// budgeted request has arrived.
	deadline *Histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: make(map[string]*endpointStats),
		start:     time.Now(),
		deadline:  newLatencyHistogram(),
	}
}

// Add registers a block of the /metrics page: write is called on every
// scrape, after the request families and after the blocks added before
// it, and writes whatever its owner counts (Engine.WriteMetrics,
// Router.WriteMetrics, Admission.WriteMetrics). Call before the process
// starts serving; the list is not synchronized.
func (m *Metrics) Add(write func(io.Writer)) { m.blocks = append(m.blocks, write) }

func (m *Metrics) stats(endpoint string) *endpointStats {
	m.mu.RLock()
	s := m.endpoints[endpoint]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s = m.endpoints[endpoint]; s == nil {
		s = &endpointStats{latency: newLatencyHistogram()}
		m.endpoints[endpoint] = s
	}
	return s
}

// Observe records one completed request.
func (m *Metrics) Observe(endpoint string, d time.Duration, status int) {
	s := m.stats(endpoint)
	if status >= 400 {
		s.errors.Add(1)
	}
	s.latency.Observe(uint64(d.Nanoseconds()))
}

// ObserveDeadlineRemaining records how much of its deadline budget a
// request had left when it arrived at this hop. Exhausted budgets land
// in the first bucket.
func (m *Metrics) ObserveDeadlineRemaining(rem time.Duration) {
	m.deadline.Observe(uint64(max(rem, 0).Nanoseconds()))
}

// Render writes the registry in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer) {
	m.mu.RLock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	NewFamily(w, "hydra_uptime_seconds", "gauge", "Seconds since the process started serving.").
		Sample(time.Since(m.start).Seconds())
	f := NewFamily(w, "hydra_requests_total", "counter", "Requests served, by endpoint.")
	for _, name := range names {
		f.Sample(m.endpoints[name].latency.Count(), "endpoint", name)
	}
	f = NewFamily(w, "hydra_request_errors_total", "counter", "Responses with status >= 400, by endpoint.")
	for _, name := range names {
		f.Sample(m.endpoints[name].errors.Load(), "endpoint", name)
	}
	f = NewFamily(w, "hydra_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, name := range names {
		f.Histogram(m.endpoints[name].latency, "endpoint", name)
	}
	m.mu.RUnlock()

	for _, write := range m.blocks {
		write(w)
	}
	if m.deadline.Count() > 0 {
		NewFamily(w, "hydra_deadline_remaining_seconds", "histogram", "Deadline budget remaining when a request arrived at this hop.").
			Histogram(m.deadline)
	}
}

// Handler serves the registry as a /metrics endpoint.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.Render(w)
	})
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// requestLog is one line of the JSON request log.
type requestLog struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Millis   float64 `json:"ms"`
	Remote   string  `json:"remote,omitempty"`
	Endpoint string  `json:"endpoint"`
}

// endpointLabel maps a request path to its endpoint label: the path
// itself for the serving front-end's routes (serve.FrontEnd) and
// /metrics, "other" for any other path. Both servers mount the front-end
// at "/", so a client can send any path; labelling by the raw path would
// give each one it invents a permanent series and histogram.
func endpointLabel(path string) string {
	switch path {
	case "/healthz", "/score", "/link", "/topk", "/metrics":
		return path
	}
	return "other"
}

// Middleware wraps an HTTP handler with metrics collection and, when
// logs is non-nil, one JSON log line per request. The endpoint label is
// one of a closed set (see endpointLabel), so the page stays bounded
// whatever paths clients send; the log line keeps the raw path.
func Middleware(next http.Handler, m *Metrics, logs io.Writer) http.Handler {
	var logMu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		endpoint := endpointLabel(r.URL.Path)
		if m != nil {
			m.Observe(endpoint, d, rec.status)
		}
		if logs != nil {
			line, err := json.Marshal(requestLog{
				Time:     start.UTC().Format(time.RFC3339Nano),
				Method:   r.Method,
				Path:     r.URL.Path,
				Status:   rec.status,
				Millis:   float64(d.Nanoseconds()) / 1e6,
				Remote:   r.RemoteAddr,
				Endpoint: endpoint,
			})
			if err == nil {
				logMu.Lock()
				logs.Write(append(line, '\n'))
				logMu.Unlock()
			}
		}
	})
}
