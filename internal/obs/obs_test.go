package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Observe("/score", 200*time.Microsecond, 200)
	m.Observe("/score", 2*time.Millisecond, 200)
	m.Observe("/score", 40*time.Millisecond, 400)
	m.Observe("/topk", 90*time.Microsecond, 200)

	var buf bytes.Buffer
	m.Render(&buf)
	out := buf.String()

	for _, want := range []string{
		`hydra_requests_total{endpoint="/score"} 3`,
		`hydra_requests_total{endpoint="/topk"} 1`,
		`hydra_request_errors_total{endpoint="/score"} 1`,
		`hydra_request_errors_total{endpoint="/topk"} 0`,
		`hydra_request_duration_seconds_count{endpoint="/score"} 3`,
		`hydra_request_duration_seconds_bucket{endpoint="/topk",le="0.0001"} 1`,
		`hydra_request_duration_seconds_bucket{endpoint="/score",le="+Inf"} 3`,
		"# TYPE hydra_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Bucket counts must be cumulative: 200µs lands in le=0.00025, so
	// every later bound includes it.
	if !strings.Contains(out, `hydra_request_duration_seconds_bucket{endpoint="/score",le="0.00025"} 1`) {
		t.Errorf("expected 200µs observation in le=0.00025 bucket:\n%s", out)
	}
	if !strings.Contains(out, `hydra_request_duration_seconds_bucket{endpoint="/score",le="0.0025"} 2`) {
		t.Errorf("expected cumulative count 2 at le=0.0025:\n%s", out)
	}
}

func TestMiddlewareMetricsAndLogs(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok"))
	})
	m := NewMetrics()
	var logBuf bytes.Buffer
	h := Middleware(inner, m, &logBuf)

	for _, path := range []string{"/score", "/score", "/bad"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}

	var buf bytes.Buffer
	m.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, `hydra_requests_total{endpoint="/score"} 2`) {
		t.Errorf("middleware did not count /score requests:\n%s", out)
	}
	if !strings.Contains(out, `hydra_request_errors_total{endpoint="other"} 1`) {
		t.Errorf("middleware did not count the unknown path's error under other:\n%s", out)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 log lines, got %d: %q", len(lines), logBuf.String())
	}
	var last struct {
		Method   string  `json:"method"`
		Path     string  `json:"path"`
		Status   int     `json:"status"`
		Millis   float64 `json:"ms"`
		Time     string  `json:"time"`
		Endpoint string  `json:"endpoint"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatalf("log line is not JSON: %v: %q", err, lines[2])
	}
	if last.Method != "GET" || last.Path != "/bad" || last.Status != http.StatusBadRequest || last.Endpoint != "other" {
		t.Errorf("log line fields wrong: %+v", last)
	}
	if _, err := time.Parse(time.RFC3339Nano, last.Time); err != nil {
		t.Errorf("log timestamp not RFC3339: %v", err)
	}
}

// TestHistogramExposition pins the one histogram type on an integer
// family (scale 1, the engine's survivor histogram): cumulative buckets,
// an observation past the last bound counted in +Inf only, the sum kept
// an integer, labels ahead of le — and Metrics.Add blocks rendered after
// the request families in registration order.
func TestHistogramExposition(t *testing.T) {
	h := NewHistogram([]float64{1, 8, 128}, 1)
	for _, v := range []uint64{1, 7, 7, 500} {
		h.Observe(v)
	}
	m := NewMetrics()
	m.Observe("/topk", time.Millisecond, 200)
	m.Add(func(w io.Writer) {
		NewFamily(w, "survivors", "histogram", "Survivors.").Histogram(h, "shard", "0")
	})
	m.Add(func(w io.Writer) {
		f := NewFamily(w, "flags", "gauge", "Flags.")
		f.Sample(true, "shard", "0", "stat", "enabled")
		f.Sample(0.25)
	})

	var buf bytes.Buffer
	m.Render(&buf)
	_, blocks, _ := strings.Cut(buf.String(), "hydra_request_duration_seconds_count{endpoint=\"/topk\"} 1\n")
	want := `# HELP survivors Survivors.
# TYPE survivors histogram
survivors_bucket{shard="0",le="1"} 1
survivors_bucket{shard="0",le="8"} 3
survivors_bucket{shard="0",le="128"} 3
survivors_bucket{shard="0",le="+Inf"} 4
survivors_sum{shard="0"} 515
survivors_count{shard="0"} 4
# HELP flags Flags.
# TYPE flags gauge
flags{shard="0",stat="enabled"} 1
flags 0.25
`
	if blocks != want {
		t.Errorf("added blocks rendered as:\n%s\nwant:\n%s", blocks, want)
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.Observe("/link", time.Millisecond, 200)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("want text/plain content type, got %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hydra_requests_total") {
		t.Errorf("handler body missing metrics:\n%s", rec.Body.String())
	}
}

// TestMiddlewareUnknownPathsConcurrent sends 1 000 distinct invented
// paths from eight goroutines, between requests to the known routes: the
// page must keep one series per known endpoint plus "other", which counts
// every invented path.
func TestMiddlewareUnknownPathsConcurrent(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/score" && r.URL.Path != "/topk" {
			http.NotFound(w, r)
		}
	})
	m := NewMetrics()
	h := Middleware(inner, m, nil)
	const workers, perWorker = 8, 125
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, path := range []string{fmt.Sprintf("/x%d", g*perWorker+i), "/score", "/topk"} {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
				}
			}
		}(g)
	}
	wg.Wait()

	var buf bytes.Buffer
	m.Render(&buf)
	out := buf.String()
	if n := strings.Count(out, "hydra_requests_total{"); n != 3 {
		t.Fatalf("%d request-count series after %d invented paths, want 3 (/score, /topk, other):\n%s",
			n, workers*perWorker, out)
	}
	for _, want := range []string{
		`hydra_requests_total{endpoint="other"} 1000`,
		`hydra_request_errors_total{endpoint="other"} 1000`,
		`hydra_requests_total{endpoint="/score"} 1000`,
		`hydra_requests_total{endpoint="/topk"} 1000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("page missing %q:\n%s", want, out)
		}
	}
}
