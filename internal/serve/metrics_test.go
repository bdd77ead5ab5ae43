package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hydra/internal/obs"
	"hydra/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden page")

// timedSample matches the exposition lines whose value depends on the
// wall clock: uptime and the bucket spread and sum of the two duration
// histograms. Their counts, and every other sample, are fixed by the
// query script.
var timedSample = regexp.MustCompile(`(?m)^(hydra_uptime_seconds|hydra_(?:request_duration|deadline_remaining)_seconds_(?:bucket|sum)(?:\{[^}]*\})?) .*$`)

// scriptedMetricsPage runs a fixed request script through h and returns
// the /metrics page it then serves, wall-clock samples normalised to N.
func scriptedMetricsPage(h http.Handler, script []scriptedRequest) string {
	var rec *httptest.ResponseRecorder
	for _, rq := range append(script, scriptedRequest{method: http.MethodGet, target: "/metrics"}) {
		req := httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body))
		if rq.deadline != "" {
			req.Header.Set(DeadlineHeader, rq.deadline)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}
	return timedSample.ReplaceAllString(rec.Body.String(), "$1 N")
}

// scriptedRequest is one request of a golden page's traffic script.
type scriptedRequest struct{ method, target, body, deadline string }

// TestServeMetricsGolden pins hydra-serve's whole /metrics page — a
// mapped engine over wide shards, so the prescreen engages, with the
// bundle's impute table — wired the way cmd/hydra-serve wires it, after
// a fixed query script. The golden page was captured from the wiring
// this replaced (observer, three snapshot sources and six mirror structs
// in obs), so it also certifies the engine-written block line for line.
func TestServeMetricsGolden(t *testing.T) {
	e := getEnv(t)
	var buf bytes.Buffer
	if err := pipeline.WriteBundle(&buf, e.wide); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineFromMapped(mb, 1)
	if err != nil {
		mb.Close()
		t.Fatal(err)
	}
	defer eng.Close()

	// cmd/hydra-serve's wiring.
	holder := NewSwappable(eng)
	admission := obs.NewAdmission(0)
	metrics := obs.NewMetrics()
	metrics.Add(holder.WriteMetrics)
	metrics.Add(admission.WriteMetrics)
	mux := http.NewServeMux()
	mux.Handle("/", holder.Handler())
	mux.Handle("/metrics", metrics.Handler())
	handler := obs.Middleware(admission.Middleware(DeadlineMiddleware(mux, metrics)), metrics, nil)

	got := scriptedMetricsPage(handler, metricsScript)
	golden := filepath.Join("testdata", "metrics_serve.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics page drifted from %s:\n%s", golden, got)
	}
}

// metricsScript is the fixed traffic behind the golden page: health,
// batch scores and decisions, engaged and whole-shard top-k queries, a
// budgeted and a spent-budget request, and one of each refusal.
var metricsScript = []scriptedRequest{
	{method: http.MethodGet, target: "/healthz"},
	{method: http.MethodPost, target: "/score", body: `{"pa":"twitter","pb":"facebook","pairs":[[0,0],[0,1],[1,2]]}`},
	{method: http.MethodPost, target: "/link", body: `{"pa":"twitter","pb":"facebook","pairs":[[2,2],[0,0]]}`},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=0&pb=facebook&k=5"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=1&pb=facebook&k=1"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=0&pb=facebook&k=5"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=2&pb=facebook&k=0"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=3&pb=facebook&k=3", deadline: "60000"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=3&pb=facebook&k=3", deadline: "0"},
	{method: http.MethodGet, target: "/topk?pa=twitter&a=zero&pb=facebook"},
	{method: http.MethodGet, target: "/topk?pa=orkut&a=0&pb=facebook"},
	{method: http.MethodGet, target: "/score"},
	{method: http.MethodPost, target: "/score", body: `{"pairs":[]}`},
	{method: http.MethodGet, target: "/healthz"},
}
