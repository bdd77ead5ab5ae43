package router

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hydra/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden page")

// timedSample matches the exposition lines whose value depends on the
// wall clock: uptime and the bucket spread and sum of the request
// duration histogram. Counts, and every other sample, are fixed by the
// query script.
var timedSample = regexp.MustCompile(`(?m)^(hydra_uptime_seconds|hydra_request_duration_seconds_(?:bucket|sum)\{[^}]*\}) .*$`)

// TestRouterMetricsGolden pins the router's whole /metrics page, wired
// the way cmd/hydra-router wires it, after a fixed query script over two
// in-process shards. Shard 1 is fronted by a dead replica whose breaker
// trips on its first failure (the startup probe), so the failover walk,
// the breaker rows and the per-shard gauges all carry real values. The
// golden page was captured from the wiring this replaced (health
// observer, robust source and mirror structs in obs), so it certifies
// the router-written block line for line.
func TestRouterMetricsGolden(t *testing.T) {
	shards, _ := shardBackends(t, 2, 1)
	shards[1] = []Backend{&downBackend{name: "dead-1"}, shards[1][0]}
	rt, err := New(shards, Options{BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}

	// cmd/hydra-router's wiring.
	if err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewMetrics()
	metrics.Add(rt.WriteMetrics)
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	mux.Handle("/metrics", metrics.Handler())
	handler := obs.Middleware(mux, metrics, nil)

	var rec *httptest.ResponseRecorder
	for _, rq := range [][3]string{
		{http.MethodPost, "/score", `{"pa":"twitter","pb":"facebook","pairs":[[0,0],[0,1],[1,2]]}`},
		{http.MethodPost, "/link", `{"pa":"twitter","pb":"facebook","pairs":[[2,2],[0,0]]}`},
		{http.MethodGet, "/topk?pa=twitter&a=0&pb=facebook&k=5"},
		{http.MethodGet, "/topk?pa=twitter&a=1&pb=facebook&k=0"},
		{http.MethodGet, "/topk?pa=twitter&a=zero&pb=facebook"},
		{http.MethodGet, "/topk?pa=orkut&a=0&pb=facebook"},
		{http.MethodGet, "/score"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/metrics"},
	} {
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(rq[0], rq[1], strings.NewReader(rq[2])))
	}
	got := timedSample.ReplaceAllString(rec.Body.String(), "$1 N")

	golden := filepath.Join("testdata", "metrics_router.golden.txt")
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
