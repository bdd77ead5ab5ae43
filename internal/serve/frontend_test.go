package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hydra/internal/pipeline"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
)

// TestServeHTTPHardening locks the long-lived-serving protections — 405
// + Allow for wrong methods on every endpoint, 413 for oversized POST
// bodies, 400 for everything malformed, 400/504 for a malformed or spent
// deadline budget — and that there is one front-end: every row runs
// against an engine handler (behind the deadline middleware, as
// cmd/hydra-serve stacks it) and against a router over two in-process
// shards, and both must refuse it with the same status and the same
// {"error": "..."} body shape. (The refusals only a router can give —
// 502 on a down shard, degraded top-k — are the router package's.)
func TestServeHTTPHardening(t *testing.T) {
	bundle := serve.FixtureBundle(t)
	eng, err := serve.NewEngineFromBundle(bundle, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := pipeline.SplitBundle(bundle, 2, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]router.Backend, len(subs))
	for i, sb := range subs {
		se, err := serve.NewEngineFromBundle(sb, 0)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = []router.Backend{&router.Local{Src: se}}
	}
	rt, err := router.New(shards, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	fronts := []struct {
		name string
		srv  *httptest.Server
	}{
		{"engine", httptest.NewServer(serve.DeadlineMiddleware(eng.Handler(), nil))},
		{"router", httptest.NewServer(rt.Handler())},
	}
	for _, f := range fronts {
		defer f.srv.Close()
	}

	const topk = "/topk?pa=twitter&a=0&pb=facebook"
	big := `{"pa":"twitter","pb":"facebook","pairs":[` +
		strings.Repeat(`[0,0],`, serve.MaxRequestBody/6) + `[0,0]]}`
	for _, tc := range []struct {
		name, method, path, body, deadline string
		want                               int
		allow                              string
	}{
		{name: "GET /score", method: http.MethodGet, path: "/score", want: http.StatusMethodNotAllowed, allow: http.MethodPost},
		{name: "DELETE /link", method: http.MethodDelete, path: "/link", want: http.StatusMethodNotAllowed, allow: http.MethodPost},
		{name: "POST /topk", method: http.MethodPost, path: topk, want: http.StatusMethodNotAllowed, allow: http.MethodGet},
		{name: "oversized body", method: http.MethodPost, path: "/score", body: big, want: http.StatusRequestEntityTooLarge},
		{name: "bad JSON", method: http.MethodPost, path: "/score", body: `{"pairs":[[0,`, want: http.StatusBadRequest},
		{name: "empty pairs", method: http.MethodPost, path: "/link", body: `{"pa":"twitter","pb":"facebook","pairs":[]}`, want: http.StatusBadRequest},
		{name: "bad a", method: http.MethodGet, path: "/topk?pa=twitter&a=zero&pb=facebook", want: http.StatusBadRequest},
		{name: "bad k", method: http.MethodGet, path: topk + "&k=many", want: http.StatusBadRequest},
		{name: "unknown platform, top-k", method: http.MethodGet, path: "/topk?pa=orkut&a=0&pb=facebook", want: http.StatusBadRequest},
		{name: "unknown A platform, score", method: http.MethodPost, path: "/score", body: `{"pa":"orkut","pb":"facebook","pairs":[[0,0]]}`, want: http.StatusBadRequest},
		{name: "unknown B platform, score", method: http.MethodPost, path: "/score", body: `{"pa":"twitter","pb":"orkut","pairs":[[0,0]]}`, want: http.StatusBadRequest},
		{name: "malformed deadline", method: http.MethodGet, path: topk, deadline: "soon", want: http.StatusBadRequest},
		{name: "NaN deadline", method: http.MethodGet, path: topk, deadline: "NaN", want: http.StatusBadRequest},
		{name: "spent deadline", method: http.MethodGet, path: topk, deadline: "0", want: http.StatusGatewayTimeout},
		// A legitimate batch still works behind all of it.
		{name: "small POST", method: http.MethodPost, path: "/score", body: `{"pa":"twitter","pb":"facebook","pairs":[[0,0]]}`, want: http.StatusOK},
	} {
		for _, f := range fronts {
			req, err := http.NewRequest(tc.method, f.srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.deadline != "" {
				req.Header.Set(serve.DeadlineHeader, tc.deadline)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s: %s = %d, want %d (%s)", f.name, tc.name, resp.StatusCode, tc.want, body)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("%s: %s: Allow = %q, want %q", f.name, tc.name, got, tc.allow)
			}
			if tc.want == http.StatusOK {
				continue
			}
			var refusal map[string]string
			if err := json.Unmarshal(body, &refusal); err != nil || len(refusal) != 1 || refusal["error"] == "" ||
				resp.Header.Get("Content-Type") != "application/json" {
				t.Errorf("%s: %s: refusal body %q (%s) is not {\"error\": \"...\"}", f.name, tc.name, body, resp.Header.Get("Content-Type"))
			}
		}
	}
}
