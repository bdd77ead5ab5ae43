package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
)

// Health is one shard replica's self-report: which shard of which split
// it serves, at which bundle generation — everything the router needs to
// verify that N replicas form one coherent serving set.
type Health struct {
	OK         bool                `json:"ok"`
	Generation uint64              `json:"generation"`
	Shard      *pipeline.ShardDesc `json:"shard,omitempty"`
	Pairs      [][2]platform.ID    `json:"pairs"`
	// Prescreen is the shard's two-tier pruning telemetry (nil when the
	// bundle carries no prescreen) — scraped into per-shard gauges on
	// the router's /metrics.
	Prescreen *serve.PrescreenHealth `json:"prescreen,omitempty"`
	// Impute is the shard's imputation-layer telemetry (pack-time table
	// and pair-cache hit rates), scraped the same way.
	Impute *serve.ImputeHealth `json:"impute,omitempty"`
}

// Backend is one shard replica the router can fan a query out to. Both
// implementations pin a single (engine, generation) pair per call, so
// every sub-response carries the generation that actually answered it —
// the router's defense against mixing generations during a hot swap.
type Backend interface {
	// Name identifies the replica in errors and health reports.
	Name() string
	Health(ctx context.Context) (Health, error)
	ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error)
	TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error)
}

// queryError marks an error as belonging to the query itself (bad
// platform, out-of-range account, mis-routed pair) rather than to the
// replica that reported it: retrying another replica would return the
// same answer, so the router propagates it immediately instead of
// failing over and eventually flagging the shard as down.
type queryError struct{ err error }

func (q queryError) Error() string { return q.err.Error() }
func (q queryError) Unwrap() error { return q.err }

// IsQueryError reports whether err came from the query itself rather
// than a replica failure (see queryError).
func IsQueryError(err error) bool {
	if err == nil {
		return false // before q, which escapes: the common case allocates nothing
	}
	var q queryError
	return errors.As(err, &q)
}

// Local is an in-process backend: the router calls the engine directly,
// pinning it for the call exactly as the HTTP front-end does (serve.Pin),
// so a hot swap cannot close a mapped engine's file under an in-flight
// query.
// It is how the router tests its scatter-gather against real engines
// without network plumbing. The router treats it like any other
// backend: its top-k attempts are timed and hedged as HTTP ones are.
type Local struct {
	Src serve.EngineSource
	// Label names the backend in errors ("local-0" style).
	Label string
}

func (l *Local) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return "local"
}

func (l *Local) Health(ctx context.Context) (Health, error) {
	eng, gen := serve.Pin(l.Src)
	defer eng.Release()
	return Health{OK: true, Generation: gen, Shard: eng.ShardDesc(), Pairs: eng.Pairs(),
		Prescreen: eng.PrescreenHealth(), Impute: eng.ImputeHealth()}, nil
}

func (l *Local) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	eng, gen := serve.Pin(l.Src)
	defer eng.Release()
	scores, err := eng.ScoreBatch(pa, pb, pairs)
	if err != nil {
		return nil, gen, queryError{err}
	}
	return scores, gen, nil
}

func (l *Local) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	eng, gen := serve.Pin(l.Src)
	defer eng.Release()
	res, err := eng.TopK(pa, a, pb, k)
	if err != nil {
		return nil, gen, queryError{err}
	}
	return res, gen, nil
}

// HTTP is a backend over a hydra-serve HTTP endpoint. Transport
// failures, 5xx responses and 429 (a replica shedding load past
// -max-inflight) count as replica failures — the router fails over to
// another replica; every other 4xx is a query error and propagates
// as-is.
type HTTP struct {
	// URL is the base endpoint, e.g. "http://10.0.0.3:8080".
	URL string
	// Client overrides http.DefaultClient; per-attempt deadlines come
	// from the router's context, not the client timeout.
	Client *http.Client
}

func (h *HTTP) Name() string { return h.URL }

func (h *HTTP) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

func (h *HTTP) Health(ctx context.Context) (Health, error) {
	var out Health
	if err := h.get(ctx, "/healthz", &out); err != nil {
		return Health{}, err
	}
	return out, nil
}

func (h *HTTP) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	body, err := json.Marshal(map[string]any{"pa": pa, "pb": pb, "pairs": pairs})
	if err != nil {
		return nil, 0, err
	}
	var out struct {
		Scores     []float64 `json:"scores"`
		Generation uint64    `json:"generation"`
	}
	if err := h.post(ctx, "/score", body, &out); err != nil {
		return nil, 0, err
	}
	if len(out.Scores) != len(pairs) {
		return nil, 0, fmt.Errorf("router: %s returned %d scores for %d pairs", h.URL, len(out.Scores), len(pairs))
	}
	return out.Scores, out.Generation, nil
}

func (h *HTTP) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	q := url.Values{}
	q.Set("pa", string(pa))
	q.Set("a", strconv.Itoa(a))
	q.Set("pb", string(pb))
	q.Set("k", strconv.Itoa(k))
	var out struct {
		Results    []serve.Scored `json:"results"`
		Generation uint64         `json:"generation"`
	}
	if err := h.get(ctx, "/topk?"+q.Encode(), &out); err != nil {
		return nil, 0, err
	}
	return out.Results, out.Generation, nil
}

func (h *HTTP) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.URL+path, nil)
	if err != nil {
		return err
	}
	if err := h.stampBudget(req); err != nil {
		return err
	}
	return h.do(req, out)
}

func (h *HTTP) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := h.stampBudget(req); err != nil {
		return err
	}
	return h.do(req, out)
}

// stampBudget propagates the request's deadline budget to the next hop,
// decremented by hopMargin. A budget-carrying request whose remainder is
// spent fails before the wire is touched.
func (h *HTTP) stampBudget(req *http.Request) error {
	t, ok := Budget(req.Context())
	if !ok {
		return nil
	}
	t = t.Add(-hopMargin)
	if !time.Now().Before(t) {
		return fmt.Errorf("router: %s: deadline budget exhausted before the call", h.URL)
	}
	serve.SetDeadline(req.Header, t)
	return nil
}

func (h *HTTP) do(req *http.Request, out any) error {
	resp, err := h.client().Do(req)
	if err != nil {
		return fmt.Errorf("router: %s: %w", h.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := ""
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<14)).Decode(&e); err == nil {
			msg = e.Error
		}
		err := fmt.Errorf("router: %s %s: HTTP %d: %s", h.URL, req.URL.Path, resp.StatusCode, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return queryError{err}
		}
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("router: %s %s: decode response: %w", h.URL, req.URL.Path, err)
	}
	return nil
}
