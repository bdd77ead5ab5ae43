package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hydra/internal/platform"
)

// The HTTP front-end mirrors the REPL commands as JSON endpoints:
//
//	GET  /healthz                          liveness + indexed pairs +
//	                                       bundle generation + shard descriptor
//	POST /score  {"pa","pb","pairs":[[a,b],...]}   batch scores
//	POST /link   (same body)                       scores + decisions
//	GET  /topk?pa=&a=&pb=&k=                       ranked candidates
//
// There is one front-end — method checks, body cap and decode, parameter
// parsing, response and error encoding — and it serves whatever answers
// it: an engine source here, the scatter-gather router in hydra-router
// (see Answerer). It is hardened for long-lived serving: wrong methods
// get 405 + Allow, POST bodies are capped at MaxRequestBody (413 beyond
// it), and ListenAndServe adds read/write timeouts on the server so a
// stalled client cannot pin a connection forever.
//
// Over an EngineSource each request pins the current (engine,
// generation) pair exactly once and stamps the generation into its
// response, so a hot bundle swap never mixes generations inside one
// response and the router can verify that a fan-out was answered by a
// single generation. Batch bodies go through ScoreBatch, so one request
// fans its pairs over the worker pool.

// MaxRequestBody caps a POST body. The largest legitimate batch over a
// laptop-scale world is well under a megabyte of pair ids; anything
// bigger is a mistake or abuse, and decoding it would buffer the lot.
const MaxRequestBody = 1 << 20

// Answerer is what answers the JSON front-end's queries. TopK and
// Healthz return the response body to encode (the engine's and the
// router's differ: the router's rows can be degraded, its health is per
// shard); ErrorStatus picks the status a failed query is refused with.
type Answerer interface {
	Healthz(ctx context.Context) any
	ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) (scores []float64, generation uint64, err error)
	TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) (any, error)
	ErrorStatus(err error) int
}

// scoreRequest is the body of POST /score and /link.
type scoreRequest struct {
	PA    platform.ID `json:"pa"`
	PB    platform.ID `json:"pb"`
	Pairs [][2]int    `json:"pairs"`
}

// FrontEnd builds the JSON front-end over an Answerer.
func FrontEnd(ans Answerer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ans.Healthz(r.Context()))
	})
	mux.HandleFunc("/score", handleScore(ans, false))
	mux.HandleFunc("/link", handleScore(ans, true))
	mux.HandleFunc("/topk", handleTopK(ans))
	return mux
}

func handleScore(ans Answerer, decide bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !allowOnly(w, r, http.MethodPost) {
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBody)
		var req scoreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				HTTPError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", MaxRequestBody))
				return
			}
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		if len(req.Pairs) == 0 {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("empty pairs"))
			return
		}
		scores, gen, err := ans.ScoreBatch(r.Context(), req.PA, req.PB, req.Pairs)
		if err != nil {
			HTTPError(w, ans.ErrorStatus(err), err)
			return
		}
		resp := map[string]any{"scores": scores, "generation": gen}
		if decide {
			linked := make([]bool, len(scores))
			for i, s := range scores {
				linked[i] = s > 0
			}
			resp["linked"] = linked
		}
		writeJSON(w, resp)
	}
}

func handleTopK(ans Answerer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !allowOnly(w, r, http.MethodGet) {
			return
		}
		q := r.URL.Query()
		a, errA := strconv.Atoi(q.Get("a"))
		if errA != nil {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad a=%q", q.Get("a")))
			return
		}
		k := 5
		if s := q.Get("k"); s != "" {
			var err error
			if k, err = strconv.Atoi(s); err != nil {
				HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad k=%q", s))
				return
			}
		}
		res, err := ans.TopK(r.Context(), platform.ID(q.Get("pa")), a, platform.ID(q.Get("pb")), k)
		if err != nil {
			HTTPError(w, ans.ErrorStatus(err), err)
			return
		}
		writeJSON(w, res)
	}
}

// allowOnly refuses every method but the endpoint's own with 405 and the
// Allow header RFC 9110 §15.5.6 requires.
func allowOnly(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	HTTPError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s only", method))
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Once the headers are gone an encode error has nothing useful left
	// to send.
	json.NewEncoder(w).Encode(v)
}

// HTTPError refuses a request with the front-end's error body,
// {"error": "..."} — exported for the middlewares in front of it.
func HTTPError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Handler returns the HTTP front-end over a fixed engine (no swapping).
func (e *Engine) Handler() http.Handler { return FrontEnd(pinned{e}) }

// Handler returns the HTTP front-end over whatever engine generation is
// currently installed — the hot-swappable form cmd/hydra-serve runs.
func (s *Swappable) Handler() http.Handler { return FrontEnd(pinned{s}) }

// Pin resolves src's current engine and pins it for one request, so a
// hot swap cannot close a mapped engine's bundle file mid-query; the
// caller Releases the engine when done. The retry loop covers the race
// where the engine retires between the Current load and the Acquire; it
// converges because a retired engine has already been replaced in its
// source. Two atomic ops — the serving steady state stays
// allocation-free.
func Pin(src EngineSource) (*Engine, uint64) {
	for {
		eng, gen := src.Current()
		if eng.Acquire() {
			return eng, gen
		}
	}
}

// pinned answers the front-end from an EngineSource, each query on the
// engine generation it pinned. Every query error is the client's (400):
// one process has no replica to blame.
type pinned struct{ src EngineSource }

func (p pinned) ErrorStatus(error) int { return http.StatusBadRequest }

func (p pinned) Healthz(context.Context) any {
	eng, gen := Pin(p.src)
	defer eng.Release()
	resp := map[string]any{"ok": true, "pairs": eng.Pairs(), "generation": gen}
	if d := eng.ShardDesc(); d != nil {
		resp["shard"] = d
	}
	// Prescreen and imputation telemetry ride /healthz (never a query
	// response, so query bodies stay byte-identical with and without
	// them); the router relays both blocks as per-shard gauges.
	if ph := eng.PrescreenHealth(); ph != nil {
		resp["prescreen"] = ph
	}
	resp["impute"] = eng.ImputeHealth()
	return resp
}

func (p pinned) ScoreBatch(_ context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	eng, gen := Pin(p.src)
	defer eng.Release()
	scores, err := eng.ScoreBatch(pa, pb, pairs)
	return scores, gen, err
}

func (p pinned) TopK(_ context.Context, pa platform.ID, a int, pb platform.ID, k int) (any, error) {
	eng, gen := Pin(p.src)
	defer eng.Release()
	res, err := eng.TopK(pa, a, pb, k)
	if err != nil {
		return nil, err
	}
	return map[string]any{"results": res, "generation": gen}, nil
}
