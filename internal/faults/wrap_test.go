package faults

import (
	"context"
	"net/http"

	"hydra/internal/platform"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
)

// Backend wraps a router.Backend with scripted faults: each call first
// applies what the injector decides for its target (an error, a hang
// or added latency), then delegates to the inner backend.
type Backend struct {
	Inner  router.Backend
	Inj    *Injector
	Target string
}

func (b *Backend) Name() string { return b.Target }

func (b *Backend) decide(ctx context.Context) error {
	return b.Inj.Decide(b.Target).Apply(ctx, b.Target)
}

func (b *Backend) Health(ctx context.Context) (router.Health, error) {
	if err := b.decide(ctx); err != nil {
		return router.Health{}, err
	}
	return b.Inner.Health(ctx)
}

func (b *Backend) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	if err := b.decide(ctx); err != nil {
		return nil, 0, err
	}
	return b.Inner.ScoreBatch(ctx, pa, pb, pairs)
}

func (b *Backend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	if err := b.decide(ctx); err != nil {
		return nil, 0, err
	}
	return b.Inner.TopK(ctx, pa, a, pb, k)
}

// FlipBackend switches from Before to After once its target's call
// counter reaches At — the deterministic swap-mid-scatter: a fan-out
// whose first shards answer from Before while later shards already
// answer from After, regardless of goroutine scheduling.
type FlipBackend struct {
	Before, After router.Backend
	At            uint64
	Inj           *Injector
	Target        string
}

func (f *FlipBackend) pick() router.Backend {
	// Decide consumes the shared per-target counter, so a FlipBackend
	// layered over a faults.Backend with the same target advances one
	// stream — keep targets distinct when composing.
	if f.Inj.state(f.Target).calls.Add(1)-1 >= f.At {
		return f.After
	}
	return f.Before
}

func (f *FlipBackend) Name() string { return f.Target }

func (f *FlipBackend) Health(ctx context.Context) (router.Health, error) {
	return f.pick().Health(ctx)
}

func (f *FlipBackend) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	return f.pick().ScoreBatch(ctx, pa, pb, pairs)
}

func (f *FlipBackend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	return f.pick().TopK(ctx, pa, a, pb, k)
}

// Middleware wraps an HTTP handler (a hydra-serve front-end) with
// scripted faults: injected latency delays the response, injected
// errors answer 503 before the handler runs — the wire-level twin of
// Backend for chaos against live processes.
func Middleware(next http.Handler, inj *Injector, target string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := inj.Decide(target).Apply(r.Context(), target); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"injected fault"}` + "\n"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// RoundTripper injects scripted faults on the client side of an HTTP
// backend: latency before the request leaves, errors instead of a
// response — network partitions without a network.
type RoundTripper struct {
	Base   http.RoundTripper
	Inj    *Injector
	Target string
}

func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := rt.Inj.Decide(rt.Target).Apply(req.Context(), rt.Target); err != nil {
		return nil, err
	}
	base := rt.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}
