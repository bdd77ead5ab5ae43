package router

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
	"hydra/internal/synth"
)

// routerEnv is the shared fixture: one model trained through the staged
// pipeline, its unsharded serving bundle and engine (the ground truth
// every scatter-gather answer is diffed against). Built once — training
// dominates test time.
type routerEnv struct {
	bundle *pipeline.Bundle
	single *serve.Engine
	pair   [2]platform.ID
	nA, nB int
}

var (
	envOnce sync.Once
	env     routerEnv
	envErr  error
)

func getEnv(t *testing.T) routerEnv {
	t.Helper()
	envOnce.Do(func() { env, envErr = buildEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return env
}

func buildEnv() (routerEnv, error) {
	const seed = 4
	w, err := synth.Generate(synth.DefaultConfig(36, platform.EnglishPlatforms, seed))
	if err != nil {
		return routerEnv{}, err
	}
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 1500
	sysState, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      platform.Twitter,
		LabelPB:      platform.Facebook,
		LabelPersons: pipeline.LabeledHalf(w.Dataset),
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		return routerEnv{}, err
	}
	blocked, err := pipeline.Block(sysState, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: blocking.DefaultRules(),
		Label: core.DefaultLabelOpts(seed),
	})
	if err != nil {
		return routerEnv{}, err
	}
	fitted, err := pipeline.Fit(blocked, core.DefaultConfig(seed))
	if err != nil {
		return routerEnv{}, err
	}
	bundle, err := fitted.Bundle(0)
	if err != nil {
		return routerEnv{}, err
	}
	single, err := serve.NewEngineFromBundle(bundle, 0)
	if err != nil {
		return routerEnv{}, err
	}
	pair := single.Pairs()[0]
	return routerEnv{
		bundle: bundle,
		single: single,
		pair:   pair,
		nA:     len(bundle.Views[pair[0]]),
		nB:     len(bundle.Views[pair[1]]),
	}, nil
}

// shardBackends splits the env bundle N ways at the given generation and
// wraps each shard engine in a Local backend.
func shardBackends(t *testing.T, count int, gen uint64) ([][]Backend, []*serve.Engine) {
	t.Helper()
	e := getEnv(t)
	subs, err := pipeline.SplitBundle(e.bundle, count, 7, gen)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]Backend, count)
	engines := make([]*serve.Engine, count)
	for i, sb := range subs {
		eng, err := serve.NewEngineFromBundle(sb, 0)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		shards[i] = []Backend{&Local{Src: eng, Label: fmt.Sprintf("local-%d", i)}}
	}
	return shards, engines
}

func newRouter(t *testing.T, shards [][]Backend) *Router {
	t.Helper()
	r, err := New(shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterShardUnionEquivalence is the tentpole acceptance test: a
// router over N in-process shards answers every score, link, batch and
// top-k query bit-identically to the single engine over the unsplit
// bundle — for N = 1 (trivial split), 2 and 4.
func TestRouterShardUnionEquivalence(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4} {
		shards, _ := shardBackends(t, n, 1)
		r := newRouter(t, shards)

		// Top-k: every A account, both truncated and full rankings.
		for a := 0; a < e.nA; a++ {
			for _, k := range []int{5, 0} {
				want, err := e.single.TopK(e.pair[0], a, e.pair[1], k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.TopK(ctx, e.pair[0], a, e.pair[1], k)
				if err != nil {
					t.Fatalf("n=%d a=%d k=%d: %v", n, a, k, err)
				}
				if got.Degraded || got.Generation != 1 {
					t.Fatalf("n=%d a=%d: degraded=%v gen=%d on a healthy set", n, a, got.Degraded, got.Generation)
				}
				if len(want) == 0 && len(got.Results) == 0 {
					continue
				}
				if !reflect.DeepEqual(got.Results, want) {
					t.Fatalf("n=%d a=%d k=%d: router %+v, single %+v", n, a, k, got.Results, want)
				}
			}
		}

		// Scores: one big batch covering every (a, b) pair, in one scatter.
		var pairs [][2]int
		for a := 0; a < e.nA; a++ {
			for b := 0; b < e.nB; b++ {
				pairs = append(pairs, [2]int{a, b})
			}
		}
		want, err := e.single.ScoreBatch(e.pair[0], e.pair[1], pairs)
		if err != nil {
			t.Fatal(err)
		}
		got, gen, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], pairs)
		if err != nil {
			t.Fatalf("n=%d batch: %v", n, err)
		}
		if gen != 1 {
			t.Fatalf("n=%d batch answered at generation %d", n, gen)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: batch scores differ from single engine", n)
		}

		// Single-pair spot checks: a batch of one, as /score sends it.
		for _, p := range [][2]int{{0, 0}, {1, e.nB - 1}, {e.nA - 1, e.nB / 2}} {
			s, _, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], [][2]int{p})
			if err != nil {
				t.Fatal(err)
			}
			ws, err := e.single.Score(e.pair[0], p[0], e.pair[1], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if s[0] != ws {
				t.Fatalf("n=%d score(%v) = %v, single %v", n, p, s[0], ws)
			}
		}

		// Query errors propagate as query errors, not shard failures.
		if _, _, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], [][2]int{{0, e.nB + 100}}); err == nil || !IsQueryError(err) {
			t.Fatalf("n=%d: out-of-range score returned %v, want query error", n, err)
		}
	}
}

// downBackend fails every call — a crashed replica.
type downBackend struct{ name string }

func (d *downBackend) Name() string { return d.name }
func (d *downBackend) Health(context.Context) (Health, error) {
	return Health{}, fmt.Errorf("connection refused")
}
func (d *downBackend) ScoreBatch(context.Context, platform.ID, platform.ID, [][2]int) ([]float64, uint64, error) {
	return nil, 0, fmt.Errorf("connection refused")
}
func (d *downBackend) TopK(context.Context, platform.ID, int, platform.ID, int) ([]serve.Scored, uint64, error) {
	return nil, 0, fmt.Errorf("connection refused")
}

// TestRouterDegradedShard kills one shard of four (after a healthy
// Refresh) and asserts: top-k still answers, flagged degraded with the
// dead shard listed, and every returned row is exactly the single
// engine's ranking minus the dead shard's slice; score batches touching
// the dead shard fail loudly, batches avoiding it still answer.
func TestRouterDegradedShard(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 4, 1)
	r := newRouter(t, shards) // health-checked while everything is alive
	const dead = 2
	shards[dead][0] = &downBackend{name: "local-2"}
	desc := engines[dead].ShardDesc()

	for a := 0; a < e.nA; a++ {
		full, err := e.single.TopK(e.pair[0], a, e.pair[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []serve.Scored
		for _, s := range full {
			if desc.ShardOf(e.pair[1], s.B) != dead {
				want = append(want, s)
			}
		}
		if len(want) > 5 {
			want = want[:5]
		}
		got, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
		if err != nil {
			t.Fatalf("a=%d: degraded top-k errored: %v", a, err)
		}
		if !got.Degraded || !reflect.DeepEqual(got.FailedShards, []int{dead}) {
			t.Fatalf("a=%d: degraded=%v failed=%v, want degraded with shard %d", a, got.Degraded, got.FailedShards, dead)
		}
		if len(got.Results) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("a=%d: degraded results %+v, want %+v", a, got.Results, want)
			}
		}
	}

	// Batches: routing around the corpse works, through it fails.
	var live, doomed [][2]int
	for b := 0; b < e.nB; b++ {
		if desc.ShardOf(e.pair[1], b) == dead {
			doomed = append(doomed, [2]int{0, b})
		} else {
			live = append(live, [2]int{0, b})
		}
	}
	if len(live) == 0 || len(doomed) == 0 {
		t.Fatal("fixture too small: a shard owns nothing")
	}
	if _, _, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], live); err != nil {
		t.Fatalf("batch avoiding the dead shard failed: %v", err)
	}
	if _, _, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], doomed); err == nil {
		t.Fatal("batch through the dead shard did not error")
	}
}

// TestRouterReplicaFailover puts a dead replica first in a shard's ring
// and asserts queries fail over to the live one — and that the router
// remembers the live replica, so the corpse is not retried on the next
// query.
func TestRouterReplicaFailover(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, _ := shardBackends(t, 2, 1)
	shards[0] = append([]Backend{&downBackend{name: "dead-0"}}, shards[0]...)
	r := newRouter(t, shards)

	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("failover left the response degraded: %+v", res)
	}
	if got := r.pref[0].Load(); got != 1 {
		t.Fatalf("preferred replica after failover = %d, want 1", got)
	}
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if !reflect.DeepEqual(res.Results, want) {
		t.Fatalf("failover results differ from single engine")
	}
}

// flipBackend answers from gen1 for the first n calls of each kind, then
// from gen2 — a replica observed mid-hot-swap.
type flipBackend struct {
	gen1, gen2 Backend
	mu         sync.Mutex
	topkCalls  int
	batchCalls int
	flipAfter  int
}

func (f *flipBackend) Name() string { return "flip" }
func (f *flipBackend) Health(ctx context.Context) (Health, error) {
	return f.gen2.Health(ctx)
}
func (f *flipBackend) pick(calls int) Backend {
	if calls < f.flipAfter {
		return f.gen1
	}
	return f.gen2
}
func (f *flipBackend) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	f.mu.Lock()
	b := f.pick(f.batchCalls)
	f.batchCalls++
	f.mu.Unlock()
	return b.ScoreBatch(ctx, pa, pb, pairs)
}
func (f *flipBackend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	f.mu.Lock()
	b := f.pick(f.topkCalls)
	f.topkCalls++
	f.mu.Unlock()
	return b.TopK(ctx, pa, a, pb, k)
}

// TestRouterMixedGenerationRetry scripts a swap landing mid-scatter: one
// shard answers the first fan-out at generation 1 while the other is
// already at 2. The router must retry and deliver a uniform generation-2
// response — and if the shard is still stale on the retry (a rolling
// swap), top-k must answer from the new generation alone, flagged
// degraded, never mixing generations.
func TestRouterMixedGenerationRetry(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	gen1, _ := shardBackends(t, 2, 1)
	gen2, _ := shardBackends(t, 2, 2)

	// Shard 0 flips to gen2 after one stale answer; shard 1 is at gen2.
	flip := &flipBackend{gen1: gen1[0][0], gen2: gen2[0][0], flipAfter: 1}
	r := newRouter(t, [][]Backend{{flip}, gen2[1]})

	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.Degraded {
		t.Fatalf("retry did not converge: gen=%d degraded=%v", res.Generation, res.Degraded)
	}
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if !reflect.DeepEqual(res.Results, want) {
		t.Fatalf("post-retry results differ from single engine")
	}

	// Batch path: same flip, must converge on generation 2.
	flip2 := &flipBackend{gen1: gen1[0][0], gen2: gen2[0][0], flipAfter: 1}
	r2 := newRouter(t, [][]Backend{{flip2}, gen2[1]})
	var pairs [][2]int
	for b := 0; b < e.nB; b++ {
		pairs = append(pairs, [2]int{0, b})
	}
	_, gen, err := r2.ScoreBatch(ctx, e.pair[0], e.pair[1], pairs)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("batch converged at generation %d, want 2", gen)
	}

	// A shard pinned at the stale generation: top-k degrades to the new
	// generation instead of erroring or mixing.
	stale := &flipBackend{gen1: gen1[0][0], gen2: gen2[0][0], flipAfter: 1 << 30}
	r3 := newRouter(t, [][]Backend{{stale}, gen2[1]})
	res3, err := r3.TopK(ctx, e.pair[0], 0, e.pair[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Generation != 2 || !res3.Degraded || !reflect.DeepEqual(res3.FailedShards, []int{0}) {
		t.Fatalf("rolling-swap top-k: gen=%d degraded=%v failed=%v", res3.Generation, res3.Degraded, res3.FailedShards)
	}
}

// TestRouterSwapMidQuery runs the full hot-swap drill: two shards behind
// Swappables serve a stream of concurrent queries while both swap from
// generation 1 to 2. No query may fail, and every response must carry a
// single generation in {1, 2}. Run under -race this is the end-to-end
// proof for the tentpole's no-dropped-queries acceptance criterion.
func TestRouterSwapMidQuery(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	_, eng1 := shardBackends(t, 2, 1)
	_, eng2 := shardBackends(t, 2, 2)
	holders := []*serve.Swappable{serve.NewSwappable(eng1[0]), serve.NewSwappable(eng1[1])}
	shards := [][]Backend{
		{&Local{Src: holders[0], Label: "swap-0"}},
		{&Local{Src: holders[1], Label: "swap-1"}},
	}
	r := newRouter(t, shards)

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := w % e.nA
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.Generation != 1 && res.Generation != 2 {
					errCh <- fmt.Errorf("worker %d: generation %d", w, res.Generation)
					return
				}
			}
		}(w)
	}
	for i, h := range holders {
		if _, err := h.Swap(eng2[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("query failed during hot swap: %v", err)
	default:
	}

	// Settled: full-fidelity generation-2 answers, identical to the
	// single engine.
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if res.Generation != 2 || res.Degraded || !reflect.DeepEqual(res.Results, want) {
		t.Fatalf("post-swap top-k: gen=%d degraded=%v", res.Generation, res.Degraded)
	}
}

// staticBackend reports a fixed health and fails everything else — for
// Refresh coherence tests.
type staticBackend struct {
	name   string
	health Health
}

func (s *staticBackend) Name() string                           { return s.name }
func (s *staticBackend) Health(context.Context) (Health, error) { return s.health, nil }
func (s *staticBackend) ScoreBatch(context.Context, platform.ID, platform.ID, [][2]int) ([]float64, uint64, error) {
	return nil, 0, fmt.Errorf("static")
}
func (s *staticBackend) TopK(context.Context, platform.ID, int, platform.ID, int) ([]serve.Scored, uint64, error) {
	return nil, 0, fmt.Errorf("static")
}

// TestRouterRefreshCoherence asserts Refresh refuses every way a
// membership list can disagree with the bundles actually being served.
func TestRouterRefreshCoherence(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, _ := shardBackends(t, 2, 1)

	// Shard slots swapped: descriptor index disagrees with the slot.
	r, err := New([][]Backend{shards[1], shards[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err == nil {
		t.Error("Refresh accepted out-of-order shard slots")
	}

	// A 2-way split behind a 1-shard router.
	r, err = New([][]Backend{shards[0]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err == nil {
		t.Error("Refresh accepted a 2-way split with 1 configured shard")
	}

	// Mismatched seeds across slots.
	otherSeed, err := pipeline.SplitBundle(e.bundle, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	otherEng, err := serve.NewEngineFromBundle(otherSeed[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err = New([][]Backend{shards[0], {&Local{Src: otherEng, Label: "other"}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err == nil {
		t.Error("Refresh accepted shards from different splits")
	}

	// An unsharded bundle in a multi-shard set.
	unsharded := &staticBackend{name: "plain", health: Health{OK: true}}
	r, err = New([][]Backend{shards[0], {unsharded}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err == nil {
		t.Error("Refresh accepted an unsharded bundle in a 2-shard set")
	}

	// Single unsharded backend: plain proxy mode, allowed.
	r, err = New([][]Backend{{&Local{Src: e.single, Label: "solo"}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err != nil {
		t.Fatalf("proxy mode refused: %v", err)
	}
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if !reflect.DeepEqual(res.Results, want) {
		t.Fatal("proxy mode results differ from the engine")
	}

	// Generation divergence is a rolling-swap transient, not a refusal.
	gen2, _ := shardBackends(t, 2, 2)
	gen1, _ := shardBackends(t, 2, 1)
	r, err = New([][]Backend{gen1[0], gen2[1]}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err != nil {
		t.Fatalf("Refresh refused a mid-rolling-swap set: %v", err)
	}
}

// TestRouterRelaysPrescreenHealth asserts the router's health surface
// carries each shard's two-tier pruning telemetry end to end: the Local
// backend reports the engine's prescreen block, Status relays it per
// shard, and the router's /metrics block republishes every probe.
func TestRouterRelaysPrescreenHealth(t *testing.T) {
	e := getEnv(t)
	if e.bundle.Prescreen == nil {
		t.Fatal("fixture bundle carries no prescreen")
	}
	shards, engines := shardBackends(t, 2, 1)
	r := newRouter(t, shards)
	ctx := context.Background()

	// Drive some top-k traffic so the engines' counters move (wide shards
	// are not guaranteed here, so only Queries+Skipped is pinned).
	if _, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 3); err != nil {
		t.Fatal(err)
	}
	statuses := r.Status(ctx)
	for _, st := range statuses {
		if !st.Healthy {
			t.Fatalf("shard %d unhealthy: %s", st.Shard, st.Error)
		}
		if st.Prescreen == nil {
			t.Fatalf("shard %d status relayed no prescreen health", st.Shard)
		}
		if !st.Prescreen.Enabled || st.Prescreen.Eps <= 0 {
			t.Fatalf("shard %d prescreen health malformed: %+v", st.Shard, st.Prescreen)
		}
		if st.Prescreen.Queries+st.Prescreen.Skipped == 0 {
			t.Fatalf("shard %d saw a top-k but reports no prescreen decisions: %+v", st.Shard, st.Prescreen)
		}
		// The probe replaced the startup refresh's all-zero gauge.
		want := fmt.Sprintf("hydra_shard_prescreen{shard=\"%d\",stat=\"skipped\"} %d\n", st.Shard, st.Prescreen.Skipped)
		var page strings.Builder
		if r.WriteMetrics(&page); !strings.Contains(page.String(), want) {
			t.Fatalf("/metrics block missed shard %d's probe: want %q in\n%s", st.Shard, want, page.String())
		}
	}
	// A prescreen-less engine reports a nil block all the way through.
	exact := engines[0]
	if err := exact.Model.SetPrescreen(nil); err != nil {
		t.Fatal(err)
	}
	if h, err := (&Local{Src: exact}).Health(ctx); err != nil || h.Prescreen != nil {
		t.Fatalf("prescreen-less shard leaked health %+v (err %v)", h.Prescreen, err)
	}
}

// TestRouterRelaysImputeHealth asserts the imputation telemetry travels
// the same road as the prescreen block: the Local backend reports the
// engine's impute health (table entries, pair-cache counters), Status
// relays it per shard, and the router's /metrics block republishes it.
func TestRouterRelaysImputeHealth(t *testing.T) {
	e := getEnv(t)
	if e.bundle.ImputeTable == nil {
		t.Fatal("fixture bundle carries no impute table")
	}
	shards, engines := shardBackends(t, 2, 1)
	r := newRouter(t, shards)
	ctx := context.Background()
	if _, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 3); err != nil {
		t.Fatal(err)
	}
	for _, st := range r.Status(ctx) {
		if !st.Healthy {
			t.Fatalf("shard %d unhealthy: %s", st.Shard, st.Error)
		}
		if st.Impute == nil {
			t.Fatalf("shard %d status relayed no impute health", st.Shard)
		}
		if !st.Impute.Enabled || st.Impute.TableEntries == 0 {
			t.Fatalf("shard %d impute health malformed: %+v", st.Shard, st.Impute)
		}
		want := fmt.Sprintf("hydra_shard_impute{shard=\"%d\",stat=\"pair_cache_misses\"} %d\n", st.Shard, st.Impute.PairCacheMisses)
		var page strings.Builder
		if r.WriteMetrics(&page); !strings.Contains(page.String(), want) {
			t.Fatalf("/metrics block missed shard %d's probe: want %q in\n%s", st.Shard, want, page.String())
		}
	}
	// The runtime toggle shows up in the health block (answers are
	// bit-identical either way; only the reported state flips).
	engines[0].SetImputeTableEnabled(false)
	if h, err := (&Local{Src: engines[0]}).Health(ctx); err != nil || h.Impute == nil || h.Impute.Enabled {
		t.Fatalf("disabled impute table not reflected in health: %+v (err %v)", h.Impute, err)
	}
}

// retiredFirst is an EngineSource caught mid-swap: its first Current
// yields the generation that has just been retired, every later one the
// live engine — the window Swappable leaves between a caller's pointer
// load and its Acquire.
type retiredFirst struct {
	retired, live *serve.Engine
	loads         atomic.Int32
}

func (s *retiredFirst) Current() (*serve.Engine, uint64) {
	if s.loads.Add(1) == 1 {
		return s.retired.Current()
	}
	return s.live.Current()
}

// TestRouterLocalPinsEngine asserts the in-process backend pins its
// engine the way the HTTP front-end does: handed a retired engine — a
// mapped one, whose file closes as soon as nothing pins it — Local must
// re-resolve its source and answer from the live generation, never
// query the retired one.
func TestRouterLocalPinsEngine(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	subs, err := pipeline.SplitBundle(e.bundle, 1, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen1.bin")
	if err := pipeline.SaveBundle(path, subs[0]); err != nil {
		t.Fatal(err)
	}
	_, lives := shardBackends(t, 1, 2)
	want, err := lives[0].TopK(e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]func(*Local) (uint64, error){
		"Health": func(l *Local) (uint64, error) {
			h, err := l.Health(ctx)
			return h.Generation, err
		},
		"ScoreBatch": func(l *Local) (uint64, error) {
			_, gen, err := l.ScoreBatch(ctx, e.pair[0], e.pair[1], [][2]int{{0, want[0].B}})
			return gen, err
		},
		"TopK": func(l *Local) (uint64, error) {
			got, gen, err := l.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("rows %v, want the live engine's %v", got, want)
			}
			return gen, err
		},
	} {
		mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		old, err := serve.NewEngineFromMapped(mb, 0)
		if err != nil {
			mb.Close()
			t.Fatal(err)
		}
		old.Retire() // nothing pins it: its file is on its way to closing
		src := &retiredFirst{retired: old, live: lives[0]}
		gen, err := query(&Local{Src: src})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gen != 2 || src.loads.Load() != 2 {
			t.Fatalf("%s answered from generation %d after %d source loads, want the live generation 2 on the second load",
				name, gen, src.loads.Load())
		}
	}
}
