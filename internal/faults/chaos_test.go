package faults

// The chaos certification suite: seeded fault scripts against a sharded
// router, every run asserting the serving tier's one invariant — the
// answer is byte-identical to the fault-free single engine, or it
// carries Degraded/FailedShards truthfully (present rows still exact,
// missing rows exactly the failed shards' slices). Fault decisions are
// deterministic per seed, so a failing scenario replays as a plain
// `go test -run Chaos` with the same seed; the whole file runs under
// -race via the Makefile filter.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
	"hydra/internal/synth"
)

// chaosEnv mirrors the router test fixture: one trained model, its
// unsharded engine as ground truth. Package faults imports router, so
// the suite lives here with its own copy rather than creating a cycle.
type chaosEnv struct {
	bundle *pipeline.Bundle
	single *serve.Engine
	pair   [2]platform.ID
	nA     int
}

var (
	chaosOnce sync.Once
	chaosE    chaosEnv
	chaosErr  error
)

func getChaosEnv(t *testing.T) chaosEnv {
	t.Helper()
	chaosOnce.Do(func() { chaosE, chaosErr = buildChaosEnv() })
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosE
}

func buildChaosEnv() (chaosEnv, error) {
	const seed = 4
	w, err := synth.Generate(synth.DefaultConfig(36, platform.EnglishPlatforms, seed))
	if err != nil {
		return chaosEnv{}, err
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
		return chaosEnv{}, err
	}
	blocked, err := pipeline.Block(sysState, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: blocking.DefaultRules(),
		Label: core.DefaultLabelOpts(seed),
	})
	if err != nil {
		return chaosEnv{}, err
	}
	fitted, err := pipeline.Fit(blocked, core.DefaultConfig(seed))
	if err != nil {
		return chaosEnv{}, err
	}
	bundle, err := fitted.Bundle(0)
	if err != nil {
		return chaosEnv{}, err
	}
	single, err := serve.NewEngineFromBundle(bundle, 0)
	if err != nil {
		return chaosEnv{}, err
	}
	pair := single.Pairs()[0]
	return chaosEnv{
		bundle: bundle,
		single: single,
		pair:   pair,
		nA:     len(bundle.Views[pair[0]]),
	}, nil
}

// chaosEngines splits the env bundle count ways at the generation.
func chaosEngines(t *testing.T, count int, gen uint64) []*serve.Engine {
	t.Helper()
	e := getChaosEnv(t)
	subs, err := pipeline.SplitBundle(e.bundle, count, 7, gen)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*serve.Engine, count)
	for i, sb := range subs {
		eng, err := serve.NewEngineFromBundle(sb, 0)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}

// faultyShards wraps each shard engine in a faults.Backend named
// "shard-<i>" under one injector — the standard chaos topology.
func faultyShards(engines []*serve.Engine, inj *Injector) [][]router.Backend {
	shards := make([][]router.Backend, len(engines))
	for i, eng := range engines {
		shards[i] = []router.Backend{&Backend{
			Inner:  &router.Local{Src: eng, Label: fmt.Sprintf("inner-%d", i)},
			Inj:    inj,
			Target: fmt.Sprintf("shard-%d", i),
		}}
	}
	return shards
}

// assertInvariant is the certification check run on every chaos answer:
// non-degraded responses must be bit-identical to the single engine;
// degraded ones must carry exactly the single engine's ranking minus the
// flagged shards' slices — truthful, never silently wrong.
func assertInvariant(t *testing.T, desc *pipeline.ShardDesc, res router.TopKResult, a, k int) {
	t.Helper()
	e := getChaosEnv(t)
	if !res.Degraded {
		if len(res.FailedShards) != 0 {
			t.Fatalf("a=%d: failed_shards %v on a non-degraded response", a, res.FailedShards)
		}
		want, err := e.single.TopK(e.pair[0], a, e.pair[1], k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Results, want) {
			t.Fatalf("a=%d: non-degraded answer differs from the single engine", a)
		}
		return
	}
	if len(res.FailedShards) == 0 {
		t.Fatalf("a=%d: degraded with no failed shards", a)
	}
	failed := make(map[int]bool, len(res.FailedShards))
	for _, si := range res.FailedShards {
		failed[si] = true
	}
	full, err := e.single.TopK(e.pair[0], a, e.pair[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []serve.Scored
	for _, s := range full {
		if !failed[desc.ShardOf(e.pair[1], s.B)] {
			want = append(want, s)
		}
	}
	if k > 0 && len(want) > k {
		want = want[:k]
	}
	if len(res.Results) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(res.Results, want) {
		t.Fatalf("a=%d: degraded rows are not the single engine minus shards %v", a, res.FailedShards)
	}
}

// TestChaosEachShardFlapping flips every shard's replica up and down on
// seeded probabilistic scripts across three seeds: each answer must be
// exact or truthfully degraded, and with breakers on short windows the
// tier must keep producing exact answers between flaps.
func TestChaosEachShardFlapping(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			engines := chaosEngines(t, 2, 1)
			inj := NewInjector(Script{Seed: seed, Rules: []Rule{
				{Target: "shard-0", P: 0.25, Error: true},
				{Target: "shard-1", P: 0.25, Error: true},
			}})
			r, err := router.New(faultyShards(engines, inj), router.Options{
				BackoffBase:    50 * time.Microsecond,
				BreakerOpenFor: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			desc := engines[0].ShardDesc()
			exact, outages := 0, 0
			for q := 0; q < 60; q++ {
				a := q % e.nA
				res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
				if err != nil {
					// Both shards flapped on the same query: the router
					// reports a total outage instead of fabricating rows —
					// truthful, and the next query must recover.
					outages++
					continue
				}
				assertInvariant(t, desc, res, a, 5)
				if !res.Degraded {
					exact++
				}
			}
			if exact == 0 {
				t.Fatalf("seed %d: no exact answers across 60 queries under 25%% flapping (%d outages)", seed, outages)
			}
			if outages == 60 {
				t.Fatalf("seed %d: every query was a total outage under 25%% flapping", seed)
			}
		})
	}
}

// TestChaosOneShardPermanentlyDown is the acceptance drill: one shard's
// only replica hard-down, every answer honestly degraded, and —
// measured by the injector's own call counter — the breaker caps the
// traffic the corpse sees to the trip threshold plus stray probes.
func TestChaosOneShardPermanentlyDown(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	engines := chaosEngines(t, 2, 1)
	inj := NewInjector(Script{Rules: []Rule{{Target: "shard-1", Error: true}}})
	r, err := router.New(faultyShards(engines, inj), router.Options{
		BackoffBase:    50 * time.Microsecond,
		BreakerOpenFor: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	desc := engines[0].ShardDesc()
	const queries = 150
	for q := 0; q < queries; q++ {
		a := q % e.nA
		res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
		if err != nil {
			t.Fatalf("query %d hard-failed: %v", q, err)
		}
		if !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{1}) {
			t.Fatalf("query %d: degraded=%v failed=%v", q, res.Degraded, res.FailedShards)
		}
		assertInvariant(t, desc, res, a, 5)
	}
	if calls := inj.Calls("shard-1"); calls > 6 {
		t.Fatalf("dead shard saw %d calls over %d queries; the breaker should cap near its threshold", calls, queries)
	}
	if st := r.RobustStats(); st.FailFast == 0 {
		t.Fatal("open breaker produced no fail-fast denials")
	}
}

// TestChaosUniformSlowness injects latency into every replica, below
// the attempt timeout: nothing may degrade, every answer bit-identical.
func TestChaosUniformSlowness(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	engines := chaosEngines(t, 2, 1)
	inj := NewInjector(Script{Seed: 5, Rules: []Rule{
		{Latency: 2 * time.Millisecond, Jitter: time.Millisecond},
	}})
	r, err := router.New(faultyShards(engines, inj), router.Options{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	desc := engines[0].ShardDesc()
	for q := 0; q < 25; q++ {
		a := q % e.nA
		res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("query %d degraded under uniform 2ms slowness", q)
		}
		assertInvariant(t, desc, res, a, 5)
	}
	if inj.Calls("shard-0") == 0 || inj.Calls("shard-1") == 0 {
		t.Fatal("injector saw no traffic — the wrapper is not in the path")
	}
}

// TestChaosStragglerTail gives one shard two replicas — a seeded
// straggler and a clean one — with hedging on: answers must stay exact
// (the backup covers the tail), and the hedge counters must show it
// actually fired and won at least once across the run.
func TestChaosStragglerTail(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	engines := chaosEngines(t, 1, 1)
	inj := NewInjector(Script{Seed: 11, Rules: []Rule{
		{Target: "straggler", P: 0.5, Latency: 60 * time.Millisecond},
	}})
	straggler := &Backend{
		Inner:  &router.Local{Src: engines[0], Label: "inner-straggler"},
		Inj:    inj,
		Target: "straggler",
	}
	clean := &Backend{
		Inner:  &router.Local{Src: engines[0], Label: "inner-clean"},
		Inj:    inj,
		Target: "clean",
	}
	r, err := router.New([][]router.Backend{{straggler, clean}}, router.Options{
		HedgeAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	desc := engines[0].ShardDesc()
	for q := 0; q < 40; q++ {
		a := q % e.nA
		res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			t.Fatalf("query %d degraded: a straggler with a clean twin must not degrade", q)
		}
		assertInvariant(t, desc, res, a, 5)
	}
	// The preferred replica migrates to whichever answered last, so not
	// every query hedges — but across 40 with a 50% straggle rate the
	// hedge must have fired and won at least once.
	st := r.RobustStats()
	if st.HedgeFired == 0 || st.HedgeWon == 0 {
		t.Fatalf("hedge counters fired=%d won=%d across a straggler run", st.HedgeFired, st.HedgeWon)
	}
}

// TestChaosSwapStorm flips both shards from generation 1 to generation
// 2 at different call counts — swaps landing mid-scatter. The router
// must either re-fan-out to a uniform answer or flag the stale shard;
// never mix generations, never return wrong rows.
func TestChaosSwapStorm(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			old := chaosEngines(t, 2, 1)
			next := chaosEngines(t, 2, 2)
			inj := NewInjector(Script{Seed: seed})
			shards := make([][]router.Backend, 2)
			for i := range shards {
				shards[i] = []router.Backend{&FlipBackend{
					Before: &router.Local{Src: old[i], Label: fmt.Sprintf("old-%d", i)},
					After:  &router.Local{Src: next[i], Label: fmt.Sprintf("new-%d", i)},
					At:     uint64(3 + 4*i + int(seed)), // staggered swap points
					Inj:    inj,
					Target: fmt.Sprintf("flip-%d", i),
				}}
			}
			r, err := router.New(shards, router.Options{BackoffBase: 50 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			desc := old[0].ShardDesc() // split topology is identical across generations
			sawGen2 := false
			for q := 0; q < 30; q++ {
				a := q % e.nA
				res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
				if err != nil {
					t.Fatalf("query %d hard-failed mid-storm: %v", q, err)
				}
				assertInvariant(t, desc, res, a, 5)
				if res.Generation == 2 {
					sawGen2 = true
				} else if res.Generation != 1 {
					t.Fatalf("query %d answered from generation %d", q, res.Generation)
				}
			}
			if !sawGen2 {
				t.Fatal("storm never completed: no generation-2 answers")
			}
		})
	}
}

// TestChaosOverloadSheds drives more concurrent requests than the
// admission gate's in-flight bound over slowed-down shards: the
// overflow must be shed with 429 + Retry-After (and counted), and every
// admitted answer must still pass the invariant.
func TestChaosOverloadSheds(t *testing.T) {
	e := getChaosEnv(t)
	engines := chaosEngines(t, 2, 1)
	inj := NewInjector(Script{Seed: 8, Rules: []Rule{
		{Latency: 30 * time.Millisecond}, // hold requests in flight
	}})
	r, err := router.New(faultyShards(engines, inj), router.Options{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	desc := engines[0].ShardDesc()
	adm := obs.NewAdmission(2)
	srv := httptest.NewServer(adm.Middleware(r.Handler()))
	defer srv.Close()

	const clients = 12
	type reply struct {
		status     int
		retryAfter string
		res        router.TopKResult
		a          int
		err        error
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	var ready, fire sync.WaitGroup
	ready.Add(clients)
	fire.Add(1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := c % e.nA
			replies[c].a = a
			ready.Done()
			fire.Wait() // all clients release together to exceed the bound
			resp, err := http.Get(fmt.Sprintf("%s/topk?pa=%s&a=%d&pb=%s&k=5", srv.URL, e.pair[0], a, e.pair[1]))
			if err != nil {
				replies[c].err = err
				return
			}
			defer resp.Body.Close()
			replies[c].status = resp.StatusCode
			replies[c].retryAfter = resp.Header.Get("Retry-After")
			if resp.StatusCode == http.StatusOK {
				replies[c].err = json.NewDecoder(resp.Body).Decode(&replies[c].res)
			}
		}(c)
	}
	ready.Wait()
	fire.Done()
	wg.Wait()

	var ok, shed int
	for _, rep := range replies {
		if rep.err != nil {
			t.Fatal(rep.err)
		}
		switch rep.status {
		case http.StatusOK:
			ok++
			assertInvariant(t, desc, rep.res, rep.a, 5)
		case http.StatusTooManyRequests:
			shed++
			if rep.retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d under overload", rep.status)
		}
	}
	if ok == 0 {
		t.Fatal("admission gate admitted nothing")
	}
	if shed == 0 {
		t.Fatalf("12 simultaneous clients against an in-flight bound of 2 shed nothing (ok=%d)", ok)
	}
	if _, _, shedCount := adm.Stats(); shedCount != uint64(shed) {
		t.Fatalf("shed counter %d != observed 429s %d", shedCount, shed)
	}
}

// TestChaosHangingShardWithinBudget scripts a shard that answers
// nothing at all (slow-loris hang): under a deadline budget the router
// must return the survivors' exact rows with the hung shard flagged,
// within the budget — the no-silent-stall guarantee.
func TestChaosHangingShardWithinBudget(t *testing.T) {
	e := getChaosEnv(t)
	engines := chaosEngines(t, 2, 1)
	inj := NewInjector(Script{Rules: []Rule{{Target: "shard-1", Hang: true}}})
	r, err := router.New(faultyShards(engines, inj), router.Options{
		BackoffBase: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	desc := engines[0].ShardDesc()
	ctx := router.WithBudget(context.Background(), time.Now().Add(200*time.Millisecond))
	start := time.Now()
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hung shard turned into a router-wide failure: %v", err)
	}
	if !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{1}) {
		t.Fatalf("degraded=%v failed=%v, want the hung shard flagged", res.Degraded, res.FailedShards)
	}
	assertInvariant(t, desc, res, 0, 5)
	if elapsed > 30*time.Second {
		t.Fatalf("budgeted answer took %v against a 200ms budget", elapsed)
	}
	if hangs := inj.InjectedHangs("shard-1"); hangs == 0 {
		t.Fatal("no hangs injected — the script never engaged")
	}
}

// chaosHTTPCluster puts the shard engines on the wire: every engine's
// real Handler() on two httptest listeners, replica 0 of each behind
// the fault Middleware as target "shard<i>-r0", fronted by a refreshed
// router over router.HTTP backends — JSON both ways, per-attempt
// timeouts and tied hedging, the path the router.Local fixtures skip.
func chaosHTTPCluster(t *testing.T, engines []*serve.Engine, inj *Injector, opts router.Options) *router.Router {
	t.Helper()
	shards := make([][]router.Backend, len(engines))
	for si, eng := range engines {
		for ri := 0; ri < 2; ri++ {
			h := eng.Handler()
			if ri == 0 {
				h = Middleware(h, inj, fmt.Sprintf("shard%d-r0", si))
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			shards[si] = append(shards[si], &router.HTTP{URL: srv.URL})
		}
	}
	r, err := router.New(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChaosHTTPReplicaDownThenStragglerTail runs the two wire-level
// fault scripts against live listeners, 2 shards × 2 replicas: shard 0's
// preferred replica hard-down (503 on everything, /healthz included),
// then a seeded straggler tail on every shard's preferred replica with
// tied hedging on. Each shard keeps a healthy twin throughout, so no
// answer may degrade and every one must match the single engine byte
// for byte; the dead replica's traffic is bounded by its breaker,
// measured by the injector's own call counter.
func TestChaosHTTPReplicaDownThenStragglerTail(t *testing.T) {
	e := getChaosEnv(t)
	ctx := context.Background()
	engines := chaosEngines(t, 2, 1)
	desc := engines[0].ShardDesc()
	sweep := func(r *router.Router, queries int) {
		t.Helper()
		for q := 0; q < queries; q++ {
			a := q % e.nA
			res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
			if err != nil {
				t.Fatalf("query %d hard-failed: %v", q, err)
			}
			if res.Degraded {
				t.Fatalf("query %d degraded (failed shards %v) although every shard has a healthy replica", q, res.FailedShards)
			}
			assertInvariant(t, desc, res, a, 5)
		}
	}

	const queries = 100
	dead := NewInjector(Script{Rules: []Rule{{Target: "shard0-r0", Error: true}}})
	sweep(chaosHTTPCluster(t, engines, dead, router.Options{BreakerOpenFor: time.Hour}), queries)
	if calls := dead.Calls("shard0-r0"); calls == 0 || calls > 6 {
		t.Fatalf("dead replica saw %d calls over %d queries; want the startup probe plus at most a breaker threshold of strays", calls, queries)
	}

	strag := NewInjector(Script{Seed: 11, Rules: []Rule{
		{Target: "shard0-r0", P: 0.3, Latency: 40 * time.Millisecond},
		{Target: "shard1-r0", P: 0.3, Latency: 40 * time.Millisecond},
	}})
	r := chaosHTTPCluster(t, engines, strag, router.Options{HedgeAfter: 3 * time.Millisecond})
	sweep(r, queries)
	if st := r.RobustStats(); st.HedgeFired == 0 {
		t.Fatalf("no hedge fired across a straggler run (%d / %d calls reached the straggling replicas)",
			strag.Calls("shard0-r0"), strag.Calls("shard1-r0"))
	}
}

// TestChaosMiddlewareAndRoundTripper covers the wire-level injectors:
// the handler middleware answers 503 on scripted errors, and the
// RoundTripper fails the client side without touching the server.
func TestChaosMiddlewareAndRoundTripper(t *testing.T) {
	var served atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	inj := NewInjector(Script{Rules: []Rule{{Target: "mw", Every: 2, Error: true}}})
	srv := httptest.NewServer(Middleware(inner, inj, "mw"))
	defer srv.Close()
	var codes []int
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if want := []int{503, 200, 503, 200}; !reflect.DeepEqual(codes, want) {
		t.Fatalf("middleware codes = %v, want %v", codes, want)
	}
	if served.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (faulted calls must not reach it)", served.Load())
	}

	rtInj := NewInjector(Script{Rules: []Rule{{Target: "rt", Error: true}}})
	client := &http.Client{Transport: &RoundTripper{Inj: rtInj, Target: "rt"}}
	if _, err := client.Get(srv.URL); err == nil {
		t.Fatal("faulted round trip succeeded")
	}
	if served.Load() != 2 {
		t.Fatal("client-side fault reached the server")
	}
}
