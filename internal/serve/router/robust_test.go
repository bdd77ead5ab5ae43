package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hydra/internal/platform"
	"hydra/internal/serve"
)

// countingBackend fails every call while down (counting them — the
// probe-traffic meter the breaker tests assert against) and delegates
// to inner once revived.
type countingBackend struct {
	name  string
	inner Backend
	calls atomic.Int64
	up    atomic.Bool
}

func (c *countingBackend) Name() string { return c.name }

func (c *countingBackend) Health(ctx context.Context) (Health, error) {
	c.calls.Add(1)
	if !c.up.Load() {
		return Health{}, fmt.Errorf("connection refused")
	}
	return c.inner.Health(ctx)
}

func (c *countingBackend) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	c.calls.Add(1)
	if !c.up.Load() {
		return nil, 0, fmt.Errorf("connection refused")
	}
	return c.inner.ScoreBatch(ctx, pa, pb, pairs)
}

func (c *countingBackend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	c.calls.Add(1)
	if !c.up.Load() {
		return nil, 0, fmt.Errorf("connection refused")
	}
	return c.inner.TopK(ctx, pa, a, pb, k)
}

// slowBackend delays every query before delegating — a straggling
// replica.
type slowBackend struct {
	name  string
	inner Backend
	delay time.Duration
}

func (s *slowBackend) Name() string { return s.name }

func (s *slowBackend) wait(ctx context.Context) error {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *slowBackend) Health(ctx context.Context) (Health, error) {
	return s.inner.Health(ctx) // health stays fast so Refresh passes
}

func (s *slowBackend) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	if err := s.wait(ctx); err != nil {
		return nil, 0, err
	}
	return s.inner.ScoreBatch(ctx, pa, pb, pairs)
}

func (s *slowBackend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	if err := s.wait(ctx); err != nil {
		return nil, 0, err
	}
	return s.inner.TopK(ctx, pa, a, pb, k)
}

// TestBreakerCapsDeadShardTraffic hard-downs every replica of one shard
// and hammers the router: the circuit breaker must cap the traffic the
// corpse sees (threshold to trip + at most a few half-open probes),
// every response must stay honestly degraded, and the fail-fast and
// breaker-open counters must show up in RobustStats.
func TestBreakerCapsDeadShardTraffic(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 2, 1)
	dead := &countingBackend{name: "dead-1"} // down: up stays false
	desc := engines[1].ShardDesc()
	shards[1] = []Backend{dead}
	r, err := New(shards, Options{
		BreakerOpenFor: time.Hour, // no probes within the test window
		BackoffBase:    time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No healthy Refresh: the shard is born dead (Refresh would fail).

	const queries = 200
	for q := 0; q < queries; q++ {
		a := q % e.nA
		res, err := r.TopK(ctx, e.pair[0], a, e.pair[1], 5)
		if err != nil {
			t.Fatalf("query %d errored instead of degrading: %v", q, err)
		}
		if !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{1}) {
			t.Fatalf("query %d: degraded=%v failed=%v, want shard 1 down", q, res.Degraded, res.FailedShards)
		}
		// Honesty check: present rows are exactly the single engine's
		// ranking minus the dead shard's slice.
		full, err := e.single.TopK(e.pair[0], a, e.pair[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []serve.Scored
		for _, s := range full {
			if desc.ShardOf(e.pair[1], s.B) != 1 {
				want = append(want, s)
			}
		}
		if len(want) > 5 {
			want = want[:5]
		}
		if len(res.Results) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(res.Results, want) {
				t.Fatalf("query %d: degraded rows differ from single engine minus dead shard", q)
			}
		}
	}

	// The bound: without a breaker the corpse would see rings×queries =
	// 400 calls. With it: threshold (3) trips the breaker, and the
	// hour-long open window admits nothing after — a couple extra for
	// races around the trip.
	if got := dead.calls.Load(); got > 6 {
		t.Fatalf("dead replica saw %d calls across %d queries; breaker should cap near the trip threshold", got, queries)
	}
	st := r.RobustStats()
	if st.FailFast == 0 {
		t.Fatal("no fail-fast denials recorded while a breaker was open")
	}
	var deadOpens uint64
	for _, b := range st.Breakers {
		if b.Shard == 1 {
			deadOpens = b.Opens
			if b.State != "open" {
				t.Fatalf("dead replica's breaker state = %q, want open", b.State)
			}
		}
	}
	if deadOpens == 0 {
		t.Fatal("dead replica's breaker never tripped")
	}
}

// TestBreakerHalfOpenProbeRecovers trips a replica's breaker, revives
// the replica, and asserts the half-open probe readmits it: after the
// open window one real call closes the breaker and responses return to
// full fidelity.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 2, 1)
	flaky := &countingBackend{name: "flaky-1", inner: &Local{Src: engines[1], Label: "inner-1"}}
	shards[1] = []Backend{flaky}
	r, err := New(shards, Options{
		BreakerThreshold: 2,
		BreakerOpenFor:   20 * time.Millisecond,
		BackoffBase:      time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Trip it: a few queries against the down replica.
	for q := 0; q < 4; q++ {
		if res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5); err != nil || !res.Degraded {
			t.Fatalf("query %d while down: err=%v degraded=%v", q, err, res.Degraded)
		}
	}
	tripped := flaky.calls.Load()
	if tripped < 2 {
		t.Fatalf("breaker tripped after %d calls, threshold is 2", tripped)
	}

	flaky.up.Store(true)
	// Past the max jittered open window (20ms base, first trip), the
	// half-open probe must readmit the replica.
	deadline := time.Now().Add(2 * time.Second)
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	for {
		res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded {
			if !reflect.DeepEqual(res.Results, want) {
				t.Fatal("recovered response differs from single engine")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica revived but breaker never readmitted it")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := r.RobustStats()
	for _, b := range st.Breakers {
		if b.Shard == 1 && b.State != "closed" {
			t.Fatalf("recovered replica's breaker state = %q, want closed", b.State)
		}
	}
}

// TestHedgeStragglerFirstAnswerWins pairs a straggling replica with a
// fast one: the hedge must fire after the configured delay, the fast
// backup's answer must win (bit-identical to the single engine), the
// straggler must be cancelled, the counters must say so, and the winner
// must become the shard's preferred replica, where the next query's
// first attempt goes.
func TestHedgeStragglerFirstAnswerWins(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 1, 1)
	slow := &slowBackend{name: "slow", inner: shards[0][0], delay: 30 * time.Second}
	fast := &Local{Src: engines[0], Label: "fast"}
	r, err := New([][]Backend{{slow, fast}}, Options{HedgeAfter: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("hedged response degraded: %+v", res)
	}
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if !reflect.DeepEqual(res.Results, want) {
		t.Fatal("hedged answer differs from single engine")
	}
	// The straggler sleeps 30s; the hedge fired at 5ms. Give the 1-CPU
	// CI box two orders of magnitude of slack and it still proves the
	// backup answered.
	if elapsed > 5*time.Second {
		t.Fatalf("hedged query took %v — the backup's answer did not win", elapsed)
	}
	st := r.RobustStats()
	if st.HedgeFired == 0 || st.HedgeWon == 0 || st.HedgeCancelled == 0 {
		t.Fatalf("hedge counters: fired=%d won=%d cancelled=%d, want all > 0",
			st.HedgeFired, st.HedgeWon, st.HedgeCancelled)
	}
	// The winner becomes the preferred replica, so the next query's
	// first attempt goes to the fast one. Read off the walk itself, not
	// the hedge counter: whether the fast replica answers inside the
	// hedge delay is a race against the timer.
	if got := r.pref[0].Load(); got != 1 {
		t.Fatalf("preferred replica = %d after the fast backup won, want 1", got)
	}
	w := r.newWalk(ctx, 0)
	if idx, err := w.next(); err != nil || idx != 1 {
		t.Fatalf("next query's first attempt goes to replica %d (err %v), want the fast replica 1", idx, err)
	}
	res2, err := r.TopK(ctx, e.pair[0], 1, e.pair[1], 5)
	if err != nil || res2.Degraded {
		t.Fatalf("post-hedge query: err=%v res=%+v", err, res2)
	}
	if want2, _ := e.single.TopK(e.pair[0], 1, e.pair[1], 5); !reflect.DeepEqual(res2.Results, want2) {
		t.Fatal("post-hedge answer differs from single engine")
	}
}

// TestRouterRetryBudgetExhausted caps the retry budget below what a
// ring walk would need and asserts the shard call stops there, with the
// exhaustion counted.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	d0 := &countingBackend{name: "d0"}
	d1 := &countingBackend{name: "d1"}
	r, err := New([][]Backend{{d0, d1}}, Options{
		MaxAttempts: 1,
		BackoffBase: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5); err == nil {
		t.Fatal("all-dead shard answered")
	}
	if got := d0.calls.Load() + d1.calls.Load(); got != 1 {
		t.Fatalf("retry budget of 1 admitted %d calls", got)
	}
	if st := r.RobustStats(); st.RetryExhausted == 0 {
		t.Fatal("retry-budget exhaustion not counted")
	}
}

// TestRouterDeadlineBudgetDegradesSlowShard is the deadline-propagation
// drill: a shard that sleeps past the propagated budget must show up as
// a per-shard entry in failed_shards — the other shards' rows still
// exact — never as a router-wide failure. Run under -race by the
// Makefile filter.
func TestRouterDeadlineBudgetDegradesSlowShard(t *testing.T) {
	e := getEnv(t)
	shards, engines := shardBackends(t, 2, 1)
	desc := engines[1].ShardDesc()
	shards[1] = []Backend{&slowBackend{name: "sleepy", inner: shards[1][0], delay: 30 * time.Second}}
	r, err := New(shards, Options{BackoffBase: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	budget := 150 * time.Millisecond
	ctx := WithBudget(context.Background(), time.Now().Add(budget))
	start := time.Now()
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budgeted query errored router-wide: %v", err)
	}
	if !res.Degraded || !reflect.DeepEqual(res.FailedShards, []int{1}) {
		t.Fatalf("degraded=%v failed=%v, want the sleeping shard flagged", res.Degraded, res.FailedShards)
	}
	full, err := e.single.TopK(e.pair[0], 0, e.pair[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []serve.Scored
	for _, s := range full {
		if desc.ShardOf(e.pair[1], s.B) != 1 {
			want = append(want, s)
		}
	}
	if len(want) > 5 {
		want = want[:5]
	}
	if len(res.Results) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(res.Results, want) {
			t.Fatal("degraded rows differ from single engine minus the sleeping shard")
		}
	}
	// The answer must arrive near the budget, not the straggler's 30s.
	if elapsed > 10*time.Second {
		t.Fatalf("budgeted query took %v, budget was %v", elapsed, budget)
	}
	if st := r.RobustStats(); st.RetryExhausted == 0 {
		t.Fatal("budget exhaustion not counted")
	}

	// Same drill through the HTTP front-end and the deadline header: the
	// response is 200 + degraded JSON, not an error.
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/topk?pa=%s&a=0&pb=%s&k=5", srv.URL, e.pair[0], e.pair[1]), nil)
	serve.SetDeadline(req.Header, time.Now().Add(budget))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted HTTP top-k: status %d, want 200 + degraded", resp.StatusCode)
	}
	var out TopKResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !reflect.DeepEqual(out.FailedShards, []int{1}) {
		t.Fatalf("HTTP budgeted response: degraded=%v failed=%v", out.Degraded, out.FailedShards)
	}

	// An already-spent budget is refused outright with 504.
	req2, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/topk?pa=%s&a=0&pb=%s&k=5", srv.URL, e.pair[0], e.pair[1]), nil)
	req2.Header.Set(serve.DeadlineHeader, "0")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("spent budget: status %d, want 504", resp2.StatusCode)
	}
}

// TestRouterBudgetMiddlewareHugeBudget asserts the router front-end
// serves a request that asks for an enormous budget (1e13 ms used to
// overflow into the past and come back 504 "budget exhausted") and
// still hears a NaN as the client's error.
func TestRouterBudgetMiddlewareHugeBudget(t *testing.T) {
	h := (&Router{}).budgetMiddleware(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if _, ok := Budget(req.Context()); !ok {
			t.Error("budgeted request reached the handler without a budget")
		}
		w.WriteHeader(http.StatusOK)
	}))
	for value, want := range map[string]int{
		"NaN":  http.StatusBadRequest,
		"1e13": http.StatusOK,
		"+Inf": http.StatusOK,
	} {
		req := httptest.NewRequest(http.MethodGet, "/topk", nil)
		req.Header.Set(serve.DeadlineHeader, value)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("%s=%s: status %d, want %d", serve.DeadlineHeader, value, rec.Code, want)
		}
	}
}

// TestRouterAutoRefresh asserts the background jittered re-probe loop
// actually probes (repeated rounds report their outcome) and that stop
// halts it.
func TestRouterAutoRefresh(t *testing.T) {
	shards, _ := shardBackends(t, 2, 1)
	r := newRouter(t, shards)
	var rounds atomic.Int32
	stop := r.StartAutoRefresh(5*time.Millisecond, func(err error) {
		if err != nil {
			t.Errorf("background refresh over healthy shards: %v", err)
		}
		rounds.Add(1)
	})
	deadline := time.Now().Add(5 * time.Second)
	for rounds.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-refresh made %d rounds in 5s, want ≥ 2", rounds.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop() // waits for an in-flight round; none may start after it
	after := rounds.Load()
	time.Sleep(30 * time.Millisecond)
	if final := rounds.Load(); final != after {
		t.Fatalf("auto-refresh kept probing after stop: %d -> %d", after, final)
	}
}

// TestRouterShedReplicaFailsOver: a replica shedding load — 429 +
// Retry-After, obs.Admission's answer past -max-inflight — is a replica
// failure, not a query error. Over real HTTP backends, with the shedding
// replica first in shard 0's ring, /topk and /score through the router
// must answer 200, bit-identical to the unsplit engine (it used to pass
// the 429 through as a 400), and the ring must move off the shedder.
func TestRouterShedReplicaFailsOver(t *testing.T) {
	e := getEnv(t)
	_, engines := shardBackends(t, 2, 1)
	live := make([]Backend, len(engines))
	for i, eng := range engines {
		srv := httptest.NewServer(eng.Handler())
		defer srv.Close()
		live[i] = &HTTP{URL: srv.URL}
	}
	health := engines[0].Handler()
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" { // health always passes admission
			health.ServeHTTP(w, req)
			return
		}
		w.Header().Set("Retry-After", "1")
		serve.HTTPError(w, http.StatusTooManyRequests, fmt.Errorf("overloaded"))
	}))
	defer shed.Close()
	// A fresh router per query, so each one meets the shedder first.
	front := func() (*Router, string) {
		r := newRouter(t, [][]Backend{{&HTTP{URL: shed.URL}, live[0]}, {live[1]}})
		srv := httptest.NewServer(r.Handler())
		t.Cleanup(srv.Close)
		return r, srv.URL
	}
	checkOK := func(r *Router, resp *http.Response, err error, out any) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s through a shedding replica: status %d, want 200", resp.Request.URL.Path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		if got := r.pref[0].Load(); got != 1 {
			t.Fatalf("preferred replica after the shed = %d, want 1", got)
		}
	}

	r, url := front()
	resp, err := http.Get(fmt.Sprintf("%s/topk?pa=%s&a=0&pb=%s&k=5", url, e.pair[0], e.pair[1]))
	var topk TopKResult
	checkOK(r, resp, err, &topk)
	want, err := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatal(err)
	}
	if topk.Degraded || !reflect.DeepEqual(topk.Results, want) {
		t.Fatalf("top-k through a shedding replica: degraded=%v rows %+v, want %+v", topk.Degraded, topk.Results, want)
	}

	pairs := make([][2]int, e.nB)
	for b := range pairs {
		pairs[b] = [2]int{0, b}
	}
	body, err := json.Marshal(map[string]any{"pa": e.pair[0], "pb": e.pair[1], "pairs": pairs})
	if err != nil {
		t.Fatal(err)
	}
	r, url = front()
	resp, err = http.Post(url+"/score", "application/json", bytes.NewReader(body))
	var scored struct {
		Scores []float64 `json:"scores"`
	}
	checkOK(r, resp, err, &scored)
	wantScores, err := e.single.ScoreBatch(e.pair[0], e.pair[1], pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scored.Scores, wantScores) {
		t.Fatal("scores through a shedding replica differ from the unsplit engine")
	}
}

// TestBreakerSpentBudgetLeavesNoHalfOpenWedge is the half-open wedge
// regression: a walk whose retry budget is spent must not claim a
// breaker's half-open probe slot it can no longer fire. Replica 1 was
// the preferred replica and tripped; replica 0 stays down and takes
// 250 ms to fail, long enough for replica 1's open window (≤ 100 ms) to
// run out. With a budget of one attempt, the walk that failed on replica 0
// used to step onto replica 1, claim its probe slot, and return
// "retry budget exhausted" — leaving it half-open for good, so every
// later call failed fast although replica 1 was healthy.
func TestBreakerSpentBudgetLeavesNoHalfOpenWedge(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, _ := shardBackends(t, 1, 1)
	down := &slowBackend{name: "down-0", inner: &countingBackend{name: "dead-0"}, delay: 250 * time.Millisecond}
	healthy := &countingBackend{name: "up-1", inner: shards[0][0]}
	healthy.up.Store(true)
	r, err := New([][]Backend{{down, healthy}}, Options{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerOpenFor:   100 * time.Millisecond,
		HedgeAfter:       -1,
		BackoffBase:      time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.pref[0].Store(1)
	r.breakerFailure(0, 1)
	if _, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5); err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("call over a down replica and a tripped one: err = %v, want retry budget exhausted", err)
	}

	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
		if err == nil {
			if !reflect.DeepEqual(res.Results, want) {
				t.Fatal("answer after recovery differs from the single engine")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy replica never readmitted (breaker %q): %v", r.breakers[0][1].stateName(), err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.breakers[0][1].stateName(); got != "closed" {
		t.Fatalf("healthy replica's breaker = %q after it answered, want closed", got)
	}
}

// TestBreakerHalfOpenProbeIsNeverHedged: a top-k attempt that holds a
// replica's half-open probe slot is not hedged. Abandoning the probe to
// a faster backup would leave the slow but healthy replica half-open
// for good; instead the probe answers and closes its breaker.
func TestBreakerHalfOpenProbeIsNeverHedged(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 1, 1)
	slow := &slowBackend{name: "slow-0", inner: shards[0][0], delay: 20 * time.Millisecond}
	fast := &Local{Src: engines[0], Label: "fast-1"}
	r, err := New([][]Backend{{slow, fast}}, Options{
		BreakerThreshold: 1,
		BreakerOpenFor:   time.Millisecond,
		HedgeAfter:       time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.breakerFailure(0, 0)
	time.Sleep(5 * time.Millisecond) // past the open window: the next call is the probe
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	if err != nil || res.Degraded {
		t.Fatalf("probe call: err=%v res=%+v", err, res)
	}
	if want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5); !reflect.DeepEqual(res.Results, want) {
		t.Fatal("probe answer differs from the single engine")
	}
	if st := r.RobustStats(); st.HedgeFired != 0 {
		t.Fatalf("half-open probe was hedged %d times", st.HedgeFired)
	}
	if got := r.breakers[0][0].stateName(); got != "closed" {
		t.Fatalf("slow replica's breaker = %q after its probe answered, want closed", got)
	}
}

// TestRouterScoreBatchQueryErrorWins: a batch with a bad pair on one
// shard and a fail-fast shard elsewhere answers 400 every time. The
// fail-fast error comes back at once and the query error 2 ms later,
// but which shard finished first must not pick the status: the query
// error wins, as it does for top-k, and the fail-fast shard being the
// lower one does not change that.
func TestRouterScoreBatchQueryErrorWins(t *testing.T) {
	e := getEnv(t)
	shards, engines := shardBackends(t, 2, 1)
	desc := engines[0].ShardDesc()
	dead := &countingBackend{name: "dead-0", inner: shards[0][0]}
	dead.up.Store(true) // up for Refresh, down after
	shards[0] = []Backend{dead}
	shards[1] = []Backend{&slowBackend{name: "slow-1", inner: shards[1][0], delay: 2 * time.Millisecond}}
	r, err := New(shards, Options{BreakerThreshold: 1, BreakerOpenFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead.up.Store(false)
	r.breakerFailure(0, 0) // every replica of shard 0 behind an open breaker
	refreshCalls := dead.calls.Load()

	b0, b1 := -1, -1
	for b := 0; b < e.nB; b++ {
		switch desc.ShardOf(e.pair[1], b) {
		case 0:
			b0 = b
		case 1:
			b1 = b
		}
	}
	if b0 < 0 || b1 < 0 {
		t.Fatal("split left a shard without B accounts")
	}
	body, err := json.Marshal(map[string]any{"pa": e.pair[0], "pb": e.pair[1],
		"pairs": [][2]int{{0, b0}, {e.nA + 1000, b1}}})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	for run := 0; run < 50; run++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("run %d: status %d (%s), want 400 for the bad pair", run, rec.Code, rec.Body)
		}
	}
	if got := dead.calls.Load() - refreshCalls; got != 0 {
		t.Fatalf("the open breaker let %d calls through", got)
	}
}

// slowProbe is a slowBackend whose health check straggles too.
type slowProbe struct{ *slowBackend }

func (s slowProbe) Health(ctx context.Context) (Health, error) {
	if err := s.wait(ctx); err != nil {
		return Health{}, err
	}
	return s.inner.Health(ctx)
}

// TestHedgeNeverFiresForProbeOrScoreBatch: health probes and score
// batches fly one flight per attempt. Against a slow primary with a 1 ms
// hedge delay, Refresh, Status and ScoreBatch all wait for the primary:
// the backup sees no call, no hedge fires, and the latency window that
// adapts the top-k hedge delay gets no sample. A top-k on the same
// router does hedge, so the setup would show one.
func TestHedgeNeverFiresForProbeOrScoreBatch(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, _ := shardBackends(t, 1, 1)
	slow := slowProbe{&slowBackend{name: "slow-0", inner: shards[0][0], delay: 20 * time.Millisecond}}
	backup := &countingBackend{name: "backup-1", inner: shards[0][0]}
	backup.up.Store(true)
	r, err := New([][]Backend{{slow, backup}}, Options{HedgeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if st := r.Status(ctx); !st[0].Healthy {
		t.Fatalf("status: %+v", st[0])
	}
	pairs := [][2]int{{0, 0}, {1, 1}}
	got, _, err := r.ScoreBatch(ctx, e.pair[0], e.pair[1], pairs)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := e.single.ScoreBatch(e.pair[0], e.pair[1], pairs); !reflect.DeepEqual(got, want) {
		t.Fatal("scores differ from the single engine")
	}
	if st := r.RobustStats(); st.HedgeFired != 0 {
		t.Fatalf("probes and score batches fired %d hedges", st.HedgeFired)
	}
	if n := backup.calls.Load(); n != 0 {
		t.Fatalf("backup saw %d calls from probes and score batches", n)
	}
	r.lats[0].mu.Lock()
	samples := r.lats[0].n
	r.lats[0].mu.Unlock()
	if samples != 0 {
		t.Fatalf("probes and score batches left %d samples in the hedge window", samples)
	}

	if _, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5); err != nil {
		t.Fatal(err)
	}
	if st := r.RobustStats(); st.HedgeFired == 0 {
		t.Fatal("top-k against the same slow primary did not hedge")
	}
}

// lateBackend answers top-k only once release is closed, whatever its
// context says, with rows no engine would return, and closes done as it
// returns: a losing flight that finishes after its call has.
type lateBackend struct {
	Backend
	release chan struct{}
	done    chan struct{}
}

func (l *lateBackend) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) ([]serve.Scored, uint64, error) {
	defer close(l.done)
	<-l.release
	return []serve.Scored{{B: -1, Score: 42}}, 1, nil
}

// TestHedgeLateLoserLeavesRowsUntouched: a hedged top-k returns the
// backup's rows; the primary, which ignores its cancellation and is
// released to answer only after the call has returned, must change
// nothing the call returned — not the rows, not the preferred replica.
// Under make race this also proves the late flight touches no memory
// the caller reads.
func TestHedgeLateLoserLeavesRowsUntouched(t *testing.T) {
	e := getEnv(t)
	ctx := context.Background()
	shards, engines := shardBackends(t, 1, 1)
	late := &lateBackend{Backend: shards[0][0], release: make(chan struct{}), done: make(chan struct{})}
	fast := &Local{Src: engines[0], Label: "fast-1"}
	r, err := New([][]Backend{{late, fast}}, Options{HedgeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	close(late.release)
	if err != nil || res.Degraded {
		t.Fatalf("hedged call: err=%v res=%+v", err, res)
	}
	kept := append([]serve.Scored(nil), res.Results...)
	<-late.done
	time.Sleep(10 * time.Millisecond) // the late flight's send lands after its backend returns
	want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5)
	if !reflect.DeepEqual(res.Results, want) || !reflect.DeepEqual(res.Results, kept) {
		t.Fatalf("rows after the late loser answered: %+v, want %+v", res.Results, want)
	}
	if got := r.pref[0].Load(); got != 1 {
		t.Fatalf("preferred replica = %d after the late loser answered, want the backup 1", got)
	}
	if st := r.RobustStats(); st.HedgeWon == 0 || st.HedgeCancelled == 0 {
		t.Fatalf("hedge counters: won=%d cancelled=%d, want both > 0", st.HedgeWon, st.HedgeCancelled)
	}
}

// TestBreakerCallerCancellationIsNotAReplicaFailure: a caller whose own
// context ends before a healthy replica answers costs that replica
// nothing. Three top-k calls under 5 ms contexts against a replica that
// answers in 50 ms (the default threshold is 3) leave its breaker
// closed, fail with the context's error rather than a spent budget, and
// count no budget exhaustion; a call with no deadline then succeeds.
func TestBreakerCallerCancellationIsNotAReplicaFailure(t *testing.T) {
	e := getEnv(t)
	shards, _ := shardBackends(t, 1, 1)
	slow := &slowBackend{name: "slow-0", inner: shards[0][0], delay: 50 * time.Millisecond}
	r, err := New([][]Backend{{slow}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), "budget") {
			t.Fatalf("call %d under a 5 ms context: err = %v, want the context's deadline", i, err)
		}
	}
	if got := r.breakers[0][0].stateName(); got != "closed" {
		t.Fatalf("healthy replica's breaker = %q after callers gave up, want closed", got)
	}
	res, err := r.TopK(context.Background(), e.pair[0], 0, e.pair[1], 5)
	if err != nil {
		t.Fatalf("call without a deadline: %v", err)
	}
	if want, _ := e.single.TopK(e.pair[0], 0, e.pair[1], 5); !reflect.DeepEqual(res.Results, want) {
		t.Fatal("answer differs from the single engine")
	}
	var page bytes.Buffer
	r.WriteMetrics(&page)
	if !strings.Contains(page.String(), "\nhydra_retry_budget_exhausted_total 0\n") {
		t.Fatalf("retry budget counted as exhausted:\n%s", page.String())
	}
}

// TestBreakerCancelledProbeHandsBackSlot: a half-open probe whose caller
// gives up proves nothing about the replica, so the slot goes back —
// the breaker reads open, not half-open, and the very next call probes
// and closes it.
func TestBreakerCancelledProbeHandsBackSlot(t *testing.T) {
	e := getEnv(t)
	shards, _ := shardBackends(t, 1, 1)
	slow := &slowBackend{name: "slow-0", inner: shards[0][0], delay: 50 * time.Millisecond}
	r, err := New([][]Backend{{slow}}, Options{BreakerThreshold: 1, BreakerOpenFor: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.breakerFailure(0, 0)
	time.Sleep(5 * time.Millisecond) // past the open window: the next call is the probe
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err = r.TopK(ctx, e.pair[0], 0, e.pair[1], 5)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe under a 5 ms context: err = %v, want the context's deadline", err)
	}
	if got := r.breakers[0][0].stateName(); got != "open" {
		t.Fatalf("breaker = %q after its probe's caller gave up, want open", got)
	}
	if _, err := r.TopK(context.Background(), e.pair[0], 0, e.pair[1], 5); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if got := r.breakers[0][0].stateName(); got != "closed" {
		t.Fatalf("breaker = %q after the replica answered, want closed", got)
	}
}
