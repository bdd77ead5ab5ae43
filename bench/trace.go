package main

// The traced run. No timer lives inside the program under test yet, so a
// layer is measured from outside: one client sends the workload's seeded
// stream, and each request is then replayed in-process at every boundary
// the packages export (handler on a recorder, engine, index row, batch
// scorer, kernel). A span is recorded per call. A replayed span's parent
// is its logical caller, not an enclosing interval: start and end are the
// replay's own, and a layer's self time is its span's duration minus the
// durations of the spans that name it as parent for the same request.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/pipeline"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
)

// timedHandler times the handler it wraps, the one timer the harness can
// put on the server side of a connection. With on unset handler() returns
// the wrapped handler itself, so an untraced run pays nothing; a traced
// run starts the clock only for its traced stream.
type timedHandler struct {
	next   http.Handler
	on     bool
	timing atomic.Bool
	calls  atomic.Int64
	ns     atomic.Int64 // duration of the latest timed call
}

func (t *timedHandler) handler() http.Handler {
	if !t.on {
		return t.next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.timing.Load() {
			t.next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		t.next.ServeHTTP(w, r)
		t.ns.Store(time.Since(start).Nanoseconds())
		t.calls.Add(1)
	})
}

type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"` // index into spans, -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

// call times fn as one span and returns the span's index.
func (t *tracer) call(name, layer string, req, parent int, fn func()) int {
	start := time.Since(t.epoch).Nanoseconds()
	fn()
	return t.add(name, layer, req, parent, start, time.Since(t.epoch).Nanoseconds())
}

func (t *tracer) add(name, layer string, req, parent int, start, end int64) int {
	t.spans = append(t.spans, span{name, layer, req, parent, start, end})
	return len(t.spans) - 1
}

func (t *tracer) ns(id int) float64 { return float64(t.spans[id].EndNs - t.spans[id].StartNs) }

// selfNs is a span's duration minus its children's.
func (t *tracer) selfNs(id int) float64 {
	d := t.ns(id)
	for i := id + 1; i < len(t.spans) && t.spans[i].Request == t.spans[id].Request; i++ {
		if t.spans[i].Parent == id {
			d -= t.ns(i)
		}
	}
	return d
}

// attributedNs is the part of a request's round trip, the span root, that
// its replays account for: the self times of the spans under root, a
// negative one (a replay that ran longer than the call it stands for)
// counting as nothing. Spans recorded beside the chain have no parent and
// stay out.
func (t *tracer) attributedNs(root int) float64 {
	total := max(0, t.selfNs(root))
	for i := root + 1; i < len(t.spans) && t.spans[i].Request == t.spans[root].Request; i++ {
		for p := t.spans[i].Parent; p >= root; p = t.spans[p].Parent {
			if p == root {
				total += max(0, t.selfNs(i))
				break
			}
		}
	}
	return total
}

// series collects one number per traced request under a metric's name;
// the metric is the median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) medians(into map[string]float64) {
	for name, vs := range s {
		sort.Float64s(vs)
		into[name] = vs[len(vs)/2]
	}
}

type traceFile struct {
	Env      envStamp           `json:"env"`
	Workload string             `json:"workload"`
	Note     string             `json:"note"`
	Metrics  map[string]float64 `json:"metrics"` // the run's layer numbers, counts and ratios included
	Spans    []span             `json:"spans"`
}

// counters snapshots the monotonic counters of the engines behind a
// workload, summed, so ratios can be taken over an interval.
type counters struct {
	queries, survivors, pruned, foldHits, foldMisses float64
	tableHits, tableMisses, pairHits, pairMisses     float64
}

// since is the growth of every counter from an earlier snapshot.
func (c counters) since(o counters) counters {
	return counters{c.queries - o.queries, c.survivors - o.survivors, c.pruned - o.pruned, c.foldHits - o.foldHits, c.foldMisses - o.foldMisses,
		c.tableHits - o.tableHits, c.tableMisses - o.tableMisses, c.pairHits - o.pairHits, c.pairMisses - o.pairMisses}
}

func readCounters(engines []*serve.Engine) counters {
	var c counters
	for _, e := range engines {
		if p := e.PrescreenHealth(); p != nil {
			c.queries += float64(p.Queries)
			c.survivors += float64(p.Survivors)
			c.pruned += float64(p.Pruned)
			c.foldHits += float64(p.FoldHits)
			c.foldMisses += float64(p.FoldMisses)
		}
		h := e.ImputeHealth()
		c.tableHits += float64(h.TableHits)
		c.tableMisses += float64(h.TableMisses)
		c.pairHits += float64(h.PairCacheHits)
		c.pairMisses += float64(h.PairCacheMisses)
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceServing is a serving workload's traced run. It returns the layer
// metrics and every response it collected, which the caller verifies like
// an untraced run's.
func traceServing(cfg runCfg, s *served, basePath string, l *listener, front *timedHandler) (map[string]float64, []sample, error) {
	m := map[string]float64{"core.support_vectors": float64(s.engines[0].Model.NumSupport())}
	short := time.Duration(cfg.seconds / 4 * float64(time.Second))

	// The standard closed loop for a short window: the counter ratios and
	// the two-core throughput come from it.
	before, robust := readCounters(s.engines), router.RobustStats{}
	if s.rt != nil {
		robust = s.rt.RobustStats()
	}
	samples, elapsed := closedLoop(l.url, s.traffic, cfg.seed, clients, short, 0)
	d := readCounters(s.engines).since(before)
	rps2 := float64(len(samples)) / elapsed.Seconds()
	if p99, supported := newLatencies(sampleNs(samples, func(s sample) bool { return s.fault == "" })).ms(0.99); supported {
		m["bench.p99_ms"] = p99
	}
	m["core.prescreen_pruned_ratio"] = ratio(d.pruned, d.pruned+d.survivors)
	m["core.survivors_per_topk"] = ratio(d.survivors, d.queries)
	m["core.fold_memo_hit_ratio"] = ratio(d.foldHits, d.foldHits+d.foldMisses)
	m["core.impute_table_hit_ratio"] = ratio(d.tableHits, d.tableHits+d.tableMisses)
	m["core.pair_cache_hit_ratio"] = ratio(d.pairHits, d.pairHits+d.pairMisses)
	if p := s.engines[0].PrescreenHealth(); p != nil {
		m["core.prescreen_eps"] = p.Eps
	}
	if s.rt != nil {
		now := s.rt.RobustStats()
		fired := float64(now.HedgeFired - robust.HedgeFired)
		m["router.hedge_fired_ratio"] = ratio(fired, float64(len(samples)))
		m["router.hedge_won_ratio"] = ratio(float64(now.HedgeWon-robust.HedgeWon), fired)
		m["router.retry_exhausted"] = float64(now.RetryExhausted - robust.RetryExhausted)
		for _, b := range now.Breakers {
			m["router.breaker_opens"] += float64(b.Opens)
		}
		degraded := 0
		for _, sm := range samples {
			if sm.resp.Degraded {
				degraded++
			}
		}
		m["router.degraded_ratio"] = ratio(float64(degraded), float64(len(samples)))
	}
	for _, f := range s.engines[0].Fanout() {
		m["blocking.fanout_mean"], m["blocking.fanout_p99"] = f.Mean, float64(f.P99)
	}

	// One client on one core: the base the two-core throughput is a
	// multiple of.
	runtime.GOMAXPROCS(1)
	one, oneElapsed := closedLoop(l.url, s.traffic, cfg.seed+1, 1, short, 0)
	runtime.GOMAXPROCS(maxProcs())
	samples = append(samples, one...)
	m["serve.rps_1core"] = float64(len(one)) / oneElapsed.Seconds()
	m["serve.scaling_2c"] = ratio(rps2, m["serve.rps_1core"])

	// One client, untraced: the base of the tracing overhead.
	plain, _ := closedLoop(l.url, s.traffic, cfg.seed+2, 1, short, 0)
	samples = append(samples, plain...)
	plainP50, _ := newLatencies(sampleNs(plain, func(s sample) bool { return s.fault == "" })).ms(0.5)

	overhead, err := clientOverheadUs(s.traffic, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	m["bench.client_overhead_us"] = overhead

	tr := &tracer{epoch: time.Now()}
	ser := series{}
	var traced []sample
	front.timing.Store(true)
	for _, reps := range s.shards {
		for _, th := range reps {
			th.timing.Store(true)
		}
	}
	note := "warm workload: every request replayed in-process at every boundary; a replayed span's parent is its logical caller"
	switch cfg.workload {
	case wlTopKWide:
		traced, err = traceTopK(cfg, s, l, front, tr, ser)
	case wlScorePool:
		traced, err = traceScore(cfg, s, l, front, tr, ser)
	case wlTopKRouter:
		traced, err = traceRouter(cfg, s, l, front, tr, ser)
	case wlTopKCold:
		note = "cold workload: a replay would warm the caches, so request i is measured at boundary i mod 4 only, on an account no earlier request named, and self times are differences of stratum medians"
		traced, err = traceCold(cfg, s, l, tr, ser, m)
	}
	if err != nil {
		return nil, nil, err
	}
	samples = append(samples, traced...)
	ser.medians(m)
	if err := microLayers(cfg, s, basePath, m); err != nil {
		return nil, nil, err
	}

	rtt := m["bench.rtt_us"]
	m["bench.tracing_overhead_ratio"] = ratio(rtt/1e3, plainP50)
	m["bench.layer_coverage_ratio"] = ratio(m["bench.attributed_us"], rtt)
	m["bench.samples"] = float64(len(traced))
	if st := s.engines[0].MappedStats(); st != nil {
		m["pipeline.vec_aliased_ratio"] = ratio(float64(st.AliasedVecs), float64(st.AliasedVecs+st.CopiedVecs))
		m["pipeline.resident_views_ratio"] = ratio(float64(st.ResidentViews), float64(st.TotalViews))
	}

	out, err := json.Marshal(traceFile{Env: stamp(cfg), Workload: cfg.workload, Note: note, Metrics: m, Spans: tr.spans})
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), out, 0o644); err != nil {
		return nil, nil, err
	}
	return m, samples, nil
}

// clientOverheadUs is the generator's own floor: the workload's requests
// against a handler that does nothing.
func clientOverheadUs(tr traffic, seed int64) (float64, error) {
	l, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"results":[],"scores":[],"generation":0}` + "\n"))
	}))
	if err != nil {
		return 0, err
	}
	defer l.close()
	samples, _ := closedLoop(l.url, tr, seed, 1, 0, 300)
	p50, _ := newLatencies(sampleNs(samples, func(s sample) bool { return s.fault == "" })).ms(0.5)
	return p50 * 1e3, nil
}

// replayer holds what the in-process replays of one engine need: its
// index, and the model's kernel and packed support vectors rebuilt from
// the bundle's model parts, since the model keeps its own private.
type replayer struct {
	eng  *serve.Engine
	ix   *blocking.Index
	kern kernel.Func
	svs  []linalg.Vector
	km   *linalg.Matrix
	dst  []serve.Scored
}

func newReplayer(s *served) (*replayer, error) {
	r := &replayer{eng: s.engines[0]}
	ixs, err := s.mapped.LazyIndexes()
	if err != nil {
		return nil, err
	}
	r.ix = ixs[0]
	parts := s.mapped.ModelParts()
	switch parts.KernelKind {
	case core.KernelRBF:
		r.kern = kernel.NewRBF(parts.KernelSigma)
	default:
		r.kern = kernel.Linear{}
	}
	// Packed row-major like the model's own copy, so the kernel walks the
	// same memory layout.
	dim := len(parts.Xs[0])
	packed := linalg.NewMatrix(supportVectors(parts), dim)
	for j, a := range parts.Alpha {
		if a != 0 {
			row := packed.Row(len(r.svs))
			copy(row, parts.Xs[j])
			r.svs = append(r.svs, row)
		}
	}
	return r, nil
}

// scoreSpans replays the exact scorer on pairs under parent: the batch
// scorer, then its two separable parts, imputation and the kernel block.
func (r *replayer) scoreSpans(tr *tracer, ser series, req, parent int, pairs [][2]int) error {
	var err error
	out := make([]float64, len(pairs))
	sb := tr.call("core.Model.ScoreBatchInto", "core", req, parent, func() {
		err = r.eng.Model.ScoreBatchInto(platA, platB, pairs, 0, out)
	})
	if err != nil {
		return err
	}
	var rows []linalg.Vector
	imp := tr.call("core.Model.ImputedPairRows", "core", req, sb, func() {
		rows, err = r.eng.Model.ImputedPairRows(platA, platB, pairs, 0)
	})
	if err != nil {
		return err
	}
	if r.km == nil || r.km.Cols != len(rows) {
		r.km = linalg.NewMatrix(len(r.svs), len(rows))
	}
	kn := tr.call("kernel.CrossGramInto", "kernel", req, sb, func() {
		kernel.CrossGramInto(r.kern, r.svs, rows, r.km, 0)
	})
	n := float64(len(pairs))
	ser.add("core.score_batch_ns_per_pair", tr.ns(sb)/n)
	ser.add("core.score_batch_self_ns_per_pair", tr.selfNs(sb)/n)
	ser.add("core.impute_table_ns", tr.ns(imp)/n)
	ser.add("kernel.crossgram_ns_per_eval", tr.ns(kn)/(n*float64(len(r.svs))))
	return nil
}

// httpSpans sends the request over the wire and records the round trip
// with the live handler as its child. It returns the live handler's span,
// which the in-process replays hang under.
func httpSpans(tr *tracer, ser series, c *http.Client, traffic traffic, l *listener, front *timedHandler, req int, rq request) (sample, int) {
	start := time.Since(tr.epoch).Nanoseconds()
	sm := do(c, traffic, l.url, rq)
	rtt := tr.add("client.round_trip", "bench", req, -1, start, start+sm.ns)
	live := tr.add("http.Handler (live, timed by the harness's wrapper)", "serve", req, rtt, start, start+front.ns.Load())
	ser.add("bench.rtt_us", tr.ns(rtt)/1e3)
	ser.add("serve.http_rtt_self_us", tr.selfNs(rtt)/1e3)
	return sm, live
}

// recorded replays the request on a recorder: the handler without
// net/http around it.
func recorded(tr *tracer, name, layer string, req, parent int, h http.Handler, traffic traffic, rq request) (int, error) {
	hr, err := traffic.build("http://replay", rq)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	id := tr.call(name, layer, req, parent, func() { h.ServeHTTP(rec, hr) })
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("replayed %s %d: status %d", rq.kind, rq.key, rec.Code)
	}
	return id, nil
}

// tracedStream runs fn over the workload's seeded single-client stream
// until the request budget or the window is used up.
func tracedStream(cfg runCfg, s *served, n int, fn func(c *http.Client, i int, rq request) (sample, error)) ([]sample, error) {
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + 7))
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var out []sample
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		sm, err := fn(c, i, s.traffic.pick(rng))
		if err != nil {
			return nil, err
		}
		out = append(out, sm)
	}
	return out, nil
}

// traceTopK is topk-wide: round trip -> handler -> Engine.TopKAppend ->
// index row and exact rescore of the survivors -> imputation and kernel.
// The memoised tier-1 pass cannot be called on its own from outside and
// stays in the engine's self time; PrescreenBatchInto, the unmemoised
// fold, is recorded beside it for its per-pair cost.
func traceTopK(cfg runCfg, s *served, l *listener, front *timedHandler, tr *tracer, ser series) ([]sample, error) {
	rp, err := newReplayer(s)
	if err != nil {
		return nil, err
	}
	var pairs [][2]int
	var pre []float64
	return tracedStream(cfg, s, cfg.sz.TraceReqs, func(c *http.Client, i int, rq request) (sample, error) {
		sm, live := httpSpans(tr, ser, c, s.traffic, l, front, i, rq)
		h, err := recorded(tr, "http.Handler (recorder)", "serve", i, live, s.front, s.traffic, rq)
		if err != nil {
			return sm, err
		}
		was := rp.eng.PrescreenHealth() // nil without a prescreen, and then so is now
		eng := tr.call("serve.Engine.TopKAppend", "serve", i, h, func() {
			rp.dst, err = rp.eng.TopKAppend(rp.dst[:0], platA, rq.key, platB, topK)
		})
		if err != nil {
			return sm, err
		}
		var cands []blocking.Candidate
		ci := tr.call("blocking.Index.Candidates", "blocking", i, eng, func() { cands, err = rp.ix.Candidates(rq.key) })
		if err != nil {
			return sm, err
		}
		pairs = pairs[:0]
		for _, cd := range cands {
			pairs = append(pairs, [2]int{rq.key, cd.B})
		}
		// The survivors of the two-tier pass are a prefix of the
		// candidates in (approximate score descending, B ascending) order;
		// the engine's counters say how long the prefix was.
		survivors := len(cands)
		if now := rp.eng.PrescreenHealth(); now != nil && now.Queries > was.Queries {
			survivors = int(now.Survivors - was.Survivors)
			if cap(pre) < len(pairs) {
				pre = make([]float64, len(pairs))
			}
			pre = pre[:len(pairs)]
			fold := tr.call("core.Model.PrescreenBatchInto (unmemoised, beside the engine)", "core", i, -1, func() {
				err = rp.eng.Model.PrescreenBatchInto(platA, platB, pairs, 0, pre)
			})
			if err != nil {
				return sm, err
			}
			ser.add("core.prescreen_fold_ns_per_pair", tr.ns(fold)/float64(len(pairs)))
			sort.Sort(byApprox{pairs, pre})
		}
		if err := rp.scoreSpans(tr, ser, i, eng, pairs[:survivors]); err != nil {
			return sm, err
		}
		ser.add("serve.handler_topk_us", tr.ns(h)/1e3)
		ser.add("serve.handler_topk_self_us", tr.selfNs(h)/1e3)
		ser.add("serve.topk_engine_us", tr.ns(eng)/1e3)
		ser.add("serve.topk_self_us", tr.selfNs(eng)/1e3)
		ser.add("blocking.candidates_ns", tr.ns(ci))
		ser.add("kernel.evals_per_topk", float64(survivors*len(rp.svs)))
		ser.add("serve.response_bytes_topk", float64(sm.bytes))
		ser.add("bench.attributed_us", tr.attributedNs(tr.spans[live].Parent)/1e3)
		return sm, nil
	})
}

// byApprox orders pairs by approximate score descending, B ascending.
type byApprox struct {
	pairs [][2]int
	pre   []float64
}

func (b byApprox) Len() int { return len(b.pairs) }
func (b byApprox) Swap(i, j int) {
	b.pairs[i], b.pairs[j] = b.pairs[j], b.pairs[i]
	b.pre[i], b.pre[j] = b.pre[j], b.pre[i]
}
func (b byApprox) Less(i, j int) bool {
	if b.pre[i] != b.pre[j] {
		return b.pre[i] > b.pre[j]
	}
	return b.pairs[i][1] < b.pairs[j][1]
}

// traceScore is score-pool: round trip -> handler -> Engine.ScoreBatch ->
// batch scorer -> imputation and kernel.
func traceScore(cfg runCfg, s *served, l *listener, front *timedHandler, tr *tracer, ser series) ([]sample, error) {
	rp, err := newReplayer(s)
	if err != nil {
		return nil, err
	}
	st := s.traffic.(*scoreTraffic)
	return tracedStream(cfg, s, cfg.sz.TraceReqs, func(c *http.Client, i int, rq request) (sample, error) {
		sm, live := httpSpans(tr, ser, c, s.traffic, l, front, i, rq)
		h, err := recorded(tr, "http.Handler (recorder)", "serve", i, live, s.front, s.traffic, rq)
		if err != nil {
			return sm, err
		}
		pairs := st.pairs(rq.key, pairsOf(rq.kind))
		eng := tr.call("serve.Engine.ScoreBatch", "serve", i, h, func() { _, err = rp.eng.ScoreBatch(platA, platB, pairs) })
		if err != nil {
			return sm, err
		}
		if err := rp.scoreSpans(tr, ser, i, eng, pairs); err != nil {
			return sm, err
		}
		ser.add("serve.handler_score_us", tr.ns(h)/1e3)
		ser.add("serve.handler_score_self_us", tr.selfNs(h)/1e3)
		ser.add("serve.score_engine_us_per_pair", tr.ns(eng)/1e3/float64(len(pairs)))
		ser.add("kernel.evals_per_score_pair", float64(len(rp.svs)))
		ser.add("bench.attributed_us", tr.attributedNs(tr.spans[live].Parent)/1e3)
		return sm, nil
	})
}

// traceRouter is topk-router: round trip -> router handler ->
// Router.TopKAppend over the HTTP backends -> slowest shard's handler ->
// shard engine; and beside it the same router logic over in-process
// backends, which isolates the merge.
func traceRouter(cfg runCfg, s *served, l *listener, front *timedHandler, tr *tracer, ser series) ([]sample, error) {
	local := make([][]router.Backend, len(s.shards))
	for si := range s.shards {
		local[si] = []router.Backend{&router.Local{Src: s.engines[si*routerReplicas]}}
	}
	rtLocal, err := router.New(local, router.Options{})
	if err != nil {
		return nil, err
	}
	if err := rtLocal.Refresh(context.Background()); err != nil {
		return nil, err
	}
	calls := make([][]int64, len(s.shards))
	mark := func() {
		for si, reps := range s.shards {
			calls[si] = calls[si][:0]
			for _, th := range reps {
				calls[si] = append(calls[si], th.calls.Load())
			}
		}
	}
	// slowestShard is the largest, over shards, of the handler time of the
	// replica that answered since mark (the quicker one if a hedge made
	// both answer).
	slowestShard := func() float64 {
		var worst float64
		for si, reps := range s.shards {
			var best float64
			for ri, th := range reps {
				if th.calls.Load() > calls[si][ri] {
					if d := float64(th.ns.Load()); best == 0 || d < best {
						best = d
					}
				}
			}
			worst = max(worst, best)
		}
		return worst
	}
	var dst []serve.Scored
	return tracedStream(cfg, s, cfg.sz.TraceReqs, func(c *http.Client, i int, rq request) (sample, error) {
		sm, live := httpSpans(tr, ser, c, s.traffic, l, front, i, rq)
		h, err := recorded(tr, "router http.Handler (recorder)", "router", i, live, s.front, s.traffic, rq)
		if err != nil {
			return sm, err
		}
		mark()
		var res router.TopKResult
		scatter := tr.call("router.Router.TopKAppend (HTTP backends)", "router", i, h, func() {
			res, err = s.rt.TopKAppend(context.Background(), dst[:0], platA, rq.key, platB, topK)
		})
		if err != nil {
			return sm, err
		}
		dst = res.Results
		end := tr.spans[scatter].EndNs
		shard := tr.add("slowest shard http.Handler (live)", "serve", i, scatter, end-int64(slowestShard()), end)
		var engNs float64
		var engStart, engEnd int64
		for si := range s.shards {
			e := s.engines[si*routerReplicas]
			t0 := time.Since(tr.epoch).Nanoseconds()
			if dst, err = e.TopKAppend(dst[:0], platA, rq.key, platB, topK); err != nil {
				return sm, err
			}
			t1 := time.Since(tr.epoch).Nanoseconds()
			if float64(t1-t0) > engNs {
				engNs, engStart, engEnd = float64(t1-t0), t0, t1
			}
		}
		tr.add("slowest shard serve.Engine.TopKAppend", "serve", i, shard, engStart, engEnd)
		loc := tr.call("router.Router.TopKAppend (Local backends, beside the chain)", "router", i, -1, func() {
			res, err = rtLocal.TopKAppend(context.Background(), dst[:0], platA, rq.key, platB, topK)
		})
		if err != nil {
			return sm, err
		}
		dst = res.Results
		ser.add("router.handler_self_us", tr.selfNs(h)/1e3)
		ser.add("router.topk_http_us", tr.ns(scatter)/1e3)
		ser.add("router.scatter_self_us", tr.selfNs(scatter)/1e3)
		ser.add("router.slowest_shard_us", tr.ns(shard)/1e3)
		ser.add("serve.handler_topk_us", tr.ns(shard)/1e3)
		ser.add("serve.handler_topk_self_us", tr.selfNs(shard)/1e3)
		ser.add("serve.topk_engine_us", engNs/1e3)
		ser.add("router.topk_local_us", tr.ns(loc)/1e3)
		ser.add("router.merge_self_us", (tr.ns(loc)-engNs)/1e3)
		ser.add("serve.response_bytes_topk", float64(sm.bytes))
		ser.add("bench.attributed_us", tr.attributedNs(tr.spans[live].Parent)/1e3)
		return sm, nil
	})
}

// traceCold is topk-cold50k. Request i is taken at boundary i mod 4 only:
// 0 the round trip, 1 the handler on a recorder, 2 Engine.TopKAppend,
// 3 the index row and the batch scorer. Each names an A-side account no
// earlier request named.
func traceCold(cfg runCfg, s *served, l *listener, tr *tracer, ser series, m map[string]float64) ([]sample, error) {
	rp, err := newReplayer(s)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xc01d))
	fresh := rng.Perm(cfg.sz.ColdPerPlat)
	c := newClient()
	defer c.CloseIdleConnections()
	strata := [4][]float64{}
	var out []sample
	var candNs, pairsPer []float64
	for i := 0; i < cfg.sz.TraceCold; i++ {
		// The first quarter of the permutation may have been named by the
		// short windows' uniform streams; the traced ids come after it.
		rq := request{kindTopK, fresh[(len(fresh)/4+i)%len(fresh)]}
		var id int
		switch i % 4 {
		case 0:
			start := time.Since(tr.epoch).Nanoseconds()
			sm := do(c, s.traffic, l.url, rq)
			out = append(out, sm)
			id = tr.add("client.round_trip", "bench", i, -1, start, start+sm.ns)
		case 1:
			if id, err = recorded(tr, "http.Handler (recorder)", "serve", i, -1, s.front, s.traffic, rq); err != nil {
				return nil, err
			}
		case 2:
			id = tr.call("serve.Engine.TopKAppend", "serve", i, -1, func() {
				rp.dst, err = rp.eng.TopKAppend(rp.dst[:0], platA, rq.key, platB, topK)
			})
		case 3:
			var cands []blocking.Candidate
			ci := tr.call("blocking.Index.Candidates", "blocking", i, -1, func() { cands, err = rp.ix.Candidates(rq.key) })
			if err != nil {
				return nil, err
			}
			pairs := make([][2]int, len(cands))
			for j, cd := range cands {
				pairs[j] = [2]int{rq.key, cd.B}
			}
			scores := make([]float64, len(pairs))
			id = tr.call("core.Model.ScoreBatchInto", "core", i, -1, func() {
				err = rp.eng.Model.ScoreBatchInto(platA, platB, pairs, 0, scores)
			})
			candNs = append(candNs, tr.ns(ci))
			pairsPer = append(pairsPer, float64(len(pairs)))
		}
		if err != nil {
			return nil, err
		}
		strata[i%4] = append(strata[i%4], tr.ns(id))
	}
	var med [4]float64
	for k, vs := range strata {
		if len(vs) == 0 {
			return nil, fmt.Errorf("topk-cold50k trace needs at least 4 requests, got %d", cfg.sz.TraceCold)
		}
		sort.Float64s(vs)
		med[k] = vs[len(vs)/2]
	}
	sort.Float64s(candNs)
	sort.Float64s(pairsPer)
	pairs := pairsPer[len(pairsPer)/2]
	m["bench.rtt_us"] = med[0] / 1e3
	m["serve.http_rtt_self_us"] = (med[0] - med[1]) / 1e3
	m["serve.handler_topk_us"] = med[1] / 1e3
	m["serve.handler_topk_self_us"] = (med[1] - med[2]) / 1e3
	m["serve.topk_engine_us"] = med[2] / 1e3
	m["blocking.candidates_ns"] = candNs[len(candNs)/2]
	m["serve.topk_self_us"] = (med[2] - med[3] - m["blocking.candidates_ns"]) / 1e3
	m["core.score_batch_ns_per_pair"] = med[3] / pairs
	m["kernel.evals_per_topk"] = pairs * float64(len(rp.svs))
	for _, self := range []float64{m["serve.http_rtt_self_us"], m["serve.handler_topk_self_us"], m["serve.topk_self_us"], m["blocking.candidates_ns"] / 1e3, med[3] / 1e3} {
		m["bench.attributed_us"] += max(0, self)
	}
	return out, nil
}

// microLayers times single calls into the layers under the engine, on
// the state the traced stream left behind.
func microLayers(cfg runCfg, s *served, basePath string, m map[string]float64) error {
	if s.mapped == nil {
		return nil
	}
	eng := s.engines[0]
	na, nb := eng.NumAccounts(platA), eng.NumAccounts(platB)
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x1a7e5))
	mcfg := s.mapped.ModelParts().Cfg
	const probes = 48
	ser := series{}
	// ns times one call; the first error any call returns is kept.
	var failed error
	ns := func(fn func() error) float64 {
		t := time.Now()
		if err := fn(); err != nil && failed == nil {
			failed = err
		}
		return float64(time.Since(t).Nanoseconds())
	}
	// Pipeline.Pair on its own needs the pipeline, which the engine keeps
	// private; only the cold workload pays for decoding it a second time.
	var pipe *features.Pipeline
	if cfg.workload == wlTopKCold {
		base, err := pipeline.LoadBundle(basePath)
		if err != nil {
			return err
		}
		if pipe, err = features.PipelineFromParts(base.Pipeline); err != nil {
			return err
		}
	}
	store, ok := eng.Sys.(*core.LazyStore)
	if !ok {
		return fmt.Errorf("mapped engine's source is %T, not a *core.LazyStore", eng.Sys)
	}
	for i := 0; i < probes && failed == nil; i++ {
		a, b := rng.Intn(na), rng.Intn(nb)
		var va, vb *features.AccountView
		// A touch counts as a first touch when the residency counter moved.
		before := s.mapped.Stats()
		view := ns(func() (err error) { vb, err = s.mapped.View(platB, b); return })
		friends := ns(func() (err error) { _, err = s.mapped.Friends(platB, b); return })
		after := s.mapped.Stats()
		if after.ResidentViews > before.ResidentViews {
			ser.add("pipeline.view_first_touch_us", view/1e3)
		}
		if after.ResidentFriends > before.ResidentFriends {
			ser.add("pipeline.friends_first_touch_us", friends/1e3)
		}
		ser.add("pipeline.view_warm_ns", ns(func() (err error) { _, err = s.mapped.View(platB, b); return }))
		if va, failed = s.mapped.View(platA, a); failed != nil {
			break
		}
		if pipe != nil {
			ser.add("features.pair_us", ns(func() error { pipe.Pair(va, vb); return nil })/1e3)
		}
		cached := store.CacheSize()
		raw := ns(func() (err error) { _, err = store.RawPair(platA, a, platB, b); return })
		if store.CacheSize() > cached {
			ser.add("core.rawpair_cold_us", raw/1e3)
		}
		ser.add("core.rawpair_warm_ns", ns(func() (err error) { _, err = store.RawPair(platA, a, platB, b); return }))
		// The live Eqn-18 walk: the store's table is detached for the
		// call (the model keeps its own reference, and nothing else runs
		// now). On a warm engine the table has kept the friend pairs out
		// of the pair cache, so the walk computes them, as it does cold.
		tbl := store.ImputeTable()
		store.SetImputeTable(nil)
		ser.add("core.impute_live_us", ns(func() (err error) {
			_, err = store.Impute(platA, a, platB, b, mcfg.Variant, mcfg.ResolvedTopFriends())
			return
		})/1e3)
		store.SetImputeTable(tbl)
	}
	if failed != nil {
		return failed
	}
	ser.medians(m)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var dst []serve.Scored
	const rounds = 64
	for i := 0; i < rounds; i++ {
		var err error
		if dst, err = eng.TopKAppend(dst[:0], platA, i%min(na, 8), platB, topK); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms)
	m["serve.allocs_per_topk"] = float64(ms.Mallocs-mallocs) / rounds
	return nil
}
