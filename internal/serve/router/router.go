// Package router is the scatter-gather tier over sharded serving
// bundles: it owns no model state at all, only the shard descriptor a
// coherent set of hydra-serve replicas reports, and answers the same
// score/link/top-k surface as a single engine by
//
//   - routing score and link queries to the one shard the consistent
//     hash assigns the B-side account to (the descriptor is
//     self-certifying, so routing needs no lookup table),
//   - fanning top-k queries out to every shard and merging the per-shard
//     heaps with the engine's exact (score desc, B asc) tie-break —
//     shards partition the candidate space, so the merge reproduces the
//     single-process answer bit for bit,
//   - failing over between replicas of a shard (per-attempt timeout,
//     retry on the next replica) and, when a whole shard is down,
//     returning a degraded top-k response flagged with the missing
//     shards instead of an error,
//   - pinning every response to a single bundle generation: each
//     sub-response reports the generation that answered it, and a
//     fan-out straddling a hot swap is retried until one generation
//     answers all of it.
package router

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
)

// Options tune the router's failure handling.
type Options struct {
	// Timeout bounds one attempt against one replica (default 2s).
	Timeout time.Duration
	// MaxAttempts is the per-request retry budget against one shard:
	// the hard cap on actual replica calls (breaker denials are free),
	// hedges included. Default: every replica gets a retry (rings ×
	// replicas).
	MaxAttempts int
	// BackoffBase seeds the exponential backoff slept between ring
	// passes, with full jitter: pass p sleeps uniform [0, min(backoffMax,
	// BackoffBase·2^(p-1))). Default 2ms.
	BackoffBase time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's circuit breaker open (default 3). BreakerOpenFor is the
	// base open window (default 500ms; doubles per consecutive trip up
	// to breakerMaxOpen).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// HedgeAfter is the tied-hedged-request delay for the top-k
	// scatter: after this long without a primary answer, the same query
	// is fired at a backup replica and the first answer wins (the loser
	// is cancelled). 0 (the default) adapts the delay to the shard's
	// observed p99 attempt latency; negative disables hedging.
	HedgeAfter time.Duration
	// DefaultBudget, when positive, is the end-to-end deadline budget
	// the HTTP front-end applies to requests that carry no deadline
	// header of their own. 0 means such requests run unbudgeted.
	DefaultBudget time.Duration
}

// Fixed policy: not options, because nothing needs them to vary.
const (
	// rings is how many passes over a shard's replica ring to make
	// before declaring the shard down: every replica gets a retry.
	rings = 2
	// backoffMax caps the jittered sleep between ring passes.
	backoffMax = 250 * time.Millisecond
	// breakerMaxOpen caps a breaker's doubling open window.
	breakerMaxOpen = 10 * time.Second
	// hedgeMin floors the adaptive hedge delay so a burst of fast
	// answers cannot talk the router into hedging every query.
	hedgeMin = time.Millisecond
	// hopMargin is subtracted from the remaining deadline budget at
	// every downstream hop, reserving time for the reply to travel back
	// and be merged.
	hopMargin = 2 * time.Millisecond
)

func (o Options) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 2 * time.Second
	}
	return o.Timeout
}

func (o Options) maxAttempts(replicas int) int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return rings * replicas
}

func (o Options) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return 2 * time.Millisecond
	}
	return o.BackoffBase
}

func (o Options) breakerThreshold() int32 {
	if o.BreakerThreshold <= 0 {
		return 3
	}
	return int32(o.BreakerThreshold)
}

func (o Options) breakerOpenFor() time.Duration {
	if o.BreakerOpenFor <= 0 {
		return 500 * time.Millisecond
	}
	return o.BreakerOpenFor
}

// Router fans linkage queries out over shard replicas. Construct with
// New, then Refresh once to verify the set is coherent before serving.
// All methods are safe for concurrent use.
type Router struct {
	shards [][]Backend
	opts   Options

	// pref is the per-shard preferred replica (the last one that
	// answered), so a down replica is skipped without paying its timeout
	// on every query.
	pref []atomic.Int32

	// breakers[si][ri] gates shard si's replica ri (see breaker.go).
	breakers [][]breaker
	// lats[si] is the shard's recent successful top-k attempt latency
	// window, feeding the adaptive hedge delay.
	lats   []latWindow
	robust robustCounters

	mu sync.RWMutex
	// topo is the canonical split every shard must agree on (its Index
	// field is meaningless here). nil means a single unsharded backend —
	// the router degenerates to a proxy with failover.
	topo  *pipeline.ShardDesc
	pairs [][2]platform.ID
	gens  []uint64 // last generation each shard reported (Refresh/queries)
	// health is each shard's last successful probe (zero before the
	// first), which WriteMetrics republishes as per-shard gauges.
	health []Health
}

// New builds a router over shards[i] = the replicas of shard i. At least
// one shard with one replica is required; the set is not contacted until
// Refresh.
func New(shards [][]Backend, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	for i, reps := range shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
	}
	breakers := make([][]breaker, len(shards))
	for i, reps := range shards {
		breakers[i] = make([]breaker, len(reps))
	}
	return &Router{
		shards:   shards,
		opts:     opts,
		pref:     make([]atomic.Int32, len(shards)),
		gens:     make([]uint64, len(shards)),
		health:   make([]Health, len(shards)),
		breakers: breakers,
		lats:     make([]latWindow, len(shards)),
	}, nil
}

// NumShards returns the configured shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// probe health-checks shard si through replica failover and keeps the
// answer for /metrics — startup refresh, SIGHUP, the background
// re-probe and every /healthz all come through here.
func (r *Router) probe(ctx context.Context, si int) (Health, error) {
	var h Health
	err := r.callShard(ctx, si, func(cctx context.Context, b Backend) (err error) {
		h, err = b.Health(cctx)
		return err
	})
	if err == nil {
		r.mu.Lock()
		r.health[si] = h
		r.mu.Unlock()
	}
	return h, err
}

// Refresh health-checks every shard and verifies the set is coherent:
// every shard slot answers with the matching shard index, and all agree
// on the split (count, hash seed, restricted platforms). Generations may
// legitimately differ mid-rolling-swap; per-query generation pinning
// handles that, so Refresh records them without failing. Must succeed
// once before the router serves; call again (e.g. on SIGHUP) to re-probe
// after a swap or topology repair.
func (r *Router) Refresh(ctx context.Context) error {
	healths := make([]Health, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			healths[i], errs[i] = r.probe(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("router: shard %d unreachable: %w", i, err)
		}
	}
	var topo *pipeline.ShardDesc
	gens := make([]uint64, len(r.shards))
	for i, h := range healths {
		gens[i] = h.Generation
		d := h.Shard
		if d == nil {
			if len(r.shards) > 1 {
				return fmt.Errorf("router: shard %d serves an unsharded bundle but %d shards are configured — pack with hydra-pack -shards %d",
					i, len(r.shards), len(r.shards))
			}
			continue // single unsharded backend: plain proxy mode
		}
		if d.Count != len(r.shards) {
			return fmt.Errorf("router: shard %d's bundle is a %d-way split but %d shards are configured", i, d.Count, len(r.shards))
		}
		if d.Index != i {
			return fmt.Errorf("router: backend in shard slot %d serves shard %d — membership list out of order", i, d.Index)
		}
		if topo == nil {
			topo = d
		} else if !topo.SameTopology(d) {
			return fmt.Errorf("router: shard %d's split (seed %d, b-side %v) does not match shard %d's (seed %d, b-side %v)",
				i, d.Seed, d.BSide, topo.Index, topo.Seed, topo.BSide)
		}
	}
	r.mu.Lock()
	r.topo = topo
	r.pairs = healths[0].Pairs
	r.gens = gens
	r.mu.Unlock()
	return nil
}

// Pairs returns the platform pairs the serving set reported at the last
// Refresh.
func (r *Router) Pairs() [][2]platform.ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pairs
}

// shardFor resolves which shard owns B-side account b, by the same
// consistent hash the bundles were split with.
func (r *Router) shardFor(pb platform.ID, b int) (int, error) {
	r.mu.RLock()
	topo := r.topo
	r.mu.RUnlock()
	if topo == nil {
		if len(r.shards) == 1 {
			return 0, nil
		}
		return 0, fmt.Errorf("router: not refreshed — call Refresh before serving")
	}
	s := topo.ShardOf(pb, b)
	if s < 0 {
		// The query's fault, not a replica's: 400, as a single engine answers it.
		return 0, queryError{fmt.Errorf("router: platform %s is not a sharded B side (sharded: %v) — only A→B queries route", pb, topo.BSide)}
	}
	return s, nil
}

// walk is one shard call's failover walk over the shard's replicas —
// the one place ring order, breaker gating, the retry budget, the
// deadline budget and backoff are decided. It starts at the preferred
// (last-good) replica and walks the ring `rings` times with full-jitter
// exponential backoff between passes, bounded by the per-request retry
// budget. Replicas whose circuit breaker is open are skipped without
// paying a call or an attempt; if a whole pass admits nothing, the shard
// fails fast.
type walk struct {
	r           *Router
	ctx         context.Context
	si          int
	reps        []Backend
	start       int
	budgetT     time.Time // the request's deadline budget, if hasBudget
	hasBudget   bool
	maxAttempts int
	attempts    int   // replica calls fired so far, hedges included
	pass, off   int   // position: ring pass, offset into it
	admitted    int   // replicas the current pass let through
	lastErr     error // the last replica failure or breaker denial
}

func (r *Router) newWalk(ctx context.Context, si int) walk {
	w := walk{r: r, ctx: ctx, si: si, reps: r.shards[si], start: int(r.pref[si].Load())}
	w.budgetT, w.hasBudget = Budget(ctx)
	w.maxAttempts = r.opts.maxAttempts(len(w.reps))
	return w
}

// next returns the next replica to attempt, or the error the walk ends
// with: context cancelled, deadline or retry budget exhausted, every
// breaker open, or the shard down after `rings` passes. The caller fires
// the attempt, counts it in attempts and settles its outcome before
// calling next again.
func (w *walk) next() (int, error) {
	for ; w.pass < rings; w.pass, w.off, w.admitted = w.pass+1, 0, 0 {
		if w.pass > 0 && w.off == 0 && !w.r.backoffWait(w.ctx, w.pass, w.budgetT, w.hasBudget) {
			return -1, w.exhausted(fmt.Errorf("router: shard %d: deadline budget exhausted during backoff (%d attempts): %w",
				w.si, w.attempts, afterErr(w.lastErr)))
		}
		for w.off < len(w.reps) {
			if w.ctx.Err() != nil {
				return -1, fmt.Errorf("router: shard %d: %w", w.si, w.ctx.Err())
			}
			if w.hasBudget && time.Until(w.budgetT) <= 0 {
				return -1, w.exhausted(fmt.Errorf("router: shard %d: deadline budget exhausted after %d attempts: %w",
					w.si, w.attempts, afterErr(w.lastErr)))
			}
			idx := (w.start + w.off) % len(w.reps)
			w.off++
			if !w.r.breakerAllow(w.si, idx) {
				w.r.robust.failFast.Add(1)
				w.lastErr = fmt.Errorf("%s: circuit breaker open", w.reps[idx].Name())
				continue
			}
			if w.attempts >= w.maxAttempts {
				return -1, w.exhausted(fmt.Errorf("router: shard %d: retry budget exhausted (%d attempts): %w",
					w.si, w.attempts, afterErr(w.lastErr)))
			}
			w.admitted++
			return idx, nil
		}
		if w.admitted == 0 {
			return -1, fmt.Errorf("router: shard %d fail-fast: all %d replica breakers open: %w",
				w.si, len(w.reps), afterErr(w.lastErr))
		}
	}
	return -1, fmt.Errorf("router: shard %d down (%d replicas, %d attempts): %w", w.si, len(w.reps), w.attempts, w.lastErr)
}

// exhausted counts a walk that ran out of retry or deadline budget.
func (w *walk) exhausted(err error) error {
	w.r.robust.retryExhausted.Add(1)
	return err
}

// settle books one synchronous attempt's outcome on the replica's
// breaker and reports whether the walk ends with it: an answer does (the
// replica becomes the preferred one) and so does a query error (see
// queryError — another replica would answer the same); a replica failure
// is remembered and the walk goes on.
func (w *walk) settle(idx int, err error) bool {
	switch {
	case err == nil:
		w.r.pref[w.si].Store(int32(idx))
		fallthrough
	case IsQueryError(err):
		w.r.breakers[w.si][idx].success() // the replica answered; a query error is the query's fault
		return true
	}
	w.r.breakerFailure(w.si, idx)
	w.lastErr = fmt.Errorf("%s: %w", w.reps[idx].Name(), err)
	return false
}

// callShard runs fn against shard si's replicas until one answers, each
// attempt under its own timeout (capped by the deadline budget); see
// walk for the failover discipline.
func (r *Router) callShard(ctx context.Context, si int, fn func(context.Context, Backend) error) error {
	w := r.newWalk(ctx, si)
	for {
		idx, err := w.next()
		if err != nil {
			return err
		}
		w.attempts++
		cctx, cancel := r.attemptCtx(ctx, w.budgetT, w.hasBudget)
		err = fn(cctx, w.reps[idx])
		cancel()
		if w.settle(idx, err) {
			return err
		}
	}
}

// noteGen records the freshest generation a shard has been seen serving.
func (r *Router) noteGen(si int, gen uint64) {
	r.mu.Lock()
	if gen > r.gens[si] {
		r.gens[si] = gen
	}
	r.mu.Unlock()
}

// ScoreBatch scores a batch of pairs, scattering each pair to the shard
// owning its B-side account and reassembling the scores in input order.
// The whole batch is answered by one bundle generation: if a hot swap
// lands mid-scatter, the batch is retried against the new generation.
// Scores need every owner alive — a down shard fails the batch (there is
// no honest partial answer to "score these pairs").
func (r *Router) ScoreBatch(ctx context.Context, pa, pb platform.ID, pairs [][2]int) ([]float64, uint64, error) {
	if len(pairs) == 0 {
		return nil, 0, fmt.Errorf("router: empty batch")
	}
	groups := make(map[int][]int) // shard -> indexes into pairs
	for i, p := range pairs {
		si, err := r.shardFor(pb, p[1])
		if err != nil {
			return nil, 0, err
		}
		groups[si] = append(groups[si], i)
	}
	var lastGens []uint64
	for attempt := 0; attempt < 2; attempt++ {
		scores := make([]float64, len(pairs))
		gens := make([]uint64, 0, len(groups))
		var genMu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, 0, len(groups))
		for si, idxs := range groups {
			wg.Add(1)
			go func(si int, idxs []int) {
				defer wg.Done()
				sub := make([][2]int, len(idxs))
				for j, i := range idxs {
					sub[j] = pairs[i]
				}
				err := r.callShard(ctx, si, func(cctx context.Context, b Backend) error {
					ss, gen, err := b.ScoreBatch(cctx, pa, pb, sub)
					if err != nil {
						return err
					}
					if len(ss) != len(sub) {
						return fmt.Errorf("%d scores for %d pairs", len(ss), len(sub))
					}
					for j, i := range idxs {
						scores[i] = ss[j]
					}
					genMu.Lock()
					gens = append(gens, gen)
					genMu.Unlock()
					r.noteGen(si, gen)
					return nil
				})
				if err != nil {
					genMu.Lock()
					errs = append(errs, err)
					genMu.Unlock()
				}
			}(si, idxs)
		}
		wg.Wait()
		if len(errs) > 0 {
			return nil, 0, errs[0]
		}
		if uniform(gens) {
			return scores, gens[0], nil
		}
		lastGens = gens
	}
	return nil, 0, fmt.Errorf("router: batch straddled concurrent bundle swaps (generations %v) — retry", lastGens)
}

// TopKResult is a scatter-gather top-k answer. Degraded marks a partial
// merge: FailedShards were down after failover, so their slices of the
// candidate space are missing from Results (every present row is still
// exact — shards partition the space, so survivors' rows are unaffected).
type TopKResult struct {
	Results    []serve.Scored `json:"results"`
	Generation uint64         `json:"generation"`
	Degraded   bool           `json:"degraded,omitempty"`
	// FailedShards lists the down shards of a degraded response.
	FailedShards []int `json:"failed_shards,omitempty"`
}

// topkJob is one shard's slot in a top-k fan-out: the query and the
// shard's outcome.
type topkJob struct {
	ctx context.Context
	pa  platform.ID
	pb  platform.ID
	a   int
	k   int
	si  int
	res []serve.Scored
	gen uint64
	err error
}

// runTopKJob answers one shard's slice of a top-k fan-out over the same
// failover walk as callShard, each attempt through timedTopK, which adds
// tied hedging and does its flights' breaker bookkeeping itself.
func (r *Router) runTopKJob(j *topkJob) {
	w := r.newWalk(j.ctx, j.si)
	for {
		idx, err := w.next()
		if err != nil {
			j.err = err
			return
		}
		winner, err := r.timedTopK(j, idx, &w)
		switch {
		case err == nil:
			r.pref[j.si].Store(int32(winner))
			r.noteGen(j.si, j.gen)
		case !IsQueryError(err):
			w.lastErr = err
			continue
		}
		j.err = err
		return
	}
}

// TopK returns account a's k best-scoring B-side candidates across the
// whole sharded candidate space — TopKAppend with a fresh result slice.
func (r *Router) TopK(ctx context.Context, pa platform.ID, a int, pb platform.ID, k int) (TopKResult, error) {
	return r.TopKAppend(ctx, nil, pa, a, pb, k)
}

// TopKAppend is TopK appending the merged rows into dst (which may be
// nil). Every live shard ranks its own slice and the router merges the
// rows with the engine's exact (score desc, B asc) tie-break —
// bit-identical to a single engine over the unsplit bundle when all
// shards answer. k ≤ 0 returns the full merged ranking. One bundle
// generation answers the whole fan-out: a scatter straddling a hot swap
// is re-fanned-out, and if generations still differ (a rolling swap in
// progress), the answer comes from the newest-generation shards alone,
// with the stale ones flagged in FailedShards — a response never mixes
// generations. A shard that stays down after replica failover likewise
// makes the response Degraded instead of an error.
func (r *Router) TopKAppend(ctx context.Context, dst []serve.Scored, pa platform.ID, a int, pb platform.ID, k int) (TopKResult, error) {
	for attempt := 0; ; attempt++ {
		jobs := make([]topkJob, len(r.shards))
		var wg sync.WaitGroup
		for si := range jobs {
			j := &jobs[si]
			*j = topkJob{ctx: ctx, pa: pa, a: a, pb: pb, k: k, si: si}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.runTopKJob(j)
			}()
		}
		wg.Wait()
		var gens []uint64
		for i := range jobs {
			if jobs[i].err != nil {
				if IsQueryError(jobs[i].err) {
					return TopKResult{}, jobs[i].err
				}
				continue
			}
			gens = append(gens, jobs[i].gen)
		}
		if len(gens) == 0 {
			var firstErr error
			for i := range jobs {
				if jobs[i].err != nil {
					firstErr = jobs[i].err
					break
				}
			}
			return TopKResult{}, fmt.Errorf("router: all %d shards down: %w", len(r.shards), firstErr)
		}
		if !uniform(gens) && attempt == 0 {
			continue // swap landed mid-scatter; re-fan-out on the new generation
		}
		// Merge the newest generation's answers; anything older (a rolling
		// swap's stragglers) degrades rather than mixes.
		target := gens[0]
		for _, gen := range gens {
			if gen > target {
				target = gen
			}
		}
		merged := dst[:0]
		var failed []int
		for si := range jobs {
			if jobs[si].err != nil || jobs[si].gen != target {
				failed = append(failed, si)
				continue
			}
			merged = append(merged, jobs[si].res...)
		}
		sort.Slice(merged, func(i, j int) bool { return serve.ScoredLess(merged[i], merged[j]) })
		if k > 0 && len(merged) > k {
			merged = merged[:k]
		}
		return TopKResult{
			Results:      merged,
			Generation:   target,
			Degraded:     len(failed) > 0,
			FailedShards: failed,
		}, nil
	}
}

// ShardStatus is one shard's row in the router's health report.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Replicas   int    `json:"replicas"`
	Healthy    bool   `json:"healthy"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
	// Prescreen relays the shard's two-tier pruning telemetry (nil for
	// prescreen-less bundles).
	Prescreen *serve.PrescreenHealth `json:"prescreen,omitempty"`
	// Impute relays the shard's imputation-layer telemetry (pack-time
	// table and pair-cache hit rates).
	Impute *serve.ImputeHealth `json:"impute,omitempty"`
}

// Status live-probes every shard (through replica failover) and reports
// per-shard health — the router /healthz body.
func (r *Router) Status(ctx context.Context) []ShardStatus {
	out := make([]ShardStatus, len(r.shards))
	var wg sync.WaitGroup
	for si := range r.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			st := ShardStatus{Shard: si, Replicas: len(r.shards[si])}
			if h, err := r.probe(ctx, si); err != nil {
				st.Error = err.Error()
			} else {
				st.Healthy, st.Generation, st.Prescreen, st.Impute = h.OK, h.Generation, h.Prescreen, h.Impute
			}
			out[si] = st
		}(si)
	}
	wg.Wait()
	return out
}

// uniform reports whether all generations in the slice are equal.
func uniform(gens []uint64) bool {
	for _, g := range gens[1:] {
		if g != gens[0] {
			return false
		}
	}
	return len(gens) > 0
}
