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

	"hydra/internal/parallel"
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
	// is cancelled). 0 (the default) adapts the delay to the slowest of
	// the shard's recent top-k attempts; negative disables hedging.
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
	ans := call(ctx, r, si, false, func(cctx context.Context, b Backend) (Health, uint64, error) {
		h, err := b.Health(cctx)
		return h, h.Generation, err
	})
	if ans.err == nil {
		r.mu.Lock()
		r.health[si] = ans.v
		r.mu.Unlock()
	}
	return ans.v, ans.err
}

// Refresh health-checks every shard and verifies the set is coherent:
// every shard slot answers with the matching shard index, and all agree
// on the split (count, hash seed, restricted platforms). Generations may
// legitimately differ mid-rolling-swap; per-query generation pinning
// handles that, so Refresh does not compare them. Must succeed
// once before the router serves; call again (e.g. on SIGHUP) to re-probe
// after a swap or topology repair.
func (r *Router) Refresh(ctx context.Context) error {
	n := len(r.shards)
	healths := make([]Health, n)
	errs := make([]error, n)
	parallel.For(n, n, func(i int) { healths[i], errs[i] = r.probe(ctx, i) })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("router: shard %d unreachable: %w", i, err)
		}
	}
	var topo *pipeline.ShardDesc
	for i, h := range healths {
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
	probing     bool  // the current attempt holds its replica's half-open probe slot (so it is never hedged)
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
// breaker open, or the shard down after `rings` passes. The retry budget
// is checked before a breaker is consulted: a half-open breaker's allow
// claims its one probe slot, and a walk that could not then fire the
// probe would leave the replica half-open for good. A backoff cut short
// by the caller's own context ends the walk with the context's error,
// not as a spent budget.
func (w *walk) next() (int, error) {
	for ; w.pass < rings; w.pass, w.off, w.admitted = w.pass+1, 0, 0 {
		if w.pass > 0 && w.off == 0 && !w.r.backoffWait(w.ctx, w.pass, w.budgetT, w.hasBudget) {
			if err := w.ctx.Err(); err != nil && !(w.hasBudget && time.Until(w.budgetT) <= 0) {
				return -1, fmt.Errorf("router: shard %d: %w", w.si, err)
			}
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
			if w.attempts >= w.maxAttempts {
				return -1, w.exhausted(fmt.Errorf("router: shard %d: retry budget exhausted (%d attempts): %w",
					w.si, w.attempts, afterErr(w.lastErr)))
			}
			idx := (w.start + w.off) % len(w.reps)
			w.off++
			ok, probe := w.r.breakerAllow(w.si, idx)
			if !ok {
				w.r.robust.failFast.Add(1)
				w.lastErr = fmt.Errorf("%s: circuit breaker open", w.reps[idx].Name())
				continue
			}
			w.admitted++
			w.probing = probe
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

// book is the one place a flight's outcome is booked: an answer makes
// its replica the preferred one and, on a hedged call, adds a sample to
// the shard's latency window; an answer or a query error (the replica
// answered; see queryError) closes the replica's breaker. A failure
// after the caller's own context ended is the caller's, not the
// replica's: it is not booked, and a probe slot the attempt held is
// handed back. Any other failure is a breaker failure.
func (w *walk) book(idx int, err error, dur time.Duration, hedge bool) {
	switch {
	case err == nil:
		w.r.pref[w.si].Store(int32(idx))
		if hedge {
			w.r.lats[w.si].record(dur)
		}
		fallthrough
	case IsQueryError(err):
		w.r.breakers[w.si][idx].success()
	case w.ctx.Err() != nil:
		if w.probing {
			w.r.breakers[w.si][idx].release()
		}
	default:
		w.r.breakerFailure(w.si, idx)
	}
}

// answer is what one shard call returned: the value, the bundle
// generation that answered, the error — and one shard's slot in a
// fan-out.
type answer[T any] struct {
	v   T
	gen uint64
	err error
}

// flight is one replica call's outcome, sent by the goroutine that made
// it. The value travels with the outcome, so only the answer an attempt
// ends with is ever read; an abandoned flight writes nowhere but its
// attempt's buffered channel.
type flight[T any] struct {
	answer[T]
	idx int
	dur time.Duration
}

// call runs fn against shard si's replicas until one answers, stepping
// the walk one attempt at a time: an answer or a query error ends the
// call (another replica would return the same query error), a replica
// failure moves the walk on. hedge ties a slow attempt to a backup
// flight (TopKAppend); probes and score batches fly one flight per
// attempt and leave the hedge window alone. Replica failures come back
// wrapped with the replica's name, query errors untouched.
func call[T any](ctx context.Context, r *Router, si int, hedge bool, fn func(context.Context, Backend) (T, uint64, error)) answer[T] {
	w := r.newWalk(ctx, si)
	for {
		idx, err := w.next()
		if err != nil {
			return answer[T]{err: err}
		}
		ans := attempt(&w, idx, hedge, fn)
		if ans.err == nil || IsQueryError(ans.err) {
			return ans
		}
		w.lastErr = ans.err
	}
}

// attempt flies fn at replica idx under its own attemptCtx (the
// per-attempt timeout, capped by the deadline budget) and returns the
// outcome that ends the attempt: the first answer or query error, else,
// once every flight has failed, the first failure. With hedge set and a
// backup available (walk.backup), the same call is flown at the backup
// after the hedge delay and the first answer wins; the loser is
// cancelled and abandoned unbooked, so a cancellation it did not earn
// never reaches its breaker.
func attempt[T any](w *walk, idx int, hedge bool, fn func(context.Context, Backend) (T, uint64, error)) answer[T] {
	r := w.r
	out := make(chan flight[T], 2)
	var cancels [2]context.CancelFunc
	flown := 0
	defer func() {
		for _, cancel := range cancels[:flown] {
			cancel()
		}
	}()
	fly := func(i int) {
		w.attempts++
		cctx, cancel := r.attemptCtx(w.ctx, w.budgetT, w.hasBudget)
		cancels[flown] = cancel
		flown++
		b := w.reps[i]
		go func() {
			defer cancel()
			t0 := time.Now()
			v, gen, err := fn(cctx, b)
			out <- flight[T]{answer[T]{v, gen, err}, i, time.Since(t0)}
		}()
	}

	fly(idx)
	backup := -1
	var hedgeC <-chan time.Time
	if hedge {
		if backup = w.backup(idx); backup >= 0 {
			t := time.NewTimer(r.hedgeDelay(w.si))
			defer t.Stop()
			hedgeC = t.C
		}
	}
	hedged := false
	var firstErr error
	for inFlight := 1; inFlight > 0; {
		select {
		case <-hedgeC:
			hedgeC, hedged = nil, true
			r.robust.hedgeFired.Add(1)
			fly(backup)
			inFlight++
		case f := <-out:
			inFlight--
			w.book(f.idx, f.err, f.dur, hedge)
			if f.err == nil || IsQueryError(f.err) {
				if f.err == nil && hedged {
					if f.idx == backup {
						r.robust.hedgeWon.Add(1)
					}
					if inFlight > 0 {
						r.robust.hedgeCancelled.Add(1)
					}
				}
				return f.answer
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", w.reps[f.idx].Name(), f.err)
			}
			hedgeC = nil // down to one flight or none: no further hedging
		}
	}
	return answer[T]{err: firstErr}
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
	groups := make([][]int, len(r.shards)) // shard -> indexes into pairs
	for i, p := range pairs {
		si, err := r.shardFor(pb, p[1])
		if err != nil {
			return nil, 0, err
		}
		groups[si] = append(groups[si], i)
	}
	var owners []int // the shards the batch touches, ascending
	for si, idxs := range groups {
		if len(idxs) > 0 {
			owners = append(owners, si)
		}
	}
	var gens []uint64
	for round := 0; round < 2; round++ {
		ans := make([]answer[[]float64], len(owners))
		parallel.For(len(owners), len(owners), func(o int) {
			idxs := groups[owners[o]]
			sub := make([][2]int, len(idxs))
			for j, i := range idxs {
				sub[j] = pairs[i]
			}
			ans[o] = call(ctx, r, owners[o], false, func(cctx context.Context, b Backend) ([]float64, uint64, error) {
				ss, gen, err := b.ScoreBatch(cctx, pa, pb, sub)
				if err == nil && len(ss) != len(sub) {
					err = fmt.Errorf("%d scores for %d pairs", len(ss), len(sub))
				}
				return ss, gen, err
			})
		})
		if err := shardError(ans); err != nil {
			return nil, 0, err
		}
		gens = gens[:0]
		for _, s := range ans {
			gens = append(gens, s.gen)
		}
		if uniform(gens) {
			scores := make([]float64, len(pairs))
			for o, s := range ans {
				for j, i := range groups[owners[o]] {
					scores[i] = s.v[j]
				}
			}
			return scores, gens[0], nil
		}
	}
	return nil, 0, fmt.Errorf("router: batch straddled concurrent bundle swaps (generations %v) — retry", gens)
}

// shardError is the error a fan-out answers with, whichever shard
// finished first: the first query error in shard order (the query's
// fault, however the other shards fared), else the lowest shard's error.
func shardError[T any](ans []answer[T]) error {
	var first error
	for _, s := range ans {
		if IsQueryError(s.err) {
			return s.err
		}
		if first == nil {
			first = s.err
		}
	}
	return first
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
	n := len(r.shards)
	topk := func(cctx context.Context, b Backend) ([]serve.Scored, uint64, error) {
		return b.TopK(cctx, pa, a, pb, k)
	}
	for round := 0; ; round++ {
		ans := make([]answer[[]serve.Scored], n)
		parallel.For(n, n, func(si int) { ans[si] = call(ctx, r, si, true, topk) })
		if err := shardError(ans); IsQueryError(err) {
			return TopKResult{}, err
		}
		var gens []uint64
		for _, s := range ans {
			if s.err == nil {
				gens = append(gens, s.gen)
			}
		}
		if len(gens) == 0 {
			return TopKResult{}, fmt.Errorf("router: all %d shards down: %w", n, shardError(ans))
		}
		if !uniform(gens) && round == 0 {
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
		for si, s := range ans {
			if s.err != nil || s.gen != target {
				failed = append(failed, si)
				continue
			}
			merged = append(merged, s.v...)
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
	parallel.For(len(out), len(out), func(si int) {
		st := ShardStatus{Shard: si, Replicas: len(r.shards[si])}
		if h, err := r.probe(ctx, si); err != nil {
			st.Error = err.Error()
		} else {
			st.Healthy, st.Generation, st.Prescreen, st.Impute = h.OK, h.Generation, h.Prescreen, h.Impute
		}
		out[si] = st
	})
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
