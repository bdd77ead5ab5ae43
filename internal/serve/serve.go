// Package serve is HYDRA's query front-end: it answers score, link and
// top-k linkage queries against a persisted model without retraining —
// the serving half of the train/serve split. An engine serves one
// self-contained v3 bundle — precomputed views, friend slices and index
// shards, no world file — bit-identical to the builder-backed system it
// was packed from. NewEngineFromMapped serves it straight off the file
// (pipeline.OpenBundleMapped: the header and model sections read at
// open, account entries read from the file on first touch; this is what
// hydra-serve runs);
// NewEngineFromBundle serves a bundle already decoded in memory (what
// pipeline.SplitBundle hands back; the benchmark's shard replicas and
// oracle run on it). Both are the same engine over the same
// core.LazyStore.
//
// Queries run on the serving fast path (core.Model.ScoreBatchInto): the
// batch imputes into pooled feature rows, all kernel values evaluate in
// one blocked Workers-governed pass over the compacted support set, and
// α and the bias fold per pair — bit-identical to the scalar loop and
// allocation-free once warm (the source's pair cache is mutex-guarded
// and shared across queries, so repeated queries get warmer). Top-k
// queries never scan the full B side: each A-side account's candidates
// come from the bundle's per-A-side sharded blocking.Index, and the
// shard ranks by bounded partial selection rather than a full sort.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/obs"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
)

// Engine answers linkage queries against one restored model. It is
// immutable after construction apart from the source's internal caches
// and the query-scratch pool, and safe for concurrent queries.
type Engine struct {
	// Sys is the feature store behind the model — always a
	// *core.LazyStore (the bundle's, or in tests the world System's),
	// declared as the core.Source the engine calls through.
	Sys   core.Source
	Model *core.Model
	// Workers pins the per-query batch parallelism (≤ 0 = all cores).
	Workers int

	// shard is the bundle's shard descriptor when the engine serves a
	// sub-bundle of a sharded split (nil for a whole-space engine): the
	// engine then owns one slice of the B side and refuses score/link
	// queries for accounts the consistent hash assigns elsewhere, so a
	// mis-routed query errors instead of imputing against missing state.
	shard      *pipeline.ShardDesc
	generation uint64

	indexes map[[2]platform.ID]*blocking.Index
	scratch sync.Pool

	// Lifecycle. A mapped engine (NewEngineFromMapped) reads account
	// entries from a bundle file that must stay open for every in-flight
	// query — closing it turns an in-flight first touch into an error:
	// handlers pin the engine with Acquire/Release, and after a hot swap
	// the old engine's Retire closes the file only once the last pinned
	// request drains. In-memory engines have a nil closer and all of
	// this degenerates to no-ops.
	inflight  atomic.Int64
	retired   atomic.Bool
	closeOnce sync.Once
	closeErr  error
	closer    func() error
	mapped    *pipeline.MappedBundle

	// Prescreen state: prescreenOff is the differential tests' and the
	// benchmark oracle's hook (SetPrescreenEnabled); survivors (how many
	// candidates each engaged top-k rescored exactly — its count is the
	// engaged-query count, its sum the survivor total) and the two
	// counters feed /healthz, /metrics (WriteMetrics) and the router's
	// per-shard gauges. None of it ever changes a served value — with or
	// without the prescreen the exact scorer alone decides output.
	prescreenOff atomic.Bool
	survivors    *obs.Histogram
	prePruned    atomic.Uint64
	preSkipped   atomic.Uint64
}

// prescreenMinSlack is the minimum prunable candidate count (shard size
// minus k) before a top-k query pays the prescreen pass: below it the
// approximate fold plus the near-certain full rescore costs more than
// scoring the shard exactly outright.
const prescreenMinSlack = 8

// prescreenRescoreChunk is the exact-rescore batch size past the
// initial k seed. Fixed (never worker-derived) so the survivor count —
// and hence the prescreen stats — is deterministic at any worker count.
const prescreenRescoreChunk = 16

// DefaultPairCacheEntries bounds the store's pair-vector cache in a
// serving process (≈ 920 bytes per entry, map slot and vector; this cap
// keeps a long-lived server under ≈ 60 MB of cache even under an
// adversarial query sweep of the full pair space). A capped cache stores
// a vector only on its pair's second miss, which a table of one 8-byte
// fingerprint per entry (512 KB here) remembers, so a working set that
// does not fit — a cold top-k's Eqn-18 walk computes ≈ 250 friend pairs
// it will not ask for again — leaves the cache near empty instead of
// full. An entry saves one features.Pair, some 15 µs between views that
// have been paired before, so the cache earns its memory on pairs that
// come back and costs one recompute on each pair's second touch.
const DefaultPairCacheEntries = 1 << 16

// NewEngineFromBundle serves a bundle already decoded in memory: every
// view is restored up front and the candidate indexes are built from the
// decoded rows. The engine owns no OS resources, so it never retires.
func NewEngineFromBundle(b *pipeline.Bundle, workers int) (*Engine, error) {
	store, err := b.Store()
	if err != nil {
		return nil, err
	}
	ixs := make([]*blocking.Index, 0, len(b.Indexes))
	for _, parts := range b.Indexes {
		ix, err := blocking.IndexFromParts(parts)
		if err != nil {
			return nil, err
		}
		ixs = append(ixs, ix)
	}
	return newEngine(store, b.Model, b.Prescreen, b.Shard, b.Pairs, ixs, workers)
}

// newEngine is the one engine constructor behind both bundle backings:
// it caps the store's pair cache at DefaultPairCacheEntries (the
// store's LimitPairCache chooses a different bound), restores the model
// over the store, attaches the prescreen when the bundle carries one —
// a bundle without it (older packers, non-RBF models) serves exact-only,
// same outputs, no pruning — and checks every listed pair has its index.
func newEngine(store *core.LazyStore, parts core.ModelParts, prescreen *core.PrescreenParts,
	shard *pipeline.ShardDesc, pairs [][2]platform.ID, ixs []*blocking.Index, workers int) (*Engine, error) {

	store.LimitPairCache(DefaultPairCacheEntries)
	model, err := core.ModelFromParts(store, parts)
	if err != nil {
		return nil, err
	}
	if prescreen != nil {
		if err := model.SetPrescreen(prescreen); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		Sys:     store,
		Model:   model,
		Workers: workers,
		shard:   shard,
		indexes: make(map[[2]platform.ID]*blocking.Index, len(ixs)),

		survivors: newSurvivorHistogram(),
	}
	if shard != nil {
		if err := shard.Validate(); err != nil {
			return nil, err
		}
		e.generation = shard.Generation
	}
	for _, ix := range ixs {
		e.indexes[[2]platform.ID{ix.PA, ix.PB}] = ix
	}
	for _, pp := range pairs {
		if _, ok := e.indexes[pp]; !ok {
			return nil, fmt.Errorf("serve: bundle lists pair %s → %s but carries no index for it", pp[0], pp[1])
		}
	}
	return e, nil
}

// Pairs lists the indexed platform pairs, lexicographically sorted and
// deduplicated.
func (e *Engine) Pairs() [][2]platform.ID {
	out := make([][2]platform.ID, 0, len(e.indexes))
	for pp := range e.indexes {
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ShardDesc returns the shard descriptor of a sub-bundle engine, nil for
// a whole-space engine.
func (e *Engine) ShardDesc() *pipeline.ShardDesc { return e.shard }

// checkOwned rejects a query for a B-side account the engine's shard
// does not own. The consistent hash is the same one the router routes
// by, so the error only fires on mis-routed (or routerless) queries.
func (e *Engine) checkOwned(pb platform.ID, b int) error {
	if e.shard == nil || e.shard.Owns(pb, b) {
		return nil
	}
	return fmt.Errorf("serve: %s account %d belongs to shard %d of %d (this is shard %d) — route the query through hydra-router",
		pb, b, e.shard.ShardOf(pb, b), e.shard.Count, e.shard.Index)
}

// Score returns the model's decision value for one account pair.
func (e *Engine) Score(pa platform.ID, a int, pb platform.ID, b int) (float64, error) {
	if err := e.checkOwned(pb, b); err != nil {
		return 0, err
	}
	return e.Model.Score(pa, a, pb, b)
}

// Link decides whether the pair is the same natural person (score > 0).
func (e *Engine) Link(pa platform.ID, a int, pb platform.ID, b int) (bool, float64, error) {
	s, err := e.Score(pa, a, pb, b)
	if err != nil {
		return false, 0, err
	}
	return s > 0, s, nil
}

// ScoreBatch scores a batch of pairs in one pass over the worker pool.
func (e *Engine) ScoreBatch(pa, pb platform.ID, pairs [][2]int) ([]float64, error) {
	if e.shard != nil {
		for _, p := range pairs {
			if err := e.checkOwned(pb, p[1]); err != nil {
				return nil, err
			}
		}
	}
	return e.Model.ScoreBatchWorkers(pa, pb, pairs, e.Workers)
}

// Scored is one top-k result row.
type Scored struct {
	B      int     `json:"b"`
	Score  float64 `json:"score"`
	Linked bool    `json:"linked"`
}

// TopK returns A-side account a's k best-scoring B-side candidates on the
// (pa, pb) index — only the account's candidate shard is scored, batched
// over the worker pool. Ties break on the lower B id, so results are
// deterministic at any worker count. k ≤ 0 returns the whole ranked shard.
func (e *Engine) TopK(pa platform.ID, a int, pb platform.ID, k int) ([]Scored, error) {
	return e.TopKAppend(nil, pa, a, pb, k)
}

// topkScratch is the pooled per-query state of a top-k query: the pair
// list fed to the batch scorer, its score slots, the bounded selection
// window, and a reusable sorter over it (sort.Slice's closure would
// allocate every whole-shard query; a pooled sort.Interface does not).
// The pre/order/rpairs/rscores buffers back the two-tier path: the
// approximate scores, the (prescreen desc, B asc) candidate order, and
// the exact-rescore chunks fed to the batch scorer.
type topkScratch struct {
	pairs  [][2]int
	scores []float64
	sel    []Scored
	sorter scoredSorter

	pre       []float64
	order     []int
	preSorter preorderSorter
	rpairs    [][2]int
	rscores   []float64
}

// scoredSorter sorts a Scored slice by (score descending, B ascending).
type scoredSorter struct{ s []Scored }

func (ss *scoredSorter) Len() int      { return len(ss.s) }
func (ss *scoredSorter) Swap(i, j int) { ss.s[i], ss.s[j] = ss.s[j], ss.s[i] }
func (ss *scoredSorter) Less(i, j int) bool {
	return scoredBefore(ss.s[i].Score, ss.s[i].B, ss.s[j])
}

// preorderSorter orders candidate indices by (prescreen score
// descending, B ascending) — the rescore visit order of the two-tier
// path. The tie-break makes the order, and with it the survivor stats,
// deterministic at any worker count.
type preorderSorter struct {
	order []int
	pre   []float64
	cands []blocking.Candidate
}

func (ps *preorderSorter) Len() int      { return len(ps.order) }
func (ps *preorderSorter) Swap(i, j int) { ps.order[i], ps.order[j] = ps.order[j], ps.order[i] }
func (ps *preorderSorter) Less(i, j int) bool {
	a, b := ps.order[i], ps.order[j]
	if ps.pre[a] != ps.pre[b] {
		return ps.pre[a] > ps.pre[b]
	}
	return ps.cands[a].B < ps.cands[b].B
}

// TopKAppend is TopK appending its results to dst (which may be nil) —
// the allocation-free form: with a recycled dst, a warm query's pair
// list, scores, selection window and sorter all come from the engine's
// pool and the steady state allocates nothing.
//
// A bounded-k ranking runs as partial selection instead of sorting the
// whole scored shard: candidates are inserted into a k-sized window kept
// ordered by (score descending, B ascending) — the exact comparator the
// full sort uses, a strict total order over a shard's distinct B ids, so
// the window always equals the first k rows of the sorted shard.
// Whole-shard queries (k ≤ 0 or k ≥ shard size) sort instead, avoiding
// the window's O(n·k) shifting.
//
// When the model carries a certified prescreen and the shard leaves
// enough slack (see prescreenEngages), the query runs the two-tier path
// instead: approximate scores order the shard, candidates provably
// outside the running k-th best are skipped, and only the survivors pay
// the exact batched kernel — same rows, same bits, less work (see
// topKPrescreen for the exactness argument).
func (e *Engine) TopKAppend(dst []Scored, pa platform.ID, a int, pb platform.ID, k int) ([]Scored, error) {
	ix, ok := e.indexes[[2]platform.ID{pa, pb}]
	if !ok {
		return dst, fmt.Errorf("serve: no candidate index for %s → %s (artifact pairs: %v)", pa, pb, e.Pairs())
	}
	cands, err := ix.Candidates(a)
	if err != nil {
		return dst, err
	}
	sc, _ := e.scratch.Get().(*topkScratch)
	if sc == nil {
		sc = &topkScratch{}
	}
	defer e.scratch.Put(sc)
	pairs := sc.pairs[:0]
	for _, c := range cands {
		pairs = append(pairs, [2]int{a, c.B})
	}
	sc.pairs = pairs
	kk := k
	if kk <= 0 || kk > len(cands) {
		kk = len(cands)
	}
	if e.prescreenEngages(kk, len(cands)) {
		sel, err := e.topKPrescreen(sc, pa, pb, cands, kk)
		if err != nil {
			return dst, err
		}
		sc.sel = sel
		return append(dst, sel...), nil
	}
	e.preSkipped.Add(1)
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]float64, len(cands))
	}
	scores := sc.scores[:len(cands)]
	if err := e.Model.ScoreBatchInto(pa, pb, pairs, e.Workers, scores); err != nil {
		return dst, err
	}
	sel := sc.sel[:0]
	if kk == len(cands) {
		// Whole-shard ranking: a full sort beats the insertion window's
		// O(n·k) shifting once k is the shard itself.
		for i, c := range cands {
			sel = append(sel, Scored{B: c.B, Score: scores[i], Linked: scores[i] > 0})
		}
		sc.sorter.s = sel
		sort.Sort(&sc.sorter)
	} else {
		for i, c := range cands {
			sel = insertScored(sel, kk, c.B, scores[i])
		}
	}
	sc.sel = sel
	return append(dst, sel...), nil
}

// insertScored inserts one candidate into the kk-bounded selection
// window kept ordered by (score descending, B ascending) — the exact
// comparator the whole-shard sort uses, a strict total order over a
// shard's distinct B ids, so the window always equals the first kk rows
// of the sorted scored set regardless of insertion order.
func insertScored(sel []Scored, kk int, b int, s float64) []Scored {
	if len(sel) == kk {
		if !scoredBefore(s, b, sel[kk-1]) {
			return sel // not better than the window's worst
		}
		sel = sel[:kk-1] // drop the worst, insert below
	}
	pos := len(sel)
	for pos > 0 && scoredBefore(s, b, sel[pos-1]) {
		pos--
	}
	sel = append(sel, Scored{})
	copy(sel[pos+1:], sel[pos:])
	sel[pos] = Scored{B: b, Score: s, Linked: s > 0}
	return sel
}

// prescreenEngages reports whether a top-k query should run the
// two-tier path: a prescreen is attached and enabled, the query is
// bounded (kk < shard — a whole-shard ranking needs every exact score
// anyway), and the shard leaves enough prunable slack to pay for the
// approximate pass.
func (e *Engine) prescreenEngages(kk, n int) bool {
	return kk < n && n-kk >= prescreenMinSlack &&
		!e.prescreenOff.Load() && e.Model.HasPrescreen()
}

// topKPrescreen is the two-tier top-k ranking: approximate every
// candidate with the certified prescreen, visit candidates in
// (prescreen desc, B asc) order, and exact-rescore in fixed chunks
// until the remaining prescreen scores sit provably below the running
// k-th best. sc.pairs must already hold the shard's (a, B) pairs.
//
// Exactness: with the certified margin |f − f̃| ≤ ε, a candidate is
// skipped only when f̃ < kth − ε, hence f ≤ f̃ + ε < kth — strictly
// below the window's worst *exact* score, so it cannot enter the top k
// even on a tie-break. The window's k-th best only tightens as chunks
// land, and every true top-k member satisfies f̃ ≥ f − ε ≥ kth − ε at
// every point, so it is always rescored. The window inserts exact
// scores under the engine's strict total order, so the returned rows —
// scores, ranking, tie-breaks — are bit-identical to the exact path's
// at any worker count; only the amount of work varies.
func (e *Engine) topKPrescreen(sc *topkScratch, pa platform.ID, pb platform.ID, cands []blocking.Candidate, kk int) ([]Scored, error) {
	n := len(cands)
	if cap(sc.pre) < n {
		sc.pre = make([]float64, n)
	}
	pre := sc.pre[:n]
	if err := e.Model.PrescreenMemoInto(pa, pb, sc.pairs, e.Workers, pre); err != nil {
		return nil, err
	}
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	sc.order = order
	sc.preSorter = preorderSorter{order: order, pre: pre, cands: cands}
	sort.Sort(&sc.preSorter)

	eps := e.Model.PrescreenEps()
	sel := sc.sel[:0]
	var kth float64
	full := false
	rescored := 0
	for i := 0; i < n; {
		if full && pre[order[i]] < kth-eps {
			break // sorted descending: every later candidate is certified out too
		}
		// Gather the next rescore chunk: the k window seed first, then
		// fixed-size chunks so the stop rule re-checks against a
		// tightened kth between batches.
		chunk := prescreenRescoreChunk
		if i == 0 {
			chunk = kk
		}
		j := i
		rp := sc.rpairs[:0]
		for j < n && j-i < chunk {
			if full && pre[order[j]] < kth-eps {
				break
			}
			rp = append(rp, sc.pairs[order[j]])
			j++
		}
		sc.rpairs = rp
		if cap(sc.rscores) < len(rp) {
			sc.rscores = make([]float64, len(rp))
		}
		rs := sc.rscores[:len(rp)]
		if err := e.Model.ScoreBatchInto(pa, pb, rp, e.Workers, rs); err != nil {
			return nil, err
		}
		for t, s := range rs {
			sel = insertScored(sel, kk, cands[order[i+t]].B, s)
		}
		rescored += len(rp)
		i = j
		if len(sel) == kk {
			full, kth = true, sel[kk-1].Score
		}
	}
	e.survivors.Observe(uint64(rescored))
	e.prePruned.Add(uint64(n - rescored))
	return sel, nil
}

// SetPrescreenEnabled toggles the approximate prescreen at runtime — the
// hook the differential tests and the benchmark oracle use to compare
// the two-tier path against exact-only scoring. Disabling never changes
// any served value — it only forces every top-k back to the exact path.
func (e *Engine) SetPrescreenEnabled(on bool) { e.prescreenOff.Store(!on) }

// PrescreenHealth is the engine's prescreen block on /healthz: the
// certified margin and build size plus the running counters, which the
// router relays as per-shard gauges. nil when the model carries no
// prescreen at all.
type PrescreenHealth struct {
	Enabled   bool    `json:"enabled"`
	Features  int     `json:"features"`
	Eps       float64 `json:"eps"`
	Queries   uint64  `json:"queries"`
	Survivors uint64  `json:"survivors"`
	Pruned    uint64  `json:"pruned"`
	Skipped   uint64  `json:"skipped"`
	// The fold memo's counters: a hit answers a candidate's tier-1 pass
	// from one map lookup and defers its imputation until (unless) the
	// exact rescore needs the row.
	FoldHits    uint64 `json:"fold_hits"`
	FoldMisses  uint64 `json:"fold_misses"`
	FoldEntries int    `json:"fold_entries"`
}

// PrescreenHealth snapshots the prescreen state and counters (nil for
// an exact-only engine).
func (e *Engine) PrescreenHealth() *PrescreenHealth {
	p := e.Model.Prescreen()
	if p == nil {
		return nil
	}
	h := &PrescreenHealth{
		Enabled:   !e.prescreenOff.Load(),
		Features:  p.Features,
		Eps:       p.Eps,
		Queries:   e.survivors.Count(),
		Survivors: e.survivors.Sum(),
		Pruned:    e.prePruned.Load(),
		Skipped:   e.preSkipped.Load(),
	}
	h.FoldHits, h.FoldMisses, h.FoldEntries = e.Model.PrescreenFoldStats()
	return h
}

// SetImputeTableEnabled toggles the pack-time Eqn-18 impute table at
// runtime — the table-side twin of SetPrescreenEnabled. Like the
// prescreen toggle it never changes a served bit — the table is built
// through the exact live accumulation, so turning it off only routes
// missing-dimension candidates back through the per-query friend walk.
func (e *Engine) SetImputeTableEnabled(on bool) { e.Sys.SetImputeTableEnabled(on) }

// ImputeHealth is the engine's imputation block on /healthz: the
// pack-time table's size and hit/miss counters plus the pair-vector
// cache counters — the two layers that decide how much Eqn-18 work a
// missing-dimension candidate costs. The router scrapes this into
// per-shard gauges like the prescreen block. Unlike PrescreenHealth it
// is never nil: the pair cache exists on every engine, so a table-less
// engine still reports cache health (TableEntries 0, Enabled false).
type ImputeHealth struct {
	Enabled         bool   `json:"enabled"`
	TableEntries    int    `json:"table_entries"`
	TableHits       uint64 `json:"table_hits"`
	TableMisses     uint64 `json:"table_misses"`
	PairCacheSize   int    `json:"pair_cache_size"`
	PairCacheHits   uint64 `json:"pair_cache_hits"`
	PairCacheMisses uint64 `json:"pair_cache_misses"`
	// PairCacheDeclined counts the misses whose vector the capped cache
	// computed but did not store (a pair's first touch).
	PairCacheDeclined uint64 `json:"pair_cache_declined"`
}

// ImputeHealth snapshots the imputation-layer counters.
func (e *Engine) ImputeHealth() *ImputeHealth {
	h := &ImputeHealth{
		Enabled:       e.Sys.ImputeTableEnabled(),
		PairCacheSize: e.Sys.CacheSize(),
	}
	if t := e.Sys.ImputeTable(); t != nil {
		h.TableEntries = t.NumEntries()
		h.TableHits, h.TableMisses = t.Stats()
	}
	h.PairCacheHits, h.PairCacheMisses, h.PairCacheDeclined = e.Sys.PairCacheStats()
	return h
}

// ScoredLess is the engine's exact result order — (score descending,
// B ascending) — exported so the scatter-gather router merges per-shard
// top-k answers with the identical tie-break the single-process engine
// sorts by.
func ScoredLess(x, y Scored) bool {
	return scoredBefore(x.Score, x.B, y)
}

// scoredBefore reports whether a candidate with the given score and B id
// ranks strictly before r in the (score descending, B ascending) order.
func scoredBefore(score float64, b int, r Scored) bool {
	if score != r.Score {
		return score > r.Score
	}
	return b < r.B
}
