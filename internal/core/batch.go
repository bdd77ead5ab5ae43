package core

// The serving fast path. A freshly trained or restored Model prepares
// itself for queries once (compactSupport): the kernel expansion of Eqn
// 12 is compacted to its support set — candidates with α ≠ 0 — and the
// support vectors are packed into one dense row-major matrix, so the hot
// loop walks contiguous memory instead of chasing per-candidate slices.
//
// Queries then run through ScoreBatchInto: the whole batch is imputed
// into reusable per-row feature buffers by one planned Eqn-18 walk (each
// distinct friend pair computed once, over just the dimensions its
// candidates left missing), and foldKernel evaluates all kernel values
// into a pooled matrix with the blocked kernel.CrossGramInto workers and
// folds α and the bias per column. Every op runs in the exact order the
// scalar Decision loop used, so scores are bit-identical to the per-pair
// path at any worker count. All scratch (feature rows, the kernel
// matrix, the Eqn-18 accumulator, the walk's plan) recycles through a
// sync.Pool, so a warm single-worker Score/ScoreBatchInto allocates
// nothing.

import (
	"fmt"

	"hydra/internal/features"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// compactSupport drops α=0 candidates once — the scalar Decision loop
// re-checked every candidate on every call — and packs the survivors
// into a dense row-major matrix in ascending candidate order. Keeping
// the order keeps the float addition sequence of Decision identical, so
// compaction is bit-exact by construction. Called once from Train and
// ModelFromParts; Parts() still serializes the full candidate set, so
// compaction never changes the wire format.
func (m *Model) compactSupport() {
	dim := 0
	if len(m.xs) > 0 {
		dim = len(m.xs[0])
	}
	nsv := 0
	for _, a := range m.alpha {
		if a != 0 {
			nsv++
		}
	}
	m.svMat = linalg.NewMatrix(nsv, dim)
	m.svAlpha = make([]float64, 0, nsv)
	m.svXs = make([]linalg.Vector, 0, nsv)
	r := 0
	for j, a := range m.alpha {
		if a == 0 {
			continue
		}
		copy(m.svMat.Data[r*dim:(r+1)*dim], m.xs[j])
		m.svXs = append(m.svXs, m.svMat.Row(r))
		m.svAlpha = append(m.svAlpha, a)
		r++
	}
}

// NumSupport reports the compacted support-set size (candidates with
// non-zero dual coefficient) — the per-query kernel evaluation count.
func (m *Model) NumSupport() int { return len(m.svAlpha) }

// scoreScratch is the per-query reusable state of the serving fast path.
// Instances recycle through Model.scratch; every buffer grows to the
// largest query seen and stays, so a warm server's steady state
// allocates nothing.
type scoreScratch struct {
	imp   imputeScratch   // single-pair Eqn-18 buffers
	plan  imputePlan      // a batch's Eqn-18 walk
	rows  []linalg.Vector // per-row imputed feature buffers
	sub   []linalg.Vector // row-header views for subset rescoring
	kdata []float64       // backing array of the kernel value matrix
	km    linalg.Matrix   // header over kdata, reshaped per query

	// The two-tier lazy-impute buffers: which leased rows are
	// materialized, and the gather slots for the subset that is not yet
	// (fold-memo hits skip imputation until the exact rescore needs the
	// row — most never do).
	rowOK  []bool
	miss   []int
	mpairs [][2]int
	mrows  []linalg.Vector
	mpre   []float64
}

// grow returns (*buf)[:n], reallocating when the buffer is too small —
// the growth rule of every flat scratch buffer (contents unspecified).
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// ensureRows returns n per-row buffers, keeping previously grown ones.
func (sc *scoreScratch) ensureRows(n int) []linalg.Vector {
	for len(sc.rows) < n {
		sc.rows = append(sc.rows, nil)
	}
	return sc.rows[:n]
}

// single returns the batch-of-one feature buffer (row 0, truncated for
// appending); setSingle stores it back after a possible regrow.
func (sc *scoreScratch) single() linalg.Vector {
	rows := sc.ensureRows(1)
	return rows[0][:0]
}

func (sc *scoreScratch) setSingle(x linalg.Vector) { sc.rows[0] = x }

// ensureKmat reshapes the pooled kernel matrix to rows×cols.
func (sc *scoreScratch) ensureKmat(rows, cols int) *linalg.Matrix {
	need := rows * cols
	if cap(sc.kdata) < need {
		sc.kdata = make([]float64, need)
	}
	sc.km = linalg.Matrix{Rows: rows, Cols: cols, Data: sc.kdata[:need]}
	return &sc.km
}

func (m *Model) getScratch() *scoreScratch {
	if v := m.scratch.Get(); v != nil {
		return v.(*scoreScratch)
	}
	return &scoreScratch{}
}

// ScoreBatchInto scores a batch of account pairs into out (len(out) must
// equal len(pairs)) with zero steady-state allocations: imputation,
// kernel evaluation and the α/bias fold all run on pooled scratch. The
// per-pair evaluation order matches the scalar Decision loop exactly, so
// the scores are bit-identical to per-pair Score at any worker count
// (workers ≤ 0 = all cores). On error, out's contents are unspecified;
// the error is the lowest-index pair's, like a sequential loop's.
func (m *Model) ScoreBatchInto(pa platform.ID, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("core: ScoreBatchInto got %d output slots for %d pairs", len(out), len(pairs))
	}
	if len(pairs) == 0 {
		return nil
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	rows := sc.ensureRows(len(pairs))
	if err := m.imputeBatch(sc, rows, pa, pb, pairs, workers); err != nil {
		return err
	}
	m.foldKernel(sc, rows, workers, out)
	return nil
}

// foldKernel is the one exact scoring fold, shared by ScoreBatchInto and
// TwoTier.ScoreSubset: all kernel values in one blocked pass, km[j][i] =
// K(sv_j, x_i) — the exact Eval argument order of the scalar loop,
// parallel over support rows — then α and the bias folded into out
// (len(out) = len(rows)), walking km row by row so the reads are
// sequential. Every output slot still accumulates bias then α_j·K(sv_j,
// x_i) in ascending support order — the same float addition sequence as
// Decision, hence bit-exact — and depends only on its own row.
func (m *Model) foldKernel(sc *scoreScratch, rows []linalg.Vector, workers int, out []float64) {
	n := len(rows)
	km := sc.ensureKmat(len(m.svXs), n)
	kernel.CrossGramInto(m.kern, m.svXs, rows, km, workers)
	for i := range out {
		out[i] = m.bias
	}
	for j, a := range m.svAlpha {
		row := km.Data[j*n : (j+1)*n]
		for i, kv := range row {
			out[i] += a * kv
		}
	}
}

// imputePlan is a batch's Eqn-18 walk, planned before any friend pair is
// computed: per candidate its head (imputeHead) and the slots of its
// friend pairs in walk order, and per distinct friend pair — a slot —
// its ids, its want (the union of the missing masks of the candidates
// that read it) and its vector. Every buffer is pooled scratch that grows
// to the largest batch seen, the index map included (cleared, not
// reallocated), so a warm batch allocates nothing.
type imputePlan struct {
	cands []planCand
	dim   int
	index map[[2]int]int32 // friend pair (fa, fb) → slot
	pairs [][2]int         // slot → friend pair
	refs  []int32          // the candidates' slot lists, back to back
	wants []bool           // slot-major, dim each
	xs    []float64        // slot-major: a declined friend pair's values
	masks []bool           // and mask
	vecs  []features.PairVector
	errs  []error
}

// planCand is one candidate's share of the plan: its head's error or
// pending walk, and refs[lo:hi], the slots of its friend pairs.
type planCand struct {
	err    error
	w      pendingWalk
	lo, hi int
}

// imputeBatch fills rows[i] with the imputed feature vector of pairs[i]
// and returns the lowest-index pair's error, as a sequential loop of
// imputeInto would. It runs as a plan: (1) every candidate's head — raw
// vector, one impute-table lookup, friend lists — over the worker pool;
// (2) the distinct friend pairs of the candidates left pending, each
// wanting the union of their missing dimensions; (3) those friend pairs
// over the same pool, each computed once and, unless the pair cache
// stores it, over its want only; (4) every pending candidate's sums, added in
// imputeInto's order — friendsA-major, friendsB-minor — with its step,
// so the bits are the single-pair walk's. A batch with nothing pending
// skips (3). With one worker everything runs inline, with no goroutines
// or closures.
func (m *Model) imputeBatch(sc *scoreScratch, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int, workers int) error {
	n := len(pairs)
	pl := &sc.plan
	pl.cands = grow(&pl.cands, n)
	defer pl.release(n)
	w := min(parallel.Workers(workers), n)
	if w == 1 {
		for i := range pairs {
			if !m.planHead(pl, rows, pa, pb, pairs, i) {
				break
			}
		}
	} else {
		parallel.For(w, n, func(i int) { m.planHead(pl, rows, pa, pb, pairs, i) })
	}
	stop := pl.collect(n)
	pl.compute(m.store, pa, pb, w)
	for i := 0; i < stop; i++ {
		c := &pl.cands[i]
		if c.w.fa == nil {
			continue
		}
		sums := sc.imp.zeroSums(pl.dim)
		for _, j := range pl.refs[c.lo:c.hi] {
			if err := pl.errs[j]; err != nil {
				return err
			}
			addObserved(sums, pl.vecs[j])
		}
		fillMissing(rows[i], c.w.mask, sums, float64(len(c.w.fa)*len(c.w.fb)))
	}
	if stop < n {
		return pl.cands[stop].err
	}
	return nil
}

// planHead runs candidate i's head into rows[i] and the plan, reporting
// whether it succeeded.
func (m *Model) planHead(pl *imputePlan, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int, i int) bool {
	x, w, err := m.store.imputeHead(rows[i][:0], pa, pairs[i][0], pb, pairs[i][1], m.cfg.Variant, m.cfg.TopFriends)
	rows[i] = x
	pl.cands[i] = planCand{err: err, w: w}
	return err == nil
}

// collect registers the friend pairs of the pending candidates before
// the first failed one, whose index it returns (n when none failed),
// giving each distinct pair a slot whose want gathers the missing
// dimensions of every candidate that reads it.
func (pl *imputePlan) collect(n int) int {
	if pl.index == nil {
		pl.index = make(map[[2]int]int32)
	}
	clear(pl.index)
	pl.pairs, pl.refs, pl.wants = pl.pairs[:0], pl.refs[:0], pl.wants[:0]
	for i := 0; i < n; i++ {
		c := &pl.cands[i]
		if c.err != nil {
			return i
		}
		if c.w.fa == nil {
			continue
		}
		pl.dim = len(c.w.mask)
		c.lo = len(pl.refs)
		for _, f := range c.w.fa {
			for _, g := range c.w.fb {
				key := [2]int{f.ID, g.ID}
				j, ok := pl.index[key]
				if !ok {
					j = int32(len(pl.pairs))
					pl.index[key] = j
					pl.pairs = append(pl.pairs, key)
					pl.wants = append(pl.wants, make([]bool, pl.dim)...)
				}
				pl.refs = append(pl.refs, j)
				want := pl.wants[int(j)*pl.dim:][:pl.dim]
				for d, m := range c.w.mask {
					want[d] = want[d] || !m
				}
			}
		}
		c.hi = len(pl.refs)
	}
	return n
}

// compute resolves every slot's friend pair on up to w workers — the
// batch's own fan-out, so a batch of one stays inline — each into its
// own stretch of the arena when the pair cache declines it.
func (pl *imputePlan) compute(st *LazyStore, pa, pb platform.ID, w int) {
	nf := len(pl.pairs)
	if nf == 0 {
		return
	}
	pl.xs = grow(&pl.xs, nf*pl.dim)
	pl.masks = grow(&pl.masks, nf*pl.dim)
	pl.vecs = grow(&pl.vecs, nf)
	pl.errs = grow(&pl.errs, nf)
	if w = min(w, nf); w == 1 {
		for j := range nf {
			pl.pair(st, pa, pb, j)
		}
	} else {
		parallel.For(w, nf, func(j int) { pl.pair(st, pa, pb, j) })
	}
}

// pair resolves slot j.
func (pl *imputePlan) pair(st *LazyStore, pa, pb platform.ID, j int) {
	lo, hi := j*pl.dim, (j+1)*pl.dim
	buf := features.PairVector{X: pl.xs[lo:hi:hi], Mask: pl.masks[lo:hi:hi]}
	pl.vecs[j], pl.errs[j] = st.rawPair(pa, pl.pairs[j][0], pb, pl.pairs[j][1], pl.wants[lo:hi], buf)
}

// release drops the plan's references into the pair cache and the
// friend slices, so pooled scratch keeps no evicted vector alive.
func (pl *imputePlan) release(n int) {
	clear(pl.cands[:n])
	clear(pl.vecs[:len(pl.pairs)])
	clear(pl.errs[:len(pl.pairs)])
}
