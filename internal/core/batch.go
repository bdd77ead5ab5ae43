package core

// The serving fast path. A freshly trained or restored Model prepares
// itself for queries once (compactSupport): the kernel expansion of Eqn
// 12 is compacted to its support set — candidates with α ≠ 0 — and the
// support vectors are packed into one dense row-major matrix, so the hot
// loop walks contiguous memory instead of chasing per-candidate slices.
//
// Queries then run through ScoreBatchInto: the whole batch is imputed
// into reusable per-row feature buffers through the store's one
// imputation walk (with friend-pair raw vectors memoized across the
// batch), and foldKernel evaluates all kernel values into a pooled
// matrix with the blocked kernel.CrossGramInto workers and folds α and
// the bias per column. Every op runs in the exact order the scalar
// Decision loop used, so scores are bit-identical to the per-pair path
// at any worker count. All scratch (feature rows, the kernel matrix, the
// Eqn-18 accumulator, the friend-pair memo) recycles through a
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
	imp   imputeScratch                 // Eqn-18 accumulator (single-worker impute)
	rows  []linalg.Vector               // per-row imputed feature buffers
	sub   []linalg.Vector               // row-header views for subset rescoring
	kdata []float64                     // backing array of the kernel value matrix
	km    linalg.Matrix                 // header over kdata, reshaped per query
	memo  pairMemo[features.PairVector] // friend-pair raw vectors, reset per batch

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

// imputeBatch fills rows[i] with the imputed feature vector of pairs[i]
// through the store's imputation walk, memoizing friend-pair raw vectors
// across the batch. With one worker it runs inline on pooled scratch (no
// goroutines, no closures — zero allocations); with more it fans
// contiguous chunks over the pool, each chunk with its own accumulator,
// and reports the lowest-index error.
func (m *Model) imputeBatch(sc *scoreScratch, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int, workers int) error {
	n := len(pairs)
	memo := &sc.memo
	memo.reset()
	w := parallel.Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := range pairs {
			x, err := m.store.imputeInto(rows[i][:0], &sc.imp, memo,
				pa, pairs[i][0], pb, pairs[i][1], m.cfg.Variant, m.cfg.TopFriends)
			if err != nil {
				return err
			}
			rows[i] = x
		}
		return nil
	}
	errs := parallel.MapChunks(w, n, func(lo, hi int) []error {
		var isc imputeScratch
		for i := lo; i < hi; i++ {
			x, err := m.store.imputeInto(rows[i][:0], &isc, memo,
				pa, pairs[i][0], pb, pairs[i][1], m.cfg.Variant, m.cfg.TopFriends)
			if err != nil {
				// First error of the chunk wins; chunks are contiguous
				// and scanned in order below, so the reported error is
				// the lowest-index one — what a sequential loop hits.
				return []error{err}
			}
			rows[i] = x
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
