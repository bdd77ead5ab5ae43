package core

// The serving fast path. A freshly trained or restored Model prepares
// itself for queries once (compactSupport): the kernel expansion of Eqn
// 12 is compacted to its support set — candidates with α ≠ 0 — and the
// support vectors are packed into one dense row-major matrix, so the hot
// loop walks contiguous memory instead of chasing per-candidate slices.
//
// Queries then run through ScoreBatchInto — Score is the same call over
// one pair: the whole batch is imputed into reusable per-row feature
// buffers by the store's planned Eqn-18 walk (imputeBatch: each distinct
// friend pair computed once, over just the dimensions its candidates
// left missing), and foldKernel evaluates all kernel values into a
// pooled matrix with the blocked kernel.CrossGramInto workers and folds
// α and the bias per column, bias first and then α_j·K in ascending
// support order. Each score depends only on its own pair, so it is
// bit-identical at any batch size and worker count. All scratch (feature
// rows, the kernel matrix, the walk's plan) recycles through a
// sync.Pool, so a warm single-worker Score/ScoreBatchInto allocates
// nothing.

import (
	"fmt"

	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// compactSupport drops α=0 candidates once, so no query checks them
// again, and packs the survivors into a dense row-major matrix in
// ascending candidate order. Keeping the order keeps the float addition
// sequence of the full expansion, so compaction is bit-exact by
// construction. Called once from Train and
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
	plan  imputePlan      // the batch's Eqn-18 walk
	rows  []linalg.Vector // per-row imputed feature buffers
	kdata []float64       // backing array of the kernel value matrix
	km    linalg.Matrix   // header over kdata, reshaped per query

	// PrescreenMemoInto's fold-memo misses: their batch indices, pairs
	// and fold values.
	miss   []int
	mpairs [][2]int
	mpre   []float64

	// Score's batch of one, held here so a warm Score allocates nothing.
	one    [1][2]int
	oneOut [1]float64
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
// kernel evaluation and the α/bias fold all run on pooled scratch. Each
// score is a function of its own pair alone, so the scores are
// bit-identical to per-pair Score at any worker count (workers ≤ 0 = all
// cores). On error, out's contents are unspecified; the error is the
// lowest-index pair's, like a sequential loop's.
func (m *Model) ScoreBatchInto(pa platform.ID, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("core: ScoreBatchInto got %d output slots for %d pairs", len(out), len(pairs))
	}
	if len(pairs) == 0 {
		return nil
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	return m.scoreBatch(sc, pa, pb, pairs, workers, out)
}

// Score computes the decision value f(x) = Σ α_j K(x_j, x) + b for an
// account pair, with x imputed by the model's variant: ScoreBatchInto
// over one pair, inline on one worker, so a warm Score allocates nothing.
func (m *Model) Score(pa platform.ID, a int, pb platform.ID, b int) (float64, error) {
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	sc.one[0] = [2]int{a, b}
	if err := m.scoreBatch(sc, pa, pb, sc.one[:], 1, sc.oneOut[:]); err != nil {
		return 0, err
	}
	return sc.oneOut[0], nil
}

// scoreBatch is ScoreBatchInto on the caller's scratch.
func (m *Model) scoreBatch(sc *scoreScratch, pa, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	rows := sc.ensureRows(len(pairs))
	if err := m.impute(sc, rows, pa, pb, pairs, workers); err != nil {
		return err
	}
	m.foldKernel(sc, rows, workers, out)
	return nil
}

// impute runs the store's planned Eqn-18 walk (LazyStore.imputeBatch)
// for the model's variant and friend depth on sc's plan.
func (m *Model) impute(sc *scoreScratch, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int, workers int) error {
	return m.store.imputeBatch(&sc.plan, rows, pa, pb, pairs, m.cfg.Variant, m.cfg.TopFriends, workers)
}

// foldKernel is the one exact scoring fold, behind ScoreBatchInto and
// Score: all kernel values in one blocked pass, km[j][i] = K(sv_j, x_i),
// parallel over support rows — then α and the bias folded into out
// (len(out) = len(rows)), walking km row by row so the reads are
// sequential. Every output slot accumulates bias then
// α_j·K(sv_j, x_i) in ascending support order — the float addition
// sequence of the full expansion Σ α_j K(x_j, x) + b, hence bit-exact —
// and depends only on its own row.
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
