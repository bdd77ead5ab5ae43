package core

// The serving fast path. A freshly trained or restored Model prepares
// itself for queries once (prepareServing): the kernel expansion of Eqn
// 12 is compacted to its support set — candidates with α ≠ 0 — and the
// support vectors are packed into one dense row-major matrix, so the hot
// loop walks contiguous memory instead of chasing per-candidate slices.
//
// Queries then run through ScoreBatchInto: the whole batch is imputed
// into reusable per-row feature buffers (with the A-side friend
// resolution memoized across rows sharing an account — a top-k query's
// shard shares one), all kernel values are evaluated into a pooled
// matrix by the blocked kernel.CrossGramInto workers, and α and the bias
// are folded per column. Every op runs in the exact order the scalar
// Decision loop used, so scores are bit-identical to the per-pair path
// at any worker count. All scratch (feature rows, the kernel matrix, the
// Eqn-18 accumulator, the friend memo) recycles through a sync.Pool, so
// a warm single-worker Score/ScoreBatchInto allocates nothing.

import (
	"fmt"
	"sync"

	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// prepareServing readies a model for queries: it compacts the support
// set, packs the support vectors, pins the pass-through resolver and
// adopts the source's pack-time impute table when it carries one.
// Called once from train and ModelFromParts; Parts() still serializes
// the full candidate set, so compaction never changes the wire format.
func (m *Model) prepareServing() {
	m.direct = sourceResolver{m.src}
	if c, ok := m.src.(imputeTableCarrier); ok {
		m.tbl = c.ImputeTable()
	}
	m.compactSupport()
}

// imputeTableCarrier is the optional Source upgrade prepareServing
// probes for: a LazyStore restored from a bundle with a pack-time
// Eqn-18 table implements it; the training System does not.
type imputeTableCarrier interface {
	ImputeTable() *ImputeTable
}

// servingTable returns the impute table scoring should consult — nil
// when none is attached or SetImputeTableEnabled turned it off.
func (m *Model) servingTable() *ImputeTable {
	if m.tbl == nil || m.tblOff.Load() {
		return nil
	}
	return m.tbl
}

// SetImputeTableEnabled toggles the pack-time impute table — the hook
// the differential tests and the benchmark oracle compare table-backed
// against live imputation with. Output is bit-identical either way;
// only the work per missing-dimension candidate changes.
func (m *Model) SetImputeTableEnabled(on bool) { m.tblOff.Store(!on) }

// ImputeTableEnabled reports whether a table is attached AND the
// runtime toggle leaves it on (the state /healthz publishes).
func (m *Model) ImputeTableEnabled() bool { return m.servingTable() != nil }

// ImputeTable returns the attached table (nil without one).
func (m *Model) ImputeTable() *ImputeTable { return m.tbl }

// compactSupport drops α=0 candidates once — the scalar Decision loop
// re-checked every candidate on every call — and packs the survivors
// into a dense row-major matrix in ascending candidate order. Keeping
// the order keeps the float addition sequence of Decision identical, so
// compaction is bit-exact by construction.
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

// friendMemo caches A-side friend resolutions across the rows of one
// batch: a top-k query's shard shares a single A account, so the
// (potentially live-graph) top-friends ranking is computed once per
// query instead of once per candidate. Resolution is pure and
// deterministic, so memoization never changes a result; entries are
// only valid for one (batch, topFriends) pair and the memo is reset per
// query. B-side lookups pass straight through.
type friendMemo struct {
	src Source
	pa  platform.ID
	mu  sync.Mutex
	m   map[int][]graph.Friend
}

func (fm *friendMemo) reset(src Source, pa platform.ID) *friendMemo {
	fm.src, fm.pa = src, pa
	if fm.m == nil {
		fm.m = make(map[int][]graph.Friend, 4)
	} else {
		clear(fm.m)
	}
	return fm
}

func (fm *friendMemo) resolveFriends(id platform.ID, local, k int) ([]graph.Friend, error) {
	if id != fm.pa {
		return fm.src.Friends(id, local, k)
	}
	fm.mu.Lock()
	if fr, ok := fm.m[local]; ok {
		fm.mu.Unlock()
		return fr, nil
	}
	fm.mu.Unlock()
	// Resolve outside the lock — it can be an O(degree log degree) graph
	// ranking; racing resolutions compute identical slices and the first
	// stored one wins.
	fr, err := fm.src.Friends(id, local, k)
	if err != nil {
		return nil, err
	}
	fm.mu.Lock()
	if prev, ok := fm.m[local]; ok {
		fr = prev
	} else {
		fm.m[local] = fr
	}
	fm.mu.Unlock()
	return fr, nil
}

// rawPairMemo caches friend-pair raw vectors across the rows of one
// batch. A top-k query's candidates share the A side — so they share
// its top friends — and neighboring B candidates overlap in theirs, so
// the same (fa, fb) raw pair is requested many times per query. The
// memo resolves each once through the Source (and its global, mutexed
// pairCache) and answers the rest locally, cutting the hot path's
// global-cache traffic to one lookup per distinct friend pair. Raw pair
// vectors are pure memos of a deterministic computation, so memoization
// never changes a result; the map is reset per batch but keeps its
// capacity, preserving the warm path's zero-allocation steady state.
type rawPairMemo struct {
	src Source
	mu  sync.Mutex
	m   map[pairKey]features.PairVector
}

func (rm *rawPairMemo) reset(src Source) {
	rm.src = src
	if rm.m == nil {
		rm.m = make(map[pairKey]features.PairVector, 16)
	} else {
		clear(rm.m)
	}
}

func (rm *rawPairMemo) resolveRawPair(pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error) {
	key := pairKey{pa, pb, a, b}
	rm.mu.Lock()
	if pv, ok := rm.m[key]; ok {
		rm.mu.Unlock()
		return pv, nil
	}
	rm.mu.Unlock()
	// Resolve outside the lock (the Source may compute the pair); racing
	// resolutions compute identical vectors and the first stored wins.
	pv, err := rm.src.RawPair(pa, a, pb, b)
	if err != nil {
		return features.PairVector{}, err
	}
	rm.mu.Lock()
	if prev, ok := rm.m[key]; ok {
		pv = prev
	} else {
		rm.m[key] = pv
	}
	rm.mu.Unlock()
	return pv, nil
}

// batchMemo bundles the two per-batch memos into the imputeResolver one
// imputation pass shares across its workers.
type batchMemo struct {
	friendMemo
	rawPairMemo
}

func (bm *batchMemo) reset(src Source, pa platform.ID) *batchMemo {
	bm.friendMemo.reset(src, pa)
	bm.rawPairMemo.reset(src)
	return bm
}

// scoreScratch is the per-query reusable state of the serving fast path.
// Instances recycle through Model.scratch; every buffer grows to the
// largest query seen and stays, so a warm server's steady state
// allocates nothing.
type scoreScratch struct {
	imp   imputeScratch   // Eqn-18 accumulator (single-worker impute)
	rows  []linalg.Vector // per-row imputed feature buffers
	sub   []linalg.Vector // row-header views for subset rescoring
	kdata []float64       // backing array of the kernel value matrix
	km    linalg.Matrix   // header over kdata, reshaped per query
	memo  batchMemo       // A-side friend memo + friend-pair raw memo

	// The two-tier lazy-impute buffers: which leased rows are
	// materialized, and the gather slots for the subset that is not yet
	// (fold-memo hits skip imputation until the exact rescore needs the
	// row — most never do).
	rowOK  []bool
	miss   []int
	mpairs [][2]int
	mrows  []linalg.Vector
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

// ensureSub returns an n-slot buffer of row headers for subset views
// over the imputed rows — no feature data is copied, the views alias
// sc.rows' buffers.
func (sc *scoreScratch) ensureSub(n int) []linalg.Vector {
	if cap(sc.sub) < n {
		sc.sub = make([]linalg.Vector, n)
	}
	return sc.sub[:n]
}

// ensureRowOK returns an n-slot materialization flag buffer (contents
// unspecified — BeginTwoTier writes every slot).
func (sc *scoreScratch) ensureRowOK(n int) []bool {
	if cap(sc.rowOK) < n {
		sc.rowOK = make([]bool, n)
	}
	return sc.rowOK[:n]
}

// ensureMissPairs / ensureMissRows return n-slot gather buffers for the
// lazily imputed subset of a two-tier batch.
func (sc *scoreScratch) ensureMissPairs(n int) [][2]int {
	if cap(sc.mpairs) < n {
		sc.mpairs = make([][2]int, n)
	}
	return sc.mpairs[:n]
}

func (sc *scoreScratch) ensureMissRows(n int) []linalg.Vector {
	if cap(sc.mrows) < n {
		sc.mrows = make([]linalg.Vector, n)
	}
	return sc.mrows[:n]
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
// kernel evaluation and the α/bias fold all run on pooled scratch. The
// per-pair evaluation order matches the scalar Decision loop exactly, so
// the scores are bit-identical to per-pair Score at any worker count
// (workers ≤ 0 = all cores). On error, out's contents are unspecified;
// the error is the lowest-index pair's, like a sequential loop's.
func (m *Model) ScoreBatchInto(pa platform.ID, pb platform.ID, pairs [][2]int, workers int, out []float64) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("core: ScoreBatchInto got %d output slots for %d pairs", len(out), len(pairs))
	}
	n := len(pairs)
	if n == 0 {
		return nil
	}
	sc := m.getScratch()
	defer m.scratch.Put(sc)
	rows := sc.ensureRows(n)
	if err := m.imputeBatch(sc, rows, pa, pb, pairs, workers); err != nil {
		return err
	}
	// All kernel values in one blocked pass: km[j][i] = K(sv_j, x_i),
	// the exact Eval argument order of the scalar loop, parallel over
	// support rows.
	km := sc.ensureKmat(len(m.svXs), n)
	kernel.CrossGramInto(m.kern, m.svXs, rows, km, workers)
	// Fold α and the bias, walking km row by row so the reads are
	// sequential; every output slot still accumulates bias then
	// α_j·K(sv_j, x_i) in ascending support order — the same float
	// addition sequence as Decision, hence bit-exact.
	for i := range out {
		out[i] = m.bias
	}
	for j, a := range m.svAlpha {
		row := km.Data[j*n : (j+1)*n]
		for i, kv := range row {
			out[i] += a * kv
		}
	}
	return nil
}

// imputeBatch fills rows[i] with the imputed feature vector of pairs[i],
// consulting the pack-time impute table first and memoizing A-side
// friend resolution plus friend-pair raw vectors across the batch for
// the pairs the table misses. With one worker it runs inline on pooled
// scratch (no goroutines, no closures — zero allocations); with more it
// fans contiguous chunks over the pool, each chunk with its own
// accumulator, and reports the lowest-index error.
func (m *Model) imputeBatch(sc *scoreScratch, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int, workers int) error {
	n := len(pairs)
	memo := sc.memo.reset(m.src, pa)
	tbl := m.servingTable()
	w := parallel.Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := range pairs {
			x, err := sc.imp.imputePairInto(rows[i][:0], m.src, memo, tbl,
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
			x, err := isc.imputePairInto(rows[i][:0], m.src, memo, tbl,
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
