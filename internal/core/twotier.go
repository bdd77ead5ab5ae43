package core

// The two-tier query lease. Profiling the two-tier top-k path showed
// Eqn-18 imputation — not the kernel fold — dominating it: the
// prescreen pass imputed every candidate, then the exact rescore of the
// survivors imputed them again through ScoreBatchInto, and the double
// impute ate the entire pruning win. TwoTier fixes that by leasing the
// batch's imputed rows across the whole query: one impute pass feeds
// the prescreen fold AND every exact rescore chunk. Reuse is bit-exact
// by construction — imputation is a pure per-pair function, so the
// retained row IS the row a fresh ScoreBatchInto would rebuild, and the
// kernel fold below runs the identical float sequence on it.
//
// With the fold memo (prescreenState.cache) the lease goes one step further:
// a candidate whose fold value is already memoized is not imputed at
// BeginTwoTier at all — its leased row stays unmaterialized until an
// exact rescore chunk actually needs it, and the pruned majority never
// pays imputation again. ScoreSubset materializes on demand through the
// same imputeBatch, so the rows (and with them every served score) stay
// bit-identical to the eager path's.

import (
	"fmt"

	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// TwoTier is a leased two-tier scoring batch: the pairs' imputed
// feature rows, held on pooled scratch from BeginTwoTier until End, so
// the exact rescore of any candidate subset skips re-imputation. Rows
// whose fold value came from the memo are materialized lazily by
// ScoreSubset. The zero value is inert; a value is only usable between
// a successful BeginTwoTier and the matching End.
type TwoTier struct {
	m      *Model
	sc     *scoreScratch
	rows   []linalg.Vector
	rowOK  []bool
	pa, pb platform.ID
	pairs  [][2]int
}

// BeginTwoTier fills pre (len(pre) must equal len(pairs)) with the
// approximate prescreen score of every pair and parks the batch's
// imputed rows in t for exact subset rescoring. Pairs with a memoized
// fold value are answered from the memo without imputing; only the
// misses pay one impute pass plus the fold, and their values join the
// memo. The prescreen values obey the same contract as
// PrescreenBatchInto: bit-identical at any worker count, bounded by ε
// only in the certified sense, never served. Every successful call must
// be paired with t.End(), which returns the lease to the model's
// scratch pool.
func (m *Model) BeginTwoTier(t *TwoTier, pa platform.ID, pb platform.ID, pairs [][2]int, workers int, pre []float64) error {
	if m.pre == nil {
		return fmt.Errorf("core: model has no prescreen attached")
	}
	if len(pre) != len(pairs) {
		return fmt.Errorf("core: BeginTwoTier got %d prescreen slots for %d pairs", len(pre), len(pairs))
	}
	n := len(pairs)
	sc := m.getScratch()
	rows := sc.ensureRows(n)
	rowOK := grow(&sc.rowOK, n)
	fc := &m.pre.cache
	miss := sc.miss[:0]
	fc.mu.Lock()
	for i, p := range pairs {
		v, hit := fc.m[pairKey{pa, pb, p[0], p[1]}]
		rowOK[i] = false
		if hit {
			pre[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	fc.mu.Unlock()
	sc.miss = miss
	fc.hits.Add(uint64(n - len(miss)))
	fc.misses.Add(uint64(len(miss)))

	if len(miss) > 0 {
		mr, err := m.imputeRows(sc, rows, rowOK, pa, pb, pairs, miss, workers)
		if err != nil {
			m.scratch.Put(sc)
			return err
		}
		mpre := grow(&sc.mpre, len(miss))
		m.pre.foldInto(mpre, mr, m.bias, workers)
		fc.mu.Lock()
		if fc.m == nil {
			fc.m = make(map[pairKey]float64, 1024)
		}
		fc.evictLocked(len(miss))
		for j, i := range miss {
			pre[i] = mpre[j]
			fc.m[pairKey{pa, pb, pairs[i][0], pairs[i][1]}] = mpre[j]
		}
		fc.mu.Unlock()
	}
	t.m, t.sc, t.rows, t.rowOK = m, sc, rows, rowOK
	t.pa, t.pb, t.pairs = pa, pb, pairs
	return nil
}

// imputeRows materializes the leased rows idx: it gathers them into the
// miss buffers so imputeBatch sees one contiguous batch, scatters the
// imputed rows back and marks them materialized. The returned slice is
// the gathered rows, entry j being rows[idx[j]].
func (m *Model) imputeRows(sc *scoreScratch, rows []linalg.Vector, rowOK []bool,
	pa, pb platform.ID, pairs [][2]int, idx []int, workers int) ([]linalg.Vector, error) {

	mp := grow(&sc.mpairs, len(idx))
	mr := grow(&sc.mrows, len(idx))
	for j, i := range idx {
		mp[j] = pairs[i]
		mr[j] = rows[i]
	}
	if err := m.impute(sc, mr, pa, pb, mp, workers); err != nil {
		return nil, err
	}
	for j, i := range idx {
		rows[i] = mr[j]
		rowOK[i] = true
	}
	return mr, nil
}

// ScoreSubset exactly scores the leased rows idx (indices into the
// BeginTwoTier batch) into out, len(out) = len(idx), materializing any
// rows the fold memo let BeginTwoTier skip. It runs the same foldKernel
// as ScoreBatchInto — and each output slot depends only on its own row,
// never on the batch around it — so the values are bit-identical to what
// ScoreBatchInto would return for those pairs, at any worker count and
// any chunking. These ARE the served scores.
func (t *TwoTier) ScoreSubset(idx []int, workers int, out []float64) error {
	if t.sc == nil {
		return fmt.Errorf("core: ScoreSubset outside a BeginTwoTier lease")
	}
	if len(out) != len(idx) {
		return fmt.Errorf("core: ScoreSubset got %d output slots for %d rows", len(out), len(idx))
	}
	if len(idx) == 0 {
		return nil
	}
	miss := t.sc.miss[:0]
	for _, id := range idx {
		if id < 0 || id >= len(t.rows) {
			return fmt.Errorf("core: ScoreSubset row %d outside the leased batch of %d", id, len(t.rows))
		}
		if !t.rowOK[id] {
			miss = append(miss, id)
		}
	}
	t.sc.miss = miss
	if len(miss) > 0 {
		if _, err := t.m.imputeRows(t.sc, t.rows, t.rowOK, t.pa, t.pb, t.pairs, miss, workers); err != nil {
			return err
		}
	}
	sub := grow(&t.sc.sub, len(idx))
	for i, id := range idx {
		sub[i] = t.rows[id]
	}
	t.m.foldKernel(t.sc, sub, workers, out)
	return nil
}

// End returns the lease to the scratch pool and resets t to its inert
// zero state. Safe to call on an inert value.
func (t *TwoTier) End() {
	if t.sc != nil {
		t.m.scratch.Put(t.sc)
	}
	t.m, t.sc, t.rows, t.rowOK, t.pairs = nil, nil, nil, nil, nil
}
