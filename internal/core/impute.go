package core

import (
	"fmt"

	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// Impute returns the pair vector with missing dimensions filled according
// to the variant (HYDRA-M's Eqn 18 or HYDRA-Z's zeros): the planned walk
// (imputeBatch) over one pair, into a fresh, caller-owned vector.
func (st *LazyStore) Impute(pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {
	var pl imputePlan
	rows, err := st.imputePairs(&pl, pa, pb, [][2]int{{a, b}}, v, topFriends, 1)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// imputePairs returns the imputed vectors of pairs on (pa, pb), each
// fresh and caller-owned, as one planned batch on pl (see imputeBatch).
func (st *LazyStore) imputePairs(pl *imputePlan, pa, pb platform.ID, pairs [][2]int, v Variant, topFriends, workers int) ([]linalg.Vector, error) {
	rows := make([]linalg.Vector, len(pairs))
	if err := st.imputeBatch(pl, rows, pa, pb, pairs, v, topFriends, workers); err != nil {
		return nil, err
	}
	return rows, nil
}

// imputePlan is the one Eqn-18 walk for query pairs, planned before any
// friend pair is computed: per candidate its head (imputeHead) and the
// slots of its friend pairs in walk order, and per distinct friend pair —
// a slot — its ids, its want (the union of the missing masks of the
// candidates that read it) and its vector. Every buffer is scratch that
// grows to the largest batch seen, the index map included (cleared, not
// reallocated), so a plan the serving path recycles allocates nothing
// when warm.
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
	sums  []float64 // one candidate's Eqn-18 accumulator
}

// planCand is one candidate's share of the plan: its head's error or
// pending walk, and refs[lo:hi], the slots of its friend pairs.
type planCand struct {
	err    error
	w      pendingWalk
	lo, hi int
}

// imputeBatch fills rows[i] with the imputed feature vector of pairs[i]
// under variant v at friend depth topFriends, appending to rows[i][:0]
// (a nil row gets a fresh vector), and returns the lowest-index pair's
// error, as a sequential loop would. It runs as a plan on pl: (1) every
// candidate's head — raw vector, one impute-table lookup, friend lists —
// over the worker pool; (2) the distinct friend pairs of the candidates
// left pending, each wanting the union of their missing dimensions; (3)
// those friend pairs over the same pool, each computed once and, unless
// the pair cache stores it, over its want only; (4) every pending
// candidate's sums, added friendsA-major, friendsB-minor with
// addObserved — BuildImputeTable's order and step, so a table hit and a
// live walk give the same bits. A batch with nothing pending skips (3).
// With one worker everything runs inline, with no goroutines or
// closures.
func (st *LazyStore) imputeBatch(pl *imputePlan, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int,
	v Variant, topFriends, workers int) error {

	n := len(pairs)
	pl.cands = grow(&pl.cands, n)
	defer pl.release(n)
	w := min(parallel.Workers(workers), n)
	if w == 1 {
		for i := range pairs {
			if !st.planHead(pl, rows, pa, pb, pairs, v, topFriends, i) {
				break
			}
		}
	} else {
		parallel.For(w, n, func(i int) { st.planHead(pl, rows, pa, pb, pairs, v, topFriends, i) })
	}
	stop := pl.collect(n)
	pl.compute(st, pa, pb, w)
	for i := 0; i < stop; i++ {
		c := &pl.cands[i]
		if c.w.fa == nil {
			continue
		}
		sums := grow(&pl.sums, pl.dim)
		clear(sums)
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
func (st *LazyStore) planHead(pl *imputePlan, rows []linalg.Vector, pa, pb platform.ID, pairs [][2]int,
	v Variant, topFriends, i int) bool {

	x, w, err := st.imputeHead(rows[i][:0], pa, pairs[i][0], pb, pairs[i][1], v, topFriends)
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
// friend slices, so recycled scratch keeps no evicted vector alive.
func (pl *imputePlan) release(n int) {
	clear(pl.cands[:n])
	clear(pl.vecs[:len(pl.pairs)])
	clear(pl.errs[:len(pl.pairs)])
}

// pendingWalk is what imputeHead leaves to the live Eqn-18 walk: the
// pair's observation mask, whose false entries are the dimensions to
// fill, and both sides' top friends. A zero value means nothing is left.
type pendingWalk struct {
	mask   []bool
	fa, fb []graph.Friend
}

// imputeHead runs the part of one pair's imputation that needs no friend
// pair: the raw vector, appended to dst[:0] as x, then — for HYDRA-M and
// a pair with missing dimensions — one impute-table lookup, whose hit
// fills x from the table's sums, and on a miss the two friend lists. A
// side with no friends is the "no social context" verdict: the missing
// dimensions stay zero. Otherwise the friend-pair walk is returned
// pending. The table is keyed at one topFriends depth and dimensionality;
// a query at another bypasses it.
func (st *LazyStore) imputeHead(dst linalg.Vector, pa platform.ID, a int, pb platform.ID, b int,
	v Variant, topFriends int) (linalg.Vector, pendingWalk, error) {

	pv, err := st.RawPair(pa, a, pb, b)
	if err != nil {
		return nil, pendingWalk{}, err
	}
	x := append(dst[:0], pv.X...)
	if v == HydraZ || !hasMissing(pv.Mask) {
		return x, pendingWalk{}, nil // HYDRA-Z: missing dims are already zero
	}
	if topFriends <= 0 {
		topFriends = DefaultTopFriends
	}
	if tbl := st.servingTable(); tbl != nil && tbl.k == topFriends && tbl.dim == len(x) {
		if sums, count, hit := tbl.lookup(pa, a, pb, b); hit {
			fillMissing(x, pv.Mask, sums, count)
			return x, pendingWalk{}, nil
		}
	}
	fa, fb, err := st.friendLists(pa, a, pb, b, topFriends)
	if err != nil || fa == nil {
		return x, pendingWalk{}, err
	}
	return x, pendingWalk{mask: pv.Mask, fa: fa, fb: fb}, nil
}

// friendLists resolves both sides' top-k friends for Eqn 18, nil when
// either side has none.
func (st *LazyStore) friendLists(pa platform.ID, a int, pb platform.ID, b int, k int) (fa, fb []graph.Friend, err error) {
	if fa, err = st.Friends(pa, a, k); err != nil {
		return nil, nil, err
	}
	if fb, err = st.Friends(pb, b, k); err != nil {
		return nil, nil, err
	}
	if len(fa) == 0 || len(fb) == 0 {
		return nil, nil, nil
	}
	return fa, fb, nil
}

// fillMissing writes Eqn 18's mean into x's missing dimensions: sums[d]
// over the friend-pair count. Count 0 is the "no social context"
// verdict: they stay zero. The table-backed and the live imputation both
// fill through it, with the one expression.
func fillMissing(x linalg.Vector, mask []bool, sums linalg.Vector, count float64) {
	if count == 0 {
		return
	}
	for d := range x {
		if !mask[d] {
			x[d] = sums[d] / count
		}
	}
}

// friendPairSums accumulates the Eqn-18 numerator over the friend lists
// fa × fb of a pair on (pa, pb) into the zeroed sums and returns the
// divisor |F_a|·|F_b|: the pack-time BuildImputeTable's loop, which
// needs sums over every dimension, so each friend pair is resolved whole
// through RawPair. It adds them with addObserved, friendsA-major and
// friendsB-minor — the order and step of the plan's own sums — which is
// what makes a table-backed impute bit-identical to a live one rather
// than merely close.
func (st *LazyStore) friendPairSums(sums linalg.Vector, fa, fb []graph.Friend, pa, pb platform.ID) (float64, error) {
	for _, f := range fa {
		for _, g := range fb {
			fpv, err := st.RawPair(pa, f.ID, pb, g.ID)
			if err != nil {
				return 0, err
			}
			addObserved(sums, fpv)
		}
	}
	return float64(len(fa) * len(fb)), nil
}

// addObserved adds one friend pair's observed dimensions into the Eqn-18
// sums — a friend pair missing a dimension contributes zero to it, as the
// paper prescribes. It is the one accumulation step of every walk.
func addObserved(sums linalg.Vector, fpv features.PairVector) {
	for d := range sums {
		if fpv.Mask[d] {
			sums[d] += fpv.X[d]
		}
	}
}

// hasMissing reports whether a pair vector's mask leaves any dimension
// unobserved — only those pairs need Eqn-18 imputation.
func hasMissing(mask []bool) bool {
	for _, m := range mask {
		if !m {
			return true
		}
	}
	return false
}

// checkPairRange validates a pair's local account ids against the
// platforms' account counts.
func checkPairRange(pa platform.ID, a int, pb platform.ID, b int, na, nb int) error {
	if a < 0 || a >= na || b < 0 || b >= nb {
		return fmt.Errorf("core: pair (%d,%d) out of range (%s has %d, %s has %d)",
			a, b, pa, na, pb, nb)
	}
	return nil
}
