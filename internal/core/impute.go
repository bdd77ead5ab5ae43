package core

import (
	"fmt"

	"hydra/internal/features"
	"hydra/internal/graph"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// imputeScratch holds the reusable buffers of single-pair imputation:
// the Eqn-18 per-dimension accumulator, the pair's missing mask as a
// friend-pair selector, and the vector a declined friend pair is computed
// into. The zero value is ready to use; the serving fast path recycles
// instances through a pool so a warm query allocates nothing.
type imputeScratch struct {
	sums []float64
	want []bool
	fx   []float64
	fm   []bool
}

// zeroSums returns the accumulator resized to dim and zeroed.
func (sc *imputeScratch) zeroSums(dim int) linalg.Vector {
	sums := grow(&sc.sums, dim)
	clear(sums)
	return sums
}

// Impute returns the pair vector with missing dimensions filled according
// to the variant (HYDRA-M's Eqn 18 or HYDRA-Z's zeros); see imputeInto.
func (st *LazyStore) Impute(pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {
	var sc imputeScratch
	return st.imputeInto(nil, &sc, pa, a, pb, b, v, topFriends)
}

// imputeInto is the single-pair imputation walk, which Impute and
// Model.Score run; a batch runs the same steps as a plan (imputeBatch).
// Its friend pairs are computed over the pair's missing dimensions only
// — all the walk reads of them — unless the pair cache stores them. The
// imputed vector is appended to dst[:0] (pass nil to allocate a fresh,
// caller-owned vector) and returned, possibly regrown.
func (st *LazyStore) imputeInto(dst linalg.Vector, sc *imputeScratch,
	pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {

	x, w, err := st.imputeHead(dst, pa, a, pb, b, v, topFriends)
	if err != nil || w.fa == nil {
		return x, err
	}
	dim := len(x)
	want := grow(&sc.want, dim)
	for d, m := range w.mask {
		want[d] = !m
	}
	buf := features.PairVector{X: grow(&sc.fx, dim), Mask: grow(&sc.fm, dim)}
	sums := sc.zeroSums(dim)
	count, err := st.friendPairSums(sums, w.fa, w.fb, want, buf, pa, pb)
	if err != nil {
		return nil, err
	}
	fillMissing(x, w.mask, sums, count)
	return x, nil
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
// divisor |F_a|·|F_b|. Each friend pair is resolved through rawPair with
// selector want — nil computes every dimension, which the pack-time
// BuildImputeTable needs for sums over all of them — into buf when it is
// computed partially, and is added with addObserved, friendsA-major and
// friendsB-minor. The batch plan adds its friend pairs in the same order
// with the same helper, and BuildImputeTable runs this loop, which is
// what makes a table-backed impute bit-identical to a live one rather
// than merely close.
func (st *LazyStore) friendPairSums(sums linalg.Vector, fa, fb []graph.Friend, want []bool, buf features.PairVector,
	pa, pb platform.ID) (float64, error) {

	for _, f := range fa {
		for _, g := range fb {
			fpv, err := st.rawPair(pa, f.ID, pb, g.ID, want, buf)
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
