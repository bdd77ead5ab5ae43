package core

import (
	"fmt"

	"hydra/internal/features"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// imputeScratch holds the reusable buffers of pair imputation: the
// Eqn-18 per-dimension accumulator. The zero value is ready to use; the
// serving fast path recycles instances through a pool so a warm query
// allocates nothing.
type imputeScratch struct {
	sums linalg.Vector
}

// zeroSums returns the accumulator resized to dim and zeroed.
func (sc *imputeScratch) zeroSums(dim int) linalg.Vector {
	sums := sc.sums[:0]
	for d := 0; d < dim; d++ {
		sums = append(sums, 0)
	}
	sc.sums = sums
	return sums
}

// Impute returns the pair vector with missing dimensions filled according
// to the variant (HYDRA-M's Eqn 18 or HYDRA-Z's zeros); see imputeInto.
func (st *LazyStore) Impute(pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {
	var sc imputeScratch
	return st.imputeInto(nil, &sc, nil, pa, a, pb, b, v, topFriends)
}

// imputeInto is the one imputation walk: Impute and every Model scoring
// path run it, and BuildImputeTable runs its friendPairSums. When the
// store's impute table is enabled and keyed at the same topFriends depth,
// a pair with missing dimensions is filled from the table's precomputed
// sums instead of the live friend walk — bit-identical by construction,
// since the table was accumulated by the same friendPairSums. memo, when
// non-nil, memoizes friend-pair raw vectors across one batch. The imputed
// vector is appended to dst[:0] (pass nil to allocate a fresh,
// caller-owned vector) and returned, possibly regrown. topFriends is the
// core-structure size (the paper uses the top-3 most-interacting friends
// on each side); when fewer friends exist the average runs over the pairs
// that do (the natural generalization of Eqn 18's fixed /9).
func (st *LazyStore) imputeInto(dst linalg.Vector, sc *imputeScratch, memo *pairMemo[features.PairVector],
	pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {

	pv, err := st.RawPair(pa, a, pb, b)
	if err != nil {
		return nil, err
	}
	x := append(dst[:0], pv.X...)
	if v == HydraZ || !hasMissing(pv.Mask) {
		return x, nil // HYDRA-Z: missing dims are already zero
	}
	if topFriends <= 0 {
		topFriends = DefaultTopFriends
	}
	var sums linalg.Vector
	var count float64
	hit := false
	if tbl := st.servingTable(); tbl != nil && tbl.k == topFriends && tbl.dim == len(x) {
		sums, count, hit = tbl.lookup(pa, a, pb, b)
	}
	if !hit {
		sums = sc.zeroSums(len(x))
		if count, err = st.friendPairSums(sums, memo, pa, a, pb, b, topFriends); err != nil {
			return nil, err
		}
	}
	// count 0 is the "no social context" verdict: the missing dimensions
	// stay zero.
	if count != 0 {
		for d := range x {
			if !pv.Mask[d] {
				x[d] = sums[d] / count
			}
		}
	}
	return x, nil
}

// friendPairSums accumulates the Eqn-18 numerator of pair (a, b) into the
// zeroed sums — every top-k friend pair's raw vector, friend pairs
// missing a dimension contributing zero to it, as the paper prescribes —
// and returns the divisor |F_a|·|F_b|, 0 when either side has no friends.
// This is THE accumulation loop: the live walk and the pack-time
// BuildImputeTable both run it, which is what makes a table-backed impute
// bit-identical to a live one rather than merely close.
func (st *LazyStore) friendPairSums(sums linalg.Vector, memo *pairMemo[features.PairVector],
	pa platform.ID, a int, pb platform.ID, b int, k int) (float64, error) {

	friendsA, err := st.Friends(pa, a, k)
	if err != nil {
		return 0, err
	}
	friendsB, err := st.Friends(pb, b, k)
	if err != nil {
		return 0, err
	}
	if len(friendsA) == 0 || len(friendsB) == 0 {
		return 0, nil
	}
	for _, fa := range friendsA {
		for _, fb := range friendsB {
			fpv, err := st.friendPair(memo, pa, fa.ID, pb, fb.ID)
			if err != nil {
				return 0, err
			}
			for d := range sums {
				if fpv.Mask[d] {
					sums[d] += fpv.X[d]
				}
			}
		}
	}
	return float64(len(friendsA) * len(friendsB)), nil
}

// friendPair resolves one friend-pair raw vector, through the per-batch
// memo when there is one. A top-k query's candidates share the A side —
// so they share its top friends — and neighboring B candidates overlap
// in theirs, so the same friend pair is requested many times per query;
// the memo answers the repeats without re-contending on the store's
// global pair cache.
func (st *LazyStore) friendPair(memo *pairMemo[features.PairVector], pa platform.ID, a int, pb platform.ID, b int) (features.PairVector, error) {
	if memo == nil {
		return st.RawPair(pa, a, pb, b)
	}
	key := pairKey{pa, pb, a, b}
	if pv, ok := memo.lookup(key); ok {
		return pv, nil
	}
	pv, err := st.RawPair(pa, a, pb, b)
	if err != nil {
		return features.PairVector{}, err
	}
	memo.store(key, pv)
	return pv, nil
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
