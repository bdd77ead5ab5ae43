package core

// The reference Eqn-18 walk: one pair at a time, its friend pairs
// resolved in walk order, each over the pair's own missing dimensions
// only unless the pair cache stores it. It is kept apart from the
// product's one walk, the plan (imputeBatch), so that tests can hold the
// plan — its distinct-friend-pair slots, their union wants and its
// fan-out — to a second computation of the same bits. It shares with the
// plan only imputeHead (raw vector, table lookup, friend lists), rawPair,
// addObserved and fillMissing.

import (
	"testing"

	"hydra/internal/features"
	"hydra/internal/linalg"
	"hydra/internal/platform"
)

// referenceImpute returns the pair vector with missing dimensions filled
// according to the variant, by the single-pair walk.
func referenceImpute(st *LazyStore, pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) (linalg.Vector, error) {
	x, w, err := st.imputeHead(nil, pa, a, pb, b, v, topFriends)
	if err != nil || w.fa == nil {
		return x, err
	}
	dim := len(x)
	want := make([]bool, dim)
	for d, m := range w.mask {
		want[d] = !m
	}
	buf := features.PairVector{X: make([]float64, dim), Mask: make([]bool, dim)}
	sums := make(linalg.Vector, dim)
	for _, f := range w.fa {
		for _, g := range w.fb {
			fpv, err := st.rawPair(pa, f.ID, pb, g.ID, want, buf)
			if err != nil {
				return nil, err
			}
			addObserved(sums, fpv)
		}
	}
	fillMissing(x, w.mask, sums, float64(len(w.fa)*len(w.fb)))
	return x, nil
}

// mustReferenceImpute is referenceImpute failing the test on error.
func mustReferenceImpute(t *testing.T, st *LazyStore, pa platform.ID, a int, pb platform.ID, b int, v Variant, topFriends int) linalg.Vector {
	t.Helper()
	x, err := referenceImpute(st, pa, a, pb, b, v, topFriends)
	if err != nil {
		t.Fatal(err)
	}
	return x
}
