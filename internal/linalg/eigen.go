package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// PowerIterOpts controls PowerIteration.
type PowerIterOpts struct {
	MaxIter int     // maximum iterations (default 1000)
	Tol     float64 // convergence tolerance on the eigenvector delta (default 1e-10)
	Seed    int64   // PRNG seed for the starting vector
}

func (o *PowerIterOpts) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
}

// MulVeccer is any linear operator that can multiply a vector; both dense
// Matrix and Sparse satisfy it. PowerIteration only needs this much.
type MulVeccer interface {
	MulVec(Vector) Vector
}

// PowerIteration computes the dominant eigenvalue/eigenvector pair of the
// operator a (assumed to have a real dominant eigenvalue, which holds for
// the symmetric non-negative affinity matrices HYDRA builds). The returned
// eigenvector has unit norm and, following the paper's use as a relaxed
// cluster indicator, is sign-flipped so that its largest-magnitude entry
// is positive.
func PowerIteration(a MulVeccer, n int, opts PowerIterOpts) (float64, Vector, error) {
	opts.defaults()
	if n <= 0 {
		return 0, nil, fmt.Errorf("linalg: power iteration on empty operator")
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	v := NewVector(n)
	for i := range v {
		v[i] = rng.Float64() + 0.1 // strictly positive start helps non-negative matrices
	}
	v.Normalize()
	lambda := 0.0
	for iter := 0; iter < opts.MaxIter; iter++ {
		w := a.MulVec(v)
		nw := w.Norm()
		if nw == 0 {
			// a annihilates v: the dominant eigenvalue within this subspace is 0.
			return 0, v, nil
		}
		w.Scale(1 / nw)
		lambda = w.Dot(a.MulVec(w))
		delta := 0.0
		for i := range w {
			d := math.Abs(w[i] - v[i])
			if d > delta {
				delta = d
			}
		}
		v = w
		if delta < opts.Tol {
			break
		}
	}
	// Canonical sign: largest-magnitude entry positive.
	_, idx := absMaxIdx(v)
	if idx >= 0 && v[idx] < 0 {
		v.Scale(-1)
	}
	return lambda, v, nil
}

func absMaxIdx(v Vector) (float64, int) {
	best, idx := -1.0, -1
	for i, x := range v {
		if a := math.Abs(x); a > best {
			best, idx = a, i
		}
	}
	return best, idx
}
