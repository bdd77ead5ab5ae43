// Package linalg provides the small dense/sparse linear-algebra substrate
// used by HYDRA's learning machinery: vectors, matrices, CSR sparse
// matrices, Cholesky factorization, conjugate gradient, and power
// iteration for principal eigenvectors.
//
// Everything is float64 and pure Go. Shapes are checked eagerly and
// violations panic: a shape mismatch is a programming error, not a
// recoverable condition.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Scale multiplies every entry of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AddScaled adds a*w to v in place (v += a*w) and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Normalize scales v to unit Euclidean norm in place and returns v.
// A zero vector is left unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Sum returns the sum of the entries of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Max returns the maximum entry and its index; (-Inf, -1) for empty v.
func (v Vector) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// SqDist returns the squared Euclidean distance between v and w.
func SqDist(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Fill sets every entry of v to a and returns v.
func (v Vector) Fill(a float64) Vector {
	for i := range v {
		v[i] = a
	}
	return v
}
