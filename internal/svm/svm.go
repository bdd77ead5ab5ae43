// Package svm implements the soft-margin kernel SVM used for HYDRA's
// supervised objective F_D (Eqn 7) and for the SVM-B baseline: the dual is
// handed to the SMO solver in internal/qp.
package svm

import (
	"fmt"

	"hydra/internal/kernel"
	"hydra/internal/linalg"
	"hydra/internal/qp"
)

// Model is a trained SVM.
type Model struct {
	kernelFn kernel.Func
	// Support vectors with their coefficients β_i y_i.
	svX     []linalg.Vector
	svCoeff []float64
	bias    float64
	// Iters is the SMO iteration count of training (efficiency metrics).
	Iters int
}

// Opts configures training.
type Opts struct {
	// C is the box constraint (default 1).
	C float64
	// Tol is the SMO tolerance (default 1e-3).
	Tol float64
	// MaxIter caps SMO iterations.
	MaxIter int
	// Shrink enables the shrinking heuristic.
	Shrink bool
}

// qMatrix is the SVM dual Hessian Q_ij = y_i y_j K(x_i, x_j), with rows
// cached on demand. rows memoizes the kernel.Cache rows locally without a
// lock — one SMO solve runs on one goroutine, so paying the Cache mutex
// once per distinct row (instead of on every At in the gradient loop)
// keeps the hot path as cheap as before the cache became concurrent-safe.
type qMatrix struct {
	cache *kernel.Cache
	y     []float64
	rows  []linalg.Vector
}

func (q *qMatrix) row(i int) linalg.Vector {
	if r := q.rows[i]; r != nil {
		return r
	}
	r := q.cache.Row(i)
	q.rows[i] = r
	return r
}

func (q *qMatrix) At(i, j int) float64 { return q.y[i] * q.y[j] * q.row(i)[j] }
func (q *qMatrix) N() int              { return len(q.y) }

// Train fits a binary SVM on (xs, ys) with ys ∈ {+1, −1}.
func Train(xs []linalg.Vector, ys []float64, k kernel.Func, opts Opts) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("svm: %d samples but %d labels", len(xs), len(ys))
	}
	pos, neg := 0, 0
	for _, y := range ys {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, fmt.Errorf("svm: label %g, want ±1", y)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("svm: need both classes (got %d positive, %d negative)", pos, neg)
	}
	if opts.C <= 0 {
		opts.C = 1
	}
	q := &qMatrix{cache: kernel.NewCache(k, xs), y: ys, rows: make([]linalg.Vector, len(ys))}
	res, err := qp.Solve(q, ys, opts.C, qp.Opts{Tol: opts.Tol, MaxIter: opts.MaxIter, Shrink: opts.Shrink})
	if err != nil {
		return nil, err
	}
	m := &Model{kernelFn: k, bias: res.B, Iters: res.Iters}
	for i, b := range res.Beta {
		if b > 1e-10 {
			m.svX = append(m.svX, xs[i])
			m.svCoeff = append(m.svCoeff, b*ys[i])
		}
	}
	return m, nil
}

// Decision returns the raw decision value f(x) = Σ β_i y_i K(x_i, x) + b.
func (m *Model) Decision(x linalg.Vector) float64 {
	s := m.bias
	for i, sv := range m.svX {
		s += m.svCoeff[i] * m.kernelFn.Eval(sv, x)
	}
	return s
}
