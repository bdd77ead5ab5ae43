// Package qp solves the box-constrained quadratic program with a single
// equality constraint that HYDRA's dual (Eqn 16) reduces to:
//
//	max_β  1ᵀβ − ½ βᵀQβ
//	s.t.   yᵀβ = 0,  0 ≤ β_i ≤ C
//
// via sequential minimal optimization (SMO) with maximal-violating-pair
// working-set selection, gradient-threshold shrinking (the paper's
// "coefficient space shrinking"), and warm starting (the paper optimizes
// β_{t+1} from β_t).
package qp

import (
	"fmt"
	"math"
)

// Matrix is the quadratic form accessor. Implementations may be dense,
// cached-kernel or on-the-fly.
type Matrix interface {
	// At returns Q_ij.
	At(i, j int) float64
	// N returns the problem size.
	N() int
}

// Opts controls the solver.
type Opts struct {
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxIter caps SMO iterations (default 100·n, at least 10000).
	MaxIter int
	// WarmStart, if non-nil, initializes β (must be feasible).
	WarmStart []float64
	// Shrink enables the gradient-threshold shrinking heuristic.
	Shrink bool
}

// Result is the solver output.
type Result struct {
	Beta  []float64
	Iters int
	// Obj is the attained objective 1ᵀβ − ½βᵀQβ.
	Obj float64
	// B is the equality-constraint multiplier (the SVM bias term).
	B float64
}

// Solve runs SMO. y must contain only ±1 entries.
func Solve(q Matrix, y []float64, c float64, opts Opts) (*Result, error) {
	n := q.N()
	if len(y) != n {
		return nil, fmt.Errorf("qp: y length %d, problem size %d", len(y), n)
	}
	if c <= 0 {
		return nil, fmt.Errorf("qp: box bound C must be positive, got %g", c)
	}
	for i, yi := range y {
		if yi != 1 && yi != -1 {
			return nil, fmt.Errorf("qp: y[%d] = %g, want ±1", i, yi)
		}
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-3
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100 * n
		if opts.MaxIter < 10000 {
			opts.MaxIter = 10000
		}
	}

	beta := make([]float64, n)
	// grad_i = (Qβ)_i − 1 (gradient of the minimization form ½βᵀQβ − 1ᵀβ).
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = -1
	}
	if opts.WarmStart != nil {
		if len(opts.WarmStart) != n {
			return nil, fmt.Errorf("qp: warm start length %d, want %d", len(opts.WarmStart), n)
		}
		var eq float64
		for i, b := range opts.WarmStart {
			if b < -1e-12 || b > c+1e-12 {
				return nil, fmt.Errorf("qp: warm start β[%d]=%g outside [0,%g]", i, b, c)
			}
			beta[i] = math.Min(math.Max(b, 0), c)
			eq += y[i] * beta[i]
		}
		if math.Abs(eq) > 1e-6 {
			return nil, fmt.Errorf("qp: warm start violates yᵀβ=0 (got %g)", eq)
		}
		for i := 0; i < n; i++ {
			if beta[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				grad[j] += q.At(j, i) * beta[i]
			}
		}
	}

	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	iters := 0
	shrinkCountdown := n
	for ; iters < opts.MaxIter; iters++ {
		i, j, gap := selectPair(q, y, beta, grad, c, active)
		if i < 0 || gap < opts.Tol {
			if len(active) < n {
				// Unshrink: verify optimality on the full set.
				active = active[:n]
				for k := range active {
					active[k] = k
				}
				i, j, gap = selectPair(q, y, beta, grad, c, active)
				if i < 0 || gap < opts.Tol {
					break
				}
			} else {
				break
			}
		}
		update(q, y, beta, grad, c, i, j)

		if opts.Shrink {
			shrinkCountdown--
			if shrinkCountdown <= 0 {
				active = shrink(y, beta, grad, c, active, opts.Tol)
				shrinkCountdown = n
			}
		}
	}

	res := &Result{Beta: beta, Iters: iters}
	res.Obj = objective(q, beta)
	res.B = bias(y, beta, grad, c)
	return res, nil
}

// selectPair implements maximal-violating-pair selection over the active
// set. Returns (-1,-1,0) when no feasible ascent pair exists.
func selectPair(q Matrix, y, beta, grad []float64, c float64, active []int) (int, int, float64) {
	// I_up: y=+1 & β<C, or y=−1 & β>0; I_low: y=+1 & β>0, or y=−1 & β<C.
	gmax, gmin := math.Inf(-1), math.Inf(1)
	i, j := -1, -1
	for _, t := range active {
		v := -y[t] * grad[t]
		if inUp(y[t], beta[t], c) && v > gmax {
			gmax, i = v, t
		}
		if inLow(y[t], beta[t], c) && v < gmin {
			gmin, j = v, t
		}
	}
	if i < 0 || j < 0 {
		return -1, -1, 0
	}
	return i, j, gmax - gmin
}

func inUp(yi, bi, c float64) bool {
	return (yi > 0 && bi < c) || (yi < 0 && bi > 0)
}

func inLow(yi, bi, c float64) bool {
	return (yi > 0 && bi > 0) || (yi < 0 && bi < c)
}

// update performs the two-variable analytic step on (i,j).
func update(q Matrix, y, beta, grad []float64, c float64, i, j int) {
	// Solve the 2-variable subproblem along the equality constraint.
	eta := q.At(i, i) + q.At(j, j) - 2*y[i]*y[j]*q.At(i, j)
	if eta <= 1e-12 {
		eta = 1e-12
	}
	delta := (-y[i]*grad[i] + y[j]*grad[j]) / eta
	oldI, oldJ := beta[i], beta[j]
	// Move y_i β_i up by delta, y_j β_j down by delta (in the y-scaled space).
	bi := oldI + y[i]*delta
	bj := oldJ - y[j]*delta
	// Clip to the box while preserving y_i β_i + y_j β_j.
	sum := y[i]*oldI + y[j]*oldJ
	bi = math.Min(math.Max(bi, 0), c)
	bj = y[j] * (sum - y[i]*bi)
	if bj < 0 {
		bj = 0
		bi = y[i] * (sum - y[j]*bj)
		bi = math.Min(math.Max(bi, 0), c)
	} else if bj > c {
		bj = c
		bi = y[i] * (sum - y[j]*bj)
		bi = math.Min(math.Max(bi, 0), c)
	}
	dI, dJ := bi-oldI, bj-oldJ
	if dI == 0 && dJ == 0 {
		return
	}
	beta[i], beta[j] = bi, bj
	n := len(beta)
	for t := 0; t < n; t++ {
		grad[t] += q.At(t, i)*dI + q.At(t, j)*dJ
	}
}

// shrink drops variables pinned at a bound with strongly-satisfied KKT
// conditions — the paper's gradient-thresholding shrink.
func shrink(y, beta, grad []float64, c float64, active []int, tol float64) []int {
	kept := active[:0]
	for _, t := range active {
		v := -y[t] * grad[t]
		pinnedLow := beta[t] <= 0 && v < -10*tol
		pinnedHigh := beta[t] >= c && v > 10*tol
		if pinnedLow || pinnedHigh {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		return active // never shrink everything
	}
	return kept
}

// objective evaluates 1ᵀβ − ½βᵀQβ.
func objective(q Matrix, beta []float64) float64 {
	n := len(beta)
	var lin, quad float64
	for i := 0; i < n; i++ {
		if beta[i] == 0 {
			continue
		}
		lin += beta[i]
		for j := 0; j < n; j++ {
			if beta[j] != 0 {
				quad += beta[i] * beta[j] * q.At(i, j)
			}
		}
	}
	return lin - quad/2
}

// bias recovers the equality multiplier b from the free variables (or the
// midpoint of the KKT interval when none are free).
func bias(y, beta, grad []float64, c float64) float64 {
	var sum float64
	nFree := 0
	ub, lb := math.Inf(1), math.Inf(-1)
	for t := range beta {
		v := -y[t] * grad[t]
		if beta[t] > 1e-12 && beta[t] < c-1e-12 {
			sum += v
			nFree++
		} else if inUp(y[t], beta[t], c) {
			if v > lb {
				lb = v
			}
		} else if inLow(y[t], beta[t], c) {
			if v < ub {
				ub = v
			}
		}
	}
	if nFree > 0 {
		return sum / float64(nFree)
	}
	if math.IsInf(ub, 1) || math.IsInf(lb, -1) {
		return 0
	}
	return (ub + lb) / 2
}
