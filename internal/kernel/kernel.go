// Package kernel implements the kernel functions HYDRA uses for similarity
// computation and model learning: the linear and RBF kernels for the dual
// decision function (Eqn 12 of the paper), and the chi-square and
// histogram-intersection kernels the paper prescribes for comparing
// per-bucket topic distributions (Section 5.2).
package kernel

import (
	"fmt"
	"math"
	"sync"

	"hydra/internal/linalg"
	"hydra/internal/parallel"
)

// Func is a Mercer kernel over dense feature vectors.
type Func interface {
	// Eval returns K(x, y).
	Eval(x, y linalg.Vector) float64
	// Name identifies the kernel for logs and experiment output.
	Name() string
}

// Linear is the plain inner-product kernel.
type Linear struct{}

// Eval returns xᵀy.
func (Linear) Eval(x, y linalg.Vector) float64 { return x.Dot(y) }

// Name implements Func.
func (Linear) Name() string { return "linear" }

// RBF is the Gaussian kernel exp(-||x-y||² / (2σ²)).
type RBF struct {
	Sigma float64
}

// NewRBF returns an RBF kernel with bandwidth sigma (must be > 0).
func NewRBF(sigma float64) RBF {
	if sigma <= 0 {
		panic(fmt.Sprintf("kernel: RBF sigma must be positive, got %g", sigma))
	}
	return RBF{Sigma: sigma}
}

// Eval implements Func.
func (k RBF) Eval(x, y linalg.Vector) float64 {
	return math.Exp(-linalg.SqDist(x, y) / (2 * k.Sigma * k.Sigma))
}

// Name implements Func.
func (k RBF) Name() string { return fmt.Sprintf("rbf(σ=%g)", k.Sigma) }

// ChiSquare is the exponential chi-square kernel
// exp(-γ Σ (x_i-y_i)²/(x_i+y_i)) used for comparing histograms such as
// per-bucket topic distributions. Entries are assumed non-negative; buckets
// where both entries are zero contribute nothing.
type ChiSquare struct {
	Gamma float64
}

// NewChiSquare returns a chi-square kernel with scale gamma (must be > 0).
func NewChiSquare(gamma float64) ChiSquare {
	if gamma <= 0 {
		panic(fmt.Sprintf("kernel: chi-square gamma must be positive, got %g", gamma))
	}
	return ChiSquare{Gamma: gamma}
}

// Distance returns the chi-square distance Σ (x_i-y_i)²/(x_i+y_i).
func (k ChiSquare) Distance(x, y linalg.Vector) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernel: chi-square length mismatch %d vs %d", len(x), len(y)))
	}
	var d float64
	for i := range x {
		s := x[i] + y[i]
		if s <= 0 {
			continue
		}
		diff := x[i] - y[i]
		d += diff * diff / s
	}
	return d
}

// Eval implements Func.
func (k ChiSquare) Eval(x, y linalg.Vector) float64 {
	return math.Exp(-k.Gamma * k.Distance(x, y))
}

// Name implements Func.
func (k ChiSquare) Name() string { return fmt.Sprintf("chi2(γ=%g)", k.Gamma) }

// HistogramIntersection is Σ min(x_i, y_i) — a proper Mercer kernel on
// non-negative histograms, and the paper's alternative to chi-square for
// topic-distribution similarity.
type HistogramIntersection struct{}

// Eval implements Func.
func (HistogramIntersection) Eval(x, y linalg.Vector) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("kernel: histogram intersection length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += math.Min(x[i], y[i])
	}
	return s
}

// Name implements Func.
func (HistogramIntersection) Name() string { return "histintersect" }

// GramWorkers computes the full kernel matrix K[i][j] = k(xs[i], xs[j])
// on the given worker count (≤ 0 = all cores). Rows are distributed
// dynamically because row i only computes the upper triangle j ≥ i and
// fills both halves — row costs shrink linearly, so static chunking would
// leave late workers idle. Every cell is written exactly once (cell (i,j),
// j > i, belongs to row i alone), and each K(i,j) is evaluated
// independently, so the result is bit-for-bit identical at any worker
// count.
func GramWorkers(k Func, xs []linalg.Vector, workers int) *linalg.Matrix {
	n := len(xs)
	m := linalg.NewMatrix(n, n)
	parallel.For(workers, n, func(i int) {
		for j := i; j < n; j++ {
			v := k.Eval(xs[i], xs[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	})
	return m
}

// CrossGramInto writes the rectangular kernel matrix K[i][j] =
// k(as[i], bs[j]) into a caller-provided matrix of shape len(as)×len(bs),
// parallelized by row on the given worker count (≤ 0 = all cores) — the
// serving fast path calls it every query with a pooled matrix, so the
// steady state allocates nothing. Cell (i,j) is evaluated independently
// and written to its own slot, so the contents are bit-identical at any
// worker count; with one worker the loop runs inline on the calling
// goroutine (no closure, no goroutines — zero allocations).
func CrossGramInto(k Func, as, bs []linalg.Vector, out *linalg.Matrix, workers int) {
	if out.Rows != len(as) || out.Cols != len(bs) {
		panic(fmt.Sprintf("kernel: CrossGramInto shape mismatch: out %dx%d for %dx%d gram",
			out.Rows, out.Cols, len(as), len(bs)))
	}
	n := len(as)
	if w := parallel.Workers(workers); w == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			a := as[i]
			row := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range bs {
				row[j] = k.Eval(a, b)
			}
		}
		return
	}
	parallel.For(workers, n, func(i int) {
		a := as[i]
		row := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j, b := range bs {
			row[j] = k.Eval(a, b)
		}
	})
}

// Cache memoizes kernel evaluations over a fixed sample set, keyed by index
// pair. SMO-style solvers hit the same rows repeatedly; the cache stores
// whole rows.
//
// Sharing contract: a Cache is safe for concurrent use — the row map is
// guarded by a mutex, row computation happens outside the lock so misses
// on different rows proceed in parallel, and when two goroutines race on
// the same row the first stored slice wins, so every caller of Row(i)
// observes the same backing array. Returned rows are shared read-only
// views: callers must never modify them. Memory is bounded by the sample
// count — at worst the full n×n Gram matrix materializes (one row per
// distinct index), which is the same ceiling as the dense training path;
// SMO working sets stay far below it in practice.
type Cache struct {
	k  Func
	xs []linalg.Vector

	mu   sync.Mutex
	rows map[int]linalg.Vector
}

// NewCache returns a row cache for kernel k over samples xs.
func NewCache(k Func, xs []linalg.Vector) *Cache {
	return &Cache{k: k, xs: xs, rows: make(map[int]linalg.Vector)}
}

// Row returns the i-th kernel row [k(x_i, x_0), ..., k(x_i, x_{n-1})].
// The returned slice is shared; callers must not modify it (see the type
// comment for the full concurrency contract).
func (c *Cache) Row(i int) linalg.Vector {
	c.mu.Lock()
	if r, ok := c.rows[i]; ok {
		c.mu.Unlock()
		return r
	}
	// Evaluate outside the lock: a kernel row is O(n·d) work that would
	// otherwise serialize every concurrent caller.
	c.mu.Unlock()
	r := linalg.NewVector(len(c.xs))
	xi := c.xs[i]
	for j := range c.xs {
		r[j] = c.k.Eval(xi, c.xs[j])
	}
	c.mu.Lock()
	if prev, ok := c.rows[i]; ok {
		r = prev // lost a same-row race; hand out the stored slice
	} else {
		c.rows[i] = r
	}
	c.mu.Unlock()
	return r
}
