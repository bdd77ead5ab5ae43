package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tinyProblem is a 2-variable separable QP: Q = I, y = (+1,−1).
// max β1+β2 − ½(β1²+β2²) s.t. β1 = β2, 0 ≤ β ≤ C. Optimum: β1=β2=min(1,C).
func TestSolveTinyProblem(t *testing.T) {
	q := Dense{{1, 0}, {0, 1}}
	y := []float64{1, -1}
	res, err := Solve(q, y, 10, Opts{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Beta[0]-1) > 1e-4 || math.Abs(res.Beta[1]-1) > 1e-4 {
		t.Fatalf("beta = %v, want [1 1]", res.Beta)
	}
	// Box-constrained variant: C = 0.5 binds.
	res, err = Solve(q, y, 0.5, Opts{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Beta[0]-0.5) > 1e-6 || math.Abs(res.Beta[1]-0.5) > 1e-6 {
		t.Fatalf("boxed beta = %v, want [0.5 0.5]", res.Beta)
	}
}

func TestSolveValidation(t *testing.T) {
	q := Dense{{1}}
	if _, err := Solve(q, []float64{1, 1}, 1, Opts{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Solve(q, []float64{0.5}, 1, Opts{}); err == nil {
		t.Fatal("expected label validation error")
	}
	if _, err := Solve(q, []float64{1}, 0, Opts{}); err == nil {
		t.Fatal("expected C validation error")
	}
}

func TestSolveWarmStartValidation(t *testing.T) {
	q := Dense{{1, 0}, {0, 1}}
	y := []float64{1, -1}
	if _, err := Solve(q, y, 1, Opts{WarmStart: []float64{1}}); err == nil {
		t.Fatal("expected warm start length error")
	}
	if _, err := Solve(q, y, 1, Opts{WarmStart: []float64{0.5, 0.1}}); err == nil {
		t.Fatal("expected warm start feasibility error")
	}
	// Valid warm start at the solution converges immediately.
	res, err := Solve(q, y, 10, Opts{WarmStart: []float64{1, 1}, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > 2 {
		t.Fatalf("warm start at optimum took %d iters", res.Iters)
	}
}

// svmQ builds the SVM dual Q matrix Q_ij = y_i y_j <x_i,x_j> for a linearly
// separable 2D problem.
func svmQ(xs [][]float64, ys []float64) Dense {
	n := len(xs)
	q := make(Dense, n)
	for i := range q {
		q[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			dot := xs[i][0]*xs[j][0] + xs[i][1]*xs[j][1]
			q[i][j] = ys[i] * ys[j] * dot
		}
	}
	return q
}

func TestSolveSeparableSVM(t *testing.T) {
	// Two clusters: y=+1 near (2,2), y=−1 near (−2,−2).
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		s := 1.0
		if i%2 == 1 {
			s = -1.0
		}
		xs = append(xs, []float64{s*2 + rng.NormFloat64()*0.3, s*2 + rng.NormFloat64()*0.3})
		ys = append(ys, s)
	}
	res, err := Solve(svmQ(xs, ys), ys, 10, Opts{Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// Recover w = Σ β y x and check training accuracy.
	var w0, w1 float64
	for i := range xs {
		w0 += res.Beta[i] * ys[i] * xs[i][0]
		w1 += res.Beta[i] * ys[i] * xs[i][1]
	}
	correct := 0
	for i := range xs {
		score := w0*xs[i][0] + w1*xs[i][1] + res.B
		if (score > 0) == (ys[i] > 0) {
			correct++
		}
	}
	if correct != len(xs) {
		t.Fatalf("separable SVM training accuracy %d/%d", correct, len(xs))
	}
	// Equality constraint holds.
	var eq float64
	for i := range ys {
		eq += ys[i] * res.Beta[i]
	}
	if math.Abs(eq) > 1e-9 {
		t.Fatalf("yᵀβ = %v", eq)
	}
}

func TestSolveWithShrinking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 60; i++ {
		s := 1.0
		if i%2 == 1 {
			s = -1.0
		}
		xs = append(xs, []float64{s + rng.NormFloat64()*0.5, s + rng.NormFloat64()*0.5})
		ys = append(ys, s)
	}
	q := svmQ(xs, ys)
	plain, err := Solve(q, ys, 1, Opts{Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := Solve(q, ys, 1, Opts{Tol: 1e-5, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Obj-shrunk.Obj) > 1e-3*(1+math.Abs(plain.Obj)) {
		t.Fatalf("shrinking changed the optimum: %v vs %v", plain.Obj, shrunk.Obj)
	}
}

// Property: KKT conditions hold at the reported solution for random PSD Q.
func TestSolveKKTProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 4 + int(seed)%6
		// Random PSD Q = AAᵀ + δI.
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
		}
		q := make(Dense, n)
		for i := range q {
			q[i] = make([]float64, n)
			for j := range q[i] {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i][k] * a[j][k]
				}
				q[i][j] = s
				if i == j {
					q[i][j] += 0.1
				}
			}
		}
		y := make([]float64, n)
		for i := range y {
			if i%2 == 0 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		c := 1.0
		res, err := Solve(q, y, c, Opts{Tol: 1e-6})
		if err != nil {
			return false
		}
		// Feasibility.
		var eq float64
		for i := range y {
			if res.Beta[i] < -1e-9 || res.Beta[i] > c+1e-9 {
				return false
			}
			eq += y[i] * res.Beta[i]
		}
		if math.Abs(eq) > 1e-8 {
			return false
		}
		// Optimality spot-check: no feasible two-coordinate move along the
		// equality constraint improves the objective beyond tolerance.
		base := res.Obj
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				eps := 1e-4
				bi := res.Beta[i] + y[i]*eps
				bj := res.Beta[j] - y[j]*eps
				if bi < 0 || bi > c || bj < 0 || bj > c {
					continue
				}
				nb := append([]float64(nil), res.Beta...)
				nb[i], nb[j] = bi, bj
				if objective(q, nb) > base+1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseAdapter(t *testing.T) {
	d := Dense{{1, 2}, {3, 4}}
	if d.N() != 2 || d.At(1, 0) != 3 {
		t.Fatal("Dense adapter wrong")
	}
}

func TestSolveMaxIterCap(t *testing.T) {
	// A hard problem with an absurdly low iteration cap must still return
	// a feasible (if suboptimal) point.
	rng := rand.New(rand.NewSource(9))
	n := 30
	q := make(Dense, n)
	y := make([]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		y[i] = 1
		if i%2 == 1 {
			y[i] = -1
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			q[i][j] += v * v
			q[j][i] = q[i][j]
		}
		q[i][i] += float64(n)
	}
	res, err := Solve(q, y, 1, Opts{Tol: 1e-12, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 3 {
		t.Fatalf("iters = %d, want cap 3", res.Iters)
	}
	var eq float64
	for i := range y {
		if res.Beta[i] < 0 || res.Beta[i] > 1 {
			t.Fatal("box violated")
		}
		eq += y[i] * res.Beta[i]
	}
	if math.Abs(eq) > 1e-9 {
		t.Fatalf("equality violated: %v", eq)
	}
}

func TestBiasAllAtBounds(t *testing.T) {
	// Small C pins every variable at the box bound: the bias must come
	// from the KKT-interval midpoint, not the free-variable average.
	q := Dense{{1, 0}, {0, 1}}
	y := []float64{1, -1}
	res, err := Solve(q, y, 0.01, Opts{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Beta[0]-0.01) > 1e-10 || math.Abs(res.Beta[1]-0.01) > 1e-10 {
		t.Fatalf("beta = %v, want both pinned at C", res.Beta)
	}
	if math.IsNaN(res.B) || math.IsInf(res.B, 0) {
		t.Fatalf("bias = %v", res.B)
	}
}

func TestSolveShrinkThenUnshrink(t *testing.T) {
	// Many easily-pinned variables force the shrinking heuristic to drop
	// them; the final unshrink pass must still verify global optimality.
	rng := rand.New(rand.NewSource(17))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 80; i++ {
		s := 1.0
		if i%2 == 1 {
			s = -1.0
		}
		// Wide margin: most points are pinned at 0 quickly.
		xs = append(xs, []float64{s*6 + rng.NormFloat64()*0.2, s*6 + rng.NormFloat64()*0.2})
		ys = append(ys, s)
	}
	q := svmQ(xs, ys)
	shrunk, err := Solve(q, ys, 5, Opts{Tol: 1e-6, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(q, ys, 5, Opts{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shrunk.Obj-plain.Obj) > 1e-4*(1+math.Abs(plain.Obj)) {
		t.Fatalf("shrink path lost optimality: %v vs %v", shrunk.Obj, plain.Obj)
	}
}

func TestObjectiveAndBiasHelpers(t *testing.T) {
	q := Dense{{2, 0}, {0, 2}}
	beta := []float64{1, 0.5}
	// 1ᵀβ − ½βᵀQβ = 1.5 − ½(2 + 0.5) = 0.25.
	if got := objective(q, beta); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("objective = %v", got)
	}
}

// Dense adapts a row-major square [][]float64 to the Matrix interface.
type Dense [][]float64

// At implements Matrix.
func (d Dense) At(i, j int) float64 { return d[i][j] }

// N implements Matrix.
func (d Dense) N() int { return len(d) }
