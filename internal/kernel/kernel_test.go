package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/linalg"
)

func TestLinearKernel(t *testing.T) {
	k := Linear{}
	if got := k.Eval(linalg.Vector{1, 2}, linalg.Vector{3, 4}); got != 11 {
		t.Fatalf("linear = %v, want 11", got)
	}
	if k.Name() != "linear" {
		t.Fatal("name")
	}
}

func TestRBFKernel(t *testing.T) {
	k := NewRBF(1)
	if got := k.Eval(linalg.Vector{0}, linalg.Vector{0}); got != 1 {
		t.Fatalf("K(x,x) = %v, want 1", got)
	}
	got := k.Eval(linalg.Vector{0}, linalg.Vector{2})
	want := math.Exp(-2) // ||x-y||²=4, 2σ²=2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("rbf = %v, want %v", got, want)
	}
}

func TestRBFPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRBF(0)
}

func TestChiSquareKernel(t *testing.T) {
	k := NewChiSquare(0.5)
	x := linalg.Vector{0.5, 0.5}
	if got := k.Eval(x, x); got != 1 {
		t.Fatalf("K(x,x) = %v, want 1", got)
	}
	// Zero-sum buckets must be skipped (no NaN).
	y := linalg.Vector{0, 0}
	if got := k.Eval(y, y); got != 1 {
		t.Fatalf("K(0,0) = %v, want 1", got)
	}
	d := k.Distance(linalg.Vector{1, 0}, linalg.Vector{0, 1})
	if d != 2 {
		t.Fatalf("chi2 distance = %v, want 2", d)
	}
}

func TestChiSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChiSquare(-1)
}

func TestHistogramIntersection(t *testing.T) {
	k := HistogramIntersection{}
	got := k.Eval(linalg.Vector{0.2, 0.8}, linalg.Vector{0.5, 0.5})
	if math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("histintersect = %v, want 0.7", got)
	}
	// Self-similarity of a distribution is 1.
	if k.Eval(linalg.Vector{0.3, 0.7}, linalg.Vector{0.3, 0.7}) != 1 {
		t.Fatal("self intersection of a distribution should be 1")
	}
}

func TestGramSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]linalg.Vector, 6)
	for i := range xs {
		xs[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64()}
	}
	g := GramWorkers(NewRBF(1.5), xs, 0)
	for i := range xs {
		for j := range xs {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
		if math.Abs(g.At(i, i)-1) > 1e-12 {
			t.Fatalf("diag = %v", g.At(i, i))
		}
	}
}

func TestCrossGram(t *testing.T) {
	as := []linalg.Vector{{1, 0}}
	bs := []linalg.Vector{{1, 0}, {0, 1}}
	m := crossGram(Linear{}, as, bs, 0)
	if m.Rows != 1 || m.Cols != 2 || m.At(0, 0) != 1 || m.At(0, 1) != 0 {
		t.Fatalf("CrossGram = %+v", m)
	}
}

func TestCache(t *testing.T) {
	xs := []linalg.Vector{{0}, {1}, {2}}
	c := NewCache(Linear{}, xs)
	r := c.Row(1)
	if len(r) != 3 || r[2] != 2 {
		t.Fatalf("Row(1) = %v", r)
	}
	if again := c.Row(1); &again[0] != &r[0] {
		t.Fatal("a second Row(1) recomputed the row instead of hitting the cache")
	}
}

// Property: RBF kernel is bounded in [0,1] (0 only via underflow at extreme
// distances), symmetric, and exactly 1 at x == y.
func TestRBFProperty(t *testing.T) {
	k := NewRBF(2)
	f := func(a, b, c, d float64) bool {
		x := linalg.Vector{clamp(a), clamp(b)}
		y := linalg.Vector{clamp(c), clamp(d)}
		v := k.Eval(x, y)
		return v >= 0 && v <= 1 && math.Abs(v-k.Eval(y, x)) < 1e-15 && k.Eval(x, x) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram intersection of two probability distributions lies in [0,1]
// and K(x,y) <= min(K(x,x), K(y,y)).
func TestHistIntersectionProperty(t *testing.T) {
	k := HistogramIntersection{}
	f := func(a, b, c float64) bool {
		x := toDist(a, b, c)
		y := toDist(c, a, b)
		v := k.Eval(x, y)
		return v >= 0 && v <= 1+1e-12 && v <= math.Min(k.Eval(x, x), k.Eval(y, y))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gram matrices of the linear kernel are positive semidefinite.
func TestLinearGramPSDProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(seed)%4
		xs := make([]linalg.Vector, n)
		for i := range xs {
			xs[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		g := GramWorkers(Linear{}, xs, 0)
		v := linalg.NewVector(n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v.Dot(g.MulVec(v)) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

// toDist builds a 3-bucket probability distribution from arbitrary floats.
func toDist(a, b, c float64) linalg.Vector {
	v := linalg.Vector{math.Abs(clamp(a)) + 0.1, math.Abs(clamp(b)) + 0.1, math.Abs(clamp(c)) + 0.1}
	return v.Scale(1 / v.Sum())
}
