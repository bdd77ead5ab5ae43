package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestVectorScaleAddSub(t *testing.T) {
	v := Vector{1, 2}.Clone()
	v.Scale(3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
	v.AddScaled(2, Vector{1, 1})
	if v[0] != 5 || v[1] != 8 {
		t.Fatalf("AddScaled = %v", v)
	}
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEq(v.Norm(), 1, 1e-12) {
		t.Fatalf("Normalize norm = %v", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize() // must not NaN
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero Normalize = %v", z)
	}
}

func TestVectorStats(t *testing.T) {
	v := Vector{1, 5, 3}
	if v.Sum() != 9 {
		t.Fatalf("Sum = %v", v.Sum())
	}
	if m, i := v.Max(); m != 5 || i != 1 {
		t.Fatalf("Max = %v,%v", m, i)
	}
	var empty Vector
	if _, i := empty.Max(); i != -1 {
		t.Fatalf("empty Max idx = %v", i)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist(Vector{0, 0}, Vector{3, 4}); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

func TestVectorFill(t *testing.T) {
	v := NewVector(3).Fill(7)
	for _, x := range v {
		if x != 7 {
			t.Fatalf("Fill = %v", v)
		}
	}
}

// Property: Cauchy-Schwarz |<v,w>| <= ||v|| ||w||.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		v := Vector{clampF(a), clampF(b), clampF(c)}
		w := Vector{clampF(d), clampF(e), clampF(g)}
		return math.Abs(v.Dot(w)) <= v.Norm()*w.Norm()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality ||v+w|| <= ||v|| + ||w||.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		v := Vector{clampF(a), clampF(b)}
		w := Vector{clampF(c), clampF(d)}
		return v.Clone().AddScaled(1, w).Norm() <= v.Norm()+w.Norm()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// clampF maps arbitrary float64 input (possibly NaN/Inf/huge) into a sane
// bounded range so property tests exercise realistic magnitudes.
func clampF(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func randVec(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
