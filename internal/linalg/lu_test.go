package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolve(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 3, Data: []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	}}
	f, err := FactorizeInPlaceWorkers(a.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Known system with solution (2, 3, -1).
	x := f.Solve(Vector{8, -11, -3})
	want := Vector{2, 3, -1}
	if math.Sqrt(SqDist(x, want)) > 1e-10 {
		t.Fatalf("LU solve = %v, want %v", x, want)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorizeInPlaceWorkers(NewMatrix(2, 3), 1); err == nil {
		t.Fatal("expected error on non-square matrix")
	}
}

func TestLUSingular(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := FactorizeInPlaceWorkers(a.Clone(), 1); err == nil {
		t.Fatal("expected error on singular matrix")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{0, 1, 1, 0}}
	f, err := FactorizeInPlaceWorkers(a.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(Vector{3, 7})
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("pivoted solve = %v", x)
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	a.AddDiag(3)
	f, err := FactorizeInPlaceWorkers(a.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A * X = A (so X should be I).
	x := f.SolveMatrixWorkers(a, 1)
	id := NewMatrix(n, n).AddDiag(1)
	for i := range x.Data {
		if math.Abs(x.Data[i]-id.Data[i]) > 1e-9 {
			t.Fatalf("A⁻¹A != I at %d: %v", i, x.Data[i])
		}
	}
}

// Property: LU solve inverts multiplication for random well-conditioned
// matrices.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(seed)%8
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		a.AddDiag(5) // keep well-conditioned
		lu, err := FactorizeInPlaceWorkers(a.Clone(), 1)
		if err != nil {
			return false
		}
		x := randVec(rng, n)
		got := lu.Solve(a.MulVec(x))
		return math.Sqrt(SqDist(got, x)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
