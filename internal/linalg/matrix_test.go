package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %+v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
	m.Addf(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatal("Addf failed")
	}
	r := m.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("Row = %v", r)
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := NewMatrix(3, 3).AddDiag(1)
	v := Vector{1, 2, 3}
	got := id.MulVec(v)
	if SqDist(got, v) != 0 {
		t.Fatalf("I*v = %v", got)
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %+v", tr)
	}
}

func TestMatrixMul(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := a.MulWorkers(b, 1)
	want := &Matrix{Rows: 2, Cols: 2, Data: []float64{19, 22, 43, 50}}
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %+v, want %+v", c, want)
		}
	}
}

func TestAddScaleDiag(t *testing.T) {
	m := NewMatrix(2, 2).AddDiag(1)
	m.ScaleInPlace(0.5)
	if m.At(1, 1) != 0.5 {
		t.Fatal("ScaleInPlace failed")
	}
	m.AddDiag(3)
	if m.At(0, 0) != 3.5 || m.At(0, 1) != 0 {
		t.Fatal("AddDiag failed")
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix A = B Bᵀ + I.
	rng := rand.New(rand.NewSource(7))
	n := 8
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.MulWorkers(transpose(b), 1).AddDiag(1)
	x := randVec(rng, n)
	rhs := a.MulVec(x)
	l, err := a.Cholesky(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := SolveCholesky(l, rhs); math.Sqrt(SqDist(got, x)) > 1e-8 {
		t.Fatalf("SolveCholesky residual too large: %v", math.Sqrt(SqDist(got, x)))
	}
}

func TestCholeskyFailsOnIndefinite(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{0, 1, 1, 0}} // indefinite
	if _, err := m.Cholesky(0); err == nil {
		t.Fatal("expected Cholesky failure on indefinite matrix")
	}
	if _, err := NewMatrix(2, 3).Cholesky(0); err == nil {
		t.Fatal("expected Cholesky failure on non-square matrix")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ on random small matrices.
func TestTransposeOfProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63n(1000)))
		a := NewMatrix(3, 4)
		b := NewMatrix(4, 2)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		lhs := transpose(a.MulWorkers(b, 1))
		rhs := transpose(b).MulWorkers(transpose(a), 1)
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky reconstructs, L·Lᵀ = A for random SPD A.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + int(seed)%5
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.MulWorkers(transpose(b), 1).AddDiag(0.5)
		l, err := a.Cholesky(0)
		if err != nil {
			return false
		}
		rec := l.MulWorkers(transpose(l), 1)
		for i := range rec.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// transpose returns mᵀ; the tests build symmetric and SPD matrices with it.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}
