package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPowerIterationDiagonal(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 3, Data: []float64{5, 0, 0, 0, 2, 0, 0, 0, 1}}
	lambda, v, err := PowerIteration(m, 3, PowerIterOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-5) > 1e-6 {
		t.Fatalf("lambda = %v, want 5", lambda)
	}
	if math.Abs(math.Abs(v[0])-1) > 1e-5 {
		t.Fatalf("eigenvector = %v, want e1", v)
	}
	if v[0] < 0 {
		t.Fatal("sign convention violated: largest entry should be positive")
	}
}

func TestPowerIterationSymmetric(t *testing.T) {
	// A = Q diag(4,1) Qᵀ with known Q (rotation by 30°).
	c, s := math.Cos(math.Pi/6), math.Sin(math.Pi/6)
	q := &Matrix{Rows: 2, Cols: 2, Data: []float64{c, -s, s, c}}
	d := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 0, 0, 1}}
	a := q.MulWorkers(d, 1).MulWorkers(transpose(q), 1)
	lambda, v, err := PowerIteration(a, 2, PowerIterOpts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-4) > 1e-6 {
		t.Fatalf("lambda = %v, want 4", lambda)
	}
	// Eigenvector must be ±(c,s).
	if math.Abs(math.Abs(v[0])-c) > 1e-5 || math.Abs(math.Abs(v[1])-s) > 1e-5 {
		t.Fatalf("eigenvector = %v, want (%v,%v)", v, c, s)
	}
}

func TestPowerIterationZeroMatrix(t *testing.T) {
	m := NewMatrix(3, 3)
	lambda, _, err := PowerIteration(m, 3, PowerIterOpts{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lambda != 0 {
		t.Fatalf("lambda = %v, want 0", lambda)
	}
}

func TestPowerIterationEmpty(t *testing.T) {
	if _, _, err := PowerIteration(NewMatrix(0, 0), 0, PowerIterOpts{}); err == nil {
		t.Fatal("expected error for empty operator")
	}
}

func TestPowerIterationSparse(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Set(0, 0, 3)
	b.Set(1, 1, 1)
	lambda, _, err := PowerIteration(b.Build(), 2, PowerIterOpts{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lambda-3) > 1e-6 {
		t.Fatalf("sparse lambda = %v, want 3", lambda)
	}
}

// Property: power iteration's Rayleigh quotient upper-bounds the quotient of
// any random probe vector (dominant eigenvalue is the max of the quotient).
func TestPowerIterationDominanceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 3 + int(seed)%4
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := b.MulWorkers(transpose(b), 1) // PSD -> dominant eigenvalue is max Rayleigh quotient
		lambda, _, err := PowerIteration(a, n, PowerIterOpts{Seed: int64(seed), MaxIter: 5000, Tol: 1e-12})
		if err != nil {
			return false
		}
		probe := randVec(rng, n)
		q := probe.Dot(a.MulVec(probe)) / probe.Dot(probe)
		return lambda >= q-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
