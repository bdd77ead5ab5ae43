package linalg

import (
	"math/rand"
	"testing"
)

func TestSparseBuildAndAt(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	b.Set(0, 1, 2)
	b.Set(0, 1, 5) // a second Set overwrites
	b.Set(2, 0, -1)
	b.Set(1, 1, 5)
	s := b.Build()
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	d := s.Dense()
	if d.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", d.At(0, 1))
	}
	if d.At(1, 1) != 5 || d.At(2, 0) != -1 || d.At(2, 2) != 0 {
		t.Fatal("sparse values wrong")
	}
}

func TestSparseSetZeroDeletes(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 0, 0)
	b.Set(1, 1, 0) // setting an absent entry to zero stores nothing
	if nnz := b.Build().NNZ(); nnz != 0 {
		t.Fatalf("NNZ after delete = %d", nnz)
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparseBuilder(2, 2).Set(2, 0, 1)
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewSparseBuilder(10, 7)
	for k := 0; k < 25; k++ {
		b.Set(rng.Intn(10), rng.Intn(7), rng.NormFloat64())
	}
	s := b.Build()
	d := s.Dense()
	v := randVec(rng, 7)
	sv := s.MulVec(v)
	dv := d.MulVec(v)
	if SqDist(sv, dv) > 1e-24 {
		t.Fatalf("sparse/dense MulVec disagree: %v vs %v", sv, dv)
	}
}

func TestSparseRowSums(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	b.Set(0, 0, 1)
	b.Set(0, 2, 2)
	b.Set(1, 1, -4)
	s := b.Build()
	rs := s.RowSums()
	if rs[0] != 3 || rs[1] != -4 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestSparseDensity(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Set(0, 0, 1)
	s := b.Build()
	if s.Density() != 0.25 {
		t.Fatalf("Density = %v", s.Density())
	}
	if NewSparseBuilder(0, 0).Build().Density() != 0 {
		t.Fatal("empty density should be 0")
	}
}
