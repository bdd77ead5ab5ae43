package linalg

import (
	"math/rand"
	"testing"
)

func TestSparseBuildAndAt(t *testing.T) {
	b := NewSparseBuilder(3, 3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3) // duplicates sum
	b.Add(2, 0, -1)
	b.Set(1, 1, 5)
	s := b.Build()
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	if s.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5", s.At(0, 1))
	}
	if s.At(1, 1) != 5 || s.At(2, 0) != -1 || s.At(2, 2) != 0 {
		t.Fatal("sparse values wrong")
	}
}

func TestSparseSetZeroDeletes(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 0, 0)
	if b.NNZ() != 0 {
		t.Fatalf("NNZ after delete = %d", b.NNZ())
	}
	b.Add(1, 1, 0) // adding zero is a no-op
	if b.NNZ() != 0 {
		t.Fatalf("NNZ after zero add = %d", b.NNZ())
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparseBuilder(2, 2).Add(2, 0, 1)
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewSparseBuilder(10, 7)
	for k := 0; k < 25; k++ {
		b.Add(rng.Intn(10), rng.Intn(7), rng.NormFloat64())
	}
	s := b.Build()
	d := s.Dense()
	v := randVec(rng, 7)
	sv := s.MulVec(v)
	dv := d.MulVec(v)
	if sv.Sub(dv).Norm() > 1e-12 {
		t.Fatalf("sparse/dense MulVec disagree: %v vs %v", sv, dv)
	}
}

func TestSparseRowSums(t *testing.T) {
	b := NewSparseBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 1, -4)
	s := b.Build()
	rs := s.RowSums()
	if rs[0] != 3 || rs[1] != -4 {
		t.Fatalf("RowSums = %v", rs)
	}
}

func TestSparseDensity(t *testing.T) {
	b := NewSparseBuilder(2, 2)
	b.Add(0, 0, 1)
	s := b.Build()
	if s.Density() != 0.25 {
		t.Fatalf("Density = %v", s.Density())
	}
	if NewSparseBuilder(0, 0).Build().Density() != 0 {
		t.Fatal("empty density should be 0")
	}
}
