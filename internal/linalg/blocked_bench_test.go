package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the dual-training hot path (`make bench-linalg`).
// Each benchmark carries a `naive` sub-benchmark running the pre-PR serial
// loop, so single-run output already shows the tiling delta; `make
// bench-save` / `make bench-compare` diff two runs benchstat-style. The
// `w4` variants only beat `w1` on multicore hardware — on a 1-CPU CI box
// they measure pure scheduling overhead (expected small).

var benchSizes = []int{256, 512}

func benchMatrix(seed int64, rows, cols int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul(b *testing.B) {
	for _, n := range benchSizes {
		a := benchMatrix(1, n, n)
		m := benchMatrix(2, n, n)
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveMul(a, m)
			}
		})
		b.Run(fmt.Sprintf("n=%d/blocked-w1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MulWorkers(m, 1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/blocked-w4", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.MulWorkers(m, 4)
			}
		})
	}
}

func BenchmarkFactorize(b *testing.B) {
	for _, n := range benchSizes {
		a := benchMatrix(3, n, n).AddDiag(4)
		b.Run(fmt.Sprintf("n=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := naiveFactorize(a); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/w1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FactorizeInPlaceWorkers(a.Clone(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/w4", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FactorizeInPlaceWorkers(a.Clone(), 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveMatrix(b *testing.B) {
	for _, n := range benchSizes {
		a := benchMatrix(4, n, n).AddDiag(4)
		f, err := FactorizeInPlaceWorkers(a, 1)
		if err != nil {
			b.Fatal(err)
		}
		rhs := benchMatrix(5, n, n/4) // N_l right-hand sides, N_l ≪ n
		b.Run(fmt.Sprintf("n=%d/w1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveMatrixWorkers(rhs, 1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/w4", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveMatrixWorkers(rhs, 4)
			}
		})
	}
}
