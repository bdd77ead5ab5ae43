package linalg

import (
	"fmt"
	"sort"
)

// Sparse is a compressed-sparse-row (CSR) matrix. It is the storage format
// for HYDRA's structure-consistency matrix M, which the paper reports to be
// <1% dense on real data.
type Sparse struct {
	RowsN, ColsN int
	RowPtr       []int     // len RowsN+1
	ColIdx       []int     // len nnz
	Val          []float64 // len nnz
}

// SparseBuilder accumulates coordinate-format entries and compiles them to
// CSR.
type SparseBuilder struct {
	rows, cols int
	entries    map[[2]int]float64
}

// NewSparseBuilder returns a builder for a rows-by-cols sparse matrix.
func NewSparseBuilder(rows, cols int) *SparseBuilder {
	return &SparseBuilder{rows: rows, cols: cols, entries: make(map[[2]int]float64)}
}

// Set overwrites entry (i,j) with v.
func (b *SparseBuilder) Set(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		delete(b.entries, [2]int{i, j})
		return
	}
	b.entries[[2]int{i, j}] = v
}

// Build compiles the accumulated entries into a CSR matrix.
func (b *SparseBuilder) Build() *Sparse {
	type coo struct {
		i, j int
		v    float64
	}
	list := make([]coo, 0, len(b.entries))
	for k, v := range b.entries {
		list = append(list, coo{k[0], k[1], v})
	}
	sort.Slice(list, func(a, c int) bool {
		if list[a].i != list[c].i {
			return list[a].i < list[c].i
		}
		return list[a].j < list[c].j
	})
	s := &Sparse{
		RowsN:  b.rows,
		ColsN:  b.cols,
		RowPtr: make([]int, b.rows+1),
		ColIdx: make([]int, len(list)),
		Val:    make([]float64, len(list)),
	}
	for idx, e := range list {
		s.RowPtr[e.i+1]++
		s.ColIdx[idx] = e.j
		s.Val[idx] = e.v
	}
	for i := 0; i < b.rows; i++ {
		s.RowPtr[i+1] += s.RowPtr[i]
	}
	return s
}

// NNZ returns the number of stored non-zeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

// MulVec returns s*v as a new vector.
func (s *Sparse) MulVec(v Vector) Vector {
	if s.ColsN != len(v) {
		panic(fmt.Sprintf("linalg: sparse MulVec shape mismatch %dx%d * %d", s.RowsN, s.ColsN, len(v)))
	}
	out := NewVector(s.RowsN)
	for i := 0; i < s.RowsN; i++ {
		var acc float64
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			acc += s.Val[idx] * v[s.ColIdx[idx]]
		}
		out[i] = acc
	}
	return out
}

// RowSums returns the vector of per-row sums (the degree vector used to
// build the Laplacian D−M).
func (s *Sparse) RowSums() Vector {
	out := NewVector(s.RowsN)
	for i := 0; i < s.RowsN; i++ {
		var acc float64
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			acc += s.Val[idx]
		}
		out[i] = acc
	}
	return out
}

// Dense materializes s as a dense matrix (for tests and small problems).
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.RowsN, s.ColsN)
	for i := 0; i < s.RowsN; i++ {
		for idx := s.RowPtr[i]; idx < s.RowPtr[i+1]; idx++ {
			m.Set(i, s.ColIdx[idx], s.Val[idx])
		}
	}
	return m
}

// Density returns nnz / (rows*cols), or 0 for an empty shape.
func (s *Sparse) Density() float64 {
	total := s.RowsN * s.ColsN
	if total == 0 {
		return 0
	}
	return float64(s.NNZ()) / float64(total)
}
