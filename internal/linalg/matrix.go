package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Addf adds v to element (i,j).
func (m *Matrix) Addf(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a Vector sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m*v as a new vector (single-threaded; see MulVecWorkers
// in blocked.go for the parallel variant — both are bit-identical).
func (m *Matrix) MulVec(v Vector) Vector { return m.MulVecWorkers(v, 1) }

// ScaleInPlace multiplies every entry by a and returns m.
func (m *Matrix) ScaleInPlace(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddDiag adds a to every diagonal entry and returns m. m must be square.
func (m *Matrix) AddDiag(a float64) *Matrix {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: AddDiag on non-square %dx%d", m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
	return m
}

// Cholesky computes the lower-triangular factor L with m = L Lᵀ.
// m must be symmetric positive-definite; otherwise an error is returned.
// The jitter, if positive, is added to the diagonal first (a standard
// regularization when factoring nearly-singular Gram matrices).
func (m *Matrix) Cholesky(jitter float64) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := m.At(i, j)
			if i == j {
				s += jitter
			}
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("linalg: matrix not positive definite at pivot %d (value %g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves m x = b given the Cholesky factor l of m.
func SolveCholesky(l *Matrix, b Vector) Vector {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveCholesky shape mismatch %d vs %d", n, len(b)))
	}
	// Forward substitution: L y = b.
	y := NewVector(n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ x = y.
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
