package linalg

import (
	"fmt"
	"math"

	"hydra/internal/parallel"
)

// LU is an LU factorization with partial pivoting of a square matrix:
// P·A = L·U. It solves the general (non-symmetric) linear systems arising
// in HYDRA's dual assembly, where A = 2γ_L·I + c·(D−M)·K is a product of a
// Laplacian and a kernel matrix and therefore not symmetric.
type LU struct {
	lu   *Matrix
	perm []int
}

// luParallelMinRows is the smallest trailing submatrix
// FactorizeInPlaceWorkers fans out: below it the per-column barrier costs
// more than the update.
const luParallelMinRows = 96

// FactorizeInPlaceWorkers computes the LU decomposition of a, consuming a:
// it is overwritten with the packed L/U factors and must not be used
// afterwards (the reweight rounds rebuild A from the hoisted L·K product
// as a throwaway scratch matrix). Singular matrices (pivot below tiny)
// return an error. The trailing-submatrix update of each elimination
// column fans out over the given worker count (≤ 0 = all cores).
// Determinism: the pivot search, row swap and pivot value are fixed before
// the fan-out, every eliminated row is owned by exactly one task, and each
// row update reads only the frozen pivot row — so the factors and
// permutation are bit-identical at any worker count.
func FactorizeInPlaceWorkers(a *Matrix, workers int) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	return factorizeInPlace(a, workers)
}

// factorizeInPlace factors lu, which it owns, storing L and U packed in
// place with partial pivoting.
func factorizeInPlace(lu *Matrix, workers int) (*LU, error) {
	n := lu.Rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	w := parallel.Workers(workers)
	// elimOne eliminates row r against pivot row `col`: computes and
	// stores the multiplier, then subtracts f·rowC from the trailing row.
	// Rows whose multiplier is exactly zero keep the classic skip (0·v
	// could manufacture NaN from an Inf entry).
	elimOne := func(r, col int, pivot float64, rowC []float64) {
		f := lu.Data[r*n+col] / pivot
		lu.Data[r*n+col] = f
		if f == 0 {
			return
		}
		rowR := lu.Data[r*n+col+1 : (r+1)*n]
		for c, v := range rowC {
			rowR[c] -= f * v
		}
	}
	// elimQuad eliminates rows [r0, r1): full quads run one fused pass
	// that streams the pivot row once for four rows with four independent
	// FMA chains. Each element (r,c) still receives its single
	// `rowR[c] -= f·rowC[c]` update, so the fusion changes cache traffic
	// and ILP, never the bits; any zero multiplier in a quad falls back to
	// the skipping one-row path.
	elimQuad := func(r0, r1, col int, pivot float64, rowC []float64) {
		r := r0
		for ; r+4 <= r1; r += 4 {
			f0 := lu.Data[r*n+col] / pivot
			f1 := lu.Data[(r+1)*n+col] / pivot
			f2 := lu.Data[(r+2)*n+col] / pivot
			f3 := lu.Data[(r+3)*n+col] / pivot
			if f0 == 0 || f1 == 0 || f2 == 0 || f3 == 0 {
				elimOne(r, col, pivot, rowC)
				elimOne(r+1, col, pivot, rowC)
				elimOne(r+2, col, pivot, rowC)
				elimOne(r+3, col, pivot, rowC)
				continue
			}
			lu.Data[r*n+col] = f0
			lu.Data[(r+1)*n+col] = f1
			lu.Data[(r+2)*n+col] = f2
			lu.Data[(r+3)*n+col] = f3
			// Reslicing to len(rowC) lets the compiler drop the bounds
			// checks inside the fused loop.
			rowR0 := lu.Data[r*n+col+1 : (r+1)*n][:len(rowC)]
			rowR1 := lu.Data[(r+1)*n+col+1 : (r+2)*n][:len(rowC)]
			rowR2 := lu.Data[(r+2)*n+col+1 : (r+3)*n][:len(rowC)]
			rowR3 := lu.Data[(r+3)*n+col+1 : (r+4)*n][:len(rowC)]
			for c, v := range rowC {
				rowR0[c] -= f0 * v
				rowR1[c] -= f1 * v
				rowR2[c] -= f2 * v
				rowR3[c] -= f3 * v
			}
		}
		for ; r < r1; r++ {
			elimOne(r, col, pivot, rowC)
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below diagonal.
		p := col
		maxAbs := math.Abs(lu.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.Data[r*n+col]); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if p != col {
			swapRows(lu, p, col)
			perm[p], perm[col] = perm[col], perm[p]
		}
		pivot := lu.Data[col*n+col]
		rows := n - col - 1
		if rows == 0 {
			continue
		}
		rowC := lu.Data[col*n+col+1 : (col+1)*n]
		if w == 1 || rows < luParallelMinRows {
			elimQuad(col+1, n, col, pivot, rowC)
		} else {
			// One contiguous row span per worker (not one task per quad:
			// funneling ~rows/4 micro-tasks through the pool's counter
			// would cost more than the update itself near the gate). Each
			// span runs the fused kernel over disjoint rows and reads only
			// the frozen pivot row, fixed before the fan-out.
			spans := min(w, (rows+3)/4)
			parallel.For(workers, spans, func(g int) {
				lo := col + 1 + g*rows/spans
				hi := col + 1 + (g+1)*rows/spans
				elimQuad(lo, hi, col, pivot, rowC)
			})
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves A x = b for one right-hand side.
func (f *LU) Solve(b Vector) Vector {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: LU solve length %d, want %d", len(b), n))
	}
	x := NewVector(n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveMatrixWorkers solves A X = B column-wise, where B is n×m, with the
// independent right-hand-side columns distributed over the given worker
// count (≤ 0 = all cores). The columns are split into contiguous chunks,
// one scratch vector per chunk (not a shared buffer), and every column's
// substitution runs exactly as in the one-RHS Solve — so X is
// bit-identical at any worker count.
func (f *LU) SolveMatrixWorkers(b *Matrix, workers int) *Matrix {
	n := f.lu.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("linalg: LU SolveMatrixWorkers rows %d, want %d", b.Rows, n))
	}
	out := NewMatrix(n, b.Cols)
	chunks := parallel.Workers(workers)
	if chunks > b.Cols {
		chunks = b.Cols
	}
	parallel.For(workers, chunks, func(g int) {
		lo, hi := g*b.Cols/chunks, (g+1)*b.Cols/chunks
		col := NewVector(n) // per-chunk scratch, reused across its columns
		for c := lo; c < hi; c++ {
			for r := 0; r < n; r++ {
				col[r] = b.At(r, c)
			}
			x := f.Solve(col)
			for r := 0; r < n; r++ {
				out.Set(r, c, x[r])
			}
		}
	})
	return out
}
