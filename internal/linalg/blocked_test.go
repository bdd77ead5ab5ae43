package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the determinism contract of the blocked
// kernels: at every worker count the results must be bit-for-bit equal to
// one worker AND to the pre-tiling reference loops (same per-element
// accumulation order). Run them under -race via `make race` — they match
// the Determinism|Concurrent|Workers pattern.

// naiveMul is the pre-tiling Matrix.Mul (row sweep with the a==0 skip),
// kept as the bit-exact reference and the benchmark baseline.
func naiveMul(m, n *Matrix) *Matrix {
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			nrow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, b := range nrow {
				orow[j] += a * b
			}
		}
	}
	return out
}

// naiveFactorize is the pre-parallel LU (column loop with serial trailing
// update), the bit-exact reference and benchmark baseline.
func naiveFactorize(a *Matrix) (*LU, error) {
	n := a.Rows
	lu := a.Clone()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > maxAbs {
				maxAbs, p = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		if p != col {
			swapRows(lu, p, col)
			perm[p], perm[col] = perm[col], perm[p]
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivot
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR := lu.Data[r*n : (r+1)*n]
			rowC := lu.Data[col*n : (col+1)*n]
			for c := col + 1; c < n; c++ {
				rowR[c] -= f * rowC[c]
			}
		}
	}
	return &LU{lu: lu, perm: perm}, nil
}

// rndMatrix fills a rows×cols matrix with Gaussians, zeroing ~10% of the
// entries so the a==0 skip path is exercised.
func rndMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Intn(10) == 0 {
			continue
		}
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func sameMatrix(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: bit mismatch at flat index %d: %v vs %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// Odd, tile-straddling shapes on purpose: every boundary case of the
// 8×128×128 tiling (partial row block, partial k tile, partial j tile).
func TestMulWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := rndMatrix(rng, 137, 201)
	b := rndMatrix(rng, 201, 149)
	ref := naiveMul(a, b)
	for _, w := range []int{1, 2, 3, 8} {
		sameMatrix(t, "MulWorkers", a.MulWorkers(b, w), ref)
	}
}

func TestMulVecWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := rndMatrix(rng, 157, 93)
	v := randVec(rng, 93)
	ref := m.MulVec(v)
	for _, w := range []int{2, 8} {
		got := m.MulVecWorkers(v, w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("MulVecWorkers(%d)[%d] = %v, want %v", w, i, got[i], ref[i])
			}
		}
	}
}

// n=200 exceeds luParallelMinRows, so the first hundred columns of the
// 8-worker run genuinely fan out.
func TestFactorizeWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := rndMatrix(rng, 200, 200)
	ref, err := naiveFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		got, err := FactorizeInPlaceWorkers(a.Clone(), w)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, "FactorizeInPlaceWorkers factors", got.lu, ref.lu)
		for i := range ref.perm {
			if got.perm[i] != ref.perm[i] {
				t.Fatalf("perm[%d] = %d, want %d", i, got.perm[i], ref.perm[i])
			}
		}
	}
	// The factors overwrite the (scratch) input.
	scratch := a.Clone()
	inPlace, err := FactorizeInPlaceWorkers(scratch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if inPlace.lu != scratch {
		t.Fatal("FactorizeInPlaceWorkers did not factor in place")
	}

	// The parallel factors still solve: A·x recovered bit-exactly across
	// worker counts and accurately vs the known x.
	x := randVec(rng, 200)
	rhs := a.MulVec(x)
	if got := inPlace.Solve(rhs); math.Sqrt(SqDist(got, x)) > 1e-6 {
		t.Fatalf("parallel-factor solve residual too large: %v", math.Sqrt(SqDist(got, x)))
	}
}

func TestSolveMatrixWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n, nrhs := 150, 37
	a := rndMatrix(rng, n, n).AddDiag(6) // keep well-conditioned
	b := rndMatrix(rng, n, nrhs)
	f, err := FactorizeInPlaceWorkers(a.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.SolveMatrixWorkers(b, 1)
	for _, w := range []int{2, 5, 8} {
		sameMatrix(t, "SolveMatrixWorkers", f.SolveMatrixWorkers(b, w), ref)
	}
	// Column c of the multi-RHS solve must equal the one-RHS solve.
	col := NewVector(n)
	for r := 0; r < n; r++ {
		col[r] = b.At(r, 17)
	}
	x := f.Solve(col)
	for r := 0; r < n; r++ {
		if ref.At(r, 17) != x[r] {
			t.Fatalf("SolveMatrix col 17 row %d: %v vs Solve %v", r, ref.At(r, 17), x[r])
		}
	}
}
