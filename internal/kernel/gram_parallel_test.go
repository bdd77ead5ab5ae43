package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"hydra/internal/linalg"
)

// crossGram is CrossGramInto into a fresh matrix.
func crossGram(k Func, as, bs []linalg.Vector, workers int) *linalg.Matrix {
	m := linalg.NewMatrix(len(as), len(bs))
	CrossGramInto(k, as, bs, m, workers)
	return m
}

// randomVectors builds a deterministic sample set for the parallel tests.
func randomVectors(n, dim int, seed int64) []linalg.Vector {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]linalg.Vector, n)
	for i := range xs {
		v := linalg.NewVector(dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		xs[i] = v
	}
	return xs
}

// TestGramWorkersDeterminism asserts the tentpole contract: the Gram matrix
// is bit-for-bit identical at one worker and at many.
func TestGramWorkersDeterminism(t *testing.T) {
	xs := randomVectors(80, 24, 11)
	for _, k := range []Func{Linear{}, NewRBF(1.3), NewChiSquare(0.7)} {
		seq := GramWorkers(k, xs, 1)
		for _, w := range []int{2, 4, 0} {
			par := GramWorkers(k, xs, w)
			if seq.Rows != par.Rows || seq.Cols != par.Cols {
				t.Fatalf("%s workers=%d: shape %dx%d vs %dx%d", k.Name(), w, par.Rows, par.Cols, seq.Rows, seq.Cols)
			}
			for i := range seq.Data {
				if seq.Data[i] != par.Data[i] {
					t.Fatalf("%s workers=%d: element %d differs: %v vs %v", k.Name(), w, i, par.Data[i], seq.Data[i])
				}
			}
		}
	}
}

func TestGramSymmetric(t *testing.T) {
	xs := randomVectors(40, 8, 3)
	m := GramWorkers(NewRBF(2), xs, 0)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// TestCrossGramWorkersDeterminism covers the rectangular variant.
func TestCrossGramWorkersDeterminism(t *testing.T) {
	as := randomVectors(55, 16, 5)
	bs := randomVectors(70, 16, 6)
	k := NewRBF(0.9)
	seq := crossGram(k, as, bs, 1)
	for _, w := range []int{3, 8, 0} {
		par := crossGram(k, as, bs, w)
		for i := range seq.Data {
			if seq.Data[i] != par.Data[i] {
				t.Fatalf("workers=%d: element %d differs", w, i)
			}
		}
	}
}

// BenchmarkGramParallel measures the Gram hot path; run with -cpu 1,4 to
// see the worker-pool speedup (workers resolve to GOMAXPROCS).
func BenchmarkGramParallel(b *testing.B) {
	xs := randomVectors(400, 64, 7)
	k := NewRBF(1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramWorkers(k, xs, 0)
	}
}

// BenchmarkGramSequential is the pinned one-worker baseline for comparing
// against BenchmarkGramParallel at any -cpu setting.
func BenchmarkGramSequential(b *testing.B) {
	xs := randomVectors(400, 64, 7)
	k := NewRBF(1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GramWorkers(k, xs, 1)
	}
}

// TestCacheConcurrentRows hammers the row cache from many goroutines (run
// with -race via `make race`): every caller must observe the exact kernel
// values, all callers of a row must share one backing slice, and the
// row must match direct evaluation bit for bit.
func TestCacheConcurrentRows(t *testing.T) {
	xs := randomVectors(24, 6, 41)
	k := NewRBF(1.3)
	c := NewCache(k, xs)
	const goroutines, iters = 8, 100
	rowsSeen := make([][]linalg.Vector, goroutines)
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			seen := make([]linalg.Vector, len(xs))
			for it := 0; it < iters; it++ {
				i := (g*7 + it*3) % len(xs)
				r := c.Row(i)
				if len(r) != len(xs) {
					done <- fmt.Errorf("row %d has length %d", i, len(r))
					return
				}
				if r[i] != 1 { // RBF diagonal
					done <- fmt.Errorf("row %d diagonal = %v", i, r[i])
					return
				}
				seen[i] = r
			}
			rowsSeen[g] = seen
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All goroutines must share the stored slice (first write wins).
	for i := range xs {
		var first linalg.Vector
		for g := range rowsSeen {
			r := rowsSeen[g][i]
			if r == nil {
				continue
			}
			if first == nil {
				first = r
			} else if &first[0] != &r[0] {
				t.Fatalf("row %d has two distinct backing arrays", i)
			}
		}
	}
	// Values must match direct evaluation bit-for-bit.
	for i := range xs {
		r := c.Row(i)
		for j := range xs {
			if want := k.Eval(xs[i], xs[j]); r[j] != want {
				t.Fatalf("cache[%d][%d] = %v, want %v", i, j, r[j], want)
			}
		}
	}
}

// TestCrossGramIntoWorkersDeterminism asserts the into-variant behind the
// serving fast path writes the same bits into a reused matrix as into a
// fresh one at any worker count, that a reused output matrix is fully overwritten, and
// that the warm single-worker path allocates nothing.
func TestCrossGramIntoWorkersDeterminism(t *testing.T) {
	as := randomVectors(23, 17, 7)
	bs := randomVectors(9, 17, 8)
	for _, k := range []Func{Linear{}, NewRBF(0.9)} {
		want := crossGram(k, as, bs, 1)
		out := linalg.NewMatrix(len(as), len(bs))
		for pass := 0; pass < 2; pass++ { // second pass overwrites stale contents
			for _, w := range []int{1, 2, 4, 0} {
				for i := range out.Data {
					out.Data[i] = -12345
				}
				CrossGramInto(k, as, bs, out, w)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						t.Fatalf("%s workers=%d: element %d differs: %v vs %v", k.Name(), w, i, out.Data[i], want.Data[i])
					}
				}
			}
		}
		if avg := testing.AllocsPerRun(50, func() { CrossGramInto(k, as, bs, out, 1) }); avg > 0 {
			t.Fatalf("%s: CrossGramInto at one worker allocates %.2f times/op, want 0", k.Name(), avg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a shape-mismatched output matrix")
		}
	}()
	CrossGramInto(Linear{}, as, bs, linalg.NewMatrix(1, 1), 1)
}
