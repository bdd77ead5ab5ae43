package svm

import (
	"math/rand"
	"testing"

	"hydra/internal/kernel"
	"hydra/internal/linalg"
)

// gaussianBlobs builds a two-class problem with the given separation.
func gaussianBlobs(n int, sep float64, seed int64) ([]linalg.Vector, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]linalg.Vector, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 1.0
		if i%2 == 1 {
			s = -1.0
		}
		xs[i] = linalg.Vector{s*sep + rng.NormFloat64(), s*sep + rng.NormFloat64()}
		ys[i] = s
	}
	return xs, ys
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, kernel.Linear{}, Opts{}); err == nil {
		t.Fatal("expected error on empty set")
	}
	xs := []linalg.Vector{{1}, {2}}
	if _, err := Train(xs, []float64{1}, kernel.Linear{}, Opts{}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := Train(xs, []float64{1, 0.5}, kernel.Linear{}, Opts{}); err == nil {
		t.Fatal("expected error on bad label")
	}
	if _, err := Train(xs, []float64{1, 1}, kernel.Linear{}, Opts{}); err == nil {
		t.Fatal("expected error on single-class input")
	}
}

func TestTrainLinearSeparable(t *testing.T) {
	xs, ys := gaussianBlobs(60, 3, 1)
	m, err := Train(xs, ys, kernel.Linear{}, Opts{C: 10, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range xs {
		if (m.Decision(xs[i]) >= 0) == (ys[i] > 0) {
			correct++
		}
	}
	if float64(correct)/float64(len(xs)) < 0.97 {
		t.Fatalf("training accuracy %d/%d", correct, len(xs))
	}
	if len(m.svX) == 0 || len(m.svX) == len(xs) {
		t.Fatalf("suspicious SV count %d", len(m.svX))
	}
}

func TestTrainRBFNonlinear(t *testing.T) {
	// XOR-ish: class by sign of x*y — not linearly separable.
	rng := rand.New(rand.NewSource(2))
	var xs []linalg.Vector
	var ys []float64
	for i := 0; i < 120; i++ {
		x := linalg.Vector{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		y := 1.0
		if x[0]*x[1] < 0 {
			y = -1.0
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	m, err := Train(xs, ys, kernel.NewRBF(1), Opts{C: 10, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range xs {
		if (m.Decision(xs[i]) >= 0) == (ys[i] > 0) {
			correct++
		}
	}
	if float64(correct)/float64(len(xs)) < 0.9 {
		t.Fatalf("RBF training accuracy %d/%d", correct, len(xs))
	}
}

func TestGeneralization(t *testing.T) {
	xs, ys := gaussianBlobs(80, 2.5, 3)
	m, err := Train(xs, ys, kernel.Linear{}, Opts{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := gaussianBlobs(200, 2.5, 99)
	correct := 0
	for i := range testX {
		if (m.Decision(testX[i]) >= 0) == (testY[i] > 0) {
			correct++
		}
	}
	if float64(correct)/float64(len(testX)) < 0.95 {
		t.Fatalf("test accuracy %d/%d", correct, len(testX))
	}
}

func TestMarginSVsOnly(t *testing.T) {
	// With a wide margin and small C, only boundary points become SVs.
	xs, ys := gaussianBlobs(100, 4, 5)
	m, err := Train(xs, ys, kernel.Linear{}, Opts{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.svX) > len(xs)/2 {
		t.Fatalf("too many SVs for wide-margin problem: %d", len(m.svX))
	}
}
