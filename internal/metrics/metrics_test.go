package metrics

import (
	"math"
	"testing"
)

func TestConfusionBasics(t *testing.T) {
	c := Confusion{TP: 3, FP: 1, FN: 2, TN: 4}
	if got := c.Precision(); got != 0.75 {
		t.Fatalf("Precision = %v", got)
	}
	if got := c.Recall(); got != 0.6 {
		t.Fatalf("Recall = %v", got)
	}
	wantF1 := 2 * 0.75 * 0.6 / (0.75 + 0.6)
	if math.Abs(c.F1()-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", c.F1(), wantF1)
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion should score 0 everywhere")
	}
}

func TestEvaluateLinkage(t *testing.T) {
	returned := []bool{true, true, false, false}
	truth := []bool{true, false, true, false}
	c, err := EvaluateLinkage(returned, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	// 1 in-candidate FN + 2 blocking misses.
	if c.FN != 3 {
		t.Fatalf("FN = %d, want 3", c.FN)
	}
}

func TestEvaluateLinkageValidation(t *testing.T) {
	if _, err := EvaluateLinkage([]bool{true}, []bool{true, false}, 0); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := EvaluateLinkage(nil, nil, -1); err == nil {
		t.Fatal("expected negative misses error")
	}
}

func TestTimer(t *testing.T) {
	tm := NewTimer()
	if tm.Seconds() < 0 {
		t.Fatal("negative elapsed time")
	}
	if tm.Elapsed() < 0 {
		t.Fatal("negative duration")
	}
}
