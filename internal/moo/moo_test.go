package moo

import (
	"math"
	"testing"
)

func TestEffectiveWeightsP1Identity(t *testing.T) {
	w := []float64{1, 0.5}
	vals := []float64{3, 7}
	eff, err := EffectiveWeights(w, vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	// p=1: gradient is constant; normalization restores the base weights.
	if math.Abs(eff[0]-1) > 1e-12 || math.Abs(eff[1]-0.5) > 1e-12 {
		t.Fatalf("eff = %v, want base weights", eff)
	}
}

func TestEffectiveWeightsAmplifyDominant(t *testing.T) {
	w := []float64{1, 1}
	// Objective 1 is currently much larger; with p>1 its effective weight
	// must grow relative to objective 0.
	vals := []float64{1, 10}
	eff, err := EffectiveWeights(w, vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eff[1] <= eff[0] {
		t.Fatalf("dominant objective not amplified: %v", eff)
	}
	ratio := eff[1] / eff[0]
	if math.Abs(ratio-100) > 1e-9 { // (10/1)^(p-1) = 100
		t.Fatalf("amplification ratio = %v, want 100", ratio)
	}
}

func TestEffectiveWeightsValidation(t *testing.T) {
	if _, err := EffectiveWeights([]float64{1}, []float64{1, 2}, 2); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := EffectiveWeights([]float64{1}, []float64{1}, 0); err == nil {
		t.Fatal("expected p error")
	}
}
