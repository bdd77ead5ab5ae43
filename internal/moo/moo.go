// Package moo implements the multi-objective optimization scaffolding of
// the paper's Section 6.3: the iterative reweighting that reduces the
// weighted exponential-sum utility U = Σ_k w_k · F_k^p (Eqn 11) to a
// sequence of weighted-sum (p=1) problems — the mechanism by which larger
// p "imposes greater uniqueness on the dominant objective function"
// (Section 6.4).
package moo

import (
	"fmt"
	"math"
)

// EffectiveWeights linearizes the p-power utility at the current objective
// values: ∂U/∂F_k = p · w_k · F_k^(p−1). Minimizing the weighted sum with
// these effective weights is the first-order surrogate of minimizing U —
// the standard reduction used to solve exponential-sum scalarizations by
// iterated weighted-sum solves. The returned weights are normalized so the
// first stays at its base value (keeping γ_L's scale fixed while γ_M is
// adapted, matching the paper's parameterization w(1)=1, w(k)=γ_M).
func EffectiveWeights(weights, values []float64, p float64) ([]float64, error) {
	if len(weights) != len(values) {
		return nil, fmt.Errorf("moo: %d weights but %d values", len(weights), len(values))
	}
	if p < 1 {
		return nil, fmt.Errorf("moo: exponent p must be ≥ 1, got %g", p)
	}
	out := make([]float64, len(weights))
	for k := range weights {
		v := values[k]
		if v <= 0 {
			v = 1e-12
		}
		out[k] = p * weights[k] * math.Pow(v, p-1)
	}
	// Normalize by the first gradient so weight 0 keeps its base value.
	if out[0] > 0 {
		scale := weights[0] / out[0]
		for k := range out {
			out[k] *= scale
		}
	}
	return out, nil
}
