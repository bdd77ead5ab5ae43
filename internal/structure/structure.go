// Package structure builds HYDRA's structure-consistency graph (paper
// Section 6.2): the sparse second-order affinity matrix M over candidate
// account pairs, whose diagonal encodes individual behavior similarity and
// whose off-diagonal entries encode cross-platform social-structure
// agreement (Eqn 9), plus the agreement-cluster relaxation solved by the
// principal eigenvector.
package structure

import (
	"fmt"
	"math"

	"hydra/internal/graph"
	"hydra/internal/linalg"
)

// Candidate is a candidate matching a = (i, i′): account i on platform S
// and account i′ on platform S′ (local graph node ids).
type Candidate struct {
	A, B int
}

// Config parameterizes the affinity construction.
type Config struct {
	// Sigma1 is the behavior-similarity bandwidth σ₁ of Eqn 9.
	Sigma1 float64
	// Sigma2 is the structure-sensitivity bandwidth σ₂ of Eqn 9.
	Sigma2 float64
	// MaxHops caps the n-hop distance search; pairs farther apart on
	// either platform contribute no affinity (this is what makes M sparse:
	// the paper reports <1% density).
	MaxHops int
}

// Build constructs the structure-consistency matrix M over the candidate
// list. embA[i] / embB[i′] are the per-account behavior embeddings x_i used
// in the Gaussian affinities; gA and gB are the two platforms' interaction
// graphs.
//
//	M(a,a) = exp(−‖x_i − x_i′‖² / σ₁²)
//	M(a,b) = exp(−(‖x_i − x_i′‖² + ‖x_j − x_j′‖²) / (2σ₁²)) ·
//	         (1 − (d_ij − d_i′j′)² / σ₂²),   clamped at 0,
//
// with d_ij = (k_ij + 1)² and k_ij the intermediate-user count (BFS hops).
func Build(cands []Candidate, embA, embB []linalg.Vector, gA, gB *graph.Graph, cfg Config) (*linalg.Sparse, error) {
	n := len(cands)
	if n == 0 {
		return nil, fmt.Errorf("structure: no candidates")
	}
	if cfg.Sigma1 <= 0 || cfg.Sigma2 <= 0 {
		return nil, fmt.Errorf("structure: bandwidths must be positive (σ1=%g, σ2=%g)", cfg.Sigma1, cfg.Sigma2)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 2
	}
	// selfDist[a] = ‖x_i − x_i′‖² for candidate a.
	selfDist := make([]float64, n)
	for a, c := range cands {
		selfDist[a] = linalg.SqDist(embA[c.A], embB[c.B])
	}
	// Index candidates by A-side node for neighborhood joins, and run one
	// bounded BFS per distinct account on each side: a candidate pair's
	// hop counts are then two map reads, however many candidates share
	// an account.
	byA := make(map[int][]int)
	hopsA := make(map[int]map[int]int)
	hopsB := make(map[int]map[int]int)
	for idx, c := range cands {
		byA[c.A] = append(byA[c.A], idx)
		if _, ok := hopsA[c.A]; !ok {
			hopsA[c.A] = gA.Hops(c.A, cfg.MaxHops)
		}
		if _, ok := hopsB[c.B]; !ok {
			hopsB[c.B] = gB.Hops(c.B, cfg.MaxHops)
		}
	}

	b := linalg.NewSparseBuilder(n, n)
	s1sq := cfg.Sigma1 * cfg.Sigma1
	s2sq := cfg.Sigma2 * cfg.Sigma2
	for a, ca := range cands {
		b.Set(a, a, expNeg(selfDist[a]/s1sq))
		// Off-diagonal: only candidates whose A-side nodes are within
		// MaxHops of ca.A can agree structurally.
		nbrsB := hopsB[ca.B]
		for j, kij := range hopsA[ca.A] {
			for _, bIdx := range byA[j] {
				if bIdx <= a {
					continue // fill upper triangle, mirror below
				}
				cb := cands[bIdx]
				// Conflicting assignments — two candidates claiming the
				// same account on either side — are mutually exclusive
				// matchings and get zero affinity (the mapping constraint
				// the relaxation would otherwise leak through).
				if cb.A == ca.A || cb.B == ca.B {
					continue
				}
				kb, ok := nbrsB[cb.B]
				if !ok {
					continue
				}
				dij := float64(kij+1) * float64(kij+1)
				dipjp := float64(kb+1) * float64(kb+1)
				diff := dij - dipjp
				structTerm := 1 - diff*diff/s2sq
				if structTerm <= 0 {
					continue // inconsistency too large: M(a,b)=0
				}
				behav := expNeg((selfDist[a] + selfDist[bIdx]) / (2 * s1sq))
				v := behav * structTerm
				if v <= 0 {
					continue
				}
				b.Set(a, bIdx, v)
				b.Set(bIdx, a, v)
			}
		}
	}
	return b.Build(), nil
}

func expNeg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}

// AgreementCluster relaxes the correspondence problem max yᵀMy to the
// principal eigenvector of M (Raleigh quotient, Section 6.2) and returns
// the relaxed indicator scores in [0,1] (normalized to max 1).
func AgreementCluster(m *linalg.Sparse, seed int64) (linalg.Vector, error) {
	_, v, err := linalg.PowerIteration(m, m.RowsN, linalg.PowerIterOpts{Seed: seed})
	if err != nil {
		return nil, err
	}
	// Normalize to [0,1] by the max entry; negative ripple is clamped.
	maxV, _ := v.Max()
	if maxV <= 0 {
		return linalg.NewVector(len(v)), nil
	}
	out := v.Clone().Scale(1 / maxV)
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out, nil
}

// Laplacian returns D − M as a dense matrix (for the dual assembly) where
// D = diag(row sums of M).
func Laplacian(m *linalg.Sparse) *linalg.Matrix {
	d := m.RowSums()
	out := m.Dense().ScaleInPlace(-1)
	for i := 0; i < out.Rows; i++ {
		out.Addf(i, i, d[i])
	}
	return out
}
