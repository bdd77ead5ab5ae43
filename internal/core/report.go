package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hydra/internal/linalg"
)

// GroupWeight is the share of linear-model weight mass carried by one
// feature group of the heterogeneous behavior model.
type GroupWeight struct {
	Group  string
	Weight float64 // Σ|w_d| over the group's dimensions
	Share  float64 // Weight / Σ Weight
}

// FeatureGroupReport fits the ridge model min ‖Xw − y‖² + ‖w‖² exactly on
// the task's labeled pairs and reports how the weight mass distributes
// over the feature groups (attr / face / username / topic / genre /
// sentiment / style / mr). It quantifies which behavioral modality
// carries the linkage signal on a given dataset — the diagnostic
// counterpart of the paper's attribute-importance learning.
func FeatureGroupReport(sys *System, task *Task, variant Variant) ([]GroupWeight, error) {
	var xs []linalg.Vector
	var ys []float64
	var pl imputePlan
	for _, b := range task.Blocks {
		idx := b.SortedLabelIndices()
		pairs := make([][2]int, len(idx))
		for i, ci := range idx {
			pairs[i] = [2]int{b.Cands[ci].A, b.Cands[ci].B}
			ys = append(ys, b.Labels[ci])
		}
		rows, err := sys.imputePairs(&pl, b.PA, b.PB, pairs, variant, 3, 1)
		if err != nil {
			return nil, err
		}
		xs = append(xs, rows...)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: FeatureGroupReport needs labeled pairs")
	}
	w, err := solveRidge(xs, ys, 1)
	if err != nil {
		return nil, err
	}
	groups := sys.Pipe.FeatureGroups()
	if len(groups) != len(w) {
		return nil, fmt.Errorf("core: weight dim %d != feature dim %d", len(w), len(groups))
	}
	acc := make(map[string]float64)
	var total float64
	for d, g := range groups {
		a := math.Abs(w[d])
		acc[g] += a
		total += a
	}
	out := make([]GroupWeight, 0, len(acc))
	for g, w := range acc {
		share := 0.0
		if total > 0 {
			share = w / total
		}
		out = append(out, GroupWeight{Group: g, Weight: w, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Group < out[j].Group
	})
	return out, nil
}

// solveRidge returns the exact minimizer of ‖Xw − y‖² + λ‖w‖². It
// accumulates the normal equations (XᵀX + λI)w = Xᵀy over the rows in
// ascending order and solves them by Cholesky, as the prescreen's ridge
// fit does.
func solveRidge(xs []linalg.Vector, ys []float64, lambda float64) (linalg.Vector, error) {
	dim := len(xs[0])
	gram := linalg.NewMatrix(dim, dim)
	rhs := linalg.NewVector(dim)
	for r, x := range xs {
		for i, xi := range x {
			rhs[i] += xi * ys[r]
			row := gram.Row(i)
			for j, xj := range x {
				row[j] += xi * xj
			}
		}
	}
	gram.AddDiag(lambda)
	chol, err := gram.Cholesky(0)
	if err != nil {
		return nil, fmt.Errorf("core: ridge solve: %w", err)
	}
	return linalg.SolveCholesky(chol, rhs), nil
}

// FormatGroupWeights renders the report as an aligned text table.
func FormatGroupWeights(gws []GroupWeight) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s\n", "group", "weight", "share")
	for _, g := range gws {
		fmt.Fprintf(&b, "%-12s %10.4f %7.1f%%\n", g.Group, g.Weight, 100*g.Share)
	}
	return b.String()
}
