package core

import (
	"fmt"
	"sort"

	"hydra/internal/admm"
	"hydra/internal/linalg"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// This file contains extensions beyond the paper's Algorithm 1 that fall
// out of its own machinery:
//
//   - LinearLinker: the primal linear model fitted by consensus ADMM over
//     data shards — the "distributed convex optimization [3] ... on several
//     servers in parallel" path of Section 6.3, for scales where the dense
//     dual would not fit;
//   - TuneThreshold: validation-style decision-threshold selection (the
//     paper tunes all parameters on a validation set).

// LinearModel is a primal linear linkage function w·x + b over imputed
// feature vectors.
type LinearModel struct {
	W    linalg.Vector
	B    float64
	Diag admm.Result
}

// LinearLinker fits the linear model with consensus ADMM across Shards
// simulated servers: each shard holds a slice of the labeled pairs and
// solves its regularized least-squares subproblem concurrently; the
// consensus variable is the shared w.
type LinearLinker struct {
	// Shards is the simulated server count (paper: 5).
	Shards int
	// Lambda is the l2 regularization.
	Lambda float64
	// Variant controls imputation, as in Config.
	Variant    Variant
	TopFriends int
	// Workers pins the parallelism of the labeled-pair imputation and the
	// per-shard ADMM solves (≤ 0 = all cores; results are identical at any
	// worker count, as everywhere else).
	Workers int

	model *LinearModel
	sys   *System
}

// Name implements Linker.
func (l *LinearLinker) Name() string { return fmt.Sprintf("HYDRA-lin(admm×%d)", l.shards()) }

func (l *LinearLinker) shards() int {
	if l.Shards <= 0 {
		return 5
	}
	return l.Shards
}

// Fit implements Linker: least-squares fit of labels ±1 on the labeled
// candidates, distributed over the shards.
func (l *LinearLinker) Fit(sys *System, task *Task) error {
	l.sys = sys
	lambda := l.Lambda
	if lambda <= 0 {
		lambda = 1
	}
	// Collect the labeled candidates in task order, then impute their
	// feature vectors in parallel (each job writes its own index slot).
	type labeledJob struct {
		b  *Block
		ci int
	}
	var jobs []labeledJob
	for _, b := range task.Blocks {
		for _, ci := range b.SortedLabelIndices() {
			jobs = append(jobs, labeledJob{b: b, ci: ci})
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("core: LinearLinker has no labeled pairs")
	}
	xs, err := parallel.MapErr(l.Workers, len(jobs), func(i int) (linalg.Vector, error) {
		j := jobs[i]
		c := j.b.Cands[j.ci]
		x, err := sys.Impute(j.b.PA, c.A, j.b.PB, c.B, l.Variant, l.TopFriends)
		if err != nil {
			return nil, err
		}
		// Homogeneous coordinate for the bias term.
		return append(x.Clone(), 1), nil
	})
	if err != nil {
		return err
	}
	ys := make([]float64, len(jobs))
	for i, j := range jobs {
		ys[i] = j.b.Labels[j.ci]
	}
	dim := len(xs[0])
	shards, err := admm.Split(xs, ys, l.shards())
	if err != nil {
		return err
	}
	res, err := admm.Solve(shards, dim, admm.Opts{Lambda: lambda, Rho: 2, MaxIter: 300, Tol: 1e-7, Workers: l.Workers})
	if err != nil {
		return err
	}
	l.model = &LinearModel{W: res.W[:dim-1], B: res.W[dim-1], Diag: *res}
	return nil
}

// PairScore implements Linker.
func (l *LinearLinker) PairScore(pa platform.ID, a int, pb platform.ID, b int) (float64, error) {
	if l.model == nil {
		return 0, fmt.Errorf("core: LinearLinker not fitted")
	}
	x, err := l.sys.Impute(pa, a, pb, b, l.Variant, l.TopFriends)
	if err != nil {
		return 0, err
	}
	return l.model.W.Dot(x) + l.model.B, nil
}

// Model exposes the fitted linear model (nil before Fit).
func (l *LinearLinker) Model() *LinearModel { return l.model }

// TuneThreshold scans decision thresholds over the labeled candidates of
// the task and returns the one maximizing F1 — the validation-set tuning
// step of the paper's Section 7.1. The returned threshold should be
// subtracted from raw scores (link when score > threshold).
func TuneThreshold(sys *System, l Linker, task *Task) (float64, error) {
	type scored struct {
		s float64
		y bool
	}
	var data []scored
	for _, b := range task.Blocks {
		for _, ci := range b.SortedLabelIndices() {
			c := b.Cands[ci]
			s, err := l.PairScore(b.PA, c.A, b.PB, c.B)
			if err != nil {
				return 0, err
			}
			data = append(data, scored{s: s, y: b.Labels[ci] > 0})
		}
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("core: TuneThreshold needs labeled pairs")
	}
	sort.Slice(data, func(i, j int) bool { return data[i].s > data[j].s })
	totalPos := 0
	for _, d := range data {
		if d.y {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0, fmt.Errorf("core: TuneThreshold needs positive labels")
	}
	bestF1, bestThr := -1.0, 0.0
	tp, fp := 0, 0
	for i, d := range data {
		if d.y {
			tp++
		} else {
			fp++
		}
		if i+1 < len(data) && data[i+1].s == d.s {
			continue
		}
		prec := float64(tp) / float64(tp+fp)
		rec := float64(tp) / float64(totalPos)
		if prec+rec == 0 {
			continue
		}
		f1 := 2 * prec * rec / (prec + rec)
		if f1 > bestF1 {
			bestF1 = f1
			// Place the threshold midway to the next score.
			if i+1 < len(data) {
				bestThr = (d.s + data[i+1].s) / 2
			} else {
				bestThr = d.s - 1e-9
			}
		}
	}
	return bestThr, nil
}
