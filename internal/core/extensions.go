package core

import (
	"fmt"
	"sort"
)

// This file holds the one extension beyond the paper's Algorithm 1:
// TuneThreshold, validation-style decision-threshold selection (the paper
// tunes all parameters on a validation set).

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
