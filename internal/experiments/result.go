// Package experiments contains one driver per figure of the paper's
// evaluation (Section 7): each builds the required synthetic workload, runs
// HYDRA and the baselines, and emits the figure's series as printable rows.
// cmd/hydra-bench maps each driver to its -only name (README "Figures and
// benchmarks").
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Series is one curve of a figure: a method (or setting) with its values at
// each x.
type Series struct {
	Name      string
	X         []float64
	Precision []float64
	Recall    []float64
	TimeSec   []float64
}

// Result is one reproduced figure.
type Result struct {
	Figure string // e.g. "Figure 9"
	Title  string
	XLabel string
	Series []*Series
	Notes  []string
}

// AddPoint appends a measurement to the named series, creating it on first
// use.
func (r *Result) AddPoint(series string, x, precision, recall, timeSec float64) {
	for _, s := range r.Series {
		if s.Name == series {
			s.X = append(s.X, x)
			s.Precision = append(s.Precision, precision)
			s.Recall = append(s.Recall, recall)
			s.TimeSec = append(s.TimeSec, timeSec)
			return
		}
	}
	r.Series = append(r.Series, &Series{
		Name:      series,
		X:         []float64{x},
		Precision: []float64{precision},
		Recall:    []float64{recall},
		TimeSec:   []float64{timeSec},
	})
}

// Note records a free-form annotation printed with the figure.
func (r *Result) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the figure as a text table, one row per (series, x).
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Figure, r.Title)
	fmt.Fprintf(&b, "%-28s %12s %10s %10s %10s\n", "series", r.XLabel, "precision", "recall", "time(s)")
	names := make([]string, 0, len(r.Series))
	for _, s := range r.Series {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		var s *Series
		for _, cand := range r.Series {
			if cand.Name == name {
				s = cand
				break
			}
		}
		for i := range s.X {
			fmt.Fprintf(&b, "%-28s %12.4g %10.3f %10.3f %10.3f\n",
				s.Name, s.X[i], s.Precision[i], s.Recall[i], s.TimeSec[i])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
