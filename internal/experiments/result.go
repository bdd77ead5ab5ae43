// Package experiments reproduces the figures of the paper's evaluation
// (Section 7) and the design-choice ablations. Each driver builds its
// synthetic worlds from the dataset table (platform.Sets), lists its
// train/eval runs, and hands them to one sweep that fans them out and
// records the figure's series as printable rows. Figures is the one list
// of drivers: cmd/hydra-bench prints it and takes its -only keys from it
// (README "Figures and benchmarks").
package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Figures lists every driver in print order under the key that selects it.
var Figures = []struct {
	Key string
	Run func(Config) (*Result, error)
}{
	{"fig2a", Figure2a},
	{"fig8", Figure8},
	{"fig9", Figure9},
	{"fig10", Figure10},
	{"fig11", Figure11},
	{"fig12", Figure12},
	{"fig13", Figure13},
	{"fig14", Figure14},
	{"fig15", Figure15},
	{"ablations", Ablations},
}

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
	s := r.SeriesByName(series)
	if s == nil {
		s = &Series{Name: series}
		r.Series = append(r.Series, s)
	}
	s.X = append(s.X, x)
	s.Precision = append(s.Precision, precision)
	s.Recall = append(s.Recall, recall)
	s.TimeSec = append(s.TimeSec, timeSec)
}

// SeriesByName returns the named series, or nil.
func (r *Result) SeriesByName(name string) *Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
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
	series := slices.Clone(r.Series)
	slices.SortFunc(series, func(a, b *Series) int { return strings.Compare(a.Name, b.Name) })
	for _, s := range series {
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
