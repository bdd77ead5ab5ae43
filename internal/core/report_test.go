package core

import (
	"math"
	"strings"
	"testing"

	"hydra/internal/linalg"
	"hydra/internal/platform"
)

func TestFeatureGroupReport(t *testing.T) {
	_, sys := buildSystem(t, 50, platform.EnglishPlatforms, 25)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(25))
	gws, err := FeatureGroupReport(sys, task, HydraM)
	if err != nil {
		t.Fatal(err)
	}
	if len(gws) < 5 {
		t.Fatalf("groups = %d", len(gws))
	}
	var totalShare float64
	seen := map[string]bool{}
	for _, g := range gws {
		if g.Weight < 0 || g.Share < 0 {
			t.Fatalf("negative weight: %+v", g)
		}
		if seen[g.Group] {
			t.Fatalf("duplicate group %s", g.Group)
		}
		seen[g.Group] = true
		totalShare += g.Share
	}
	if totalShare < 0.99 || totalShare > 1.01 {
		t.Fatalf("shares sum to %v", totalShare)
	}
	// Sorted descending by weight.
	for i := 1; i < len(gws); i++ {
		if gws[i].Weight > gws[i-1].Weight {
			t.Fatal("report not sorted")
		}
	}
	out := FormatGroupWeights(gws)
	if !strings.Contains(out, "group") || !strings.Contains(out, "%") {
		t.Fatalf("format output wrong:\n%s", out)
	}
}

func TestFeatureGroupReportNoLabels(t *testing.T) {
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, 26)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook,
		LabelOpts{LabelFraction: 0, Seed: 26})
	if _, err := FeatureGroupReport(sys, task, HydraZ); err == nil {
		t.Fatal("expected error without labels")
	}
}

// TestFeatureGroupReportSolvesRidge pins the report to its objective,
// min ‖Xw − y‖² + ‖w‖²: it rebuilds the labeled rows, solves the normal
// equations independently (XᵀX by matrix product, LU instead of the
// report's Cholesky) and requires every group weight to agree.
func TestFeatureGroupReportSolvesRidge(t *testing.T) {
	_, sys := buildSystem(t, 50, platform.EnglishPlatforms, 25)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(25))
	gws, err := FeatureGroupReport(sys, task, HydraM)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	var ys []float64
	for _, b := range task.Blocks {
		for _, ci := range b.SortedLabelIndices() {
			c := b.Cands[ci]
			x, err := sys.Impute(b.PA, c.A, b.PB, c.B, HydraM, 3)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, x)
			ys = append(ys, b.Labels[ci])
		}
	}
	x := linalg.NewMatrix(len(rows), len(rows[0]))
	xt := linalg.NewMatrix(len(rows[0]), len(rows))
	for i, row := range rows {
		for d, v := range row {
			x.Set(i, d, v)
			xt.Set(d, i, v)
		}
	}
	lu, err := linalg.FactorizeInPlaceWorkers(xt.MulWorkers(x, 1).AddDiag(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	w := lu.Solve(xt.MulVec(ys))
	want := map[string]float64{}
	for d, g := range sys.Pipe.FeatureGroups() {
		want[g] += math.Abs(w[d])
	}
	if len(gws) != len(want) {
		t.Fatalf("report has %d groups, want %d", len(gws), len(want))
	}
	for _, g := range gws {
		if math.Abs(g.Weight-want[g.Group]) > 1e-9*want[g.Group] {
			t.Errorf("group %s: weight %.12g, ridge solution %.12g", g.Group, g.Weight, want[g.Group])
		}
	}
}
