package features

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hydra/internal/platform"
)

func TestExplain(t *testing.T) {
	w, p := worldAndPipeline(t, 20, 41)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	pv := p.Pair(p.BuildView(tw.Accounts[0]), p.BuildView(fb.Accounts[0]))
	cs, err := p.Explain(pv)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != p.Dim() {
		t.Fatalf("contributions = %d, want %d", len(cs), p.Dim())
	}
	for i, c := range cs {
		if c.Name != p.names[i] || c.Group != p.FeatureGroups()[i] {
			t.Fatal("name/group misaligned")
		}
		if c.Value != pv.X[i] || c.Observed != pv.Mask[i] {
			t.Fatal("value/mask misaligned")
		}
	}
	out := FormatContributions(cs)
	if !strings.Contains(out, "feature") {
		t.Fatal("format header missing")
	}
	// Missing features must be marked.
	anyMissing := false
	for _, c := range cs {
		if !c.Observed {
			anyMissing = true
		}
	}
	if anyMissing && !strings.Contains(out, "MISSING") {
		t.Fatal("missing marker absent")
	}
}

func TestExplainDimMismatch(t *testing.T) {
	_, p := worldAndPipeline(t, 10, 43)
	if _, err := p.Explain(PairVector{X: make([]float64, 3), Mask: make([]bool, 3)}); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

// Property: the pair vector is symmetric — Pair(a,b) equals Pair(b,a) in
// every dimension and mask bit. All component similarities are symmetric
// functions, so asymmetry would indicate an assembly bug.
func TestPairSymmetryProperty(t *testing.T) {
	w, p := worldAndPipeline(t, 24, 47)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	for trial := 0; trial < 12; trial++ {
		a := (trial * 7) % 24
		b := (trial * 5) % 24
		va := p.BuildView(tw.Accounts[a])
		vb := p.BuildView(fb.Accounts[b])
		ab := p.Pair(va, vb)
		ba := p.Pair(vb, va)
		for d := range ab.X {
			if ab.Mask[d] != ba.Mask[d] {
				t.Fatalf("mask asymmetry at %s for pair (%d,%d)", p.names[d], a, b)
			}
			if math.Abs(ab.X[d]-ba.X[d]) > 1e-9 {
				t.Fatalf("value asymmetry at %s: %v vs %v", p.names[d], ab.X[d], ba.X[d])
			}
		}
	}
}

func TestHistogramIntersectionPipeline(t *testing.T) {
	// The ablation kernel path must produce a working pipeline too.
	w, _ := worldAndPipeline(t, 16, 49)
	cfg := DefaultConfig(49)
	cfg.LDAIterations = 10
	cfg.MaxLDADocs = 500
	cfg.UseHistogramIntersection = true
	p, err := NewPipeline(w.Dataset, nil, Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	pv := p.Pair(p.BuildView(tw.Accounts[1]), p.BuildView(fb.Accounts[1]))
	if !slices.Contains(pv.Mask, true) {
		t.Fatal("hist-intersect pipeline produced nothing")
	}
}
