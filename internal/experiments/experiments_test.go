package experiments

import (
	"strings"
	"testing"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// smallCfg keeps experiment tests fast.
func smallCfg() Config { return Config{Scale: 0.5, Seed: 7} }

func TestResultAddPointAndFormat(t *testing.T) {
	r := &Result{Figure: "Figure X", Title: "test", XLabel: "x"}
	r.AddPoint("a", 1, 0.9, 0.8, 0.1)
	r.AddPoint("a", 2, 0.95, 0.85, 0.2)
	r.AddPoint("b", 1, 0.5, 0.4, 0.05)
	r.Note("note %d", 42)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	s := r.SeriesByName("a")
	if s == nil || len(s.X) != 2 {
		t.Fatal("series a wrong")
	}
	if r.SeriesByName("zzz") != nil {
		t.Fatal("unknown series should be nil")
	}
	out := r.Format()
	for _, want := range []string{"Figure X", "precision", "note 42", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if f1 := s.MeanF1(); f1 <= 0.8 || f1 > 1 {
		t.Fatalf("MeanF1 = %v", f1)
	}
	var nilS *Series
	if nilS.MeanF1() != 0 {
		t.Fatal("nil series MeanF1 should be 0")
	}
}

func TestFigure2a(t *testing.T) {
	res, err := Figure2a(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no combinations")
	}
	// Each combination is one point: x missing attributes, precision the
	// share of users.
	var total, atLeast2 float64
	for _, s := range res.Series {
		if len(s.X) != 1 {
			t.Fatalf("combination %q has %d points", s.Name, len(s.X))
		}
		total += s.Precision[0]
		if s.X[0] >= 2 {
			atLeast2 += s.Precision[0]
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	// The paper's regime: most users missing at least two attributes.
	if atLeast2 < 0.6 {
		t.Fatalf("missing≥2 = %v, want the paper's ≥2 regime", atLeast2)
	}
	if len(res.Notes) != 2 {
		t.Fatalf("notes = %v", res.Notes)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := res.SeriesByName("HYDRA-M")
	if s == nil || len(s.X) != 10 {
		t.Fatalf("p sweep incomplete: %+v", s)
	}
	// The model must stay functional across all p.
	if s.MeanF1() < 0.3 {
		t.Fatalf("mean F1 over p = %v", s.MeanF1())
	}
}

func TestFigure15Shape(t *testing.T) {
	res, err := Figure15(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"english", "chinese"} {
		m := res.SeriesByName(ds + "/HYDRA-M")
		z := res.SeriesByName(ds + "/HYDRA-Z")
		if m == nil || z == nil {
			t.Fatalf("missing series for %s", ds)
		}
		// Paper shape: HYDRA-M at least matches HYDRA-Z.
		if m.MeanF1() < z.MeanF1()-0.05 {
			t.Fatalf("%s: HYDRA-M (%v) materially below HYDRA-Z (%v)", ds, m.MeanF1(), z.MeanF1())
		}
	}
}

func TestAblationStructureShape(t *testing.T) {
	res, err := AblationStructure(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	with := res.SeriesByName("with-structure")
	without := res.SeriesByName("no-structure")
	if with == nil || without == nil {
		t.Fatal("missing ablation series")
	}
	// At the smallest label budget structure must not hurt.
	if with.Recall[0] < without.Recall[0]-0.1 {
		t.Fatalf("structure hurt the low-label regime: %v vs %v", with.Recall[0], without.Recall[0])
	}
}

func TestSubsampleUnlabeledKeepsLabels(t *testing.T) {
	cfg := smallCfg()
	st, err := newSetup(setupOpts{set: platform.Sets[0], persons: 40, seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.task(core.DefaultLabelOpts(cfg.Seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := subsampleUnlabeled(full, 0.3, cfg.Seed)
	if len(sub.Blocks) != len(full.Blocks) {
		t.Fatal("block count changed")
	}
	if sub.NumLabeled() != full.NumLabeled() {
		t.Fatalf("labels lost: %d vs %d", sub.NumLabeled(), full.NumLabeled())
	}
	if sub.NumCandidates() >= full.NumCandidates() {
		t.Fatalf("subsample did not shrink: %d vs %d", sub.NumCandidates(), full.NumCandidates())
	}
	// Remapped labels must point at the same candidate pairs.
	for bi, b := range sub.Blocks {
		for ci, y := range b.Labels {
			c := b.Cands[ci]
			found := false
			for fci, fy := range full.Blocks[bi].Labels {
				fc := full.Blocks[bi].Cands[fci]
				if fc.A == c.A && fc.B == c.B && fy == y {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("remapped label does not match any original label")
			}
		}
	}
}

func TestFigure2aComboKey(t *testing.T) {
	if comboKey(nil) != "none missing" {
		t.Fatal("empty combo wrong")
	}
	if comboKey(platform.CoreAttrs) != "missing all" {
		t.Fatal("full combo wrong")
	}
	got := comboKey([]platform.AttrName{platform.AttrBirth, platform.AttrJob})
	if got != "birth,job" {
		t.Fatalf("combo = %q", got)
	}
}

// MeanF1 returns the mean F1 of a series (diagnostic for shape tests).
func (s *Series) MeanF1() float64 {
	if s == nil || len(s.X) == 0 {
		return 0
	}
	var acc float64
	for i := range s.X {
		p, r := s.Precision[i], s.Recall[i]
		if p+r > 0 {
			acc += 2 * p * r / (p + r)
		}
	}
	return acc / float64(len(s.X))
}
