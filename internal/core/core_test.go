package core

import (
	"math"
	"testing"

	"hydra/internal/blocking"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// buildSystem creates a synthetic world and a trained System over it.
func buildSystem(t testing.TB, persons int, plats []platform.ID, seed int64) (*synth.World, *System) {
	t.Helper()
	w, err := synth.Generate(synth.DefaultConfig(persons, plats, seed))
	if err != nil {
		t.Fatal(err)
	}
	// Attribute-importance training labels from the first half of persons.
	var people []int
	for p := 0; p < persons/2; p++ {
		people = append(people, p)
	}
	labeled := LabeledProfilePairs(w.Dataset, plats[0], plats[1], people)
	fcfg := features.DefaultConfig(seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 1500
	sys, err := NewSystem(w.Dataset, labeled, features.Lexicons{
		Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment,
	}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

func buildTask(t testing.TB, sys *System, pa, pb platform.ID, opts LabelOpts) *Task {
	t.Helper()
	block, err := BuildBlock(sys, pa, pb, blocking.DefaultRules(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return &Task{Blocks: []*Block{block}}
}

func TestTrainValidation(t *testing.T) {
	_, sys := buildSystem(t, 20, platform.EnglishPlatforms, 1)
	if _, err := Train(sys, &Task{}, DefaultConfig(1)); err == nil {
		t.Fatal("expected error for empty task")
	}
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(1))
	bad := DefaultConfig(1)
	bad.GammaL = 0
	if _, err := Train(sys, task, bad); err == nil {
		t.Fatal("expected error for GammaL=0")
	}
	bad = DefaultConfig(1)
	bad.P = 0.5
	if _, err := Train(sys, task, bad); err == nil {
		t.Fatal("expected error for p<1")
	}
	// A task with no labels must be rejected.
	unlabeled := buildTask(t, sys, platform.Twitter, platform.Facebook,
		LabelOpts{LabelFraction: 0, NegPerPos: 0, UsePreMatched: false, Seed: 1})
	if _, err := Train(sys, unlabeled, DefaultConfig(1)); err == nil {
		t.Fatal("expected error for unlabeled task")
	}
}

func TestBuildBlockRejectsBadLabelOpts(t *testing.T) {
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, 2)
	for _, opts := range []LabelOpts{
		{LabelFraction: 1.5, NegPerPos: 2},
		{LabelFraction: -0.5, NegPerPos: 2},
		{LabelFraction: math.NaN(), NegPerPos: 2},
		{LabelFraction: 0.3, NegPerPos: -1},
	} {
		if _, err := BuildBlock(sys, platform.Twitter, platform.Facebook, blocking.DefaultRules(), opts); err == nil {
			t.Fatalf("BuildBlock accepted %+v", opts)
		}
	}
	for _, frac := range []float64{0, 1} {
		if _, err := BuildBlock(sys, platform.Twitter, platform.Facebook, blocking.DefaultRules(),
			LabelOpts{LabelFraction: frac, NegPerPos: 0}); err != nil {
			t.Fatalf("fraction %g refused: %v", frac, err)
		}
	}
}

func TestTrainAndEvaluateEnglish(t *testing.T) {
	_, sys := buildSystem(t, 60, platform.EnglishPlatforms, 2)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(2))
	st := task.Stats()
	if st.Labeled == 0 || st.Positives == 0 {
		t.Fatalf("task stats: %+v", st)
	}
	linker := &HydraLinker{Cfg: DefaultConfig(2)}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	conf, err := EvaluateLinkerWorkers(sys, linker, task.Blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Precision() < 0.6 {
		t.Fatalf("HYDRA precision %v too low: %s", conf.Precision(), conf)
	}
	if conf.Recall() < 0.4 {
		t.Fatalf("HYDRA recall %v too low: %s", conf.Recall(), conf)
	}
	m := linker.Model()
	if m.Diag.N == 0 || m.Diag.NL == 0 || m.Diag.SMOIters == 0 {
		t.Fatalf("diagnostics incomplete: %+v", m.Diag)
	}
}

func TestHydraMBeatsHydraZUnderMissingness(t *testing.T) {
	// Crank missingness up and compare variants on the same system.
	cfg := synth.DefaultConfig(70, platform.EnglishPlatforms, 3)
	cfg.MissingScale = 1.4
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var people []int
	for p := 0; p < 35; p++ {
		people = append(people, p)
	}
	labeled := LabeledProfilePairs(w.Dataset, platform.Twitter, platform.Facebook, people)
	fcfg := features.DefaultConfig(3)
	fcfg.LDAIterations = 20
	fcfg.MaxLDADocs = 1200
	sys, err := NewSystem(w.Dataset, labeled, features.Lexicons{
		Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment,
	}, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(3))

	f1 := func(v Variant) float64 {
		cfg := DefaultConfig(3)
		cfg.Variant = v
		linker := &HydraLinker{Cfg: cfg}
		if err := linker.Fit(sys, task); err != nil {
			t.Fatal(err)
		}
		conf, err := EvaluateLinkerWorkers(sys, linker, task.Blocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		return conf.F1()
	}
	fm, fz := f1(HydraM), f1(HydraZ)
	// HYDRA-M should not be worse; with heavy missingness it usually wins.
	if fm < fz-0.03 {
		t.Fatalf("HYDRA-M (%v) materially worse than HYDRA-Z (%v)", fm, fz)
	}
}

func TestScoreSeparatesPairs(t *testing.T) {
	w, sys := buildSystem(t, 50, platform.EnglishPlatforms, 4)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(4))
	linker := &HydraLinker{Cfg: DefaultConfig(4)}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	var posSum, negSum float64
	nPos, nNeg := 0, 0
	for person := 0; person < 30; person++ {
		a, _ := w.Dataset.AccountOf(person, platform.Twitter)
		b, _ := w.Dataset.AccountOf(person, platform.Facebook)
		bn, _ := w.Dataset.AccountOf((person+13)%50, platform.Facebook)
		sp, err := linker.PairScore(platform.Twitter, a, platform.Facebook, b)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := linker.PairScore(platform.Twitter, a, platform.Facebook, bn)
		if err != nil {
			t.Fatal(err)
		}
		posSum += sp
		negSum += sn
		nPos++
		nNeg++
	}
	if posSum/float64(nPos) <= negSum/float64(nNeg) {
		t.Fatalf("mean positive score %v should exceed mean negative %v",
			posSum/float64(nPos), negSum/float64(nNeg))
	}
}

func TestTrainWithPGreaterThanOne(t *testing.T) {
	_, sys := buildSystem(t, 40, platform.EnglishPlatforms, 5)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(5))
	cfg := DefaultConfig(5)
	cfg.P = 3
	cfg.ReweightIters = 3
	linker := &HydraLinker{Cfg: cfg}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	m := linker.Model()
	if m.Diag.ReweightDone != 3 {
		t.Fatalf("reweighting rounds = %d, want 3", m.Diag.ReweightDone)
	}
	if m.Diag.EffGammaM == cfg.GammaM {
		t.Log("effective gamma unchanged (objectives balanced); acceptable")
	}
	conf, err := EvaluateLinkerWorkers(sys, linker, task.Blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conf.F1() == 0 {
		t.Fatalf("p>1 model learned nothing: %s", conf)
	}
}

func TestMultiPlatformTask(t *testing.T) {
	_, sys := buildSystem(t, 40, platform.ChinesePlatforms[:3], 6)
	b1, err := BuildBlock(sys, platform.SinaWeibo, platform.TencentWeibo, blocking.DefaultRules(), DefaultLabelOpts(6))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := BuildBlock(sys, platform.SinaWeibo, platform.Renren, blocking.DefaultRules(), DefaultLabelOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	task := &Task{Blocks: []*Block{b1, b2}}
	linker := &HydraLinker{Cfg: DefaultConfig(6)}
	if err := linker.Fit(sys, task); err != nil {
		t.Fatal(err)
	}
	conf, err := EvaluateLinkerWorkers(sys, linker, task.Blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if conf.TP == 0 {
		t.Fatalf("multi-platform model found no true pairs: %s", conf)
	}
}

func TestImputeVariants(t *testing.T) {
	_, sys := buildSystem(t, 30, platform.EnglishPlatforms, 7)
	// Find a pair with missing dims.
	for a := 0; a < 10; a++ {
		pv, err := sys.RawPair(platform.Twitter, a, platform.Facebook, a)
		if err != nil {
			t.Fatal(err)
		}
		hasMissing := false
		for _, m := range pv.Mask {
			if !m {
				hasMissing = true
				break
			}
		}
		if !hasMissing {
			continue
		}
		xz, err := sys.Impute(platform.Twitter, a, platform.Facebook, a, HydraZ, 3)
		if err != nil {
			t.Fatal(err)
		}
		xm, err := sys.Impute(platform.Twitter, a, platform.Facebook, a, HydraM, 3)
		if err != nil {
			t.Fatal(err)
		}
		// HYDRA-Z leaves missing dims at zero.
		for d, m := range pv.Mask {
			if !m && xz[d] != 0 {
				t.Fatal("HYDRA-Z filled a missing dim")
			}
			if m && (xz[d] != pv.X[d] || xm[d] != pv.X[d]) {
				t.Fatal("observed dims must be untouched")
			}
		}
		return
	}
	t.Skip("no pair with missing features found")
}

func TestLabeledProfilePairs(t *testing.T) {
	w, _ := buildSystem(t, 20, platform.EnglishPlatforms, 8)
	pairs := LabeledProfilePairs(w.Dataset, platform.Twitter, platform.Facebook, []int{0, 1, 2, 3})
	if len(pairs) < 6 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.Positive {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("need both label classes")
	}
	if got := LabeledProfilePairs(w.Dataset, "nope", platform.Facebook, []int{0}); got != nil {
		t.Fatal("unknown platform should give nil")
	}
}

func TestVariantString(t *testing.T) {
	if HydraM.String() != "HYDRA-M" || HydraZ.String() != "HYDRA-Z" {
		t.Fatal("variant names wrong")
	}
}

// TestReweightSharesOneLKProduct pins the solveOnce hoist: with p>1 the
// reweighted scalarization runs ReweightIters rounds, but the n×n×n
// product L·K must be computed exactly once per training run — each round
// rebuilds A from the cached product by scale+AddDiag.
func TestReweightSharesOneLKProduct(t *testing.T) {
	_, sys := buildSystem(t, 40, platform.EnglishPlatforms, 8)
	task := buildTask(t, sys, platform.Twitter, platform.Facebook, DefaultLabelOpts(8))
	cfg := DefaultConfig(8)
	cfg.P = 2
	cfg.ReweightIters = 3
	m, err := Train(sys, task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Diag.ReweightDone != 3 {
		t.Fatalf("reweight rounds = %d, want 3", m.Diag.ReweightDone)
	}
	if m.Diag.LKProducts != 1 {
		t.Fatalf("L·K products = %d, want exactly 1 across all rounds", m.Diag.LKProducts)
	}
}
