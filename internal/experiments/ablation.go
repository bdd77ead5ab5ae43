package experiments

import (
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/parallel"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// Ablations runs the four design-choice ablations and merges them into
// one printable result block.
func Ablations(cfg Config) (*Result, error) {
	merged := &Result{Figure: "Ablations", Title: "design-choice ablations", XLabel: "labeled-frac"}
	for _, ab := range []func(Config) (*Result, error){
		AblationStructure,
		AblationPooling,
		AblationMultiScale,
		AblationTopicKernel,
	} {
		res, err := ab(cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range res.Series {
			for i := range s.X {
				merged.AddPoint(res.Figure+"/"+s.Name, s.X[i], s.Precision[i], s.Recall[i], s.TimeSec[i])
			}
		}
		for _, n := range res.Notes {
			merged.Note("%s: %s", res.Figure, n)
		}
	}
	return merged, nil
}

// AblationStructure measures HYDRA with and without the structure
// consistency objective (γ_M = 0) across label budgets — isolating the
// contribution of Section 6.2.
func AblationStructure(cfg Config) (*Result, error) {
	st, err := newSetup(setupOpts{set: platform.Sets[0], persons: cfg.persons(90), seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Figure: "Ablation A1",
		Title:  "Structure consistency on/off (γ_M = default vs 0)",
		XLabel: "labeled-frac",
	}
	fractions := []float64{0.08, 0.15, 0.3, 0.5}
	tasks, err := st.fractionTasks(cfg, fractions, core.LabelOpts{NegPerPos: 2, UsePreMatched: false, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	var runs []run
	for fi, frac := range fractions {
		runs = append(runs,
			run{"with-structure", frac, st.sys, tasks[fi], cfg.hydra(nil)},
			run{"no-structure", frac, st.sys, tasks[fi], cfg.hydra(func(h *core.Config) { h.GammaM = 0 })})
	}
	cfg.sweep(res, runs)
	res.Note("expected: structure helps most at small label budgets")
	return res, nil
}

// AblationPooling compares lq-norm pooling against mean pooling in the
// multi-resolution sensor model (Section 5.4's bio-inspired choice).
func AblationPooling(cfg Config) (*Result, error) {
	return featureAblation(cfg, "Ablation A2", "lq-pooling vs mean pooling",
		func(fc *features.Config, on bool) {
			fc.MR.MeanPooling = !on
		}, "lq-pool", "mean-pool")
}

// AblationMultiScale compares the full multi-scale bucket set (1..32 days)
// against a single 8-day scale.
func AblationMultiScale(cfg Config) (*Result, error) {
	return featureAblation(cfg, "Ablation A3", "multi-scale vs single-scale topic buckets",
		func(fc *features.Config, on bool) {
			if !on {
				fc.ScalesDays = []int{8}
			}
		}, "multi-scale", "single-scale")
}

// AblationTopicKernel compares the chi-square and histogram-intersection
// kernels for per-bucket distribution similarity (the two options the paper
// cites from [17]).
func AblationTopicKernel(cfg Config) (*Result, error) {
	return featureAblation(cfg, "Ablation A4", "chi-square vs histogram-intersection topic kernel",
		func(fc *features.Config, on bool) {
			fc.UseHistogramIntersection = !on
		}, "chi-square", "hist-intersect")
}

// featureAblation runs HYDRA with a toggled feature-pipeline option over
// the same world and reports both curves. The two toggled systems build
// in parallel (each owns an LDA train).
func featureAblation(cfg Config, figID, title string,
	toggle func(*features.Config, bool), onName, offName string) (*Result, error) {

	english := platform.Sets[0]
	w, err := synth.Generate(synth.DefaultConfig(cfg.persons(80), english.Platforms, cfg.Seed))
	if err != nil {
		return nil, err
	}
	names := []string{onName, offName}
	setups, err := parallel.MapErr(cfg.Workers, len(names), func(i int) (*setup, error) {
		fcfg := features.DefaultConfig(cfg.Seed)
		fcfg.LDAIterations = 25
		fcfg.MaxLDADocs = 2000
		toggle(&fcfg, i == 0)
		return systemize(w, english, fcfg)
	})
	if err != nil {
		return nil, err
	}
	fractions := []float64{0.2, 0.4}
	var runs []run
	for i, st := range setups {
		tasks, err := st.fractionTasks(cfg, fractions, core.LabelOpts{NegPerPos: 2, UsePreMatched: false, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		for fi, frac := range fractions {
			runs = append(runs, run{names[i], frac, st.sys, tasks[fi], cfg.hydra(nil)})
		}
	}
	res := &Result{Figure: figID, Title: title, XLabel: "labeled-frac"}
	cfg.sweep(res, runs)
	return res, nil
}
