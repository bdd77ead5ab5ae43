package experiments

import (
	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure13 reproduces "Performance w.r.t. varied social platforms": SIL
// across culturally different platforms — linking Chinese-platform accounts
// to English-platform accounts over the full seven-platform world. The
// paper observes an overall performance drop (different writing styles and
// social circles) with HYDRA still dominating the baselines.
func Figure13(cfg Config) (*Result, error) {
	st, err := newSetup(setupOpts{set: platform.Sets[2], persons: cfg.persons(90), seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Figure: "Figure 13",
		Title:  "Performance across culturally different platforms (all seven networks)",
		XLabel: "labeled-frac",
	}
	fractions := []float64{0.2, 0.35, 0.5}
	tasks, err := st.fractionTasks(cfg, fractions, core.LabelOpts{NegPerPos: 2, UsePreMatched: true, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	cfg.sweep(res, cfg.lineup("", st.sys, fractions, tasks))
	res.Note("paper shape: obvious performance drop vs single-culture linkage, HYDRA still best")
	return res, nil
}
