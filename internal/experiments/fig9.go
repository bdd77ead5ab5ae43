package experiments

import (
	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure9 reproduces "Performance w.r.t. #labeled pairs": precision and
// recall versus the number of labeled users, for the English and Chinese
// datasets, all five methods. The paper's x-axis runs 1–5 million labeled
// users; ours sweeps the labeled fraction of a fixed world.
func Figure9(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 9",
		Title:  "Performance w.r.t. number of labeled pairs",
		XLabel: "labeled-frac",
	}
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	var runs []run
	for _, set := range platform.Sets[:2] {
		st, err := newSetup(setupOpts{set: set, persons: cfg.persons(100), seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		tasks, err := st.fractionTasks(cfg, fractions, core.LabelOpts{NegPerPos: 2, UsePreMatched: true, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		runs = append(runs, cfg.lineup(set.Name+"/", st.sys, fractions, tasks)...)
	}
	cfg.sweep(res, runs)
	res.Note("paper shape: all methods improve with labels; HYDRA improves fastest and dominates; English > Chinese")
	return res, nil
}
