package experiments

import (
	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure10 reproduces "Performance w.r.t. varied p": precision and recall
// as the utility exponent p runs 1..10 at the optimal (γ_L, γ_M), with the
// labeled:unlabeled ratio fixed at 1:5. The paper observes an interior
// optimum (best precision at p=6, best recall at p=5): moderate p balances
// the objectives, large p over-weights the dominant objective and overfits.
func Figure10(cfg Config) (*Result, error) {
	st, err := newSetup(setupOpts{set: platform.Sets[0], persons: cfg.persons(90), seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Labeled:unlabeled at 1:5 means a labeled fraction around 1/6 of
	// candidates; LabelFraction 0.15 with NegPerPos 1 approximates it.
	opts := core.LabelOpts{LabelFraction: 0.15, NegPerPos: 1, UsePreMatched: false, Seed: cfg.Seed}
	task, err := st.task(opts, cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Figure: "Figure 10",
		Title:  "Precision and recall w.r.t. p (labeled:unlabeled = 1:5)",
		XLabel: "p",
	}
	var runs []run
	for p := 1.0; p <= 10; p++ {
		runs = append(runs, run{"HYDRA-M", p, st.sys, task,
			cfg.hydra(func(h *core.Config) { h.P, h.ReweightIters = p, 3 })})
	}
	cfg.sweep(res, runs)
	if s := res.SeriesByName("HYDRA-M"); s != nil {
		precP, prec := best(s.X, s.Precision)
		recP, rec := best(s.X, s.Recall)
		res.Note("best precision %.3f at p=%g; best recall %.3f at p=%g (paper: p=6 and p=5)", prec, precP, rec, recP)
	}
	return res, nil
}
