package experiments

import (
	"math/rand"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure11 reproduces "Performance w.r.t. #unlabeled pairs": with the
// labeled set held small and fixed, increasingly many unlabeled candidate
// pairs (structure information) are made available. The paper's finding:
// baselines depending on labels collapse in this regime, while HYDRA
// leverages unlabeled structure and keeps improving.
func Figure11(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 11",
		Title:  "Performance w.r.t. number of unlabeled pairs",
		XLabel: "unlabeled-frac",
	}
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	var runs []run
	for _, set := range platform.Sets[:2] {
		st, err := newSetup(setupOpts{set: set, persons: cfg.persons(100), seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// Small fixed label budget; unlabeled candidates subsampled per x.
		opts := core.LabelOpts{LabelFraction: 0.08, NegPerPos: 1, UsePreMatched: false, Seed: cfg.Seed}
		full, err := st.task(opts, cfg.Workers)
		if err != nil {
			return nil, err
		}
		tasks := make([]*core.Task, len(fractions))
		for fi, frac := range fractions {
			tasks[fi] = subsampleUnlabeled(full, frac, cfg.Seed)
		}
		runs = append(runs, cfg.lineup(set.Name+"/", st.sys, fractions, tasks)...)
	}
	cfg.sweep(res, runs)
	res.Note("paper shape: baselines do much worse than with labels (Fig 9); HYDRA survives the unlabeled regime")
	return res, nil
}

// subsampleUnlabeled keeps all labeled candidates and a deterministic
// fraction of the unlabeled ones, remapping label indices.
func subsampleUnlabeled(t *core.Task, frac float64, seed int64) *core.Task {
	out := &core.Task{}
	rng := rand.New(rand.NewSource(seed + int64(frac*1000)))
	for _, b := range t.Blocks {
		nb := &core.Block{PA: b.PA, PB: b.PB, Labels: make(map[int]float64)}
		for ci, c := range b.Cands {
			if y, lab := b.Labels[ci]; lab {
				nb.Labels[len(nb.Cands)] = y
				nb.Cands = append(nb.Cands, c)
				continue
			}
			if rng.Float64() < frac {
				nb.Cands = append(nb.Cands, c)
			}
		}
		out.Blocks = append(out.Blocks, nb)
	}
	return out
}
