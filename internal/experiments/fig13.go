package experiments

import (
	"hydra/internal/core"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// Figure13 reproduces "Performance w.r.t. varied social platforms": SIL
// across culturally different platforms — linking Chinese-platform accounts
// to English-platform accounts over the full seven-platform world. The
// paper observes an overall performance drop (different writing styles and
// social circles) with HYDRA still dominating the baselines.
//
// The (fraction × method) grid is runGrid's, as in figures 9 and 11, with
// no dataset prefix on the series names.
func Figure13(cfg Config) (*Result, error) {
	st, err := newSetup(setupOpts{
		persons:   cfg.persons(90),
		platforms: platform.AllPlatforms,
		seed:      cfg.Seed,
		workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	// Cross-cultural pairs: Chinese × English platforms.
	pairs := [][2]platform.ID{
		{platform.SinaWeibo, platform.Twitter},
		{platform.Renren, platform.Facebook},
	}
	res := &Result{
		Figure: "Figure 13",
		Title:  "Performance across culturally different platforms (all seven networks)",
		XLabel: "labeled-frac",
	}
	fractions := []float64{0.2, 0.35, 0.5}
	// Per-fraction tasks first (each deterministic from its seed), with
	// the nested blocking fan-out pinned to stay within the pool budget.
	pinned := *st
	pinned.workers = parallel.Inner(len(fractions), cfg.Workers)
	tasks, err := parallel.MapErr(cfg.Workers, len(fractions), func(fi int) (*core.Task, error) {
		opts := core.LabelOpts{LabelFraction: fractions[fi], NegPerPos: 2, UsePreMatched: true, Seed: cfg.Seed}
		return pinned.multiTask(pairs, opts)
	})
	if err != nil {
		return nil, err
	}
	runGrid(st.sys, cfg, res, "", fractions, tasks)
	res.Note("paper shape: obvious performance drop vs single-culture linkage, HYDRA still best")
	return res, nil
}
