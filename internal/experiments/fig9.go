package experiments

import (
	"hydra/internal/core"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// chinesePairs are the platform pairs used for the "Chinese" dataset runs.
// The paper trains across all five Chinese platforms; two representative
// pairs keep the laptop-scale runtime bounded while preserving the
// multi-pair structure (Eqn 14's block-diagonal M).
var chinesePairs = [][2]platform.ID{
	{platform.SinaWeibo, platform.TencentWeibo},
	{platform.Renren, platform.Kaixin},
}

// englishPairs is the single pair of the "English" dataset.
var englishPairs = [][2]platform.ID{{platform.Twitter, platform.Facebook}}

// Figure9 reproduces "Performance w.r.t. #labeled pairs": precision and
// recall versus the number of labeled users, for the Chinese and English
// datasets, all five methods. The paper's x-axis runs 1–5 million labeled
// users; ours sweeps the labeled fraction of a fixed world.
func Figure9(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 9",
		Title:  "Performance w.r.t. number of labeled pairs",
		XLabel: "labeled-frac",
	}
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	datasets := []struct {
		name  string
		plats []platform.ID
		pairs [][2]platform.ID
	}{
		{"english", platform.EnglishPlatforms, englishPairs},
		{"chinese", platform.ChinesePlatforms, chinesePairs},
	}
	for _, ds := range datasets {
		st, err := newSetup(setupOpts{
			persons:   cfg.persons(100),
			platforms: ds.plats,
			seed:      cfg.Seed,
			workers:   cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		// Build the per-fraction tasks first (each deterministic from its
		// seed), then fan out the (fraction × method) grid — every point is
		// an independent full train/eval run. The nested blocking fan-out
		// inside each task build is pinned so the stage stays within the
		// Workers budget (see parallel.Inner).
		pinned := *st
		pinned.workers = parallel.Inner(len(fractions), cfg.Workers)
		tasks, err := parallel.MapErr(cfg.Workers, len(fractions), func(fi int) (*core.Task, error) {
			opts := core.LabelOpts{LabelFraction: fractions[fi], NegPerPos: 2, UsePreMatched: true, Seed: cfg.Seed}
			return pinned.multiTask(ds.pairs, opts)
		})
		if err != nil {
			return nil, err
		}
		runGrid(st.sys, cfg, res, ds.name+"/", fractions, tasks)
	}
	res.Note("paper shape: all methods improve with labels; HYDRA improves fastest and dominates; English > Chinese")
	return res, nil
}
