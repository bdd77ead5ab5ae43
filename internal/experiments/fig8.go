package experiments

import (
	"fmt"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure8 reproduces the (γ_M, γ_L) performance surface under p = 1..4:
// the paper's grid spans 1e-6..1e6 on both axes and shows that different p
// lead to different optimal (γ_M, γ_L) settings. One series per p, one
// point per (γ_L, γ_M) cell; x encodes the cell index (γ_L-major) so the
// surface can be reconstructed row by row.
func Figure8(cfg Config) (*Result, error) {
	gammas := []float64{1e-6, 1e-3, 1, 1e3, 1e6}
	ps := []float64{1, 2, 3, 4}
	st, err := newSetup(setupOpts{set: platform.Sets[0], persons: cfg.persons(70), seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	task, err := st.task(core.DefaultLabelOpts(cfg.Seed), cfg.Workers)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Figure: "Figure 8",
		Title:  "Performance vs (γ_L, γ_M) under p = 1..4",
		XLabel: "cell(γL-major)",
	}
	var runs []run
	for _, p := range ps {
		for gi, gl := range gammas {
			for gj, gm := range gammas {
				runs = append(runs, run{fmt.Sprintf("p=%g", p), float64(gi*len(gammas) + gj), st.sys, task,
					cfg.hydra(func(h *core.Config) { h.GammaL, h.GammaM, h.P, h.ReweightIters = gl, gm, p, 2 })})
			}
		}
	}
	cfg.sweep(res, runs)
	for _, p := range ps {
		if s := res.SeriesByName(fmt.Sprintf("p=%g", p)); s != nil {
			x, prec := best(s.X, s.Precision)
			cell := int(x)
			res.Note("p=%g: best precision %.3f at γL=%g, γM=%g", p, prec, gammas[cell/len(gammas)], gammas[cell%len(gammas)])
		}
	}
	res.Note("paper: different p settings lead to different optimal (γ_M, γ_L)")
	return res, nil
}
