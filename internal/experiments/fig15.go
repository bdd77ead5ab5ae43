package experiments

import "hydra/internal/core"

// Figure15 reproduces the sensitivity evaluation: HYDRA-M versus HYDRA-Z
// under missing information across dataset sizes, for both datasets. The
// paper: both variants achieve high precision and recall, with HYDRA-M
// consistently on top — the friend-based imputation (Eqn 18) beats zero
// filling.
func Figure15(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 15",
		Title:  "Sensitivity to missing data: HYDRA-M vs HYDRA-Z",
		XLabel: "#users",
	}
	cells, err := cfg.cells([]int{50, 80, 110}, 1.25) // a stressed missing-information regime
	if err != nil {
		return nil, err
	}
	var runs []run
	for _, c := range cells {
		for _, v := range []core.Variant{core.HydraM, core.HydraZ} {
			runs = append(runs, run{c.set.Name + "/" + v.String(), float64(c.persons), c.st.sys, c.task,
				cfg.hydra(func(h *core.Config) { h.Variant = v })})
		}
	}
	cfg.sweep(res, runs)
	res.Note("paper shape: both variants strong; HYDRA-M ≥ HYDRA-Z throughout")
	return res, nil
}
