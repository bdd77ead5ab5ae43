package experiments

import "hydra/internal/core"

// Figure14 reproduces the efficiency evaluation: total execution time
// versus the number of users, English and Chinese datasets, all methods.
// The paper's observations: HYDRA's runtime grows sublinearly (warm starts,
// sparse structure matrix, shrinking); Alias-Disamb is slowest (its
// self-generated training set yields a huge QP); SVM-B and SMaSh are
// cheaper than HYDRA. The worlds build in parallel, but each run is timed
// alone on the whole pool.
func Figure14(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 14",
		Title:  "Efficiency: total execution time vs number of users",
		XLabel: "#users",
	}
	cells, err := cfg.cells([]int{40, 70, 100, 130}, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		for _, r := range cfg.lineup(c.set.Name+"/", c.st.sys, []float64{float64(c.persons)}, []*core.Task{c.task}) {
			cfg.sweep(res, []run{r})
		}
	}
	res.Note("paper shape: Alias-Disamb slowest; SVM-B/SMaSh cheaper than HYDRA; HYDRA's growth flattens with scale")
	return res, nil
}
