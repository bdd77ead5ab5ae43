package experiments

import (
	"fmt"
	"slices"
	"sort"

	"hydra/internal/core"
	"hydra/internal/platform"
)

// Figure12 reproduces "Performance w.r.t. #social communities": labeled
// pairs come from the two largest communities (A, B); structure information
// (unlabeled candidates) from communities C, D, E is added incrementally.
// The paper finds that extra communities' structure helps, more so on the
// Chinese dataset with its more complex community structure.
func Figure12(cfg Config) (*Result, error) {
	res := &Result{
		Figure: "Figure 12",
		Title:  "Performance w.r.t. number of social communities",
		XLabel: "#communities",
	}
	// Each dataset links one pair of its own here, not the table's.
	pairs := [][2]platform.ID{{platform.Twitter, platform.Facebook}, {platform.SinaWeibo, platform.Renren}}
	var runs []run
	for i, set := range platform.Sets[:2] {
		set.Pairs = pairs[i : i+1]
		st, err := newSetup(setupOpts{set: set, persons: cfg.persons(120), seed: cfg.Seed, communities: 5})
		if err != nil {
			return nil, err
		}
		// Order the planted communities by size, largest first (ties by id).
		size := make(map[int]int)
		commOf := make(map[int]int)
		for _, pe := range st.world.Persons {
			size[pe.Community]++
			commOf[pe.ID] = pe.Community
		}
		order := make([]int, 0, len(size))
		for comm := range size {
			order = append(order, comm)
		}
		sort.Slice(order, func(i, j int) bool {
			if si, sj := size[order[i]], size[order[j]]; si != sj {
				return si > sj
			}
			return order[i] < order[j]
		})
		if len(order) < 3 {
			return nil, fmt.Errorf("experiments: only %d communities planted", len(order))
		}
		opts := core.LabelOpts{LabelFraction: 0.3, NegPerPos: 2, UsePreMatched: false, Seed: cfg.Seed}
		full, err := st.task(opts, cfg.Workers)
		if err != nil {
			return nil, err
		}
		block := full.Blocks[0]
		platA, _ := st.sys.DS.Platform(block.PA)
		for k := 1; k <= min(len(order), 5); k++ {
			// Eval-community candidates (the paper's C_A × C_B test set,
			// the two largest communities) always stay, with their labels;
			// others only when their community is among the first k
			// (incremental structure).
			nb := &core.Block{PA: block.PA, PB: block.PB, Labels: make(map[int]float64)}
			for ci, c := range block.Cands {
				comm := commOf[platA.Account(c.A).Person]
				inEval := comm == order[0] || comm == order[1]
				if !inEval && (k <= 2 || !slices.Contains(order[:k], comm)) {
					continue
				}
				if y, lab := block.Labels[ci]; lab && inEval {
					nb.Labels[len(nb.Cands)] = y
				}
				nb.Cands = append(nb.Cands, c)
			}
			task := &core.Task{Blocks: []*core.Block{nb}}
			runs = append(runs, run{set.Name + "/HYDRA-M", float64(k), st.sys, task, cfg.hydra(nil)})
		}
	}
	cfg.sweep(res, runs)
	res.Note("paper shape: added communities improve results; effect stronger on Chinese platforms")
	return res, nil
}
