package experiments

import (
	"sort"
	"strings"

	"hydra/internal/platform"
	"hydra/internal/synth"
)

// Figure2a reproduces the missing-information statistics of Figure 2(a):
// the distribution of users over missing-profile-attribute combinations
// across the seven platforms. The paper's headline numbers: at least 80% of
// users miss ≥2 of the six core attributes; merely ~5% have all filled.
// Each combination is one series with a single point: x is the number of
// attributes missing, and the precision column carries the users' share.
func Figure2a(cfg Config) (*Result, error) {
	w, err := synth.Generate(synth.DefaultConfig(cfg.persons(300), platform.AllPlatforms, cfg.Seed))
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int)
	numMissing := make(map[string]int)
	total := 0
	for _, p := range w.Dataset.Platforms {
		for _, acc := range p.Accounts {
			missing := acc.Profile.MissingSet()
			key := comboKey(missing)
			counts[key]++
			numMissing[key] = len(missing)
			total++
		}
	}
	combos := make([]string, 0, len(counts))
	for key := range counts {
		combos = append(combos, key)
	}
	sort.Slice(combos, func(i, j int) bool {
		if ni, nj := numMissing[combos[i]], numMissing[combos[j]]; ni != nj {
			return ni < nj
		}
		return combos[i] < combos[j]
	})

	res := &Result{Figure: "Figure 2(a)", Title: "Missing information statistics", XLabel: "#missing"}
	var atLeast2, full float64
	for _, key := range combos {
		percent := 100 * float64(counts[key]) / float64(total)
		res.AddPoint(key, float64(numMissing[key]), percent/100, 0, 0)
		if numMissing[key] >= 2 {
			atLeast2 += percent
		}
		if numMissing[key] == 0 {
			full = percent
		}
	}
	res.Note("users missing ≥2 attributes: %.1f%% (paper: ≥80%%)", atLeast2)
	res.Note("users with all attributes: %.1f%% (paper: ~5%%)", full)
	return res, nil
}

// comboKey renders a missing set in the paper's Figure 2(a) labeling.
func comboKey(missing []platform.AttrName) string {
	if len(missing) == 0 {
		return "none missing"
	}
	if len(missing) == len(platform.CoreAttrs) {
		return "missing all"
	}
	parts := make([]string, len(missing))
	for i, a := range missing {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}
