package core

import (
	"fmt"
	"math/rand"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/metrics"
	"hydra/internal/parallel"
	"hydra/internal/platform"
)

// LabelOpts controls how training labels are attached to candidate pairs,
// mirroring the paper's three-way split: ground-truth linked pairs (from
// the cross-login data provider), rule-based pre-matched pairs, and the
// unlabeled rest.
type LabelOpts struct {
	// LabelFraction is the share of true candidate pairs that receive
	// ground-truth positive labels (the paper sweeps this axis in Fig 9).
	LabelFraction float64
	// NegPerPos negatives are sampled per positive label (ground truth
	// guarantees they are truly negative). The paper's labeled-to-unlabeled
	// ratio of 1:5 emerges from this and the candidate pool size.
	NegPerPos int
	// UsePreMatched adds rule-based pre-matched pairs as (noisy) positive
	// labels.
	UsePreMatched bool
	Seed          int64
}

// DefaultLabelOpts matches the paper's main setting.
func DefaultLabelOpts(seed int64) LabelOpts {
	return LabelOpts{LabelFraction: 0.5, NegPerPos: 2, UsePreMatched: true, Seed: seed}
}

// BuildBlock generates the candidate pairs for a platform pair and attaches
// labels per opts.
func BuildBlock(sys *System, pa, pb platform.ID, rules blocking.Rules, opts LabelOpts) (*Block, error) {
	if !(opts.LabelFraction >= 0 && opts.LabelFraction <= 1) {
		return nil, fmt.Errorf("core: label fraction %g outside [0, 1]", opts.LabelFraction)
	}
	if opts.NegPerPos < 0 {
		return nil, fmt.Errorf("core: negative NegPerPos %d", opts.NegPerPos)
	}
	platA, err := sys.DS.Platform(pa)
	if err != nil {
		return nil, err
	}
	platB, err := sys.DS.Platform(pb)
	if err != nil {
		return nil, err
	}
	cands, err := blocking.Generate(platA, platB, sys.Faces(), rules)
	if err != nil {
		return nil, err
	}
	block := &Block{PA: pa, PB: pb, Cands: cands, Labels: make(map[int]float64)}

	rng := rand.New(rand.NewSource(opts.Seed*7919 + int64(len(cands))))
	// Ground-truth positives: a LabelFraction sample of the true pairs
	// among candidates.
	var trueIdx, falseIdx []int
	for i, c := range cands {
		if sys.DS.SamePerson(pa, c.A, pb, c.B) {
			trueIdx = append(trueIdx, i)
		} else {
			falseIdx = append(falseIdx, i)
		}
	}
	rng.Shuffle(len(trueIdx), func(i, j int) { trueIdx[i], trueIdx[j] = trueIdx[j], trueIdx[i] })
	nPos := int(opts.LabelFraction * float64(len(trueIdx)))
	for _, i := range trueIdx[:nPos] {
		block.Labels[i] = 1
	}
	// Pre-matched pairs join the positive labeled set (noisy labels).
	if opts.UsePreMatched {
		for i, c := range cands {
			if c.PreMatched {
				block.Labels[i] = 1
			}
		}
	}
	// Negative labels: ground-truth-verified non-pairs.
	nNeg := opts.NegPerPos * countPositives(block.Labels)
	rng.Shuffle(len(falseIdx), func(i, j int) { falseIdx[i], falseIdx[j] = falseIdx[j], falseIdx[i] })
	added := 0
	for _, i := range falseIdx {
		if added >= nNeg {
			break
		}
		if _, taken := block.Labels[i]; taken {
			continue
		}
		block.Labels[i] = -1
		added++
	}
	return block, nil
}

func countPositives(labels map[int]float64) int {
	n := 0
	for _, y := range labels {
		if y > 0 {
			n++
		}
	}
	return n
}

// Linker is the common interface of HYDRA and the baselines: anything that
// can be fit on a Task and then score account pairs.
type Linker interface {
	// Name identifies the method in experiment output.
	Name() string
	// Fit trains on the task.
	Fit(sys *System, task *Task) error
	// PairScore returns a real-valued linkage score (higher = more likely
	// the same person); the decision threshold is 0. Implementations must
	// be safe for concurrent calls after Fit — EvaluateLinkerWorkers scores
	// candidates in parallel. (All in-repo linkers are read-only after
	// Fit apart from the mutex-guarded System caches.)
	PairScore(pa platform.ID, a int, pb platform.ID, b int) (float64, error)
}

// HydraLinker adapts Train/Model to the Linker interface.
type HydraLinker struct {
	Cfg   Config
	model *Model
}

// Name implements Linker.
func (h *HydraLinker) Name() string { return h.Cfg.Variant.String() }

// Fit implements Linker.
func (h *HydraLinker) Fit(sys *System, task *Task) error {
	m, err := Train(sys, task, h.Cfg)
	if err != nil {
		return err
	}
	h.model = m
	return nil
}

// PairScore implements Linker.
func (h *HydraLinker) PairScore(pa platform.ID, a int, pb platform.ID, b int) (float64, error) {
	if h.model == nil {
		return 0, fmt.Errorf("core: HydraLinker not fitted")
	}
	return h.model.Score(pa, a, pb, b)
}

// Model exposes the trained model (nil before Fit).
func (h *HydraLinker) Model() *Model { return h.model }

// EvaluateLinkerWorkers scores every candidate of every block with the
// linker on the given worker count (≤ 0 = all cores) and compares
// decisions (score > 0) against ground truth. Blocking misses — true pairs
// that never became candidates — are charged as false negatives,
// implementing the paper's recall definition. Each candidate's decision is
// written to its own index, so the confusion counts are identical at any
// worker count.
func EvaluateLinkerWorkers(sys *System, l Linker, blocks []*Block, workers int) (metrics.Confusion, error) {
	var total metrics.Confusion
	for _, b := range blocks {
		returned := make([]bool, len(b.Cands))
		truth := make([]bool, len(b.Cands))
		if err := parallel.ForErr(workers, len(b.Cands), func(i int) error {
			c := b.Cands[i]
			s, err := l.PairScore(b.PA, c.A, b.PB, c.B)
			if err != nil {
				return err
			}
			returned[i] = s > 0
			truth[i] = sys.DS.SamePerson(b.PA, c.A, b.PB, c.B)
			return nil
		}); err != nil {
			return metrics.Confusion{}, err
		}
		missed := missedPositives(sys.DS, b)
		c, err := metrics.EvaluateLinkage(returned, truth, missed)
		if err != nil {
			return metrics.Confusion{}, err
		}
		total.TP += c.TP
		total.FP += c.FP
		total.FN += c.FN
		total.TN += c.TN
	}
	return total, nil
}

// missedPositives counts true pairs absent from the candidate list.
func missedPositives(ds *platform.Dataset, b *Block) int {
	inCands := make(map[int]bool)
	for _, c := range b.Cands {
		if ds.SamePerson(b.PA, c.A, b.PB, c.B) {
			person := ds.Platforms[b.PA].Account(c.A).Person
			inCands[person] = true
		}
	}
	total := 0
	for person := range ds.PersonAccounts {
		_, okA := ds.AccountOf(person, b.PA)
		_, okB := ds.AccountOf(person, b.PB)
		if okA && okB && !inCands[person] {
			total++
		}
	}
	return total
}

// TaskStats summarizes a task for experiment logs.
type TaskStats struct {
	Blocks     int
	Candidates int
	Labeled    int
	Positives  int
}

// Stats computes TaskStats.
func (t *Task) Stats() TaskStats {
	st := TaskStats{Blocks: len(t.Blocks), Candidates: t.NumCandidates(), Labeled: t.NumLabeled()}
	for _, b := range t.Blocks {
		st.Positives += countPositives(b.Labels)
	}
	return st
}

// SortedLabelIndices returns the labeled candidate indices of a block in
// ascending order (deterministic iteration for tests and diagnostics).
func (b *Block) SortedLabelIndices() []int {
	idx := make([]int, 0, len(b.Labels))
	for i := range b.Labels {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}
