// Package pipeline stages HYDRA's end-to-end flow — Load → Systemize →
// Block → Fit → Evaluate — as explicit steps, each producing a value the
// next stage consumes. The cmd binaries and the experiment harness all run
// these stages instead of hand-rolling the same setup. A FitState packs
// straight into a Bundle (see bundle.go), the one wire format: a serving
// process reads it with no world file and no retraining.
//
// Every stage is deterministic at any worker count: the hot paths
// underneath (blocking, feature assembly, kernel matrices, the dual solve,
// evaluation) are the existing Workers-governed parallel kernels, which
// are bit-for-bit identical whether one worker or many ran them.
package pipeline

import (
	"fmt"
	"os"
	"sort"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/metrics"
	"hydra/internal/platform"
)

// LoadWorldFile decodes a world file written by hydra-gen (stage Load for
// the file-based workflow; in-memory worlds skip straight to Systemize).
func LoadWorldFile(path string) (*platform.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return platform.Decode(f)
}

// SystemizeOpts is the recipe for stage Systemize. It is plain data, kept
// on SystemState, and the same recipe over the same dataset rebuilds an
// identical System.
type SystemizeOpts struct {
	// LabelPA/LabelPB and LabelPersons define the labeled profile pairs
	// that train attribute importance: the true cross-platform pair of
	// each listed person (plus one shifted mismatch each). Persons must be
	// listed in a deterministic order; see LabeledHalf.
	LabelPA, LabelPB platform.ID
	LabelPersons     []int
	// Lexicons feed the genre/sentiment models and FeatCfg the rest of
	// the feature pipeline.
	Lexicons features.Lexicons
	FeatCfg  features.Config
}

// SystemState is the output of stage Systemize: the dataset plus the
// trained feature pipeline, ready for blocking and scoring.
type SystemState struct {
	DS   *platform.Dataset
	Sys  *core.System
	Opts SystemizeOpts
}

// Systemize builds the feature System over a loaded dataset: attribute
// importance from the recipe's labeled profile pairs, LDA over the corpus,
// lexicon models — the one-time preprocessing every later stage shares.
func Systemize(ds *platform.Dataset, o SystemizeOpts) (*SystemState, error) {
	if ds == nil {
		return nil, fmt.Errorf("pipeline: Systemize needs a dataset")
	}
	if _, err := ds.Platform(o.LabelPA); err != nil {
		return nil, err
	}
	if _, err := ds.Platform(o.LabelPB); err != nil {
		return nil, err
	}
	labeled := core.LabeledProfilePairs(ds, o.LabelPA, o.LabelPB, o.LabelPersons)
	sys, err := core.NewSystem(ds, labeled, o.Lexicons, o.FeatCfg)
	if err != nil {
		return nil, err
	}
	return &SystemState{DS: ds, Sys: sys, Opts: o}, nil
}

// LabeledHalf returns the first half of the dataset's person ids in
// ascending order — the deterministic labeled-half selection shared by the
// cmds. (Iterating the PersonAccounts map and halving without sorting, as
// cmd/hydra-link once did, picks a different labeled set every run.)
func LabeledHalf(ds *platform.Dataset) []int {
	people := make([]int, 0, len(ds.PersonAccounts))
	for person := range ds.PersonAccounts {
		people = append(people, person)
	}
	sort.Ints(people)
	return people[:len(people)/2]
}

// BlockOpts parameterizes stage Block.
type BlockOpts struct {
	// Pairs are the platform pairs to block; the task gets one core.Block
	// per pair, in order.
	Pairs [][2]platform.ID
	// Rules is the candidate filter (Rules.Workers pins the scan's
	// parallelism).
	Rules blocking.Rules
	// Label controls how training labels attach to candidates.
	Label core.LabelOpts
	// SeedStride offsets Label.Seed by i·SeedStride for pair index i, so
	// multi-pair tasks can draw independent label samples per pair (the
	// experiment harness uses 1; the cmds use 0).
	SeedStride int64
}

// BlockState is the output of stage Block: the candidate task, plus
// per-pair blocking statistics for reporting.
type BlockState struct {
	*SystemState
	Opts  BlockOpts
	Task  *core.Task
	Stats []blocking.Stats
}

// Block generates candidate pairs and attaches labels for every platform
// pair, assembling the training task.
func Block(s *SystemState, o BlockOpts) (*BlockState, error) {
	if len(o.Pairs) == 0 {
		return nil, fmt.Errorf("pipeline: Block needs at least one platform pair")
	}
	st := &BlockState{SystemState: s, Opts: o, Task: &core.Task{}}
	for i, pp := range o.Pairs {
		label := o.Label
		label.Seed += int64(i) * o.SeedStride
		block, err := core.BuildBlock(s.Sys, pp[0], pp[1], o.Rules, label)
		if err != nil {
			return nil, err
		}
		st.Task.Blocks = append(st.Task.Blocks, block)
		st.Stats = append(st.Stats, blocking.Evaluate(s.DS, pp[0], pp[1], block.Cands))
	}
	return st, nil
}

// FitState is the output of stage Fit: the trained linker over the task.
type FitState struct {
	*BlockState
	Cfg    core.Config
	Linker *core.HydraLinker
}

// Fit trains HYDRA on the blocked task (Algorithm 1).
func Fit(b *BlockState, cfg core.Config) (*FitState, error) {
	linker := &core.HydraLinker{Cfg: cfg}
	if err := linker.Fit(b.Sys, b.Task); err != nil {
		return nil, err
	}
	return &FitState{BlockState: b, Cfg: cfg, Linker: linker}, nil
}

// EvalState is the output of stage Evaluate.
type EvalState struct {
	*FitState
	Conf metrics.Confusion
}

// Evaluate scores every candidate of the task against ground truth on the
// worker pool (≤ 0 = all cores; identical counts at any setting).
func Evaluate(f *FitState, workers int) (*EvalState, error) {
	conf, err := core.EvaluateLinkerWorkers(f.Sys, f.Linker, f.Task.Blocks, workers)
	if err != nil {
		return nil, err
	}
	return &EvalState{FitState: f, Conf: conf}, nil
}
