package experiments

import (
	"fmt"

	"hydra/internal/baseline"
	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/metrics"
	"hydra/internal/parallel"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// Config scales the experiment suite. Scale = 1 is the calibrated laptop
// scale (hundreds of users against the paper's millions; curve shapes, not
// absolute axes, are the reproduction target — see the README's
// introduction).
type Config struct {
	// Scale multiplies every world size (≥ 0.25 recommended).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Workers pins the parallelism of the sweep fan-out and of every
	// pairwise hot path underneath (blocking, feature assembly, Gram,
	// evaluation). ≤ 0 uses all cores. Each sweep point keeps its own
	// seeded RNGs, so any setting produces identical figures.
	Workers int
}

// hydraConfig is core.DefaultConfig with the suite's worker pin applied.
func (c Config) hydraConfig() core.Config {
	hcfg := core.DefaultConfig(c.Seed)
	hcfg.Workers = c.Workers
	return hcfg
}

// rulesFor is the blocking filter with a worker pin applied.
func rulesFor(workers int) blocking.Rules {
	r := blocking.DefaultRules()
	r.Workers = workers
	return r
}

func (c Config) persons(base int) int {
	if c.Scale <= 0 {
		return base
	}
	n := int(float64(base) * c.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

// setup is a prepared world + systemized pipeline state, shared across the
// x-axis points of a figure so that the expensive preprocessing (LDA,
// views) happens once. The System is safe for concurrent use, so sweep
// points run against one setup in parallel.
type setup struct {
	world   *synth.World
	state   *pipeline.SystemState
	sys     *core.System
	workers int
}

// setupOpts customizes world generation per experiment.
type setupOpts struct {
	persons      int
	platforms    []platform.ID
	seed         int64
	workers      int
	missingScale float64
	communities  int
	synthMutate  func(*synth.Config)
}

// newSetup builds the world and runs the pipeline's Systemize stage over
// it (the Load stage is the in-memory generator here).
func newSetup(o setupOpts) (*setup, error) {
	cfg := synth.DefaultConfig(o.persons, o.platforms, o.seed)
	if o.missingScale > 0 {
		cfg.MissingScale = o.missingScale
	}
	if o.communities > 0 {
		cfg.Communities = o.communities
	}
	if o.synthMutate != nil {
		o.synthMutate(&cfg)
	}
	w, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// The labeled half is persons 0..persons/2-1 by construction (the
	// generator numbers persons densely).
	var people []int
	for p := 0; p < o.persons/2; p++ {
		people = append(people, p)
	}
	fcfg := features.DefaultConfig(o.seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 2500
	state, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      o.platforms[0],
		LabelPB:      o.platforms[1],
		LabelPersons: people,
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		return nil, err
	}
	return &setup{world: w, state: state, sys: state.Sys, workers: o.workers}, nil
}

// task builds a single-block task between two platforms via the pipeline's
// Block stage.
func (s *setup) task(pa, pb platform.ID, opts core.LabelOpts) (*core.Task, error) {
	return s.multiTask([][2]platform.ID{{pa, pb}}, opts)
}

// multiTask builds a multi-block task over several platform pairs; pair i
// draws its label sample at seed+i.
func (s *setup) multiTask(pairs [][2]platform.ID, opts core.LabelOpts) (*core.Task, error) {
	blocked, err := pipeline.Block(s.state, pipeline.BlockOpts{
		Pairs:      pairs,
		Rules:      rulesFor(s.workers),
		Label:      opts,
		SeedStride: 1,
	})
	if err != nil {
		return nil, err
	}
	return blocked.Task, nil
}

// allLinkers returns the paper's method lineup: HYDRA-M plus the four
// baselines. workers pins HYDRA's internal parallelism.
func allLinkers(seed int64, workers int) []core.Linker {
	hcfg := core.DefaultConfig(seed)
	hcfg.Workers = workers
	return []core.Linker{
		&core.HydraLinker{Cfg: hcfg},
		&baseline.MOBIUS{},
		&baseline.SVMB{},
		&baseline.AliasDisamb{},
		&baseline.SMaSh{},
	}
}

// runLinker fits and evaluates one method, returning its confusion and the
// wall-clock seconds of fit+evaluate (the paper's total execution time).
// workers pins the evaluation parallelism (≤ 0 = all cores). Inside a
// parallel sweep the seconds are measured under core contention from
// sibling points, so the time(s) column of fig8–fig12 is indicative only;
// Figure 14, the efficiency figure, deliberately runs its points
// sequentially to keep its timings uncontended.
func runLinker(sys *core.System, l core.Linker, task *core.Task, workers int) (metrics.Confusion, float64, error) {
	timer := metrics.NewTimer()
	if err := l.Fit(sys, task); err != nil {
		return metrics.Confusion{}, 0, fmt.Errorf("%s: %w", l.Name(), err)
	}
	conf, err := core.EvaluateLinkerWorkers(sys, l, task.Blocks, workers)
	if err != nil {
		return metrics.Confusion{}, 0, fmt.Errorf("%s: %w", l.Name(), err)
	}
	return conf, timer.Seconds(), nil
}

// runResult is one sweep point's outcome, collected index-ordered by the
// parallel figure sweeps so that result tables and notes are assembled in
// the same order as the sequential loops they replace.
type runResult struct {
	conf metrics.Confusion
	secs float64
	err  error
}

// runPoint runs one train/eval sweep point and wraps the outcome.
func runPoint(sys *core.System, l core.Linker, task *core.Task, workers int) runResult {
	conf, secs, err := runLinker(sys, l, task, workers)
	return runResult{conf: conf, secs: secs, err: err}
}

// innerWorkers picks the worker pin for the hot paths inside a parallel
// sweep (see parallel.Inner: covering fan-outs pin to one worker, smaller
// ones split the pool). Results are identical either way.
func innerWorkers(points int, cfg Config) int {
	return parallel.Inner(points, cfg.Workers)
}

// runGrid fans out the (task × method) grid shared by the labeled- and
// unlabeled-sweep figures and appends rows and failure notes to res in
// grid order — identical output at any worker count. prefix starts every
// series name and note ("english/" names the dataset, "" none).
func runGrid(sys *core.System, cfg Config, res *Result, prefix string, xs []float64, tasks []*core.Task) {
	names := allLinkers(cfg.Seed, 1)
	nLinkers := len(names)
	inner := innerWorkers(len(xs)*nLinkers, cfg)
	outs := parallel.Map(cfg.Workers, len(xs)*nLinkers, func(i int) runResult {
		fi, li := i/nLinkers, i%nLinkers
		linker := allLinkers(cfg.Seed, inner)[li]
		return runPoint(sys, linker, tasks[fi], inner)
	})
	for fi, x := range xs {
		for li := 0; li < nLinkers; li++ {
			out := outs[fi*nLinkers+li]
			if out.err != nil {
				res.Note("%s%s at frac %.2f failed: %v", prefix, names[li].Name(), x, out.err)
				continue
			}
			res.AddPoint(prefix+names[li].Name(), x, out.conf.Precision(), out.conf.Recall(), out.secs)
		}
	}
}
