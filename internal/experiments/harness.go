package experiments

import (
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
	// evaluation). ≤ 0 uses all cores. Each run keeps its own seeded
	// RNGs, so any setting produces identical figures.
	Workers int
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

// run is one train/eval point of a figure: the linker that linker builds
// for a given inner-worker pin is fitted on task over sys, and its
// precision and recall are recorded at x on series.
type run struct {
	series string
	x      float64
	sys    *core.System
	task   *core.Task
	linker func(workers int) core.Linker
}

// sweep fits and evaluates runs over the worker pool and records their
// points on res in run order, so a figure is identical at any worker
// count. Each run's hot paths are pinned by parallel.Inner, which keeps
// the sweep within the pool. A failed run becomes one note. The seconds
// of a run are wall-clock fit+evaluate (the paper's total execution
// time); in a sweep of several runs they are measured under contention
// from sibling runs, so Figure 14, the efficiency figure, sweeps its runs
// one at a time on the whole pool.
func (c Config) sweep(res *Result, runs []run) {
	type outcome struct {
		conf metrics.Confusion
		secs float64
		err  error
	}
	inner := parallel.Inner(len(runs), c.Workers)
	outs := parallel.Map(c.Workers, len(runs), func(i int) outcome {
		r := runs[i]
		l := r.linker(inner)
		timer := metrics.NewTimer()
		if err := l.Fit(r.sys, r.task); err != nil {
			return outcome{err: err}
		}
		conf, err := core.EvaluateLinkerWorkers(r.sys, l, r.task.Blocks, inner)
		return outcome{conf: conf, secs: timer.Seconds(), err: err}
	})
	for i, r := range runs {
		if out := outs[i]; out.err != nil {
			res.Note("%s at %s=%g failed: %v", r.series, res.XLabel, r.x, out.err)
		} else {
			res.AddPoint(r.series, r.x, out.conf.Precision(), out.conf.Recall(), out.secs)
		}
	}
}

// hydra builds HYDRA under the suite's seed with set applied (nil for the
// defaults) and the run's worker pin.
func (c Config) hydra(set func(*core.Config)) func(workers int) core.Linker {
	return func(workers int) core.Linker {
		hcfg := core.DefaultConfig(c.Seed)
		if set != nil {
			set(&hcfg)
		}
		hcfg.Workers = workers
		return &core.HydraLinker{Cfg: hcfg}
	}
}

// lineup returns one run per (x, method) of the paper's lineup — HYDRA-M
// plus the four baselines — x-major, fitting tasks[i] at xs[i]. prefix
// starts every series name ("english/" names the dataset, "" none).
func (c Config) lineup(prefix string, sys *core.System, xs []float64, tasks []*core.Task) []run {
	methods := []func(int) core.Linker{
		c.hydra(nil),
		func(int) core.Linker { return &baseline.MOBIUS{} },
		func(int) core.Linker { return &baseline.SVMB{} },
		func(int) core.Linker { return &baseline.AliasDisamb{} },
		func(int) core.Linker { return &baseline.SMaSh{} },
	}
	var runs []run
	for i, x := range xs {
		for _, m := range methods {
			runs = append(runs, run{prefix + m(1).Name(), x, sys, tasks[i], m})
		}
	}
	return runs
}

// setup is a generated world and its systemized pipeline state, shared by
// the runs of a figure so that the expensive preprocessing (LDA, views)
// happens once. The System is safe for concurrent use, so runs against
// one setup sweep in parallel.
type setup struct {
	world *synth.World
	state *pipeline.SystemState
	sys   *core.System
	pairs [][2]platform.ID
}

// setupOpts customizes world generation per experiment.
type setupOpts struct {
	set          platform.Set
	persons      int
	seed         int64
	missingScale float64
	communities  int
}

// newSetup generates the world and runs the pipeline's Systemize stage
// over it (the Load stage is the in-memory generator here).
func newSetup(o setupOpts) (*setup, error) {
	cfg := synth.DefaultConfig(o.persons, o.set.Platforms, o.seed)
	if o.missingScale > 0 {
		cfg.MissingScale = o.missingScale
	}
	if o.communities > 0 {
		cfg.Communities = o.communities
	}
	w, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	fcfg := features.DefaultConfig(o.seed)
	fcfg.LDAIterations = 25
	fcfg.MaxLDADocs = 2500
	return systemize(w, o.set, fcfg)
}

// systemize trains the feature pipeline over w, with the labeled half of
// the persons on the set's first two platforms, for linking set's pairs.
func systemize(w *synth.World, set platform.Set, fcfg features.Config) (*setup, error) {
	state, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      set.Platforms[0],
		LabelPB:      set.Platforms[1],
		LabelPersons: pipeline.LabeledHalf(w.Dataset),
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      fcfg,
	})
	if err != nil {
		return nil, err
	}
	return &setup{world: w, state: state, sys: state.Sys, pairs: set.Pairs}, nil
}

// task blocks the setup's pairs into one task via the pipeline's Block
// stage, with the blocking scan pinned to workers; pair i draws its label
// sample at opts.Seed+i.
func (s *setup) task(opts core.LabelOpts, workers int) (*core.Task, error) {
	rules := blocking.DefaultRules()
	rules.Workers = workers
	blocked, err := pipeline.Block(s.state, pipeline.BlockOpts{
		Pairs:      s.pairs,
		Rules:      rules,
		Label:      opts,
		SeedStride: 1,
	})
	if err != nil {
		return nil, err
	}
	return blocked.Task, nil
}

// fractionTasks builds one task per labeled fraction, opts otherwise, in
// parallel; each build's blocking scan is pinned so the stage stays within
// the pool (see parallel.Inner).
func (s *setup) fractionTasks(cfg Config, fractions []float64, opts core.LabelOpts) ([]*core.Task, error) {
	inner := parallel.Inner(len(fractions), cfg.Workers)
	return parallel.MapErr(cfg.Workers, len(fractions), func(i int) (*core.Task, error) {
		o := opts
		o.LabelFraction = fractions[i]
		return s.task(o, inner)
	})
}

// cell is one (dataset, size) world of Figures 14 and 15 with its task.
type cell struct {
	set     platform.Set
	persons int // the world's size, the figures' x
	st      *setup
	task    *core.Task
}

// cells builds a fresh world and default-labeled task per (English or
// Chinese dataset, size), seeded at Seed+size, all in parallel.
func (c Config) cells(sizes []int, missingScale float64) ([]cell, error) {
	n := 2 * len(sizes)
	inner := parallel.Inner(n, c.Workers)
	return parallel.MapErr(c.Workers, n, func(i int) (cell, error) {
		set, size := platform.Sets[i/len(sizes)], sizes[i%len(sizes)]
		st, err := newSetup(setupOpts{
			set:          set,
			persons:      c.persons(size),
			seed:         c.Seed + int64(size),
			missingScale: missingScale,
		})
		if err != nil {
			return cell{}, err
		}
		task, err := st.task(core.DefaultLabelOpts(c.Seed), inner)
		return cell{set, c.persons(size), st, task}, err
	})
}

// best returns the first x at which vals peaks along xs, and the peak.
func best(xs, vals []float64) (x, peak float64) {
	peak = -1
	for i, v := range vals {
		if v > peak {
			x, peak = xs[i], v
		}
	}
	return x, peak
}
