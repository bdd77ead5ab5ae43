package pipeline

import (
	"fmt"
	"io"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

// LinkOpts mirrors cmd/hydra-link's flags.
type LinkOpts struct {
	// WorldPath is the hydra-gen world JSON to load.
	WorldPath string
	// PA and PB are the platform pair to link.
	PA, PB string
	// LabelFrac is the labeled fraction of true candidate pairs.
	LabelFrac float64
	// Seed drives labeling and the model.
	Seed int64
	// Workers pins the worker pool (0 = all cores; identical results at
	// any setting).
	Workers int
	// Report prints the feature-group weight report.
	Report bool
	// SaveBundle, when non-empty, packs the trained model plus all
	// precomputed serving state into a self-contained bundle at this
	// path — hydra-serve -bundle then needs no world file at all.
	SaveBundle string
}

// RunLink is cmd/hydra-link's whole flow on the staged pipeline, printing
// to stdout. It exists as a function so the equivalence tests can run the
// exact command path in-process and compare bytes against the legacy
// hand-rolled flow.
func RunLink(o LinkOpts, stdout io.Writer) error {
	ds, err := LoadWorldFile(o.WorldPath)
	if err != nil {
		return err
	}
	pa, pb := platform.ID(o.PA), platform.ID(o.PB)

	// The feature pipeline needs the genre/sentiment lexicons; they are
	// deterministic vocabulary constructions shared with the generator.
	lx := synth.BuildLexicons(8, 40)
	sysState, err := Systemize(ds, SystemizeOpts{
		LabelPA:      pa,
		LabelPB:      pb,
		LabelPersons: LabeledHalf(ds),
		Lexicons:     features.Lexicons{Genre: lx.Genre, Sentiment: lx.Sentiment},
		FeatCfg:      features.DefaultConfig(o.Seed),
	})
	if err != nil {
		return err
	}

	rules := blocking.DefaultRules()
	rules.Workers = o.Workers
	blocked, err := Block(sysState, BlockOpts{
		Pairs: [][2]platform.ID{{pa, pb}},
		Rules: rules,
		Label: core.LabelOpts{LabelFraction: o.LabelFrac, NegPerPos: 2, UsePreMatched: true, Seed: o.Seed},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "world: %d persons; task: %d candidates, %d labeled\n",
		ds.NumPersons(), blocked.Task.NumCandidates(), blocked.Task.NumLabeled())

	hcfg := core.DefaultConfig(o.Seed)
	hcfg.Workers = o.Workers
	fitted, err := Fit(blocked, hcfg)
	if err != nil {
		return err
	}
	evaled, err := Evaluate(fitted, o.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "linkage result: %s\n", evaled.Conf)

	if o.Report {
		gws, err := core.FeatureGroupReport(sysState.Sys, blocked.Task, core.HydraM)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nfeature-group weight report:")
		fmt.Fprint(stdout, core.FormatGroupWeights(gws))
	}

	if o.SaveBundle != "" {
		bundle, err := fitted.Bundle(o.Workers)
		if err != nil {
			return err
		}
		if err := SaveBundle(o.SaveBundle, bundle); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved serving bundle to %s\n", o.SaveBundle)
	}
	return nil
}
