// Command hydra runs the end-to-end social identity linkage pipeline on a
// synthetic multi-platform world: generate → extract features → block →
// train → link → report. It is the quickest way to see the whole system
// work:
//
//	go run ./cmd/hydra -persons 80 -dataset english -label-frac 0.3
//
// The flow is the staged internal/pipeline (Systemize → Block → Fit →
// Evaluate) over a freshly generated world. The pairwise hot paths
// (blocking, feature assembly, kernel matrices, evaluation) run on all
// cores by default; -workers pins the pool size (-workers 1 is fully
// sequential) without changing any result.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/synth"
)

func main() {
	var (
		persons   = flag.Int("persons", 80, "number of natural persons in the world")
		dataset   = flag.String("dataset", "english", "dataset: english (Twitter+Facebook), chinese (5 platforms), all (7)")
		labelFrac = flag.Float64("label-frac", 0.3, "fraction of true candidate pairs given ground-truth labels")
		variant   = flag.String("variant", "m", "missing-data variant: m (friend imputation) or z (zero fill)")
		gammaL    = flag.Float64("gamma-l", 0, "supervised-loss weight γ_L (0 = default)")
		gammaM    = flag.Float64("gamma-m", -1, "structure-consistency weight γ_M (-1 = default)")
		p         = flag.Float64("p", 1, "utility exponent p")
		seed      = flag.Int64("seed", 1, "world and model seed")
		workers   = flag.Int("workers", 0, "worker-pool size for the pairwise hot paths (blocking, feature assembly, kernel, evaluation); 0 = all cores, 1 = sequential — results are identical at any setting")
		verbose   = flag.Bool("v", false, "print per-pair decisions for the first persons")
	)
	flag.Parse()

	set, err := platform.SetNamed(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	variantID, err := resolveVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generating %d-person world on %d platforms (seed %d)...\n", *persons, len(set.Platforms), *seed)
	world, err := synth.Generate(synth.DefaultConfig(*persons, set.Platforms, *seed))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training feature pipeline (attribute importance, LDA, lexicon models)...")
	sysState, err := pipeline.Systemize(world.Dataset, pipeline.SystemizeOpts{
		LabelPA:      set.Platforms[0],
		LabelPB:      set.Platforms[1],
		LabelPersons: pipeline.LabeledHalf(world.Dataset),
		Lexicons:     features.Lexicons{Genre: world.Lexicons.Genre, Sentiment: world.Lexicons.Sentiment},
		FeatCfg:      features.DefaultConfig(*seed),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("blocking candidate pairs and attaching labels...")
	rules := blocking.DefaultRules()
	rules.Workers = *workers
	blocked, err := pipeline.Block(sysState, pipeline.BlockOpts{
		Pairs: set.Pairs,
		Rules: rules,
		Label: core.LabelOpts{LabelFraction: *labelFrac, NegPerPos: 2, UsePreMatched: true, Seed: *seed},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, pp := range set.Pairs {
		st := blocked.Stats[i]
		fmt.Printf("  %s × %s: %d candidates (%d pre-matched at %.0f%% precision), %d/%d true pairs kept\n",
			pp[0], pp[1], st.NumCandidates, st.NumPreMatched, 100*st.PrePrecision,
			st.TruePairsKept, st.TruePairsTotal)
	}
	stats := blocked.Task.Stats()
	fmt.Printf("task: %d blocks, %d candidates, %d labeled (%d positive)\n",
		stats.Blocks, stats.Candidates, stats.Labeled, stats.Positives)

	cfg := core.DefaultConfig(*seed)
	if *gammaL > 0 {
		cfg.GammaL = *gammaL
	}
	if *gammaM >= 0 {
		cfg.GammaM = *gammaM
	}
	cfg.P = *p
	cfg.Workers = *workers
	cfg.Variant = variantID

	fmt.Printf("training %s (γ_L=%g, γ_M=%g, p=%g)...\n", cfg.Variant, cfg.GammaL, cfg.GammaM, cfg.P)
	fitted, err := pipeline.Fit(blocked, cfg)
	if err != nil {
		log.Fatal(err)
	}
	d := fitted.Linker.Model().Diag
	fmt.Printf("  n=%d candidates, N_l=%d labeled, SMO iters=%d, nnz(β)=%d, M density=%.2g\n",
		d.N, d.NL, d.SMOIters, d.NnzBeta, d.MDensity)
	fmt.Printf("  objectives: F_D=%.4g F_S=%.4g\n", d.FD, d.FS)

	evaled, err := pipeline.Evaluate(fitted, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlinkage result: %s\n", evaled.Conf)

	if *verbose {
		fmt.Println("\nsample decisions (first block, first 10 persons):")
		b := blocked.Task.Blocks[0]
		sys := sysState.Sys
		shown := 0
		for _, c := range b.Cands {
			if !sys.DS.SamePerson(b.PA, c.A, b.PB, c.B) {
				continue
			}
			score, err := fitted.Linker.PairScore(b.PA, c.A, b.PB, c.B)
			if err != nil {
				log.Fatal(err)
			}
			pa, _ := sys.DS.Platform(b.PA)
			pb, _ := sys.DS.Platform(b.PB)
			fmt.Printf("  %-20q × %-20q score=%+.3f linked=%v\n",
				pa.Account(c.A).Profile.Username, pb.Account(c.B).Profile.Username,
				score, score > 0)
			shown++
			if shown >= 10 {
				break
			}
		}
	}
	os.Exit(0)
}

// resolveVariant maps the -variant flag to the missing-data variant.
func resolveVariant(name string) (core.Variant, error) {
	switch name {
	case "m":
		return core.HydraM, nil
	case "z":
		return core.HydraZ, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want m or z)", name)
	}
}
