// Command hydra-link reads a synthetic world previously written by
// hydra-gen and runs the staged linkage pipeline on it (Load → Systemize →
// Block → Fit → Evaluate) — the file-based workflow for experimenting with
// fixed datasets, and the training half of the train/serve split:
//
//	go run ./cmd/hydra-gen   -persons 120 -dataset english -o world.json
//	go run ./cmd/hydra-link  -in world.json -pa twitter -pb facebook -save-bundle bundle.bin
//	go run ./cmd/hydra-serve -bundle bundle.bin
//
// -save-bundle packs the fitted system straight into what hydra-serve
// serves; it is the only way to make a bundle. hydra-pack then re-shards
// or strips an existing bundle.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hydra/internal/pipeline"
)

func main() {
	var (
		in         = flag.String("in", "", "input world JSON (from hydra-gen)")
		paName     = flag.String("pa", "twitter", "first platform id")
		pbName     = flag.String("pb", "facebook", "second platform id")
		labelFrac  = flag.Float64("label-frac", 0.3, "labeled fraction of true candidate pairs")
		seed       = flag.Int64("seed", 1, "model seed")
		workers    = flag.Int("workers", 0, "worker-pool size for the pairwise hot paths; 0 = all cores, 1 = sequential — results are identical at any setting")
		report     = flag.Bool("report", false, "print the feature-group weight report")
		saveBundle = flag.String("save-bundle", "", "pack the trained model plus precomputed serving state into a self-contained bundle at this path (serve it with hydra-serve -bundle, no world file)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: hydra-link -in world.json [-pa twitter -pb facebook] [-save-bundle bundle.bin]")
		os.Exit(2)
	}
	err := pipeline.RunLink(pipeline.LinkOpts{
		WorldPath:  *in,
		PA:         *paName,
		PB:         *pbName,
		LabelFrac:  *labelFrac,
		Seed:       *seed,
		Workers:    *workers,
		Report:     *report,
		SaveBundle: *saveBundle,
	}, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
}
