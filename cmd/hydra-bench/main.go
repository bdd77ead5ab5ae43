// Command hydra-bench regenerates every figure of the paper's evaluation
// (Section 7) plus the ablation studies, printing each as a text table.
//
//	go run ./cmd/hydra-bench                  # full suite
//	go run ./cmd/hydra-bench -only fig9,fig15 # a subset
//	go run ./cmd/hydra-bench -scale 0.5       # smaller worlds, faster
//	go run ./cmd/hydra-bench -workers 1       # pin the pool (sequential)
//
// The figures and their -only keys are experiments.Figures; an unknown key
// is refused with exit status 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"hydra/internal/experiments"
)

func main() {
	keys := make([]string, len(experiments.Figures))
	for i, f := range experiments.Figures {
		keys[i] = f.Key
	}
	var (
		scale   = flag.Float64("scale", 1, "world-size multiplier")
		seed    = flag.Int64("seed", 7, "suite seed")
		workers = flag.Int("workers", 0, "worker-pool size for sweep points and pairwise hot paths; 0 = all cores, 1 = sequential — figures are identical at any setting")
		only    = flag.String("only", "", "comma-separated subset: "+strings.Join(keys, ","))
	)
	flag.Parse()
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(keys, k) {
				fmt.Fprintf(os.Stderr, "hydra-bench: unknown -only key %q (want some of %s)\n", k, strings.Join(keys, ","))
				os.Exit(2)
			}
			want[k] = true
		}
	}

	start := time.Now()
	for _, f := range experiments.Figures {
		if len(want) > 0 && !want[f.Key] {
			continue
		}
		t0 := time.Now()
		res, err := f.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", f.Key, err)
		}
		fmt.Print(res.Format())
		fmt.Printf("(%s finished in %.1fs)\n\n", f.Key, time.Since(t0).Seconds())
	}
	fmt.Printf("suite complete in %.1fs\n", time.Since(start).Seconds())
}
