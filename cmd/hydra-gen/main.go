// Command hydra-gen generates a synthetic multi-platform social world and
// writes it as JSON — the stand-in for the paper's seven-platform crawl
// (see the README's introduction).
//
//	go run ./cmd/hydra-gen -persons 200 -dataset all -o world.json
//
// The whole world is generated in memory (synth.Generate), then encoded
// (platform.Encode); the output file is created only once generation has
// accepted the configuration, so a refused run leaves an existing file as
// it was. Generation fans out over the -workers pool: every random draw
// comes from a per-person or per-platform seeded stream, so the emitted
// world is byte-identical at any worker count (pinned by the synth
// package's workers test).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"hydra/internal/platform"
	"hydra/internal/synth"
)

func main() {
	var (
		persons = flag.Int("persons", 100, "number of natural persons")
		dataset = flag.String("dataset", "english", "dataset: english, chinese or all")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output path (default stdout)")
		missing = flag.Float64("missing-scale", 1, "missingness multiplier (1 = Figure 2(a) regime)")
		workers = flag.Int("workers", 0, "worker-pool size for person/account generation; 0 = all cores — the world is byte-identical at any setting")
	)
	flag.Parse()

	set, err := platform.SetNamed(*dataset)
	if err != nil {
		log.Fatal(err)
	}

	cfg := synth.DefaultConfig(*persons, set.Platforms, *seed)
	cfg.MissingScale = *missing
	cfg.Workers = *workers

	world, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	f := os.Stdout
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := platform.Encode(bw, world.Dataset); err != nil {
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d persons × %d platforms to %s\n",
			*persons, len(set.Platforms), *out)
	}
}
