// Command hydra-pack converts a v1 model artifact (hydra-link
// -save-model) plus the world file it was trained on into a
// self-contained v3 serving bundle, offline — the only way an artifact
// reaches a server, and the repack path for deployments still holding a
// retired v2 JSON bundle:
//
//	go run ./cmd/hydra-pack  -model model.json -world world.json -o bundle.bin
//	go run ./cmd/hydra-serve -bundle bundle.bin
//
// Packing rebuilds the feature system from the artifact's recipe once
// (fingerprint-checked against the world), snapshots every account view,
// top-friends slice and candidate index the serving engine queries, and
// writes them as one versioned bundle. After that the world file — raw
// posts, trajectories and ground truth included — no longer ships
// anywhere. Every output file is written next to its target and renamed
// over it, so packing over a bundle a server has mapped is safe; SIGHUP
// the server afterwards.
//
// With -shards N the bundle is split into N self-contained sub-bundles
// for a scatter-gather deployment: each holds the model and configs in
// full plus the views, friends and index rows of the B-side accounts a
// seeded consistent hash assigns to it (and the views of their friends,
// which Eqn-18 imputation needs). Shard k lands next to -o as
// name.shard0.ext … name.shardN-1.ext; serve each with hydra-serve and
// front them with hydra-router. Re-shard an already-packed bundle with
// -bundle instead of -model/-world:
//
//	go run ./cmd/hydra-pack -bundle bundle.bin -shards 4 -generation 2 -o bundle.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"hydra/internal/blocking"
	"hydra/internal/pipeline"
)

func main() {
	var (
		model       = flag.String("model", "", "model artifact JSON (from hydra-link -save-model)")
		world       = flag.String("world", "", "world JSON the model was trained on (from hydra-gen)")
		inBundle    = flag.String("bundle", "", "existing bundle to (re-)shard instead of packing from -model/-world")
		out         = flag.String("o", "", "output bundle path (with -shards, the base name for name.shardK.ext files)")
		workers     = flag.Int("workers", 0, "worker-pool size for every pack pass (index, prescreen, impute table); 0 = all cores (identical bundle at any setting)")
		shards      = flag.Int("shards", 1, "split the bundle into this many self-contained shards (1 = no split)")
		seed        = flag.Uint64("hash-seed", 0, "seed of the consistent hash that assigns B-side accounts to shards")
		generation  = flag.Uint64("generation", 1, "bundle generation stamped on each shard; hot swap requires strictly newer")
		imputeTable = flag.String("impute-table", "on", "pack-time Eqn-18 impute table: on|off; off strips the table so serving imputes through the live friend walk (bit-identical answers, smaller bundle)")
	)
	flag.Parse()
	if *imputeTable != "on" && *imputeTable != "off" {
		fmt.Fprintf(os.Stderr, "hydra-pack: -impute-table must be on or off, got %q\n", *imputeTable)
		os.Exit(2)
	}
	if *out == "" || (*inBundle == "" && (*model == "" || *world == "")) {
		fmt.Fprintln(os.Stderr, "usage: hydra-pack -model model.json -world world.json -o bundle.bin [-shards N]")
		fmt.Fprintln(os.Stderr, "       hydra-pack -bundle bundle.bin -shards N [-generation G] -o bundle.bin")
		os.Exit(2)
	}
	if *inBundle != "" && (*model != "" || *world != "") {
		fmt.Fprintln(os.Stderr, "hydra-pack: -bundle re-shards an existing bundle; do not combine it with -model/-world")
		os.Exit(2)
	}

	var (
		b   *pipeline.Bundle
		err error
	)
	if *inBundle != "" {
		if b, err = pipeline.LoadBundle(*inBundle); err != nil {
			log.Fatal(err)
		}
	} else {
		art, err := pipeline.LoadArtifact(*model)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := pipeline.LoadWorldFile(*world)
		if err != nil {
			log.Fatal(err)
		}
		if b, err = pipeline.BundleFromArtifact(art, ds, *workers); err != nil {
			log.Fatal(err)
		}
	}

	if *imputeTable == "off" {
		b.ImputeTable = nil
	}

	if *shards <= 1 {
		if err := pipeline.SaveBundle(*out, b); err != nil {
			log.Fatal(err)
		}
		report(*out, b)
		return
	}

	subs, err := pipeline.SplitBundle(b, *shards, *seed, *generation)
	if err != nil {
		log.Fatal(err)
	}
	for _, sb := range subs {
		path := shardPath(*out, sb.Shard.Index)
		if err := pipeline.SaveBundle(path, sb); err != nil {
			log.Fatal(err)
		}
		report(path, sb)
	}
	fmt.Fprintf(os.Stderr, "split into %d shards (hash seed %d, generation %d) — serve each with hydra-serve and front them with hydra-router\n",
		*shards, *seed, *generation)
}

// shardPath derives shard k's file name: bundle.bin -> bundle.shard0.bin.
func shardPath(out string, k int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.shard%d%s", strings.TrimSuffix(out, ext), k, ext)
}

func report(path string, b *pipeline.Bundle) {
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	views := 0
	for _, v := range b.Views {
		views += len(v)
	}
	suffix := "serve it with hydra-serve -bundle"
	if b.Shard != nil {
		suffix = fmt.Sprintf("shard %d/%d", b.Shard.Index, b.Shard.Count)
	}
	tbl := ""
	if b.ImputeTable != nil {
		tbl = fmt.Sprintf(", %d impute-table entries", b.ImputeTable.NumEntries())
	}
	fmt.Fprintf(os.Stderr, "packed %s: %d platforms, %d views, %d indexed pairs, top-%d friends%s, %d bytes — %s\n",
		path, len(b.Views), views, len(b.Indexes), b.FriendsK, tbl, info.Size(), suffix)
	// The candidate-set fan-out decides serving latency: every top-k
	// query scores its whole shard, so a ballooned tail is visible here
	// before it is visible in p99s.
	for _, ix := range b.Indexes {
		sizes := make([]int, len(ix.ByA))
		for i, row := range ix.ByA {
			sizes[i] = len(row)
		}
		f := blocking.FanoutOf(sizes)
		fmt.Fprintf(os.Stderr, "  blocking fan-out %s → %s: %d rows, %d candidates, mean %.1f / p99 %d / max %d per account\n",
			ix.PA, ix.PB, f.Rows, f.Total, f.Mean, f.P99, f.Max)
	}
}
