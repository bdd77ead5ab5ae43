// Command hydra-pack rewrites an existing v3 serving bundle offline: it
// splits it into shards for a scatter-gather deployment, or (without
// -shards) decodes and re-encodes it whole. Bundles themselves come from
// one place, the training run (hydra-link -save-bundle), which packs the
// fitted system straight into the bundle:
//
//	go run ./cmd/hydra-link  -in world.json -save-bundle bundle.bin
//	go run ./cmd/hydra-pack  -bundle bundle.bin -shards 4 -generation 2 -o bundle.bin
//
// With -shards N the bundle is split into N self-contained sub-bundles:
// each holds the model and configs in full plus the views, friends and
// index rows of the B-side accounts a seeded consistent hash assigns to
// it (and the views of their friends, which Eqn-18 imputation needs).
// Shard k lands next to -o as name.shard0.ext … name.shardN-1.ext; serve
// each with hydra-serve and front them with hydra-router. Every output
// file is written next to its target and renamed over it, so packing
// over a bundle a server has open is safe; SIGHUP the server
// afterwards.
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
		inBundle   = flag.String("bundle", "", "existing bundle to re-shard or re-encode (from hydra-link -save-bundle)")
		out        = flag.String("o", "", "output bundle path (with -shards, the base name for name.shardK.ext files)")
		shards     = flag.Int("shards", 1, "split the bundle into this many self-contained shards (1 = no split)")
		seed       = flag.Uint64("hash-seed", 0, "seed of the consistent hash that assigns B-side accounts to shards")
		generation = flag.Uint64("generation", 1, "bundle generation stamped on each shard; hot swap requires strictly newer")
	)
	flag.Parse()
	if *inBundle == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: hydra-pack -bundle bundle.bin [-shards N] [-generation G] -o bundle.bin")
		os.Exit(2)
	}

	b, err := pipeline.LoadBundle(*inBundle)
	if err != nil {
		log.Fatal(err)
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
