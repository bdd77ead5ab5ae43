// Command hydra-serve is the query front-end of the train/serve split: it
// answers score / link / top-k linkage queries without retraining — over
// stdin by default, or over HTTP with -http.
//
// It serves one thing: a self-contained v3 bundle (-bundle) written by
// hydra-link -save-bundle or hydra-pack. The bundle carries precomputed
// account views, friend slices and candidate indexes, so there is no
// world file, no feature rebuild, and the raw behavior data never ships
// to the server. The file is opened, not decoded: startup reads the
// header and the model sections and locates every account entry, entries
// are read from the file on first touch, and resident memory tracks the
// working set — bundles larger than RAM serve fine. Every answer is
// bit-identical to the system the bundle was packed from.
//
//	go run ./cmd/hydra-gen   -persons 120 -dataset english -o world.json
//	go run ./cmd/hydra-link  -in world.json -save-bundle bundle.bin
//	echo "topk twitter 4 facebook 3" | go run ./cmd/hydra-serve -bundle bundle.bin
//	go run ./cmd/hydra-serve -bundle bundle.bin -http :8080
//
// The HTTP server is built for long-lived serving:
//
//   - SIGHUP re-opens the -bundle file and hot-swaps it in atomically.
//     In-flight queries finish on the generation they started on; the
//     swap is refused if the new bundle's generation is not strictly
//     newer or its shard topology differs (see serve.Swappable). Because
//     the served file stays open and is read on first touch, replace it
//     by rename (write the new bundle next to it and mv it over —
//     hydra-pack and hydra-link do), never by rewriting it in place.
//   - SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
//     requests get -drain-timeout to finish, then the process exits.
//   - /metrics exposes per-endpoint Prometheus counters and latency
//     histograms; -log-requests writes one JSON line per request.
//   - /healthz reports the bundle generation and shard descriptor, which
//     hydra-router uses to verify a coherent serving set.
//
// Query batches fan out over the -workers pool. The server runs with
// read/write timeouts and a capped request body size, so stalled or
// abusive clients cannot pin connections or buffer unbounded input.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"hydra/internal/obs"
	"hydra/internal/pipeline"
	"hydra/internal/serve"
)

func main() {
	var (
		bundle       = flag.String("bundle", "", "self-contained v3 serving bundle (from hydra-link -save-bundle or hydra-pack), held open and read on first touch; replace it by rename, never in place")
		workers      = flag.Int("workers", 0, "worker-pool size for query batches; 0 = all cores")
		httpAddr     = flag.String("http", "", "serve HTTP on this address (e.g. :8080) instead of the stdin REPL")
		logRequests  = flag.Bool("log-requests", false, "write one JSON log line per HTTP request to stderr")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get to finish on SIGINT/SIGTERM")
		maxInflight  = flag.Int("max-inflight", 0, "bounded admission: max concurrently served requests before shedding with 429 + Retry-After (0 = unbounded; /healthz and /metrics always pass)")
		prewarmN     = flag.Int("prewarm", 1024, "pre-warm an incoming engine before a SIGHUP hot swap publishes it: top-k per A-side account populating the pair cache and prescreen fold memo, capped at this many accounts per pair (-1 = all, 0 = off)")
	)
	flag.Parse()
	if *bundle == "" {
		fmt.Fprintln(os.Stderr, "usage: hydra-serve -bundle bundle.bin [-http :8080]")
		os.Exit(2)
	}
	eng, err := loadBundleEngine(*bundle, *workers)
	if err != nil {
		log.Fatal(err)
	}

	if *httpAddr == "" {
		if err := eng.REPL(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
		return
	}

	// /metrics: the request families, then the block the installed
	// engine generation writes from its own counters (prescreen,
	// imputation, residency, fan-out — a hot swap is reflected on the next
	// scrape with nothing to re-attach), then the admission gate's.
	holder := serve.NewSwappable(eng)
	admission := obs.NewAdmission(*maxInflight)
	metrics := obs.NewMetrics()
	metrics.Add(holder.WriteMetrics)
	metrics.Add(admission.WriteMetrics)
	mux := http.NewServeMux()
	mux.Handle("/", holder.Handler())
	mux.Handle("/metrics", metrics.Handler())
	var logs io.Writer
	if *logRequests {
		logs = os.Stderr
	}
	// Innermost to outermost: deadline-budget enforcement (504 on spent
	// budgets, feeds the remaining-budget histogram), bounded admission
	// (429 + Retry-After past -max-inflight), then request metrics/logs
	// so shed and expired requests are still counted and logged.
	handler := obs.Middleware(admission.Middleware(serve.DeadlineMiddleware(mux, metrics)), metrics, logs)

	// SIGHUP hot-swaps the bundle; SIGINT/SIGTERM drain and exit.
	swap := func() {
		next, err := loadBundleEngine(*bundle, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swap refused: %v — keeping current generation\n", err)
			return
		}
		// Pre-warm before publishing: the old generation keeps serving
		// while the new one's pair cache and prescreen fold memo fill, so
		// the first post-swap queries don't pay the cold-cache tail.
		if *prewarmN != 0 {
			warmStart := time.Now()
			if err := next.Prewarm(*prewarmN); err != nil {
				fmt.Fprintf(os.Stderr, "swap refused: prewarm: %v — keeping current generation\n", err)
				next.Close()
				return
			}
			fmt.Fprintf(os.Stderr, "prewarmed incoming generation in %s\n", time.Since(warmStart).Round(time.Millisecond))
		}
		old, err := holder.Swap(next)
		if err != nil {
			fmt.Fprintf(os.Stderr, "swap refused: %v — keeping current generation\n", err)
			next.Close() // release the rejected engine's file
			return
		}
		// The old generation's file closes only after its last pinned
		// request drains.
		old.Retire()
		_, gen := holder.Current()
		fmt.Fprintf(os.Stderr, "swapped in generation %d from %s; in-flight queries finish on the old generation\n", gen, *bundle)
	}
	fmt.Fprintf(os.Stderr, "serving HTTP on %s (/healthz /score /link /topk /metrics)\n", *httpAddr)
	if err := serve.ListenAndServe(*httpAddr, handler, *drainTimeout, swap); err != nil {
		log.Fatal(err)
	}
	cur, _ := holder.Current()
	if err := cur.Close(); err != nil {
		log.Fatalf("closing bundle: %v", err)
	}
	fmt.Fprintln(os.Stderr, "drained; bye")
}

// loadBundleEngine opens a bundle file and builds its engine — startup
// and every SIGHUP swap go through the same path. The model sections are
// read and decoded at open; account entries are read from the file on
// first touch.
func loadBundleEngine(path string, workers int) (*serve.Engine, error) {
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngineFromMapped(mb, workers)
	if err != nil {
		mb.Close()
		return nil, err
	}
	shard := ""
	if d := mb.Shard(); d != nil {
		shard = fmt.Sprintf(", shard %d/%d gen %d", d.Index, d.Count, d.Generation)
	}
	mp := mb.ModelParts()
	fmt.Fprintf(os.Stderr, "bundle (%d bytes): %s kernel, %d candidate vectors, %d platforms; indexes for %d platform pairs%s\n",
		mb.Stats().Bytes, mp.KernelKind, len(mp.Xs), len(mb.Platforms()), len(eng.Pairs()), shard)
	return eng, nil
}
