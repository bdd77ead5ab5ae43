// Command hydra-router is the scatter-gather front door of a sharded
// HYDRA serving deployment. Pack a bundle into N shards, start one
// hydra-serve per shard, and point the router at them:
//
//	go run ./cmd/hydra-pack   -bundle bundle.bin -shards 4 -generation 1 -o bundle.bin
//	go run ./cmd/hydra-serve  -bundle bundle.shard0.bin -http :8081   # … one per shard
//	go run ./cmd/hydra-router -shards http://localhost:8081,http://localhost:8082,... -http :8080
//
// The router exposes the same /score /link /topk endpoints as a single
// hydra-serve, so clients need no changes: score and link queries route
// to the one shard the bundle's consistent hash assigns the B-side
// account to, top-k queries fan out to every shard and merge exactly
// (shards partition the candidate space, so the merged ranking is
// bit-identical to an unsharded engine). Replicas of one shard are
// comma-less "|"-separated within a -shards entry:
//
//	-shards 'http://a:8081|http://b:8081,http://a:8082|http://b:8082'
//
// means two shards, each with two replicas; the router fails over inside
// a shard before declaring it down. A shard that stays down degrades
// top-k responses (flagged, partial) instead of failing them.
//
// On startup the router health-checks every shard and refuses to serve
// an incoherent set (wrong shard in a slot, mismatched split topology).
// SIGHUP re-probes — run it after a rolling bundle swap or membership
// repair. SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"hydra/internal/obs"
	"hydra/internal/serve"
	"hydra/internal/serve/router"
)

func main() {
	var (
		shardsFlag      = flag.String("shards", "", "comma-separated shard endpoints in shard order; '|' separates replicas of one shard")
		httpAddr        = flag.String("http", ":8080", "serve HTTP on this address")
		timeout         = flag.Duration("timeout", 2*time.Second, "per-replica attempt timeout")
		logRequests     = flag.Bool("log-requests", false, "write one JSON log line per HTTP request to stderr")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get to finish on SIGINT/SIGTERM")
		refreshInterval = flag.Duration("refresh-interval", 30*time.Second, "re-probe the serving set in the background on this jittered interval so recovered replicas rejoin without SIGHUP (0 disables; SIGHUP stays the forced path)")
		hedgeAfter      = flag.Duration("hedge-after", 0, "tied hedged top-k requests: fire the backup replica after this delay (0 = adaptive, from the slowest recent attempt; negative disables)")
		defaultBudget   = flag.Duration("default-budget", 0, "end-to-end deadline budget applied to requests without an "+`X-Hydra-Deadline-Ms`+" header (0 = unbudgeted)")
	)
	flag.Parse()
	// The startup probe's deadline is built from this value, so a
	// non-positive one would expire before the first shard answered.
	if *timeout <= 0 {
		fmt.Fprintf(os.Stderr, "hydra-router: -timeout must be positive, got %v\n", *timeout)
		os.Exit(2)
	}
	if *shardsFlag == "" {
		fmt.Fprintln(os.Stderr, "usage: hydra-router -shards http://host:8081,http://host:8082[,...] [-http :8080]")
		fmt.Fprintln(os.Stderr, "       replicas of one shard: -shards 'http://a:8081|http://b:8081,...'")
		os.Exit(2)
	}

	var shards [][]router.Backend
	for _, group := range strings.Split(*shardsFlag, ",") {
		var replicas []router.Backend
		for _, u := range strings.Split(group, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			replicas = append(replicas, &router.HTTP{URL: strings.TrimRight(u, "/")})
		}
		shards = append(shards, replicas)
	}
	rt, err := router.New(shards, router.Options{
		Timeout:       *timeout,
		HedgeAfter:    *hedgeAfter,
		DefaultBudget: *defaultBudget,
	})
	if err != nil {
		log.Fatal(err)
	}

	refresh := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*(*timeout)*time.Duration(rt.NumShards()))
		defer cancel()
		return rt.Refresh(ctx)
	}
	if err := refresh(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "routing over %d shards, %d platform pairs\n", rt.NumShards(), len(rt.Pairs()))

	// Background re-probe on a jittered interval: a replica that comes
	// back (or a repaired topology) rejoins without operator action.
	stopAutoRefresh := rt.StartAutoRefresh(*refreshInterval, func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "background refresh failed: %v — keeping previous view of the serving set\n", err)
		}
	})
	defer stopAutoRefresh()

	// /metrics: the request families, then the router's own block — each
	// shard's prescreen and impute health as of its last probe (startup
	// refresh, SIGHUP, background re-probe, every /healthz), breaker
	// states, hedge outcomes and retry-budget exhaustion.
	metrics := obs.NewMetrics()
	metrics.Add(rt.WriteMetrics)
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	mux.Handle("/metrics", metrics.Handler())
	var logs io.Writer
	if *logRequests {
		logs = os.Stderr
	}
	handler := obs.Middleware(mux, metrics, logs)

	fmt.Fprintf(os.Stderr, "serving HTTP on %s (/healthz /score /link /topk /metrics)\n", *httpAddr)
	err = serve.ListenAndServe(*httpAddr, handler, *drainTimeout, func() {
		if err := refresh(); err != nil {
			fmt.Fprintf(os.Stderr, "refresh failed: %v — keeping previous view of the serving set\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "refreshed: %d shards coherent\n", rt.NumShards())
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "drained; bye")
}
