# HYDRA reproduction — build, verify and benchmark targets.
#
# `make ci` is the gate: it refuses unformatted files, vets, builds and
# tests every package, vets the cross-compiled builds (`make cross`),
# runs the chaos suite, runs every serve benchmark once, and gives the
# bundle reader's fuzz targets (the reader against the reference
# decoder, and the mapped open) and the world decoder's a short budget.
# `make bench` is the repository's one benchmark (bench/, BENCHMARK.json);
# `make ab REV=<rev>` is how a change claims or disclaims a difference on
# it.

GO ?= go

.PHONY: ci fmt vet cross build test race chaos fuzz-smoke bench bench-smoke ab identity figures lines

ci: fmt vet cross build test chaos bench-smoke fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# cross vets every package under three builds this host never compiles:
# darwin/arm64, windows/amd64 and big-endian s390x. No file is
# build-tagged, so all three compile the code linux does; the vets guard
# against a platform fork creeping back that one of them cannot build.
# windows still compiles serve.ListenAndServe's signal handling, and
# s390x aliasFloat64s's big-endian refusal. Offline, installed toolchain
# only.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the worker-pool and serving concurrency paths under the
# race detector — the serving engines (in-memory and mapped bundles and
# the tests' builder-backed reference, TestServe*, including the
# hot-swap drills), the scatter-gather router (TestRouter*), its one
# attempt path's hedged and unhedged flights (TestHedge*: a hedge loser
# answering after its call returned must leave the returned rows alone)
# and breakers (TestBreaker*, among them a caller's own cancellation
# booked as no replica failure, TestBreakerCallerCancellationIsNotAReplicaFailure,
# and a cancelled half-open probe handing its slot back,
# TestBreakerCancelledProbeHandsBackSlot), the chaos
# suite with its live-listener HTTP drill (TestChaos*), the two-tier
# prescreen oracles (TestPrescreen*, among them the certificate over
# every index pair of five seeded worlds and of both shards of their
# 2-way splits, TestPrescreenCertifiesIndexPairs, and the memoized fold
# against the unmemoized one, cold, warm and evicting inside one batch,
# at 1 and 4 workers, TestPrescreenBatchIntoMatchesState) and its fanned-out
# pack-time build (TestBuildPrescreenWorkersBitIdentical), the pack-time impute table vs
# live-path twins (TestImpute*), the cold Eqn-18 plan's partial friend
# pairs vs the single-pair reference walk, inline and fanned out
# (TestColdImputePlanWorkersBitIdentical), its lowest-index batch error
# (TestScoreBatchLowestErrorWorkers) and training's planned imputation
# vs the same reference at 1 and 4 workers
# (TestTrainImputeMatchesReferenceWorkers), the racing first touches of
# per-view derived state (TestPairConcurrentFirstTouch), the capped pair
# cache's second-touch admission (TestPairCacheAdmissionConcurrent), a mapped
# bundle's view evictions and entry reads into pooled scratch under
# concurrent decodes (TestMapped*Concurrent), the request middleware's
# closed endpoint label set under invented paths from several goroutines
# (TestMiddlewareUnknownPathsConcurrent), every figure's one sweep
# at 1 and 4 workers against its golden tables
# (TestFiguresMatchGoldenAtAnyWorkers), the staged pipeline and the
# fanned-out synth generator (*Workers*/*Determinism* tests) all match
# the filter.
# Allocation-budget tests are deliberately named outside it: the race
# runtime inflates AllocsPerRun.
race:
	$(GO) test -race -run 'Determinism|Concurrent|Workers|Serve|Router|Prescreen|Impute|Faults|Chaos|Hedge|Breaker' ./internal/...

# chaos runs the certification suite: seeded fault scripts (flapping,
# dead shard, uniform slowness, straggler tail, swap storms, overload —
# over in-process backends, and dead-replica / straggler-tail again over
# real HTTP listeners) against the hardened router, every answer
# asserted byte-identical to the fault-free single engine or truthfully
# degraded — plus the router's own failover, breaker, hedge and budget
# tests (among them the half-open wedge and deterministic score-batch
# error regressions), all under the race detector: every routed call in
# both packages steps the one attempt path (router.call: the failover
# walk, one flight per attempt, a hedged second flight for top-k), and a
# race there is a wrong answer under load.
# internal/faults is test-only: the injector, its HTTP and backend
# wrappers and the suite are all _test.go files, so no binary links them.
# Deterministic — a failure replays with
# `go test -race -run Chaos ./internal/faults/`.
chaos:
	$(GO) test -race -run 'Faults|Chaos|Router|Hedge|Breaker' -count=1 ./internal/faults/ ./internal/serve/router/

# fuzz-smoke gives each native fuzz target a short budget on top of the
# checked-in corpus, inside make ci because the bundle reader decides
# which files a server accepts, and the world decoder which files
# training accepts. FuzzReadersAgree holds ReadBundle to the tests'
# reference decoder (same verdict, equal bundles, a clean round trip);
# FuzzOpenBundleMapped drives the lazy open and entry reads. Each new
# interesting input is minimized for at most 100 runs: at the default
# (60 s per input) a fresh fuzz cache spends the whole 10 s minimizing,
# and FuzzReadersAgree made ≈ 1.2 k execs instead of ≈ 100 k. Long runs
# are manual (`go test -fuzz FuzzReadersAgree -fuzztime 10m ./internal/pipeline/`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadersAgree -fuzztime 10s -fuzzminimizetime 100x ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzOpenBundleMapped -fuzztime 10s -fuzzminimizetime 100x ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWorld -fuzztime 10s -fuzzminimizetime 100x ./internal/platform/

# bench-smoke runs every serve benchmark (among them
# BenchmarkServeTopKColdSweep, which reports the pair cache's
# cache-entries and the live-heap-MB after a cold sweep over a small
# tile), the pair kernel's
# (BenchmarkPair: first-touch, steady, and missing-only — the selector a
# cold Eqn-18 friend pair computes under), the two training hot spots
# (BenchmarkStructureBuild: Eqn 9's matrix over seeded synthetic graphs;
# BenchmarkBuildPrescreen: the pack-time prescreen fit over trained parts
# and a fixed query sample) and the price of re-decoding an evicted view
# (BenchmarkMappedViewRedecode: one entry read and its copy-decode)
# once (-benchtime=1x) as part of make ci — not for numbers
# (those come from `make bench`), but so the microbenchmarks themselves
# (fixtures, pooled buffers, the v3 decode path, the wide-shard exact vs
# two-tier prescreen pair, the derived per-view state, the training
# fixtures) cannot rot between perf PRs.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Serve|Pair' -benchtime=1x ./internal/serve/ ./internal/features/
	$(GO) test -run '^$$' -bench 'StructureBuild|BuildPrescreen' -benchtime=1x ./internal/structure/ ./internal/core/
	$(GO) test -run '^$$' -bench 'MappedViewRedecode' -benchtime=1x ./internal/pipeline/

# bench runs the repository's benchmark: the five BENCHMARK.json
# workloads over one fixed world, every answer checked bit for bit
# against an independent oracle. See bench/README.md for flags
# (--workload, --seed, --seconds, --trace, -repeat).
bench:
	bash bench/run.sh

# ab compares this working tree (B) with the commit REV (A) on the
# benchmark without touching bench/: PAIRS alternating pairs (A B B A …)
# of `bash bench/run.sh --seed i --seconds 10` — the workload W, or full
# sets when W is empty — each side built from its own copy in $$TMPDIR,
# then per (workload, metric) the median B/A ratio, the pairs that
# favoured B, A's spread (interquartile range over median, from 4 pairs)
# and a verdict against BENCHMARK.json's bound: BREACH, or unresolved
# when A's spread exceeds the bound and not every B run beats every A
# run, or ok. Exits 1 on a breach, 3 when a workload has no result on
# one side. A full-set run
# of 6 pairs takes about 16 minutes on two cores; see scripts/ab.sh.
PAIRS ?= 6
ab:
	@test -n "$(REV)" || { echo 'usage: make ab REV=<rev> [W=<workload>] [PAIRS=6]' >&2; exit 2; }
	bash scripts/ab.sh "$(REV)" "$(W)" "$(PAIRS)"

# identity checks that this working tree makes the same bytes as the
# commit REV: both sides build hydra-gen, hydra-link, hydra-pack and
# hydra-serve from their own copies in $$TMPDIR and make a 40-person
# seed-3 world, its bundle, the bundle's two-shard split and one fixed
# REPL transcript off each of the three bundles. Prints equal or differs
# per artifact and exits 1 when any differs; see scripts/identity.sh.
identity:
	@test -n "$(REV)" || { echo 'usage: make identity REV=<rev>' >&2; exit 2; }
	bash scripts/identity.sh "$(REV)"

# figures regenerates every figure table (the full experiment suite).
figures:
	$(GO) run ./cmd/hydra-bench

# lines prints the Go line counts outside bench/, all files and then
# non-test files, over what git tracks (stage new files first). A deletion
# change quotes its before and after.
lines:
	@git ls-files '*.go' ':!:bench/' | xargs cat | wc -l | xargs printf 'go outside bench/: %7d lines\n'
	@git ls-files '*.go' ':!:bench/' ':!:*_test.go' | xargs cat | wc -l | xargs printf '  non-test:        %7d lines\n'
