# HYDRA reproduction — build, verify and benchmark targets.
#
# `make ci` is the gate: it refuses unformatted files, vets, builds and
# tests every package, vets the cross-compiled builds (`make cross`),
# runs the chaos suite, runs every serve benchmark once, and gives the
# bundle readers' fuzz targets a short budget.
# `make bench` is the repository's one benchmark (bench/, BENCHMARK.json).

GO ?= go

.PHONY: ci fmt vet cross build test race chaos fuzz-smoke bench bench-smoke figures lines

ci: fmt vet cross build test chaos bench-smoke fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# cross vets every package under the three builds this host never
# compiles: darwin (mmap without Madvise — resident_other.go), windows
# (the heap-copy fallback, mmap_other.go) and big-endian s390x (the
# aliasFloat64s refusal path). Offline, installed toolchain only.
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
# hot-swap drills), the scatter-gather router (TestRouter*), the chaos
# suite with its live-listener HTTP drill (TestChaos*), the two-tier
# prescreen oracles (TestPrescreen*) and its fanned-out pack-time build
# (TestBuildPrescreenWorkersBitIdentical), the pack-time impute table vs
# live-path twins (TestImpute*), the racing first touches of per-view
# derived state (TestPairConcurrentFirstTouch), the capped pair cache's
# second-touch admission (TestPairCacheAdmissionConcurrent), a mapped
# bundle's view evictions and page drops under concurrent decodes
# (TestMapped*Concurrent),
# the staged pipeline, the parallel figure sweeps and the fanned-out
# synth generator (*Workers*/*Determinism* tests) all match the filter.
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
# tests, all under the race detector: both packages walk the one
# failover iterator, and a race there is a wrong answer under load.
# Deterministic — a failure replays with
# `go test -race -run Chaos ./internal/faults/`.
chaos:
	$(GO) test -race -run 'Faults|Chaos|Router|Hedge|Breaker' -count=1 ./internal/faults/ ./internal/serve/router/

# fuzz-smoke gives each native fuzz target a short budget on top of the
# checked-in corpus, inside make ci because the readers decide which
# files a server accepts, and the world decoder which files training
# accepts — long runs are manual
# (`go test -fuzz FuzzReadBundle -fuzztime 10m ./internal/pipeline/`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadBundle -fuzztime 10s ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzOpenBundleMapped -fuzztime 10s ./internal/pipeline/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWorld -fuzztime 10s ./internal/platform/

# bench-smoke runs every serve benchmark (among them
# BenchmarkServeTopKColdSweep, which reports the pair cache's
# cache-entries and the live-heap-MB after a cold sweep over a small
# tile), the pair kernel's
# (BenchmarkPair: first-touch and steady), the two training hot spots
# (BenchmarkStructureBuild: Eqn 9's matrix over seeded synthetic graphs;
# BenchmarkBuildPrescreen: the pack-time prescreen fit over trained parts
# and a fixed query sample) and the price of a mapped view's page drop
# (BenchmarkMappedViewRedecode: a view decoded from dropped vs resident
# pages) once (-benchtime=1x) as part of make ci — not for numbers
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

# figures regenerates every figure table (the full experiment suite).
figures:
	$(GO) run ./cmd/hydra-bench

# lines prints the Go line counts outside bench/, all files and then
# non-test files, over what git tracks (stage new files first). A deletion
# change quotes its before and after.
lines:
	@git ls-files '*.go' ':!:bench/' | xargs cat | wc -l | xargs printf 'go outside bench/: %7d lines\n'
	@git ls-files '*.go' ':!:bench/' ':!:*_test.go' | xargs cat | wc -l | xargs printf '  non-test:        %7d lines\n'
