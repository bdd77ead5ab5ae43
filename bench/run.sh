#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash bench/run.sh --workload topk-wide --seed 1 --seconds 10 --trace 0
# The same as `go run ./bench`, except that the Go build cache, the
# toolchain's temporary and telemetry files and the binary stay inside the
# checkout, under bench/out/build/, as the benchmark's contract requires.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench: no program to measure here: go.mod and internal/ are missing" >&2
	exit 1
fi
build="$PWD/bench/out/build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# A fresh telemetry directory makes every `go` command start a background
# sidecar process that outlives it; mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local
go build -o "$build/hydra-bench" ./bench
exec "$build/hydra-bench" "$@"
