#!/usr/bin/env bash
# Builds the benchmark from the source in the current checkout and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the built binaries
# and every file a run writes stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
