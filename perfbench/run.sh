#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload conformance --seed 1 --seconds 30 --trace 0
#
# The build, the Go build cache, the go command's local telemetry counters
# (kept under XDG_CONFIG_HOME) and the span files all go to .bench_build in
# the current directory, so a run writes nothing outside it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
