#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload hetis-mix --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, scratch files, telemetry
# counters, the binary) and the benchmark's result files stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$out/hetis-benchmark" .
exec "$out/hetis-benchmark" "$@"
