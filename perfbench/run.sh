#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and the build's temporary files
# stay in .bench_build/ under the current directory; nothing is
# fetched.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
