#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sec6-groupby --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
# The build needs the repository around perfbench/ (its go.mod replaces
# module timber with ../); without it the build fails and so does the run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
