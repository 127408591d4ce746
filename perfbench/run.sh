#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload search-grid --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" "$@"
