#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ursa-diurnal --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, cache and span dump
# stays under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench/gocache" "$build/perfbench/tmp" "$build/perfbench/home"
export GOCACHE=$build/perfbench/gocache GOTMPDIR=$build/perfbench/tmp GOPATH=$build/perfbench/home/go
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off
export HOME=$build/perfbench/home XDG_CONFIG_HOME=$build/perfbench/home/.config XDG_CACHE_HOME=$build/perfbench/home/.cache
(cd "$here" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" -out "$build/perfbench/spans" "$@"
