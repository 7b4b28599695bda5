#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload reddit-train --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files, spans and
# profiles) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
