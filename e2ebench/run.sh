#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash e2ebench/run.sh --workload course-sweep --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes to .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go tool keeps its caches, temporary files, settings and telemetry
# counters under $out too: nothing is written outside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --spans-dir "$out" "$@"
