#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash benchmark/run.sh --workload read.point --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays inside the checkout: the
# Go build cache and the binary under .bench_build/ at its root, traces
# and the WAL scratch directory under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/edgebench" .)
exec "$build/edgebench" -outdir "$here/out" "$@"
