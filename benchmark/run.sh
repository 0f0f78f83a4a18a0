#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source inside the
# checkout (binary, Go build cache and temp files all under
# .bench_build/) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload post-64 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Outside a checkout of the repository
# (no go.mod, no package sources) the build fails and so does this.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/dissent-benchmark" ./benchmark
exec "$build/dissent-benchmark" "$@"
