#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed through. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload square_b0 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the trace files stay under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/trace" "$@"
