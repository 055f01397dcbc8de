#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run from and
# runs it, passing every argument through. Run it from the repository root:
#
#	bash .padbench/run.sh --workload recover-tournament3 --seed 1 --seconds 58 --trace 0
#
# Build outputs, the Go build cache and the benchmark's working files go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/padbench" .)
exec "$out/padbench" -workdir "$out/padbench-work" "$@"
