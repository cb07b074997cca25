#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash svcbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the run stores all live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/svcbench" .)
GOMAXPROCS=1 exec "$out/svcbench" --work-dir "$out/svcbench-work" "$@"
