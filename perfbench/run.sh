#!/usr/bin/env bash
# Builds the lease-service benchmark from the sources of the checkout it
# is run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload algo-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binary, WAL directories, span dumps) goes under .bench_build/perfbench.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work="$(pwd)/.bench_build/perfbench"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --workdir "$work" "$@"
