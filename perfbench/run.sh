#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# build product and cache stays under .bench_build/ at the repository root.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload study-scale10-asof --seed 1 --seconds 40 --trace 0
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
