#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
# Run from the repository root:
#   bash _perfbench/run.sh --workload predict-cold --seed 1 --seconds 15 --trace 0
#   bash _perfbench/run.sh --report            # every workload, as a table
#
# Build outputs, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build), so nothing outside the checkout is written.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false GOENV=off

rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" --rev "$rev" "$@"
