#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given flags,
# for example:
#
#   bash benchmark/run.sh --workload bill-open --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, temporary files, telemetry) goes under
# .bench_build/ there. Without the repository's own sources next to
# benchmark/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/benchmark" -o "$out/fleetbench" .
exec "$out/fleetbench" "$@"
