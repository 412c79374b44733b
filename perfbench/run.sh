#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload toggle --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# toolchain settings and the binary stay under .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
