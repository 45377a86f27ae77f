#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build and module caches, temp
# files, the toolchain's own config and telemetry) stays under
# .bench_build/ at the checkout root, and traces go to bench/out/, so a
# run touches nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/drugtree-bench" .
exec "$build/drugtree-bench" -out "$here/out" "$@"
