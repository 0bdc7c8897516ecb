#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds the program from
# source inside the checkout, then runs it from the checkout root with the
# driver's arguments. Everything the build writes — compiler cache, temp
# files, the binary — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/lavabench" .)
exec "$build/lavabench" "$@"
