#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout and runs it with the arguments given. The benchmark is a Go
# module of its own (go.mod here) that reaches the program's internal
# packages through a replace directive, so it needs the repository's
# go.mod one directory up; without it the build, and so this script,
# fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays under the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
