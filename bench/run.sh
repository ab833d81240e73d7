#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it. Everything
# the toolchain writes (build cache, binary) stays under .bench_build/ and
# everything the benchmark writes under bench/out/, so a run leaves nothing
# outside the checkout. Arguments are passed through to the program.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build" "$here/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/pacman-bench" .)
exec "$build/pacman-bench" -out "$here/out" "$@"
