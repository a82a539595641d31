#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the working directory,
# which must be the repository or a directory inside it. Every file the
# build and the run write stays inside the checkout: the binary and Go's
# caches under .bench_build/, Chrome traces under bench/out/.
#
#   bash bench/run.sh [flags]      (flags: see bench/README.md)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$build/bench" .
exec "$build/bench" "$@"
