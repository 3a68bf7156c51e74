#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ (build cache included, so nothing is written
# outside the checkout) and runs it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/himap-bench" .
cd "$root"
exec "$build/himap-bench" "$@"
