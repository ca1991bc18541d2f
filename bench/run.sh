#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program (see main.go). Build cache, link scratch, module cache and the
# benchmark's own temporary files all stay inside the checkout, under
# .bench_build/, so a run needs no HOME and writes nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/ptbench" .
exec "$build/ptbench" -tmp "$build/tmp" "$@"
