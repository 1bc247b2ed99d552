#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root: every file the build and the runs write
# stays under .bench_build/ there (the Go build cache included), and the
# toolchain is never allowed to download anything.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
