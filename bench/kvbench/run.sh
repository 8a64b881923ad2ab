#!/usr/bin/env bash
# Builds kvbench from source and runs it; the arguments go to kvbench.
# Run from the root of a checkout. Everything the build and the run write —
# Go's build cache, temporary files, data directories, span files — stays
# under .bench_build/ in that checkout.
set -euo pipefail

root=$PWD
here=$(dirname -- "$0")
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/gotmp"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/gotmp
export TMPDIR=$build/tmp
# Nothing is downloaded and nothing outside the checkout is consulted.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -C "$here" -o "$build/kvbench" .
exec "$build/kvbench" "$@"
