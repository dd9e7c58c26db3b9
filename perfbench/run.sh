#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 42 --seconds 20 --trace 0
#
# The build, the Go caches and the traced runs' spans all stay under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
