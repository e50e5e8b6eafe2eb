#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload census --seed 2022 --seconds 20 --trace 0
#
# The binary, the Go build cache and temporary build files stay under
# .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
