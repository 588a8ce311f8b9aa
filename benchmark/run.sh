#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash benchmark/run.sh --workload paper-default --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache, Go's config and telemetry files, temporary files and trace
# output stay under .bench_build/ in the current directory. See
# benchmark/README.md for the workloads and metrics.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/benchmark" build -o "$out/domibench" .
exec "$out/domibench" "$@"
