#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (--workload paper|fast|tenants, --seed N, --seconds S,
# --trace 0|1). Run it from the repository root:
#
#   bash hostbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, the binary and the traced
# run's span files.
set -euo pipefail

out="$PWD/.bench_build/hostbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOSUMDB=off GOTOOLCHAIN=local

go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
