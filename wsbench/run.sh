#!/usr/bin/env bash
# Builds the wsbench program from source and runs it with the given
# arguments, from the repository root:
#
#   bash wsbench/run.sh --workload compute_corun --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and the binary stay under
# .bench_build/, so the benchmark reads and writes only inside the
# checkout; the build uses only the parent module's source (GOPROXY=off).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/wsbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOTELEMETRY=off
go -C wsbench build -o "$out/wsbench" .
exec "$out/wsbench" "$@"
