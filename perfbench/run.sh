#!/usr/bin/env bash
# Builds the benchmark and cmd/logan-serve from this working tree, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pairs-paper --seed 1 --seconds 25 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build/
# in the repository root; the toolchain is never asked to download.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/logan-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/logan-serve and perfbench/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# Go's telemetry counters live under the user config directory; keep them
# here, switched off, so the build writes nothing outside the checkout.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go build -o "$out/logan-serve" ./cmd/logan-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve-bin "$out/logan-serve" "$@"
