#!/usr/bin/env bash
# Builds the layered serving benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_hits --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, traces, result files) stays
# under .bench_build/ in the current directory. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
