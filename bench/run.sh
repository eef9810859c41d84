#!/usr/bin/env bash
# Builds the benchmark and the two daemons it drives from source, then
# runs it. Run from the repository root:
#
#   bash bench/run.sh --workload acoustic_functional --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries,
# results, traces, profiles) stays under .bench_build/ in the current
# directory. Outside a full checkout the build fails and nothing runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/" ./wavebench wavepim/cmd/wavepimd wavepim/cmd/wavepimctl)
exec "$out/bin/wavebench" "$@"
