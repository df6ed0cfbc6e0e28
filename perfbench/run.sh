#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in and
# runs it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload sim-mnist --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, build cache, temporaries) stays
# under .bench_build/ at the checkout root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
