#!/usr/bin/env bash
# Builds the one-core benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload session-700 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, Go's local
# telemetry, the binary) stays under .bench_build in the checkout. The build
# fails, and nothing is printed to standard output, when the mube module is
# not next to this directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
GOMAXPROCS=1 exec "$out/perfbench" "$@"
