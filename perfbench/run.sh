#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload inherit-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
