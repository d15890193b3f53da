#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout this script sits in,
# then runs it from the checkout root with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload ts-accept --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go cache, temporary files, the binary) and
# the trace files go under .bench_build/ in the checkout. The module is
# resolved from ../ only, so outside a full checkout the build fails and
# no result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
