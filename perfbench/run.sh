#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Every build artefact (Go build cache,
# binary, journals) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
