#!/usr/bin/env bash
# Builds bench/ftbench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh -workload tolerate-ccc7 -seed 1 -seconds 15 -trace 0
#
# The build and every cache the go command keeps stay in .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-build" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C bench -o "$build/ftbench" ./ftbench
exec "$build/ftbench" "$@"
