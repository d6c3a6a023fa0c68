#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash servebench/run.sh --workload map-zipf-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  The Go build cache, temporary files
# and the binary stay under .bench_build in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
