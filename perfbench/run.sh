#!/usr/bin/env bash
# Builds perfbench from the checkout's own sources and runs it:
#
#   bash perfbench/run.sh --workload sim-cells --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout: the Go build cache, the
# binary and the span files of traced runs.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
