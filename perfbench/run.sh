#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload solve-large --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ in the checkout, so nothing is
# read or written outside it. Flags are passed to the benchmark binary;
# perfbench/README.md describes them.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build" "$@"
