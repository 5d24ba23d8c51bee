#!/usr/bin/env bash
# Builds the e2ebench benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the root of the checkout:
#
#   bash e2ebench/run.sh --workload svc-chatty --seed 1 --seconds 15 --trace 0
#
# The binary, Go's build cache and the benchmark's span files and
# checkpoints all stay under .bench_build/ in the checkout. The module
# has no external dependencies, so the build never downloads anything.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/service" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of a hotpotato checkout (go.mod, internal/ and e2ebench/ are missing here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -trimpath -o "$build/e2ebench" .)
exec "$build/e2ebench" --work-dir "$build/e2ebench-work" "$@"
