#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository; every argument goes to the benchmark, e.g.
#
#   bash livebench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache and the benchmark's state
# directories and span files all stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd livebench && go build -o "$out/livebench" .) >&2
exec "$out/livebench" --out-dir "$out" "$@"
