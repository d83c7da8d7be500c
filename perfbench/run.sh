#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch data, trace files) stays under
# .bench_build/ in the current directory. Exits non-zero without a
# result when the build fails, e.g. when the repository's sources are
# missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
