#!/usr/bin/env bash
# Builds the benchmark (its own module, next to this script) and runs it with
# the arguments given. Everything it writes — the Go build cache, the binary,
# reports, traces, data files — stays under .bench_build in the current
# directory, which is the checkout's root when the driver runs it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
if [ -z "${STAGEDB_BENCH_COMMIT:-}" ]; then
	STAGEDB_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export STAGEDB_BENCH_COMMIT
(cd "$here" && go build -buildvcs=false -o "$build/stagedb-benchmark" .)
exec "$build/stagedb-benchmark" "$@"
