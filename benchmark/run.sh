#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark driver into
# the checkout's .bench_build/ and runs it. GOCACHE, GOTMPDIR and the
# config dir (where the go command keeps its telemetry counters) point
# inside the checkout so the build reads and writes nothing elsewhere.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -C "$here" -o "$build/bin/wtq-benchmark" .
exec "$build/bin/wtq-benchmark" -root "$root" "$@"
