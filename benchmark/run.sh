#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the Go toolchain writes (build cache,
# work directories, module cache, telemetry) is kept under .bench_build/
# at the checkout root; results and traces go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTELEMETRYDIR="$build/telemetry"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dlptbench" .) >&2
exec "$build/dlptbench" -out "$here/out" "$@"
