#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there.
# Everything the go tool writes (build cache, module cache, telemetry) goes
# under .bench_build, so nothing outside the checkout is touched.
set -eu
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
  cd "$root/bench"
  HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
    GOTOOLCHAIN=local GOTELEMETRY=off \
    go build -o "$build/modab-bench" . >&2
)
cd "$root"
exec "$build/modab-bench" "$@"
