#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it from there. Everything the build writes, the Go build
# cache included, stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/samzasql-benchmark" .)
cd "$root"
exec "$build/samzasql-benchmark" "$@"
