#!/bin/sh
# Launcher named by BENCHMARK.json: builds the benchmark (a module of
# its own, nested in the repo it measures) into .bench_build/ at the
# root of the checkout and runs it there with the driver's arguments.
# Everything the build writes, the Go build cache included, stays
# inside the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/fgbenchmark" .) >&2
cd "$root"
exec "$build/fgbenchmark" "$@"
