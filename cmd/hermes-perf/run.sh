#!/usr/bin/env sh
# Builds hermes-perf from source into .bench_build/ at the root of the
# checkout and runs it there with the given arguments. Everything the build
# and the run write (Go build cache, binary, index files, trace.json) stays
# under .bench_build/.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/cmd/hermes-perf/_bench" && go build -o "$build/bin/hermes-perf" .)
cd "$root"
exec "$build/bin/hermes-perf" "$@"
