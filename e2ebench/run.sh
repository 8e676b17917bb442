#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload interp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# logs, trace files) stays under .bench_build in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
