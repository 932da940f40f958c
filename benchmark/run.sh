#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write — compiler cache, binary, temporary stores, reports —
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOMODCACHE="$out/gomod" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" -out "$out/out" "$@"
