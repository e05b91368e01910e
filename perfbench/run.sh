#!/usr/bin/env bash
# Builds the benchmark, and with it the program, from this checkout's
# sources into .bench_build/, then runs it with the given arguments.
# Run it from the repository root:
#   bash perfbench/run.sh --workload paper-all --seed 1 --seconds 25 --trace 0
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# Keep every build and run file inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
