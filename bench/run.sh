#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the root of a
# checkout of the repository:
#
#   bash bench/run.sh --workload cc1-ours --seed 1 --seconds 10 --trace 0
#
# bench/ is a Go module of its own that replaces `unimem` with the checkout
# root, so the benchmark always measures the code next to it. Every build
# artifact (compiler cache, temporary files, the binary) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$out/unimem-bench" .
exec "$out/unimem-bench" "$@"
