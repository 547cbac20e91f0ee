#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# for example:
#
#	bash bench/run.sh --workload csc-search --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the benchmark binary)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
