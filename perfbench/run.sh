#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload newton-fresh --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build product, cache and span file
# stays under .bench_build/ in the current directory, and the toolchain is
# kept off the network.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
