#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read-mostly-100k --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under the
# current directory: the Go build cache, the binary, WAL data directories
# and trace files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
