#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload corpus|summary|service --seed N \
#       --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it writes — the Go build
# cache, the binary, temporary inputs and trace files — goes under
# .bench_build in that root, and nothing is fetched: the module has no
# dependencies outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
