#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
# Build offline, with the Go caches inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
