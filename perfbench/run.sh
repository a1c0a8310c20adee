#!/usr/bin/env bash
# Builds fsamd and the benchmark from the checkout in the current directory,
# then runs one benchmark workload. All build state stays in the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
#
#   bash perfbench/run.sh --workload edit-loop --seed 3 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/fsamd" ./cmd/fsamd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -fsamd "$out/fsamd" -out "$out" "$@"
