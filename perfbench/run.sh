#!/usr/bin/env bash
# Builds nanosim, nanosimd and the perfbench binary from the checkout's
# source, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mc-yield --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache and the go command's
# telemetry counters (kept under XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/nanosim" ./cmd/nanosim
go build -o "$out/bin/nanosimd" ./cmd/nanosimd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
