#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 45 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
