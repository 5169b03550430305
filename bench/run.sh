#!/usr/bin/env bash
# Builds the benchmark harness and the ivoryd daemon from source into
# .bench_build/ under the repository root, then runs the harness with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload explore-sweep --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1                  # all five workloads
#   bash bench/run.sh compare a1.out a2.out -- b1.out b2.out
#
# Every build and run artifact (Go build cache, binaries, span files) stays
# under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=

go build -o "$out/ivoryd" ./cmd/ivoryd >&2
(cd bench && go build -o "$out/ivory-bench" .) >&2
exec "$out/ivory-bench" -ivoryd "$out/ivoryd" -out "$out" "$@"
