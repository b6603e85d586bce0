#!/usr/bin/env bash
# Builds the benchmark and langidd from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload detect-long --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/langidd" bloomlang/cmd/langidd)
exec "$out/perfbench" -langidd "$out/langidd" -workdir "$out/run" "$@"
