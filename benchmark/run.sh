#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given:
#
#   bash benchmark/run.sh --workload transfer-sat --seed 7 --seconds 20 --trace 0
#
# Everything the build leaves behind (the binary, the Go build cache)
# goes under .bench_build/ at the root of the checkout; nothing outside
# the checkout is written.  Without the repository around it (no go.mod)
# there is nothing to build, and the script fails before printing
# anything.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/cluster ]; then
	echo "benchmark/run.sh: no go.mod and internal/cluster here: the benchmark builds against the repository it sits in" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
