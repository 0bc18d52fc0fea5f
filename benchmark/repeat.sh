#!/usr/bin/env bash
# Runs the untraced suite N times (default 10), each repetition with its
# own seed, and prints per workload × end-to-end metric: median,
# quartiles, the quartile spread as a share of the median, and how much
# worse the second half of the runs is than the first half — the two
# numbers the acceptance driver holds against each metric's bound.
#
#   bash benchmark/repeat.sh 10
#   SECONDS_PER_RUN=20 FIRST_SEED=100 bash benchmark/repeat.sh 12
#
# Raw result lines are kept in benchmark/out/repeat-<stamp>.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-10}"
seconds="${SECONDS_PER_RUN:-20}"
first="${FIRST_SEED:-1}"
mkdir -p benchmark/out
raw="benchmark/out/repeat-$(date +%Y%m%d-%H%M%S).txt"
for ((i = 0; i < n; i++)); do
	for w in transfer-sat transfer-solo transfer-durable outage-poly; do
		line=$(bash benchmark/run.sh --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 | tail -n 1)
		echo "$w $line" >>"$raw"
		echo "run $((i + 1))/$n $w done" >&2
	done
done
.bench_build/benchmark -summarize "$raw"
echo "raw results: $raw"
