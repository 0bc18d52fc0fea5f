#!/usr/bin/env bash
# bench_procs.sh — boot $SITES (default 3) polynode processes on
# loopback with $NODE_FLAGS, drive them with polybench $BENCH_FLAGS
# through their control ports, and tear them down.  Cluster knobs are
# polynode's flags and nothing else's; polybench only shapes the load
# and audits the result (it exits non-zero on a failed audit, and so
# does this).  Give -data a fresh directory: a recovered WAL is not the
# initial state the audit expects.
#
#   make bench-procs NODE_FLAGS='-decision-plane paxos' BENCH_FLAGS='-workers 16 -txns 20000'
#   make bench-procs NODE_FLAGS="-data $(mktemp -d) -fsync"
#   make bench-procs NODE_FLAGS='-admission 4'     # the overload run: shed > 0
#   make bench-procs NODE_FLAGS='-batch-max 1'     # frames of one (the B1 ablation)
#   make bench-procs NODE_FLAGS='-telemetry :0'    # pprof, /metrics, /trace while it runs
set -euo pipefail

source "$(dirname "$0")/lib.sh"

# Throughput runs are allocation-heavy and the Go default of 100 spends a
# fifth of the CPU in mark assists; every process of the run gets 400
# (set GOGC yourself to override).
export GOGC="${GOGC:-400}"

NAMES=()
for i in $(seq 0 $((${SITES:-3} - 1))); do NAMES+=("s$i"); done
# Both flag lists are shell word lists, so quoted arguments survive:
#   NODE_FLAGS="-data /tmp/x -fsync -disk-faults 'slow p=0.1 min=1ms max=5ms'"
eval "NODE_ARGS=(${NODE_FLAGS:-}) BENCH_ARGS=(${BENCH_FLAGS:-})"

build polynode polybench
cluster_init "${NAMES[@]}"

say "starting ${#NAMES[@]} polynode processes: ${NODE_FLAGS:-(default flags)}"
for site in "${NAMES[@]}"; do start_node "$site" "${NODE_ARGS[@]}"; done
wait_ready "${NAMES[@]}"

CONTROL=""
for site in "${NAMES[@]}"; do CONTROL+="${CONTROL:+,}${CTRL[$site]}"; done
say "polybench ${BENCH_FLAGS:-(default flags)}"
"$WORK/polybench" -control "$CONTROL" "${BENCH_ARGS[@]}" || fail "polybench failed"
