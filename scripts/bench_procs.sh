#!/usr/bin/env bash
# bench_procs.sh — boot $SITES (default 3) polynode processes on
# loopback with $NODE_FLAGS, drive them with polybench $BENCH_FLAGS
# through their control ports, and tear them down.  Cluster knobs are
# polynode's flags and nothing else's; polybench only shapes the load
# and audits the result (it exits non-zero on a failed audit, and so
# does this).  Give -data a fresh directory: a recovered WAL is not the
# initial state the audit expects.
#
# Every node serves -telemetry on a free loopback port (one given in
# NODE_FLAGS is overridden).  After the run the script prints the
# messages sent per committed transaction, summed over every node's
# /metrics (heartbeats left out, the audit's queries counted), beside
# two-phase commit's closed form 3N-1 for N participants.
#
#   make bench-procs NODE_FLAGS='-decision-plane paxos' BENCH_FLAGS='-workers 16 -txns 20000'
#   make bench-procs NODE_FLAGS="-data $(mktemp -d) -fsync"
#   make bench-procs NODE_FLAGS='-admission 4'     # the overload run: shed > 0
#   make bench-procs NODE_FLAGS='-batch-max 1'     # frames of one (the B1 ablation)
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

read -ra TPORTS < <(free_ports "${#NAMES[@]}")
declare -A TEL=()
for i in "${!NAMES[@]}"; do TEL[${NAMES[i]}]="127.0.0.1:${TPORTS[i]}"; done

# totals prints "<messages sent> <commits>" summed over every node.
totals() {
    for site in "${NAMES[@]}"; do
        curl -fsS --max-time 5 "http://${TEL[$site]}/metrics" || fail "$site /metrics unreachable"
    done | awk '/^network_sent_total\{/ && !/type="heartbeat"/ { m += $2 }
                /^txn_committed_total/ { c += $2 }
                END { printf "%d %d\n", m, c }'
}

say "starting ${#NAMES[@]} polynode processes: ${NODE_FLAGS:-(default flags)}"
for site in "${NAMES[@]}"; do start_node "$site" "${NODE_ARGS[@]}" -telemetry "${TEL[$site]}"; done
wait_ready "${NAMES[@]}"
read -r M0 C0 < <(totals)

CONTROL=""
for site in "${NAMES[@]}"; do CONTROL+="${CONTROL:+,}${CTRL[$site]}"; done
say "polybench ${BENCH_FLAGS:-(default flags)}"
"$WORK/polybench" -control "$CONTROL" "${BENCH_ARGS[@]}" || fail "polybench failed"
read -r M1 C1 < <(totals)
awk -v m=$((M1 - M0)) -v c=$((C1 - C0)) 'BEGIN {
    printf "  messages: %d sent over %d commits = %.2f per commit (2PC closed form 3N-1: 5 at N=2, 2 at N=1)\n",
        m, c, c ? m / c : 0 }'
