#!/usr/bin/env bash
# chaos_demo.sh — drive the fault-injection plane through polynode
# control ports: boot a real 3-process cluster, degrade the network live
# (drops, delays, frame corruption, a partition), run transfers through
# the weather, arm a crash point, kill -9 the victim, restart it from
# its WAL, heal everything, and assert the money is conserved with zero
# residual polyvalues.
#
# Usage: scripts/chaos_demo.sh   (or: make chaos-demo)
set -euo pipefail

source "$(dirname "$0")/lib.sh"

build polynode
cluster_init A B C
SEED=20260806
node() { # site
    start_node "$1" -data "$WORK/wal" -wait-timeout 150ms -retry-interval 150ms \
        -fault-seed "$SEED" -place acct1=B,acct2=C
}

say "starting 3 polynode processes (A, B, C), fault seed $SEED"
for site in A B C; do node "$site"; done
wait_ready A B C

call B LOAD acct1 100 >/dev/null || fail "LOAD acct1"
call C LOAD acct2 100 >/dev/null || fail "LOAD acct2"

TRANSFER='acct1 = acct1 - 10 if acct1 >= 10; acct2 = acct2 + 10 if acct1 >= 10'

say "degrading the network through the FAULT verb"
call A FAULT 'drop to=B p=0.15'                 | tail -1
call A FAULT 'delay p=0.3 min=5ms max=40ms'     | tail -1
call B FAULT 'corrupt to=C p=0.2'               | tail -1
call C FAULT 'dup p=0.1'                        | tail -1
call A FAULT status | sed 's/^/   /'

say "running 6 transfers through the bad weather"
COMMITTED=0
for i in $(seq 1 6); do
    OUT=$(call A SUBMIT "$TRANSFER" || true)
    echo "   [$i] $OUT"
    [[ "$OUT" == OK\ committed* ]] && COMMITTED=$((COMMITTED + 1))
done
[[ "$COMMITTED" -ge 1 ]] || fail "nothing committed under fault weather"

say "partitioning A from B (heals itself after 2s), then one more transfer"
call A FAULT 'partition a=A b=B heal=2s' | tail -1
call A ASYNC "$TRANSFER" >/dev/null
sleep 2.5

say "arming crash point after-decision-log on A, then a doomed transfer"
call A CRASHPOINTS | sed 's/^/   /'
call A ARMCRASH after-decision-log | tail -1
call A ASYNC "$TRANSFER" >/dev/null
sleep 1

say "killing A (kill -9) and restarting it over the same WAL"
kill_node A
sleep 0.5
node A
wait_ready A

say "healing all faults on every node"
for site in A B C; do
    call "$site" FAULT heal  >/dev/null
    call "$site" FAULT clear >/dev/null
done

say "waiting for full quiescence (certain values, zero polyvalues)"
V1=""; V2=""
for _ in $(seq 1 200); do
    R1=$(call B READ acct1 | sed 's/^OK //'); R2=$(call C READ acct2 | sed 's/^OK //')
    N1=$(call B POLY | awk '{print $2}');     N2=$(call C POLY | awk '{print $2}')
    if [[ "$R1" == certain\ * && "$R2" == certain\ * && "$N1" == 0 && "$N2" == 0 ]]; then
        V1=${R1#certain }; V2=${R2#certain }
        break
    fi
    sleep 0.1
done
[[ -n "$V1" && -n "$V2" ]] || fail "cluster never quiesced (acct1='$R1' acct2='$R2' polys=$N1/$N2)"
echo "   acct1=$V1 acct2=$V2"

[[ $((V1 + V2)) -eq 200 ]] || fail "conservation violated: $V1 + $V2 != 200"
say "conservation holds through drops, corruption, partition and crash: $V1 + $V2 = 200 — PASS"
