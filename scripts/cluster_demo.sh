#!/usr/bin/env bash
# cluster_demo.sh — boot a real 3-process polyvalue cluster on loopback,
# run a bank transfer through it, kill the coordinator mid-commit, watch
# the participants install polyvalues over real sockets, restart the
# coordinator from its WAL, and assert the polyvalues reduce with the
# total conserved.
#
# Usage: scripts/cluster_demo.sh   (or: make cluster-demo)
set -euo pipefail

source "$(dirname "$0")/lib.sh"

build polynode
cluster_init A B C
node() { # site
    start_node "$1" -data "$WORK/wal" -wait-timeout 150ms -retry-interval 150ms \
        -stats -place acct1=B,acct2=C
}

say "starting 3 polynode processes (A, B, C)"
for site in A B C; do node "$site"; done
wait_ready A B C

OWNER1=$(call A OWNER acct1 | awk '{print $2}')
OWNER2=$(call A OWNER acct2 | awk '{print $2}')
say "placement: acct1 -> $OWNER1, acct2 -> $OWNER2"

call "$OWNER1" LOAD acct1 100 >/dev/null || fail "LOAD acct1"
call "$OWNER2" LOAD acct2 100 >/dev/null || fail "LOAD acct2"

TRANSFER='acct1 = acct1 - 30 if acct1 >= 30; acct2 = acct2 + 30 if acct1 >= 30'

say "transfer 30 from acct1 to acct2 through coordinator A"
OUT=$(call A SUBMIT "$TRANSFER")
echo "$OUT"
[[ "$OUT" == OK\ committed* ]] || fail "transfer did not commit: $OUT"

read_item() { # owner item -> prints "certain 70" / "poly ..."
    call "$1" READ "$2" | sed 's/^OK //'
}
[[ "$(read_item "$OWNER1" acct1)" == "certain 70" ]]  || fail "acct1 != 70 after commit"
[[ "$(read_item "$OWNER2" acct2)" == "certain 130" ]] || fail "acct2 != 130 after commit"

say "arming failpoint: A will crash at its next COMMIT decision"
call A ARMCRASH >/dev/null

say "submitting a second transfer; the decision will never leave A"
call A ASYNC "$TRANSFER" >/dev/null

say "waiting for participants to time out and install polyvalues"
poly_count() { call "$1" POLY | awk '{print $2}'; }
for _ in $(seq 1 100); do
    n1=$(poly_count "$OWNER1"); n2=$(poly_count "$OWNER2")
    if [[ "$n1" -ge 1 && "$n2" -ge 1 ]]; then break; fi
    sleep 0.1
done
[[ "$n1" -ge 1 && "$n2" -ge 1 ]] || fail "polyvalues never installed (owner1=$n1 owner2=$n2)"
echo "   $OWNER1: $(read_item "$OWNER1" acct1)"
echo "   $OWNER2: $(read_item "$OWNER2" acct2)"
say "items remain readable as polyvalues while the outcome is unknown"

say "killing coordinator process A (kill -9)"
kill_node A

sleep 0.5

say "restarting A over the same WAL directory"
node A
wait_ready A

say "waiting for outcome requests to reach A (presumed abort) and the polyvalues to reduce"
V1=""; V2=""
for _ in $(seq 1 150); do
    R1=$(read_item "$OWNER1" acct1); R2=$(read_item "$OWNER2" acct2)
    if [[ "$R1" == certain\ * && "$R2" == certain\ * ]]; then
        V1=${R1#certain }; V2=${R2#certain }
        break
    fi
    sleep 0.1
done
[[ -n "$V1" && -n "$V2" ]] || fail "polyvalues never reduced (acct1='$R1' acct2='$R2')"
echo "   acct1=$V1 acct2=$V2"

[[ "$V1" == "70" ]]  || fail "acct1 = $V1, want 70 (second transfer presumed aborted)"
[[ "$V2" == "130" ]] || fail "acct2 = $V2, want 130 (second transfer presumed aborted)"
[[ $((V1 + V2)) -eq 200 ]] || fail "conservation violated: $V1 + $V2 != 200"

say "conservation holds: $V1 + $V2 = 200 — PASS"
