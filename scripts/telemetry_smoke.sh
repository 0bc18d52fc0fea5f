#!/usr/bin/env bash
# telemetry_smoke.sh — boot a real 3-process polyvalue cluster with the
# observability plane enabled (-spans, -telemetry), commit a transfer,
# and check every window into the run agrees:
#
#   /metrics   serves valid OpenMetrics (committed counter, blocked-item
#              accountant series, trace gauges, # EOF terminator)
#   /healthz   reports the site and its commit count
#   /trace     returns the committed transaction's causal timeline
#   SPANS      control-port dumps merge under polytrace into a COMPLETE
#              timeline for the committed transaction
#
# Usage: scripts/telemetry_smoke.sh   (or: make telemetry-smoke)
set -euo pipefail

source "$(dirname "$0")/lib.sh"
TRACE="$WORK/polytrace"

build polynode polytrace
cluster_init A B C
read -r TA TB TC < <(free_ports 3)
declare -A TEL=([A]="127.0.0.1:$TA" [B]="127.0.0.1:$TB" [C]="127.0.0.1:$TC")

scrape() { # site path
    curl -fsS --max-time 5 "http://${TEL[$1]}$2"
}

say "starting 3 polynode processes with -spans and -telemetry"
for site in A B C; do
    start_node "$site" -telemetry "${TEL[$site]}" -spans 8192 \
        -data "$WORK/wal" -wait-timeout 150ms -retry-interval 150ms \
        -place acct1=B,acct2=C
done
wait_ready A B C

call B LOAD acct1 100 >/dev/null || fail "LOAD acct1"
call C LOAD acct2 100 >/dev/null || fail "LOAD acct2"

say "committing a transfer through coordinator A"
OUT=$(call A SUBMIT 'acct1 = acct1 - 30 if acct1 >= 30; acct2 = acct2 + 30 if acct1 >= 30')
echo "$OUT"
[[ "$OUT" == OK\ committed* ]] || fail "transfer did not commit: $OUT"
TID=$(echo "$OUT" | awk '{print $3}')
[[ -n "$TID" ]] || fail "no transaction ID in SUBMIT response"

say "scraping /metrics on every site"
for site in A B C; do
    M=$(scrape "$site" /metrics) || fail "$site /metrics unreachable"
    echo "$M" | grep -q '^# EOF$'            || fail "$site /metrics missing # EOF terminator"
    echo "$M" | grep -q 'txn_committed'      || fail "$site /metrics missing txn_committed"
    echo "$M" | grep -q 'trace_spans_retained' || fail "$site /metrics missing trace gauges"
done
scrape A /metrics | grep -E 'txn_committed|item_blocked_seconds_sum' | head -5 | sed 's/^/   /'
# The coordinator committed once; its counter must say so.
C_A=$(scrape A /metrics | awk '/^txn_committed_total/{print $2; exit}')
[[ "${C_A:-0}" -ge 1 ]] || fail "coordinator txn_committed_total = ${C_A:-missing}, want >= 1"

say "checking /healthz"
for site in A B C; do
    H=$(scrape "$site" /healthz) || fail "$site /healthz unreachable"
    echo "$H" | grep -q "\"site\": *\"$site\"" || fail "$site /healthz missing site field: $H"
done
scrape A /healthz | sed 's/^/   /'

say "fetching the committed transaction's timeline from /trace"
T=$(scrape A "/trace?txn=$TID") || fail "A /trace unreachable"
echo "$T" | grep -q "\"tid\": *\"$TID\"" || fail "/trace response does not mention $TID: $T"

say "dumping spans from every control port and merging with polytrace"
for site in A B C; do
    call "$site" SPANS | sed -n 's/^| //p' > "$WORK/span-$site.json"
    [[ -s "$WORK/span-$site.json" ]] || fail "$site SPANS dump empty"
done
"$TRACE" -txn "$TID" "$WORK"/span-*.json | sed 's/^/   /'
RES=$("$TRACE" -txn "$TID" "$WORK"/span-*.json | tail -1)
[[ "$RES" == *"0 incomplete"* ]] || fail "merged timeline incomplete: $RES"

say "telemetry smoke — PASS"
