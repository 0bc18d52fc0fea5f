#!/usr/bin/env bash
# Paired A/B of the fixed benchmark: a parent revision against this
# working tree, by the rule in the choosing-metrics guide (§8) — ten
# pairs of 20 s runs, fresh seeds, alternating which side runs first.  A
# gain may be claimed only when the change wins nine of the ten pairs and
# the medians differ by more than the parent's own quartile spread; the
# script prints those numbers and leaves the verdict to the reader.
#
#   make ab REV=<parent> [WORKLOAD=transfer-durable]
#   FIRST_SEED=100 scripts/ab.sh <parent> [workload ...]
#
# The parent is exported (git archive) into .ab/parent and built there by
# its own benchmark/run.sh; the change is built here by this tree's.  The
# script only reads each run's last-line JSON; raw lines are kept in
# .ab/ab-<stamp>.txt.  Everything it leaves behind is under the
# git-ignored .ab/.  It refuses to compare two sides whose benchmark
# differs and stops at the first run that does not end in a result.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/ab.sh <parent-rev> [workload ...]}"
shift
pairs=10
seconds=20
first="${FIRST_SEED:-$(($(date +%s) % 100000))}"
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(transfer-sat transfer-solo transfer-durable outage-poly)
fi

parent=.ab/parent
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
if ! diff -rq -x out "$parent/benchmark" benchmark >&2 || ! diff -q "$parent/BENCHMARK.json" BENCHMARK.json >&2; then
	echo "ab: benchmark/ or BENCHMARK.json differs from $rev: the two sides do not run the same benchmark" >&2
	exit 1
fi

raw=".ab/ab-$(date +%Y%m%d-%H%M%S).txt"
run() { # <dir> <workload> <seed>
	(cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
}
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		order="parent change"
		if ((i % 2)); then order="change parent"; fi
		for side in $order; do
			dir=.
			if [ "$side" = parent ]; then dir=$parent; fi
			line=$(run "$dir" "$w" $((first + i)))
			case "$line" in
			'{'*'"correct":'*) ;;
			*)
				echo "ab: $w pair $((i + 1)) $side (seed $((first + i))) did not end in a JSON result: $line" >&2
				exit 1
				;;
			esac
			echo "$w $i $side $line" >>"$raw"
			echo "ab: $w pair $((i + 1))/$pairs $side (seed $((first + i)))" >&2
		done
	done
done

echo "parent $(git rev-parse --short "$rev") vs working tree, $pairs pairs x ${seconds}s, seeds $first..$((first + pairs - 1))"
awk -v pairs="$pairs" '
function quantile(a, n, q,    pos, lo) { # a[1..n] sorted
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (a[lo + 1] - a[lo]) * (pos - lo)
}
function stats(w, m, side, out,    n, i, j, t, a) {
	n = 0
	for (i = 0; i < pairs; i++) if ((w, m, side, i) in v) a[++n] = v[w, m, side, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	out["n"] = n; out["med"] = quantile(a, n, 0.5); out["q1"] = quantile(a, n, 0.25); out["q3"] = quantile(a, n, 0.75)
}
BEGIN { # the five end-to-end metrics; a pair is won by the lower value, except where higher is better
	nm = split("setup_s commit_tps txn_p50_ms txn_p90_ms ok_ratio", metrics, " ")
	higher["commit_tps"] = 1; higher["ok_ratio"] = 1
}
{
	w = $1; i = $2; side = $3
	if (!(w in seen)) { seen[w] = 1; ws[++nw] = w }
	for (k = 1; k <= nm; k++) {
		m = metrics[k]
		if (match($0, "\"" m "\":\\{\"value\":[-+0-9.eE]+")) {
			s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); v[w, m, side, i] = s + 0
		}
	}
	if (match($0, /"attempted":[0-9]+/)) att[w, side] += substr($0, RSTART + 12, RLENGTH - 12)
	if (match($0, /"failed":[0-9]+/)) fail[w, side] += substr($0, RSTART + 9, RLENGTH - 9)
	if ($0 !~ /"correct":true/) bad[w, side]++
}
END {
	for (x = 1; x <= nw; x++) {
		w = ws[x]
		printf "\n%s   failed/attempted: parent %d/%d, change %d/%d; incorrect runs: parent %d, change %d\n", w,
			fail[w, "parent"], att[w, "parent"], fail[w, "change"], att[w, "change"], bad[w, "parent"], bad[w, "change"]
		printf "  %-12s %-34s %-34s %7s %5s %11s\n", "metric", "parent n, median [q1, q3]", "change n, median [q1, q3]", "change%", "won", "parent IQR"
		for (k = 1; k <= nm; k++) {
			m = metrics[k]; stats(w, m, "parent", p); stats(w, m, "change", c)
			won = 0; lost = 0
			for (i = 0; i < pairs; i++) if ((w, m, "parent", i) in v && (w, m, "change", i) in v) {
				d = v[w, m, "parent", i] - v[w, m, "change", i]
				if (m in higher) d = -d
				if (d > 0) won++; else if (d < 0) lost++
			}
			printf "  %-12s %-34s %-34s %+6.1f%% %2d/%-2d %11.4g\n", m,
				sprintf("%d, %.4g [%.4g, %.4g]", p["n"], p["med"], p["q1"], p["q3"]),
				sprintf("%d, %.4g [%.4g, %.4g]", c["n"], c["med"], c["q1"], c["q3"]),
				p["med"] ? 100 * (c["med"] - p["med"]) / p["med"] : 0, won, won + lost, p["q3"] - p["q1"]
		}
	}
}' "$raw"
echo
echo "raw results: $raw"
