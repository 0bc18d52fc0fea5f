#!/usr/bin/env bash
# Paired A/B of the fixed benchmark: a parent revision against this
# working tree, by the rule in the choosing-metrics guide (§8) — ten
# pairs of 20 s runs, fresh seeds, alternating which side runs first.
#
# Each end-to-end metric gets a verdict from a scale-free rule, with the
# metric's bound b taken from BENCHMARK.json:
#   FAIL spread  a side's IQR (q3 - q1) exceeds b x that side's own median
#   FAIL worse   the change's median is worse than the parent's by > b x it
#   PASS gain    neither, the change wins at least 9 of 10 pairs and its
#                median is better by more than the parent's IQR
#   PASS         neither failure
# Beside it is what the parent-median rule says, which differs only in
# the spread test: the change's IQR against b x the parent's median.
# The verdicts are printed, not enforced: the exit status still reports
# only a differing benchmark or a failed run.
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

# name:better:bound of each end-to-end metric, as BENCHMARK.json declares them.
spec=$(awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
	e && /"name"|"better"|"bound"/ { gsub(/[",]/, "", $2) }
	e && /"name"/ { n = $2 } e && /"better"/ { b = $2 } e && /"bound"/ { printf "%s:%s:%s ", n, b, $2 }' BENCHMARK.json)
echo "parent $(git rev-parse --short "$rev") vs working tree, $pairs pairs x ${seconds}s, seeds $first..$((first + pairs - 1))"
awk -v pairs="$pairs" -v spec="$spec" '
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
function abs(x) { return x < 0 ? -x : x }
# verdict: spreadOK is the spread test of one rule, worse how much worse the
# change median is (negative: better); the rest is common to both rules
function verdict(spreadOK, worse, b, pmed, piqr, won) {
	if (!spreadOK) return "FAIL spread"
	if (worse > b * abs(pmed)) return "FAIL worse"
	return won * 10 >= 9 * pairs && -worse > piqr ? "PASS gain" : "PASS"
}
BEGIN { # a pair is won by the lower value, except where higher is better
	nm = split(spec, specs, " ")
	for (k = 1; k <= nm; k++) {
		split(specs[k], f, ":"); metrics[k] = f[1]; bound[f[1]] = f[3]
		if (f[2] == "higher") higher[f[1]] = 1
	}
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
		printf "  %-12s %-34s %-34s %7s %5s %11s  %-11s  %s\n", "metric", "parent n, median [q1, q3]", "change n, median [q1, q3]",
			"change%", "won", "parent IQR", "verdict", "parent-median rule"
		for (k = 1; k <= nm; k++) {
			m = metrics[k]; stats(w, m, "parent", p); stats(w, m, "change", c)
			won = 0; lost = 0
			for (i = 0; i < pairs; i++) if ((w, m, "parent", i) in v && (w, m, "change", i) in v) {
				d = v[w, m, "parent", i] - v[w, m, "change", i]
				if (m in higher) d = -d
				if (d > 0) won++; else if (d < 0) lost++
			}
			b = bound[m]; piqr = p["q3"] - p["q1"]; ciqr = c["q3"] - c["q1"]
			worse = (m in higher) ? p["med"] - c["med"] : c["med"] - p["med"]
			printf "  %-12s %-34s %-34s %+6.1f%% %2d/%-2d %11.4g  %-11s  %s\n", m,
				sprintf("%d, %.4g [%.4g, %.4g]", p["n"], p["med"], p["q1"], p["q3"]),
				sprintf("%d, %.4g [%.4g, %.4g]", c["n"], c["med"], c["q1"], c["q3"]),
				p["med"] ? 100 * (c["med"] - p["med"]) / p["med"] : 0, won, won + lost, piqr,
				verdict(piqr <= b * abs(p["med"]) && ciqr <= b * abs(c["med"]), worse, b, p["med"], piqr, won),
				verdict(ciqr <= b * abs(p["med"]), worse, b, p["med"], piqr, won)
		}
	}
}' "$raw"
echo
echo "raw results: $raw"
