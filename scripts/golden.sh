#!/usr/bin/env bash
# Seeded-output comparison: a parent revision against this working tree.
# Runs the five deterministic outputs a behaviour-preserving change must
# leave byte-identical on both sides and prints a unified diff of every
# one that differs.
#
#   make golden REV=<parent>
#   scripts/golden.sh <parent-rev>
#
# The parent is exported (git archive) into .ab/golden/parent, as
# scripts/ab.sh exports its side, and removed again on exit; the outputs
# of both sides are kept in .ab/golden/{parent,change}-out/, under the
# git-ignored .ab/.  Exits 1 if any output differs; a command that
# fails stops the script with its own status.
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/golden.sh <parent-rev>}"

out=.ab/golden
parent="$out/parent"
rm -rf "$out"
mkdir -p "$parent" "$out/parent-out" "$out/change-out"
trap 'rm -rf "$parent"' EXIT
git archive "$rev" | tar -x -C "$parent"

# name|command, run from each side's root.
outputs=(
	"polyverify|go run ./cmd/polyverify -seeds 200 -v"
	"polytables|go run ./cmd/polytables"
	"outagedrill|go run ./examples/outagedrill"
	"replicated|go run ./examples/replicated"
	"polystat-export|go run ./cmd/polystat -export -seed 7"
)

differ=0
for entry in "${outputs[@]}"; do
	name="${entry%%|*}"
	cmd="${entry#*|}"
	(cd "$parent" && $cmd) >"$out/parent-out/$name.txt"
	$cmd >"$out/change-out/$name.txt"
	if diff -u --label "parent/$name" --label "change/$name" \
		"$out/parent-out/$name.txt" "$out/change-out/$name.txt"; then
		echo "golden: $name identical" >&2
	else
		echo "golden: $name DIFFERS" >&2
		differ=1
	fi
done
exit "$differ"
