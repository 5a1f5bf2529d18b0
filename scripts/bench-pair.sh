#!/usr/bin/env bash
# Paired in-process perf gate: builds the root package's test binary at
# a base revision and at the working tree, runs a benchmark set with
# each binary in alternating order, and gates the working tree's
# medians against the base's with cmd/scbench. Both sides run on the
# same host in the same minutes, so the host's speed cancels out, which
# a committed baseline from another machine cannot do.
#
# Usage:
#   scripts/bench-pair.sh BASE BENCH GATE THRESHOLD ALLOC_THRESHOLD
#
# BASE is any git revision; BENCH is the -bench regexp; GATE, THRESHOLD
# and ALLOC_THRESHOLD are scbench's -gate, -threshold and
# -alloc-threshold. `make bench-pair BASE=<rev>` passes bench-check's.
# The base is exported with `git archive` into a temporary directory,
# so nothing is registered in the repository and an interrupted run
# leaves nothing behind but that directory.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 5 ]; then
	echo "usage: $0 BASE BENCH GATE THRESHOLD ALLOC_THRESHOLD" >&2
	exit 2
fi
BASE=$1 BENCH=$2 GATE=$3 THRESHOLD=$4 ALLOC_THRESHOLD=$5
GO=${GO:-go}
ROUNDS=5

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
rev=$(git rev-parse --short "$BASE^{commit}")

mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"
(cd "$tmp/base" && "$GO" test -c -o "$tmp/base.test" .)
"$GO" test -c -o "$tmp/head.test" .

# run SIDE DIR: one pass of the benchmark set from the package's
# directory, its result lines appended to $tmp/SIDE.txt.
run() {
	(cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench "$BENCH" \
		-test.benchmem -test.count 1 -test.timeout 10m) | tee -a "$tmp/$1.txt"
}

for round in $(seq "$ROUNDS"); do
	echo "bench-pair: round $round of $ROUNDS"
	if [ $((round % 2)) -eq 1 ]; then
		run base "$tmp/base"
		run head .
	else
		run head .
		run base "$tmp/base"
	fi
done

"$GO" run ./cmd/scbench -commit "$rev" -out "$tmp/base.json" <"$tmp/base.txt"
echo "bench-pair: medians of $ROUNDS rounds, working tree against $rev"
"$GO" run ./cmd/scbench -commit "$(git rev-parse --short HEAD)+worktree" \
	-compare "$tmp/base.json" -gate "$GATE" \
	-threshold "$THRESHOLD" -alloc-threshold "$ALLOC_THRESHOLD" <"$tmp/head.txt"
echo "bench-pair: no gated benchmark regressed against $rev"
