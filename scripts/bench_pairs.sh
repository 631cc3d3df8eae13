#!/usr/bin/env bash
# bench_pairs.sh — checks a speed claim before it is submitted: alternating
# runs of the benchmark on a parent revision and on the working tree, then
# the benchmark's own verdict on them.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> [pairs]
#
# The parent is extracted with `git archive` into a temporary directory,
# removed at exit. Pair i runs `bench/run.sh --workload W --seed i
# --seconds 20 --trace 0` once on each side, seeds 1..pairs (default 10);
# odd pairs run the parent first, even pairs the working tree, so a drift
# in the host's speed falls on both sides alike. Each side builds into its
# own CARGO_TARGET_DIR (the parent's in the temporary directory, the
# working tree's the default .bench_build). The run records are appended
# to .bench_build/pairs/<workload>-{parent,change}.jsonl (emptied first)
# and judged with `bench/run.sh -compare parent change`.
#
# Not part of `make ci`: ten pairs take about fifteen minutes.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10}

cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"

out="$root/.bench_build/pairs"
mkdir -p "$out"
parent="$out/$workload-parent.jsonl" change="$out/$workload-change.jsonl"
: >"$parent"
: >"$change"

# side NAME SEED: one benchmark run on the named side.
side() {
    local dir target file
    if [[ $1 == parent ]]; then
        dir=$tmp/src target=$tmp/target file=$parent
    else
        dir=$root target=$root/.bench_build file=$change
    fi
    echo "== pair $2: $1" >&2
    (cd "$dir" && CARGO_TARGET_DIR=$target bash bench/run.sh --workload "$workload" \
        --seed "$2" --seconds 20 --trace 0 -out "$file" >/dev/null)
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        side parent "$i"
        side change "$i"
    else
        side change "$i"
        side parent "$i"
    fi
done

bash bench/run.sh -compare "$parent" "$change"
