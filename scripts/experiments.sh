#!/usr/bin/env bash
# experiments.sh — pin the output of the whole evaluation.
#
# Builds cdfexperiments, runs every experiment at a short, fixed-seed
# budget (-uops 50000 -seed 1 -format markdown) and diffs stdout against
# scripts/experiments.golden.md. 50k uops is the shortest budget at which
# CDF leaves its mark on the tables: at 10k every CDF-derived cell reads
# +0.0%, 1.00x or 0.0%, so the file would pin none of CDF's numbers.
# ~21 s wall on 2 vCPUs. Runs are deterministic for a fixed seed
# and independent of -jobs, so any change to a table — a row, a digit, a
# title — fails here until the golden file is updated alongside it, and a
# refactor of the experiment layer must leave the file untouched.
#
# Usage: scripts/experiments.sh           check against the golden file
#        scripts/experiments.sh -update   rewrite the golden file
set -euo pipefail

cd "$(dirname "$0")/.."

golden=scripts/experiments.golden.md
work="$(mktemp -d /tmp/cdf-experiments.XXXXXX)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/" ./cmd/cdfexperiments

# stderr carries the seed banner and any failure report; a failed run
# exits non-zero, which set -e turns into a failure of this check.
"$work/cdfexperiments" -uops 50000 -seed 1 -format markdown >"$work/experiments.md"

if [ "${1:-}" = "-update" ]; then
    cp "$work/experiments.md" "$golden"
    echo "experiments: wrote $golden ($(wc -l <"$golden") lines)"
    exit 0
fi

if ! diff -u "$golden" "$work/experiments.md"; then
    echo "experiments: FAIL: the evaluation tables differ from $golden" >&2
    echo "experiments: if the change is intended, run scripts/experiments.sh -update and commit the diff" >&2
    exit 1
fi
echo "experiments: PASS ($(wc -l <"$golden") lines)"
