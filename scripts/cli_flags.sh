#!/usr/bin/env bash
# cli_flags.sh — pin the command-line surface of the four binaries.
#
# Builds cdfsim, cdfexperiments, cdftrace and cdfsweepd, lists each one's
# flag names from its -h output (one "binary -flag" line per flag, sorted)
# and diffs the listing against scripts/cli_flags.golden. A change that
# adds, removes or renames a flag fails here until the golden file is
# updated alongside it, so every change to the CLI surface is a reviewed
# diff.
#
# Usage: scripts/cli_flags.sh           check against the golden file
#        scripts/cli_flags.sh -update   rewrite the golden file
set -euo pipefail

cd "$(dirname "$0")/.."

golden=scripts/cli_flags.golden
work="$(mktemp -d /tmp/cdf-cli-flags.XXXXXX)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/" ./cmd/cdfsim ./cmd/cdfexperiments ./cmd/cdftrace ./cmd/cdfsweepd

for cmd in cdfexperiments cdfsim cdfsweepd cdftrace; do
    # -h prints the usage on stderr and exits 0; the exit status is not
    # part of the surface, the flag list is.
    "$work/$cmd" -h 2>&1 | awk -v c="$cmd" '/^  -/ {print c, $1}' | sort || true
done >"$work/flags.txt"

if [ "${1:-}" = "-update" ]; then
    cp "$work/flags.txt" "$golden"
    echo "cli-flags: wrote $golden ($(wc -l <"$golden") flags)"
    exit 0
fi

if ! diff -u "$golden" "$work/flags.txt"; then
    echo "cli-flags: FAIL: the CLI flag set differs from $golden" >&2
    echo "cli-flags: if the change is intended, run scripts/cli_flags.sh -update and commit the diff" >&2
    exit 1
fi
echo "cli-flags: PASS ($(wc -l <"$golden") flags)"
