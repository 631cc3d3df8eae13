#!/usr/bin/env bash
# front_smoke.sh — instruction-supply subsystem smoke (DESIGN.md §13).
#
# Runs one frontend-bound kernel through the real cdfsim binary in three
# configurations and checks the subsystem's load-bearing ordering:
#
#   off      (frontend disabled)   — the timed blocking L1I every machine has
#   timing   (-frontend)           — the same machine with the engine on and
#                                    every feature off
#   fdip     (-frontend -fdip -shadow-btb) — prefetcher + shadow BTB
#
# Pass conditions: the timing run's counter table (the indented rows of
# the cdfsim output) equals the off run's row for row — -frontend alone
# changes only the energy bill, so any difference means the engine leaks
# into timing or statistics. FDIP recovers a solid fraction of the I-miss
# cost, and the frontend statistics (L1I MPKI, fetch-stall split) are
# actually reported. Any break — the frontend silently not engaging, the
# prefetcher regressing, stats plumbing lost — fails loudly.
#
# Usage: scripts/front_smoke.sh [workdir]   (default: a fresh mktemp dir)
set -euo pipefail

cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d /tmp/cdf-front.XXXXXX)}"
mkdir -p "$work"
bin="$work/cdfsim"
bench=server
uops=300k
seed=1

echo "front-smoke: workdir $work"
go build -o "$bin" ./cmd/cdfsim

"$bin" -bench "$bench" -uops "$uops" -seed "$seed" >"$work/off.txt"
"$bin" -bench "$bench" -uops "$uops" -seed "$seed" -frontend >"$work/timing.txt"
"$bin" -bench "$bench" -uops "$uops" -seed "$seed" -frontend -fdip -shadow-btb \
    >"$work/fdip.txt"

ipc() { awk '$1 == "ipc" {print $2; exit}' "$1"; }
off_ipc=$(ipc "$work/off.txt")
timing_ipc=$(ipc "$work/timing.txt")
fdip_ipc=$(ipc "$work/fdip.txt")
if [ -z "$off_ipc" ] || [ -z "$timing_ipc" ] || [ -z "$fdip_ipc" ]; then
    echo "front-smoke: FAIL: missing ipc line (off='$off_ipc' timing='$timing_ipc' fdip='$fdip_ipc')" >&2
    exit 1
fi

# The engine with every feature off is the same machine as no engine.
rows() { grep '^  ' "$1" || true; }
if [ -z "$(rows "$work/off.txt")" ]; then
    echo "front-smoke: FAIL: no counter table in the off run" >&2
    exit 1
fi
if ! diff <(rows "$work/off.txt") <(rows "$work/timing.txt") >"$work/rows.diff"; then
    echo "front-smoke: FAIL: -frontend alone changes the counter table:" >&2
    cat "$work/rows.diff" >&2
    exit 1
fi

# Frontend stats must be reported with real values on every machine.
mpki=$(awk '$1 == "l1i_mpki" {print $2; exit}' "$work/off.txt")
stall=$(awk '$1 == "fetch_stall_imiss" {print $2; exit}' "$work/off.txt")
if [ -z "$mpki" ] || [ -z "$stall" ]; then
    echo "front-smoke: FAIL: frontend statistics missing from the off run" >&2
    exit 1
fi

awk -v off="$off_ipc" -v timing="$timing_ipc" -v fdip="$fdip_ipc" \
    -v mpki="$mpki" -v stall="$stall" 'BEGIN {
    printf "front-smoke: ipc off %s, timing %s, fdip %s (l1i mpki %s)\n", off, timing, fdip, mpki
    # FDIP must claw back at least 25% over bare timing on this I-bound kernel.
    if (fdip < 1.25 * timing) { print "front-smoke: FAIL: FDIP recovery too small"; exit 1 }
    # And the frontend must actually be missing and stalling.
    if (mpki + 0 <= 1) { print "front-smoke: FAIL: l1i_mpki implausibly low"; exit 1 }
    if (stall + 0 <= 0) { print "front-smoke: FAIL: no fetch_stall_imiss cycles"; exit 1 }
}' || exit 1

echo "front-smoke: PASS"
