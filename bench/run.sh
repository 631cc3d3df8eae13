#!/usr/bin/env bash
# Builds the benchmark and the simulator binaries it drives from the source
# tree, then runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache, temporary files, the
# binaries, scratch stores and trace output.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (simulator sources not found in $root)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/" . cdf/cmd/cdfsim cdf/cmd/cdfsweepd)

exec "$out/bin/bench" -bin "$out/bin" -work "$out" "$@"
