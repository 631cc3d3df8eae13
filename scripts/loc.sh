#!/usr/bin/env bash
# loc.sh — the simplicity measure ROADMAP.md tracks: line counts of the
# Go files git tracks outside bench/ (a separate module), split into
# non-test and test files. It counts working-tree contents, so a new file
# counts once it is staged (`git add`). Not a gate: it only prints.
#
# Usage: scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# lines GREP-FLAGS: total lines of the tracked .go files outside bench/
# whose names pass `grep GREP-FLAGS '_test\.go$'`.
lines() {
    git ls-files -z -- '*.go' ':!:bench/**' | { grep -z "$@" '_test\.go$' || true; } |
        xargs -0 -r cat | wc -l
}

echo "non-test Go lines: $(lines -v)"
echo "test Go lines:     $(lines)"
