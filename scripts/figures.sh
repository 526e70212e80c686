#!/usr/bin/env bash
# Regenerate results/figures.txt: the stdout of every table*, fig* and
# ablation_* binary at its default scale, from the current tree, offline.
#
# Every quoted paper-figure number in EXPERIMENTS.md comes from this file.
# Generators are seeded and the machines modelled, but the models are fed
# the real heap addresses of the graph structures, so a second run of the
# same tree agrees to ~1 % per cell (a few L1D cells to ~10 %), not bit for
# bit. About 25 minutes on a 2-vCPU box.
#
# Usage: scripts/figures.sh [out-file]      (default results/figures.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-results/figures.txt}
rev=${GRAPHBIG_GIT_REV:-$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}
target=${CARGO_TARGET_DIR:-target}

cargo build --locked --offline --release -p graphbig-bench --bins

{
  echo "# GraphBIG-RS figure/table suite: scripts/figures.sh"
  echo "# git_rev: $rev"
  echo "# scales: each binary's default (named in its table titles); pass --scale to a binary to move it"
  for src in crates/bench/src/bin/table*.rs crates/bench/src/bin/fig*.rs crates/bench/src/bin/ablation_*.rs; do
    bin=$(basename "$src" .rs)
    echo
    echo "=== $bin ==="
    "$target/release/$bin"
  done
} > "$out"
echo "wrote $out"
