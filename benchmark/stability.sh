#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's bounds?
#
#   benchmark/stability.sh [N] [OUT_DIR]
#
# Makes 2N full runs (all four workloads each, a new seed per run), dealt
# alternately into set A and set B (A B A B ...) so slow drift of the machine
# lands in both, then prints `compare A B`: per workload and end-to-end metric
# each set's quartiles, spread and the gap between the medians against the
# bound, then both sets pooled (the ten-seed spread). Writes the same as JSON
# to OUT_DIR/stability.json (results/ holds every session the README cites),
# keeps each run's full output as OUT_DIR/<set>-<seed>-<workload>.log, and
# exits non-zero if a gap or a pooled spread exceeds its bound.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-5}"
out="${2:-$here/target/stability}"
mkdir -p "$out"
rm -f "$out/A.jsonl" "$out/B.jsonl"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/graphbig-benchmark"
for ((i = 0; i < 2 * n; i++)); do
  set_name=$([ $((i % 2)) -eq 0 ] && echo A || echo B)
  for w in kernel_sweep point_closed bfs_storm live_rw; do
    "$bin" --workload "$w" --seed $((1000 + i)) --record "$out/$set_name.jsonl" >"$out/$set_name-$((1000 + i))-$w.log"
    echo "run $((i + 1))/$((2 * n)) set $set_name $w done" >&2
  done
done
"$bin" compare --json "$out/stability.json" "$out/A.jsonl" "$out/B.jsonl"
