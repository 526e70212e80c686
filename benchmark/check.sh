#!/usr/bin/env bash
# Smoke check of the benchmark itself: all four workloads and one traced run
# at --quick scale (the default 2048-vertex graphs, P = 2, peak_rss_mb read at
# 2048 vertices too), asserting zero failures and a complete metric set. Under
# 20 s once built; the hook for scripts/ci.sh.
#
#   benchmark/check.sh
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/graphbig-benchmark"

# The last line must be the result object with correct = true, failed = 0 and
# exactly the metrics BENCHMARK.json declares for this kind of run.
check() {
  local kind="$1" line="$2"
  python3 - "$here/../BENCHMARK.json" "$kind" "$line" <<'PY'
import json, sys
declared = {m["name"]: m["unit"] for m in json.load(open(sys.argv[1]))[sys.argv[2]]}
result = json.loads(sys.argv[3])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == declared, (sorted(set(declared) ^ set(got)), got)
assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
PY
}

for w in kernel_sweep point_closed bfs_storm live_rw; do
  check end_to_end "$("$bin" --workload "$w" --seed 7 --quick | tail -n 1)"
  echo "ok $w"
done
check per_layer "$("$bin" --workload live_rw --seed 7 --quick --trace 1 | tail -n 1)"
echo "ok live_rw traced"
