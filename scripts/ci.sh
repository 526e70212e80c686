#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint, format — fully offline.
#
# The workspace has no external dependencies (see
# scripts/check_hermetic.sh), so every cargo invocation runs with
# --locked --offline: CI fails if a registry dependency or an
# out-of-date Cargo.lock ever sneaks in.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(--locked --offline)

echo "==> cargo build --release"
cargo build "${CARGO_FLAGS[@]}" --workspace --release

echo "==> cargo test -q"
cargo test "${CARGO_FLAGS[@]}" --workspace -q

echo "==> cargo clippy -D warnings"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> hermetic dependency check"
scripts/check_hermetic.sh --fast

echo "==> one request path (each lifecycle failpoint site written exactly once)"
for site in engine.dequeue engine.run.pre engine.run.post engine.overlay.read engine.cache.insert; do
  n=$(grep -ho "failpoint!(\"$site\"" crates/engine/src/*.rs | wc -l)
  [ "$n" -eq 1 ] || { echo "failpoint $site appears $n times under crates/engine/src"; exit 1; }
done

echo "==> one run path (executors and the caller-thread point path share run_group; one batch apply)"
# Degree / KHop run where they are submitted, through the executors' run_group; a write nobody can
# see applies in place through the same apply_batch a copy-on-write successor is built with.
calls() { # calls <fn> <paths...>: non-comment lines that call <fn>, its definition excluded
  local f=$1; shift
  grep -rHn --include='*.rs' "$f(" "$@" | grep -v "fn $f(" | grep -v ':[0-9]*: *//' || true
}
body() { # body <file> <fn>: the lines of fn <fn> in <file>, signature to the brace closing it
  awk -v sig="fn $2(" '!on && index($0, sig) { on = 1; match($0, /^ */); stop = substr($0, 1, RLENGTH) "}" }
                       on { print; if ($0 == stop) exit }' "$1"
}
sites=$(calls run_group crates/engine/src)
[ "$(echo "$sites" | grep -c .)" -eq 2 ] \
  && echo "$sites" | grep -q '^crates/engine/src/exec.rs:' \
  && echo "$sites" | grep -q '^crates/engine/src/engine.rs:' \
  || { echo "run_group( must have two call sites, the executor loop (exec.rs) and the caller path (engine.rs):"; echo "$sites"; exit 1; }
[ "$(calls apply_one crates | grep -c .)" -eq "$(body crates/engine/src/delta.rs apply_batch | grep -c 'apply_one(')" ] \
  || { echo "apply_one( is called outside DeltaOverlay::apply_batch"; calls apply_one crates; exit 1; }
n_with=$(body crates/engine/src/delta.rs with_batch | grep -c 'apply_batch(')
n_mutate=$(body crates/engine/src/store.rs mutate | grep -c 'apply_batch(')
[ "$n_with" -ge 1 ] && [ "$n_mutate" -ge 1 ] \
  && [ "$(calls apply_batch crates | grep -c .)" -eq $((n_with + n_mutate)) ] \
  || { echo "apply_batch( is called outside with_batch and GraphStore::mutate"; calls apply_batch crates; exit 1; }

echo "==> one coalescing rule (only BFS shares a pass; one MS-BFS entry pair)"
# Point reads run alone (exec.rs::bfs_source); the push-only MS-BFS had no caller left.
if [ -e crates/engine/src/batch.rs ] \
  || grep -rn 'BatchKind\|msbfs_cancellable\|fn msbfs(' crates; then
  echo "only a BFS coalesces, through msbfs_dir_opt(_cancellable): no batch kinds, no push-only MS-BFS"
  exit 1
fi

echo "==> one batching clock (BFS groups form at admission; the window counts from the first admission)"
# An executor that formed groups after popping a leader slept out the window with the members queued.
if grep -rn 'fn form_batch' crates/engine/src; then
  echo "form_batch is gone: Lanes::push forms groups at admission"
  exit 1
fi
for f in exec.rs lifecycle.rs engine.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "crates/engine/src/$f" | grep -n 'thread::sleep\|queue\.remove('; then
    echo "crates/engine/src/$f sleeps or scans a lane: an idle executor waits on available until the earliest due"
    exit 1
  fi
done

echo "==> one published state (the store pairs base and overlay; a query pins both at admission)"
# A second overlay pointer sampled at execution let a compaction strip a queued read's writes.
# MutationBuffer stays for the write oracle (traffic.rs) and the benches.
if grep -rn 'MutationBuffer' crates/engine/src --exclude=delta.rs --exclude=traffic.rs --exclude=lib.rs \
  || [ "$(grep -c 'MutationBuffer' crates/engine/src/lib.rs)" -gt 1 ] \
  || grep -rn 'fn retarget\|buffer\.current()\|write_lock' crates/engine/src; then
  echo "only GraphStore pairs an overlay with a base: the engine reads and writes through EpochSnapshot"
  exit 1
fi

echo "==> one event store (no span system, no feature gating the recorder)"
# What the recorder costs is gated by event counts in
# crates/engine/tests/lifecycle.rs, not by a wall-clock percentage.
if [ -e crates/telemetry/src/span.rs ] \
  || grep -rn 'feature = "spans"' crates src tests examples \
  || grep -n '^telemetry *=' crates/*/Cargo.toml; then
  echo "the span system is gone: record through graphbig_telemetry::recorder"
  exit 1
fi

echo "==> one admission cost (a query is charged Query::cost, a write its batch length)"
# A feedback model rescaled every charge by request history although no shipped configuration set a
# budget. serve_cli.rs is excluded: it asserts that graphbig-serve rejects the retired flag.
if grep -rn --exclude=serve_cli.rs 'observe_cost\|adaptive_cost\|fn correction\|CostAdjust\|static_cost\|--no-adaptive' crates; then
  echo "admission charges the static estimate: no feedback cost model, no knob or flag to turn it off"
  exit 1
fi

echo "==> one queue rule (two FIFO queues, interactive and analytical, each served first by its home executors)"
# Four priority lanes were arbitrated by skip counters under an aging knob; a home executor per queue
# bounds every wait by construction. serve_cli.rs is excluded: it asserts that graphbig-serve rejects
# the retired flag.
if grep -rn --exclude=serve_cli.rs \
  'select_lane\|lane_aging\|max_skip\|max_lane_skip\|lane\.aged\|aging_limit\|lane_starvation\|--aging-limit' \
  crates results/golden_*.json; then
  echo "no priority lanes, skip counters or aging knob: Lanes holds two FIFO queues"
  exit 1
fi
if ! grep -q '^    queues: \[VecDeque<Group>; 2\],$' crates/engine/src/lifecycle.rs; then
  echo "Lanes must hold exactly two queues (interactive, analytical)"
  exit 1
fi

echo "==> one latency feed (live SLO windows are read-time differences of cumulative histograms)"
# A completed request fed a lane and a key sliding window (two clock reads, two EWMA CAS loops and
# a BTreeMap search) on top of engine.latency_us; a read now subtracts an older snapshot instead.
if [ -e crates/telemetry/src/window.rs ] \
  || grep -rn 'WindowedHistogram\|Ewma' crates/*/src \
  || grep -rn 'slo\.record(' crates/engine/src; then
  echo "no per-request window feed: SloTracker reads engine.latency_us and its per-key histograms"
  exit 1
fi
for site in "lifecycle.rs finish_job" "engine.rs mutate_tagged"; do
  set -- $site
  n=$(body "crates/engine/src/$1" "$2" | grep -c 'Instant::now()\|\.elapsed()' || true)
  [ "$n" -le 2 ] || { echo "$2 reads the clock $n times (at most 2: its own stage stamp)"; exit 1; }
done

echo "==> one region mechanism (one region slot; the broadcaster runs share 0; one unsafe)"
# A region was n channel sends, n boxed Arc jobs and a latch while the broadcaster parked.
if grep -n 'mpsc\|Sender\|Latch' crates/runtime/src/pool.rs; then
  echo "pool.rs publishes a region into its one slot: no channels, no latch"
  exit 1
fi
n=$(grep -c 'unsafe' crates/runtime/src/pool.rs || true)
[ "$n" -eq 1 ] || { echo "pool.rs names unsafe $n times, expected 1 (the job's lifetime erasure)"; exit 1; }

echo "==> one home for numbers (four bench targets, one result schema, one argv parser)"
# Bench rows are `bench.*` gauges of a run manifest; graphbig-report is the one reader.
if grep -rn 'BenchResult\|"suite"' crates/bench/src crates/bench/benches; then
  echo "the {suite, results} bench format is gone: emit through harness::Reporter"
  exit 1
fi
n=$(grep -c '^\[\[bench\]\]' crates/bench/Cargo.toml)
[ "$n" -eq 4 ] || { echo "crates/bench declares $n [[bench]] targets, expected 4 (mutation, batching, chaos_overhead, frontier)"; exit 1; }
for f in results/BENCH_*.json; do
  sed -n '2p' "$f" | grep -q '^  "schema": "graphbig.run_manifest/v1"' \
    || { echo "$f is not a run manifest (first key must be \"schema\")"; exit 1; }
done

echo "==> manifest smoke (fig05 at small scale: emit, trace, golden structure, --show round trip)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin fig05_breakdown -- \
  --scale 0.003 --quiet --emit /tmp/fig05.json --trace /tmp/fig05_trace.json
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --check results/golden_fig05.json /tmp/fig05.json
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --show /tmp/fig05.json > /dev/null

echo "==> bench validity (the fold rows pass their own assertions under --filter; the emit is a manifest)"
# Failed before the rows named their allocator regime: run alone, the fold read 0.5x a build, not 0.14x.
cargo bench "${CARGO_FLAGS[@]}" -p graphbig-bench --bench mutation -- \
  --filter compact --samples 5 --emit /tmp/bench_mutation_compact.json
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --show /tmp/bench_mutation_compact.json > /dev/null

echo "==> failpoints-off configuration (no chaos feature) still builds"
cargo build "${CARGO_FLAGS[@]}" -p graphbig-bench --no-default-features

echo "==> benchmark package (frozen surface: builds standalone, smoke-runs every workload)"
benchmark/check.sh

echo "==> one read path (queries run on the live graph; only compaction folds; BFS within 2x of clean)"
# The query-side fold, its memo and the epoch hook that cleared the memo are gone.
if grep -rn 'materialized_for\|materialized:\|rebase_overlay' crates/engine/src; then
  echo "the query-side fold is gone: kernels read base + overlay through OverlayView"
  exit 1
fi
if grep -n '\.fold(\|\.materialize(' crates/engine/src/exec.rs; then
  echo "exec.rs folds the overlay: a query must run on the live graph (OverlayView)"
  exit 1
fi
# Non-test code only: each file up to its first #[cfg(test)].
for f in $(find crates/engine/src -name '*.rs' ! -name compact.rs); do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n '\.fold('; then
    echo "$f calls .fold(: compaction (compact.rs) is the fold's one caller"
    exit 1
  fi
done
# Both figures come from one process and one pass of the script check.sh just built.
"${CARGO_TARGET_DIR:-benchmark/target}/release/graphbig-benchmark" \
  --workload live_rw --seed 7 --quick --trace 1 | tail -n 1 > /tmp/live_rw_traced.json
python3 -c '
import json, sys
m = json.load(open("/tmp/live_rw_traced.json"))["metrics"]
overlay, clean = (m[k]["value"] for k in ("engine.bfs_overlay_us", "engine.bfs_clean_us"))
print(f"engine.bfs_overlay_us {overlay:.1f} vs engine.bfs_clean_us {clean:.1f}")
sys.exit(overlay > 2 * clean)
' || { echo "a BFS over a live overlay took more than 2x a BFS on the clean epoch"; exit 1; }

echo "==> row-patching fold (one fold, no edge-list rebuild; compaction under a quarter of live_rw)"
# The fold is OverlayView::to_graph: the faces' row derivations written straight into
# fresh arrays by patch_rows; the edge-list build survives only as tests/common::reference_fold.
grep -q '^    fn to_graph' crates/engine/src/delta.rs && grep -q '^fn patch_rows' crates/engine/src/delta.rs \
  || { echo "the fold moved: point this gate at its body"; exit 1; }
if { sed -n '/^    fn to_graph/,/^    }/p' crates/engine/src/delta.rs
     sed -n '/^fn patch_rows/,/^}/p' crates/engine/src/delta.rs
   } | grep -n 'from_edges\|ShardedGraph::build('; then
  echo "the fold rebuilds from an edge list: it must patch rows of the base CSRs"
  exit 1
fi
# A share of the traced run above, not a clock: 45.9 % when compaction rebuilt the graph.
python3 -c '
import json, sys
share = json.load(open("/tmp/live_rw_traced.json"))["metrics"]["trace.self_pct.engine.compact"]["value"]
print(f"trace.self_pct.engine.compact {share:.1f} %")
sys.exit(share >= 25)
' || { echo "engine.compact owns a quarter or more of traced live_rw: the fold is rebuilding the graph"; exit 1; }

echo "==> engine serving smoke (LDBC-4k, 200-request mix, sequential oracle)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/smoke_200.json --oracle --quiet --emit /tmp/engine_smoke.json
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --check results/golden_engine.json /tmp/engine_smoke.json

echo "==> chaos smoke (same mix under the committed fault plan, oracle + invariants)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --features chaos --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/smoke_200.json --faults traffic/faults_smoke.json \
  --oracle --quiet --emit /tmp/chaos_smoke.json
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --check results/golden_chaos.json /tmp/chaos_smoke.json

echo "==> mutation drill (LDBC-4k mixed read/write mix, rebuild oracle, slow compaction)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --features chaos --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/mutate_200.json --faults traffic/faults_compact.json \
  --compact-threshold 40 --oracle --quiet --emit /tmp/mutation_drill.json
for key in '"mutation_oracle"' '"engine.mutations"' '"engine.compact.started"' \
           '"engine.completed.write"' '"chaos.invariants.mutations_sequenced"' \
           '"chaos.invariants.compaction_balanced"'; do
  grep -q "$key" /tmp/mutation_drill.json \
    || { echo "mutation drill manifest missing $key"; exit 1; }
done

echo "==> live SLO stats line (structure check on the graphbig.stats/v1 snapshot)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/smoke_200.json --stats-interval 50 --quiet \
  > /tmp/stats_lines.txt
grep -m1 '"schema":"graphbig.stats/v1"' /tmp/stats_lines.txt > /tmp/stats_line.json
for key in t_ms queue_depth in_flight_cost lanes p50_us p99_us p999_us ewma_us \
           p99_target_us p999_target_us; do
  grep -q "\"$key\"" /tmp/stats_line.json || { echo "stats line missing key: $key"; exit 1; }
done

echo "==> cache-coherence drill (hot mix, mid-mix republishes, sequential oracle)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --features chaos --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/hot_200.json --faults traffic/faults_republish.json \
  --oracle --quiet --emit /tmp/cache_drill.json
grep -q '"engine.cache.hit"' /tmp/cache_drill.json \
  || { echo "cache drill produced no cache-hit counter"; exit 1; }

echo "==> shared-traversal batching drill (BFS-heavy mix, coalesced MS-BFS, sequential oracle)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/batch_heavy.json --oracle --quiet --emit /tmp/batch_drill.json
for key in '"engine.batch.size"' '"engine.batch.coalesce_us"' '"batch_max"'; do
  grep -q "$key" /tmp/batch_drill.json \
    || { echo "batching drill manifest missing $key"; exit 1; }
done

echo "==> SLO gate drill (1us targets must fail graphbig-report --check)"
cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/smoke_200.json --slo traffic/slo_tight.json \
  --oracle --quiet --emit /tmp/slo_regressed.json
if cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-bench --bin graphbig-report -- \
  --check results/golden_engine.json /tmp/slo_regressed.json; then
  echo "error: a manifest with missed SLO targets must fail --check"
  exit 1
fi

echo "==> flight recorder violation drill (injected double resolve must fail + dump)"
rm -f /tmp/flight_violation.json
if cargo run "${CARGO_FLAGS[@]}" --release -p graphbig-engine --features chaos --bin graphbig-serve -- \
  --vertices 4096 --mix traffic/smoke_200.json --faults traffic/faults_violation.json \
  --quiet --flight-dump /tmp/flight_violation.json; then
  echo "error: a double-resolve fault plan must exit non-zero"
  exit 1
fi
for kind in double_resolve admit enqueue dequeue run resolve; do
  grep -q "\"$kind\"" /tmp/flight_violation.json \
    || { echo "flight dump missing $kind events"; exit 1; }
done

echo "CI OK"
