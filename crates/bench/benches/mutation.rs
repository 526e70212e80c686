//! Write-path benchmarks on LDBC-64k: mutation-apply cost, overlay-read
//! overhead vs the base CSR (point reads, BFS, and the row-reading kernels
//! KCore / SPath / DCentr — each kernel over the live graph, view built in
//! the timed region; BFS, KCore and SPath asserted within 2x), compaction
//! fold cost against a from-scratch build of the same graph (a 1k-edge
//! delta and a delta touching every row, each in two named allocator
//! regimes — see [`AllocRegime`]) and publish pause, and the incremental
//! connected-components kernel against the recompute over the live graph
//! it falls back to (the `results/BENCH_mutation.json` artifact).
//!
//! Before timing anything, a concurrent mixed read/write replay is
//! verified against the sequential write oracle — a benchmark of a wrong
//! final state is worthless. After timing, the incremental-ccomp median
//! is asserted >= 5x faster than recompute on a small delta batch, and
//! the non-timing figures (overlay bytes/edge, overlay-over-base read
//! ratios, measured compaction pause, page faults per fold) are recorded
//! as `mutation.*` gauges.

use graphbig::engine::traffic::{
    generate_ops, live_engine_digest, mutation_oracle_digest, resolve_write, run_mix, WriteOp,
};
use graphbig::engine::{
    DeltaOverlay, Engine, EngineConfig, IncrementalCComp, MixSpec, Mutation, MutationBuffer,
    OverlayView, ShardedGraph,
};
use graphbig::framework::csr::Csr;
use graphbig::prelude::*;
use graphbig::runtime::CancelToken;
use graphbig::telemetry::metrics::{MetricValue, Registry};
use graphbig::workloads::service::{self, ServiceOutput};
use graphbig::workloads::{parallel, Workload};
use graphbig_bench::timing::{black_box, timed, AllocRegime, Runner};
use std::time::Duration;

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// The fold: materializing base + delta into a fresh sharded CSR (what
/// compaction pays, and only compaction), next to what building that graph
/// from scratch costs. Two deltas: 1k edges (the
/// fold copies the rows the delta left alone) and one write per vertex
/// (every row touched, nothing copied — reported, not gated: there is no
/// second path for it). Build and folds are timed as interleaved rounds
/// inside the regime the caller pinned, so a row describes the regime in
/// its name and not what the process did before. Returns the minor page
/// faults of one more 1k-edge fold.
fn compact_rows(
    r: &mut Runner,
    regime: AllocRegime,
    g: &ShardedGraph,
    overlay1k: &DeltaOverlay,
    dense: &DeltaOverlay,
) -> Option<u64> {
    let name = regime.name();
    let mut build = || -> Duration {
        let csr = g.service().out().clone();
        timed(|| ShardedGraph::build(csr, 8))
    };
    let mut fold_1k = || timed(|| overlay1k.materialize(g, 8));
    let mut fold_dense = || timed(|| dense.materialize(g, 8));
    r.bench_interleaved(&mut [
        (&format!("compact/build_from_scratch/{name}"), &mut build),
        (&format!("compact/fold_1k_delta/{name}"), &mut fold_1k),
        (&format!("compact/fold_dense/{name}"), &mut fold_dense),
    ]);
    r.median_ns(&format!("compact/fold_1k_delta/{name}"))?;
    let before = minor_faults()?;
    black_box(overlay1k.materialize(g, 8));
    let faults = minor_faults()? - before;
    r.gauge(
        &format!("mutation.fold_1k_delta.{name}.minor_faults"),
        faults as f64,
    );
    Some(faults)
}

fn main() {
    // Cold where the target has one: only a process that has never been
    // warm is reliably cold, so it is pinned before anything allocates.
    let (&first, later) = AllocRegime::MEASURABLE.split_first().expect("never empty");
    first.pin();
    let n = 1usize << 16;
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n));
    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 4,
            compact_threshold: 0, // folds are timed explicitly below
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let base = engine.store().snapshot();
    let g = base.graph();

    // Correctness gate: a concurrent mixed replay must converge on the
    // sequential write oracle before any of its parts are worth timing.
    let spec = MixSpec {
        seed: 42,
        requests: 200,
        clients: 4,
        point_weight: 45,
        traversal_weight: 10,
        analytics_weight: 5,
        write_weight: 40,
        ..MixSpec::default()
    };
    let ops = generate_ops(&spec, n as u32);
    let expected = mutation_oracle_digest(g, &ops);
    let report = run_mix(&engine, &spec);
    assert_eq!(report.admitted as usize, spec.requests);
    assert_eq!(
        live_engine_digest(&engine),
        expected,
        "concurrent replay must match the sequential write oracle"
    );
    engine.compact();
    eprintln!("oracle: mixed 200-request replay matches the sequential write replay on LDBC-64k");

    // Pre-resolved insert batches: every (u, v) pair fresh and valid.
    let insert = |i: u64| {
        resolve_write(
            g,
            WriteOp::Insert {
                u: (i.wrapping_mul(7919) % n as u64) as u32,
                salt: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            },
        )
    };
    let single = insert(1);
    let batch64: Vec<_> = (0..64u64).flat_map(insert).collect();
    let batch1k: Vec<_> = (0..1_000u64).flat_map(insert).collect();

    // A 1k-edge overlay for the read-overhead and fold benches.
    let loaded = MutationBuffer::new(1, n as u32);
    loaded.apply(g, &batch1k);
    let overlay1k = loaded.current();
    let bytes_per_edge = overlay1k.byte_size() as f64 / overlay1k.overlay_edges() as f64;
    // One write per vertex: the overlay that touches every row.
    let dense = MutationBuffer::new(1, n as u32);
    let ring: Vec<Mutation> = (0..n as u32)
        .map(|u| Mutation::AddEdge {
            u,
            v: (u + 1) % n as u32,
            w: 2.0,
        })
        .collect();
    dense.apply(g, &ring);
    let dense_ov = dense.current();

    let mut r = Runner::new("mutation_ldbc64k");
    r.threads(4);
    r.param("dataset", "LDBC");
    r.param("vertices", n);
    r.param("seed", format!("datagen default; mix {}", spec.seed));

    // The coldest compaction rows first; every other row runs pinned warm,
    // so none depends on which rows a `--filter` left out.
    let mut fold_faults = vec![compact_rows(&mut r, first, g, &overlay1k, &dense_ov)];
    AllocRegime::Warm.pin();

    r.bench_with_setup(
        "write/apply_single",
        || MutationBuffer::new(1, n as u32),
        |buf| {
            black_box(buf.apply(g, &single));
        },
    );
    r.bench_with_setup(
        "write/apply_batch64",
        || MutationBuffer::new(1, n as u32),
        |buf| {
            black_box(buf.apply(g, &batch64));
        },
    );
    // End-to-end write admission + apply through the engine; the overlay
    // is folded between samples (outside the timed region) so every
    // sample writes against a comparably small overlay.
    let mut i = 100_000u64;
    r.bench_with_setup(
        "write/engine_mutate",
        || engine.compact(),
        |_| {
            i += 1;
            black_box(engine.mutate(&insert(i)).unwrap());
        },
    );

    // Overlay-read overhead: the same point read through the base CSR and
    // through a 1k-edge overlay.
    r.bench("read/degree_base", || {
        black_box(g.degree(12_345));
    });
    r.bench("read/degree_overlay1k", || {
        black_box(overlay1k.degree(g, 12_345));
    });
    r.bench("read/khop2_base", || {
        black_box(g.k_hop(4_321, 2));
    });
    r.bench("read/khop2_overlay1k", || {
        black_box(overlay1k.k_hop(g, 4_321, 2));
    });

    // The same traversals over the base `BiCsr` and over the overlay view
    // (built inside the timed region, once for the source set — what one
    // executed group pays).
    let never = CancelToken::never();
    let sources = [0u32, 4_321, 12_345, 54_321];
    r.bench("read/bfs_base", || {
        for &s in &sources {
            black_box(parallel::bfs_dir_opt(engine.pool(), g.service().bi(), s, &never).unwrap());
        }
    });
    r.bench("read/bfs_overlay1k", || {
        let view = OverlayView::new(g, &overlay1k);
        for &s in &sources {
            black_box(parallel::bfs_dir_opt(engine.pool(), &view, s, &never).unwrap());
        }
    });

    // The kernels that revisit rows, dispatched the way the engine does:
    // over the live graph, whose view and row faces are built inside the
    // timed region — what one query pays now that no query folds.
    let row_kernels = [
        ("kcore", Workload::KCore),
        ("spath", Workload::SPath),
        ("dcentr", Workload::DCentr),
    ];
    for (name, w) in row_kernels {
        r.bench(&format!("read/{name}_base"), || {
            black_box(service::run_service(w, engine.pool(), g.service(), 0, &never).unwrap());
        });
        r.bench(&format!("read/{name}_overlay1k"), || {
            let live = OverlayView::new(g, &overlay1k);
            black_box(service::run_service(w, engine.pool(), &live, 0, &never).unwrap());
        });
    }

    for &regime in later {
        regime.pin();
        fold_faults.push(compact_rows(&mut r, regime, g, &overlay1k, &dense_ov));
    }
    if let [Some(cold), Some(warm)] = fold_faults[..] {
        eprintln!("minor page faults per 1k-delta fold: {cold} cold, {warm} warm");
        assert!(
            cold >= 8 * warm.max(1),
            "the cold fold must be the one that faults its output in ({cold} vs {warm} faults)"
        );
    }

    // Incremental connected components over a small insert batch vs the
    // recompute it spares: the full kernel over the live graph, which is
    // what the engine runs once the incremental state cannot serve.
    let ServiceOutput::Labels(labels) =
        service::run_service(Workload::CComp, engine.pool(), g.service(), 0, &never).unwrap()
    else {
        panic!("ccomp yields labels");
    };
    let small = MutationBuffer::new(1, n as u32);
    small.apply(g, &batch64);
    let small_ov = small.current();
    let log = small_ov.insert_log().to_vec();
    let n_total = small_ov.n_total() as usize;
    r.bench_with_setup(
        "ccomp/incremental_64_inserts",
        || IncrementalCComp::new(&labels),
        |mut inc| {
            inc.advance(&log);
            black_box(inc.labels(n_total));
        },
    );
    r.bench("ccomp/recompute_64_inserts", || {
        let live = OverlayView::new(g, &small_ov);
        black_box(service::run_service(Workload::CComp, engine.pool(), &live, 0, &never).unwrap());
    });

    // The view is not a slow path: BFS, KCore and SPath through a 1k-edge
    // overlay within 2x of the clean graph; DCentr, a 0.2 ms sweep that the
    // face derivation is a visible share of, is reported.
    for (name, bound) in [
        ("bfs", Some(2.0)),
        ("kcore", Some(2.0)),
        ("spath", Some(2.0)),
        ("dcentr", None),
    ] {
        let (Some(base_ns), Some(overlay_ns)) = (
            r.median_ns(&format!("read/{name}_base")),
            r.median_ns(&format!("read/{name}_overlay1k")),
        ) else {
            continue;
        };
        let ratio = overlay_ns / base_ns;
        eprintln!("overlay {name} over base {name}: {ratio:.2}x");
        r.gauge(&format!("mutation.{name}_overlay1k_over_base"), ratio);
        if let Some(bound) = bound {
            assert!(
                ratio <= bound,
                "{name} through a 1k-edge overlay must stay within {bound}x of the base, got {ratio:.2}x"
            );
        }
    }
    // Warm, the fold is mostly a memcpy of untouched rows and is held to half
    // the counting-pass build. Cold, both sides fault the same ~45 MB in, so
    // the ratio is pulled toward 1 and the bound is what stays true of a fold
    // that has not degenerated into a rebuild.
    for &regime in AllocRegime::MEASURABLE {
        let name = regime.name();
        let bound = if regime == AllocRegime::Cold {
            0.8
        } else {
            0.5
        };
        if let (Some(build_ns), Some(fold_ns)) = (
            r.median_ns(&format!("compact/build_from_scratch/{name}")),
            r.median_ns(&format!("compact/fold_1k_delta/{name}")),
        ) {
            let ratio = fold_ns / build_ns;
            eprintln!(
                "{name} fold of a 1k-edge delta over a {name} from-scratch build: {ratio:.2}x"
            );
            r.gauge(&format!("mutation.fold_1k_delta.{name}.over_build"), ratio);
            assert!(
                ratio <= bound,
                "a {name} 1k-edge fold must cost at most {bound}x a {name} from-scratch build, got {ratio:.2}x"
            );
        }
    }
    if let (Some(inc_ns), Some(re_ns)) = (
        r.median_ns("ccomp/incremental_64_inserts"),
        r.median_ns("ccomp/recompute_64_inserts"),
    ) {
        let speedup = re_ns / inc_ns;
        eprintln!("incremental ccomp speedup over recompute: {speedup:.1}x");
        assert!(
            speedup >= 5.0,
            "incremental ccomp must be >=5x recompute on a 64-insert delta, got {speedup:.1}x"
        );
    }

    // Measured publish pause: fold 1k edges through the engine and read
    // the critical-section histogram the compactor records.
    engine.mutate(&batch1k).unwrap();
    engine.compact();
    let pause_us = match reg.snapshot().get("engine.compact.pause_us") {
        Some(MetricValue::Histogram(h)) => h.quantile(0.99) as f64,
        _ => 0.0,
    };
    eprintln!(
        "overlay bytes/edge: {bytes_per_edge:.1}; compaction publish pause p99: {pause_us}us"
    );
    r.gauge("mutation.overlay_bytes_per_edge", bytes_per_edge);
    r.gauge("mutation.compact_pause_p99_us", pause_us);
    r.finish();
}
