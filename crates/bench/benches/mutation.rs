//! Write-path benchmarks on LDBC-64k: mutation-apply cost, overlay-read
//! overhead vs the base CSR (point reads and BFS, the latter asserted
//! within 2x), compaction fold cost (a 1k-edge delta asserted at most half
//! a from-scratch build of the same graph; a delta touching every row
//! reported beside it) and publish pause, and
//! the incremental connected-components kernel against its full-recompute
//! fallback (the `results/BENCH_mutation.json` artifact).
//!
//! Before timing anything, a concurrent mixed read/write replay is
//! verified against the sequential write oracle — a benchmark of a wrong
//! final state is worthless. After timing, the incremental-ccomp median
//! is asserted >= 5x faster than recompute on a small delta batch, and
//! the emitted JSON gains a `meta` object with the non-timing figures
//! (overlay bytes/edge, measured compaction pause).

use graphbig::engine::traffic::{
    generate_ops, live_engine_digest, mutation_oracle_digest, resolve_write, run_mix, WriteOp,
};
use graphbig::engine::{
    Engine, EngineConfig, IncrementalCComp, MixSpec, Mutation, MutationBuffer, OverlayView,
    ShardedGraph,
};
use graphbig::framework::csr::Csr;
use graphbig::prelude::*;
use graphbig::runtime::CancelToken;
use graphbig::telemetry::metrics::{MetricValue, Registry};
use graphbig::workloads::service::{self, ServiceOutput};
use graphbig::workloads::{parallel, Workload};
use graphbig_bench::timing::{black_box, Runner};
use graphbig_json::ToJson;

fn main() {
    let emit_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--emit")
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
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

    let mut r = Runner::new("mutation_ldbc64k");
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
    // executed group pays). The fold below is what this path used to cost.
    let never = CancelToken::never();
    let sources = [0u32, 4_321, 12_345, 54_321];
    r.bench("read/bfs_base", || {
        for &s in &sources {
            black_box(
                parallel::bfs_dir_opt_cancellable(engine.pool(), g.service().bi(), s, &never)
                    .unwrap(),
            );
        }
    });
    r.bench("read/bfs_overlay1k", || {
        let view = OverlayView::new(g, &overlay1k);
        for &s in &sources {
            black_box(parallel::bfs_dir_opt_cancellable(engine.pool(), &view, s, &never).unwrap());
        }
    });

    // The fold: materializing base + 1k delta into a fresh sharded CSR
    // (what compaction pays, and the kernels that still need a real CSR),
    // next to what building that graph from scratch costs. The fold copies
    // the rows the delta left alone, so it is held to half the build.
    r.bench_with_setup(
        "compact/build_from_scratch",
        || g.service().out().clone(),
        |csr| {
            black_box(ShardedGraph::build(csr, 8));
        },
    );
    r.bench("compact/fold_1k_delta", || {
        black_box(overlay1k.materialize(g, 8));
    });
    // The other end of the property the fold relies on: one write per
    // vertex, so every row is touched and nothing is copied. Reported,
    // not gated — there is no second path for it.
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
    r.bench("compact/fold_dense", || {
        black_box(dense_ov.materialize(g, 8));
    });

    // Incremental connected components over a small insert batch vs the
    // recompute fallback (materialize + full kernel) it replaces.
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
        let folded = small_ov.materialize(g, 8);
        black_box(
            service::run_service(Workload::CComp, engine.pool(), folded.service(), 0, &never)
                .unwrap(),
        );
    });

    let median = |results: &[graphbig_bench::timing::BenchResult], name: &str| {
        results
            .iter()
            .find(|b| b.name.ends_with(name))
            .map(|b| b.median_ns)
            .unwrap_or(0.0)
    };
    let base_ns = median(r.results(), "read/bfs_base");
    let overlay_ns = median(r.results(), "read/bfs_overlay1k");
    if base_ns > 0.0 && overlay_ns > 0.0 {
        let ratio = overlay_ns / base_ns;
        eprintln!("overlay BFS over base BFS: {ratio:.2}x");
        assert!(
            ratio <= 2.0,
            "BFS through a 1k-edge overlay must stay within 2x of the base, got {ratio:.2}x"
        );
    }
    let build_ns = median(r.results(), "compact/build_from_scratch");
    let fold_ns = median(r.results(), "compact/fold_1k_delta");
    if build_ns > 0.0 && fold_ns > 0.0 {
        let ratio = fold_ns / build_ns;
        eprintln!("fold of a 1k-edge delta over a from-scratch build: {ratio:.2}x");
        assert!(
            ratio <= 0.5,
            "folding a 1k-edge delta must cost at most half a from-scratch build, got {ratio:.2}x"
        );
    }
    let inc_ns = median(r.results(), "ccomp/incremental_64_inserts");
    let re_ns = median(r.results(), "ccomp/recompute_64_inserts");
    if inc_ns > 0.0 && re_ns > 0.0 {
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

    r.finish();
    // The artifact carries the non-timing figures too.
    if let Some(path) = emit_path {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(graphbig_json::Json::Obj(mut doc)) = graphbig_json::parse(&text) {
                let meta = graphbig_json::ObjBuilder::new()
                    .push("overlay_bytes_per_edge", bytes_per_edge.to_json())
                    .push("compact_pause_p99_us", pause_us.to_json())
                    .build();
                doc.push(("meta".to_string(), meta));
                let _ = std::fs::write(&path, graphbig_json::Json::Obj(doc).to_pretty() + "\n");
            }
        }
    }
}
