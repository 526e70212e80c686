//! Write-path acceptance tests: a seeded 10k-op mixed stream must leave
//! the engine digest-identical to a graph rebuilt from scratch with the
//! same mutations — checked mid-overlay, post-compaction, and under the
//! background compactor — at more than one client count.

use std::sync::Arc;

use graphbig_datagen::prop;
use graphbig_datagen::rng::Rng;
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{
    generate_ops, live_engine_digest, mutation_oracle_digest, resolve_write, run_mix, MixOp,
};
use graphbig_engine::{
    check_chaos_invariants, structural_digest, Engine, EngineConfig, EpochSnapshot, MixSpec,
    Mutation, MutationBuffer, Query, QueryOutput, QueryResponse, QueryStatus, ShardedGraph,
};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::{MetricValue, Registry};
use graphbig_workloads::service::ServiceOutput;
use graphbig_workloads::Workload;

fn engine(n: usize, compact_threshold: usize, reg: &Registry) -> Engine {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n));
    Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            compact_threshold,
            ..EngineConfig::default()
        },
        csr,
        reg,
    )
}

fn counter(reg: &Registry, name: &str) -> u64 {
    match reg.snapshot().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Wait for the background compactor to drain: overlay folded (or below
/// threshold) and every started fold completed.
fn quiesce_compactor(reg: &Registry) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let started = counter(reg, "engine.compact.started");
        let completed = counter(reg, "engine.compact.completed");
        if started == completed {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor did not quiesce: {started} started vs {completed} completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn ten_thousand_op_stream_matches_the_rebuild_oracle_at_two_client_counts() {
    for clients in [2usize, 8] {
        let reg = Registry::new();
        // Manual compaction so the mid-overlay check really is mid-overlay.
        let eng = engine(500, 0, &reg);
        let base = eng.store().snapshot();
        let n = base.graph().num_vertices() as u32;
        let spec = MixSpec {
            seed: 77,
            requests: 10_000,
            clients,
            point_weight: 55,
            traversal_weight: 3,
            analytics_weight: 2,
            write_weight: 40,
            hot_sources: Some(64),
            ..MixSpec::default()
        };
        let ops = generate_ops(&spec, n);
        let writes = ops
            .iter()
            .filter(|op| matches!(op, MixOp::Write(_)))
            .count();
        assert!(writes > 3_000, "write band drew only {writes} of 10k ops");
        let expected = mutation_oracle_digest(base.graph(), &ops);

        let report = run_mix(&eng, &spec);
        assert_eq!(report.admitted, 10_000, "clients={clients}");

        // Mid-overlay: the buffered view already equals the oracle.
        assert!(
            !eng.overlay().is_empty(),
            "stream must leave a live overlay"
        );
        assert_eq!(live_engine_digest(&eng), expected, "clients={clients}");

        // Rebuilt from scratch: a fresh buffer fed the same writes,
        // materialized into a brand-new CSR, digests identically.
        let rebuild = MutationBuffer::new(1, n);
        for op in &ops {
            if let MixOp::Write(w) = op {
                rebuild.apply(base.graph(), &resolve_write(base.graph(), *w));
            }
        }
        let scratch = rebuild.current().materialize(base.graph(), 4);
        assert_eq!(structural_digest(&scratch), expected);

        // Post-compaction: the folded epoch serves the same graph.
        let epoch = eng.compact();
        assert!(epoch > 1, "a dirty overlay must fold into a new epoch");
        assert_eq!(
            structural_digest(eng.store().snapshot().graph()),
            expected,
            "clients={clients}"
        );

        let inv = check_chaos_invariants(&eng, &report, None, &reg);
        assert!(inv.ok(), "clients={clients}:\n{}", inv.render());
    }
}

#[test]
fn background_compactor_under_live_traffic_converges_on_the_oracle() {
    let reg = Registry::new();
    let eng = engine(400, 200, &reg);
    let base = eng.store().snapshot();
    let n = base.graph().num_vertices() as u32;
    let spec = MixSpec {
        seed: 9,
        requests: 3_000,
        clients: 4,
        point_weight: 40,
        traversal_weight: 0,
        analytics_weight: 0,
        write_weight: 60,
        ..MixSpec::default()
    };
    let ops = generate_ops(&spec, n);
    let expected = mutation_oracle_digest(base.graph(), &ops);
    let report = run_mix(&eng, &spec);
    assert_eq!(report.admitted, 3_000);

    // ~1800 overlay edges against a 200-edge threshold: the background
    // compactor must have folded at least once while traffic was live.
    quiesce_compactor(&reg);
    assert!(
        eng.store().epoch() > 1,
        "threshold 200 must wake the compactor mid-mix"
    );
    assert!(counter(&reg, "engine.compact.completed") > 0);

    // Whatever mix of folded epochs and residual overlay remains, the
    // live view equals the sequential oracle — and so does a final fold.
    assert_eq!(live_engine_digest(&eng), expected);
    eng.compact();
    quiesce_compactor(&reg);
    assert_eq!(structural_digest(eng.store().snapshot().graph()), expected);

    let inv = check_chaos_invariants(&eng, &report, None, &reg);
    assert!(inv.ok(), "{}", inv.render());
}

/// A read pins base *and* overlay at admission. With the one executor
/// parked on an analytics run, a write lands, a BFS from the written edge's
/// source queues, and a compaction folds the write into the next epoch's
/// base before the BFS runs: the BFS must still reach the edge's target at
/// level 1, through the overlay of the state it pinned.
#[test]
fn queued_read_keeps_a_write_that_compaction_folded() {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(20_000));
    let u = 7u32;
    let v = (0..20_000u32)
        .find(|&v| v != u && !csr.neighbors(u).contains(&v))
        .unwrap();
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 1,
            // The stall takes one core, the compaction on this thread the
            // other.
            pool_threads: 1,
            cache_capacity: 0,
            compact_threshold: 0,
            ..EngineConfig::default()
        },
        csr,
        &Registry::new(),
    );
    let bfs = Query::Run {
        workload: Workload::Bfs,
        source: u,
    };
    let level_of_v = |r: QueryResponse| match r.status {
        QueryStatus::Completed(QueryOutput::Workload(ServiceOutput::Levels(levels))) => {
            levels[v as usize]
        }
        other => panic!("{other:?}"),
    };
    assert_ne!(level_of_v(eng.submit(bfs).unwrap().wait()), 1);
    // GColor, not KCore: at this scale, on one pool thread of a 2-vCPU
    // box, a KCore (~16 ms) barely outlasts the compaction (~12 ms), so the
    // read could run before the fold published; GColor takes ~95 ms.
    let stall = eng
        .submit(Query::Run {
            workload: Workload::GColor,
            source: 0,
        })
        .unwrap();
    // The executor has taken the stall once nothing is queued.
    while eng.admission().queued() > 0 {
        std::thread::yield_now();
    }
    eng.mutate(&[Mutation::AddEdge { u, v, w: 1.0 }]).unwrap();
    let read = eng.submit(bfs).unwrap();
    assert_eq!(
        eng.admission().queued(),
        1,
        "the read queues behind the stall"
    );
    assert_eq!(eng.compact(), 2);
    let r = read.wait();
    assert_eq!(r.epoch, 1, "the read reports the state it pinned");
    assert_eq!(level_of_v(r), 1, "the read lost its write to compaction");
    let _ = stall.wait();
}

/// One step of [`a_write_applies_in_place_only_where_nobody_can_see_it`].
#[derive(Debug, Clone)]
enum StoreOp {
    /// Pin the published state, as an admitted query does.
    Pin,
    /// Drop the held pin at this index (modulo the pins held).
    Unpin(usize),
    /// One `Engine::mutate` batch.
    Write(Vec<Mutation>),
    /// One `Engine::compact`.
    Compact,
}

/// A generated interleaving. It does not shrink: dropping steps would drop
/// the writes that make a case take both branches.
#[derive(Debug, Clone)]
struct Interleaving(Vec<StoreOp>);

impl prop::Shrink for Interleaving {}

/// The write path copies exactly when someone can see the state: under
/// random interleavings of pins, unpins, 1-4 mutation batches and
/// compactions on LDBC-512, a write to a state nobody pinned applies in
/// place (the published `Arc` keeps its address) and a write to a pinned
/// one publishes a successor (the address moves), in every case; no held
/// pin's live graph ever changes; and the final live graph is an
/// engine-free replay of every write (folded where the engine compacted).
#[test]
fn a_write_applies_in_place_only_where_nobody_can_see_it() {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(512));
    let n = csr.num_vertices() as u32;
    let mutation = |rng: &mut Rng| {
        let id = |rng: &mut Rng| rng.gen_range(0..n + 8);
        match rng.gen_range(0u32..10) {
            0 => Mutation::AddVertex,
            1 => Mutation::RemoveVertex { v: id(rng) },
            2 | 3 => {
                let u = rng.gen_range(0..n);
                let row = csr.neighbors(u);
                let v = match row.len() {
                    0 => id(rng),
                    len => row[rng.gen_range(0..len)],
                };
                Mutation::RemoveEdge { u, v }
            }
            4 => Mutation::SetWeight {
                u: id(rng),
                v: id(rng),
                w: 2.0,
            },
            _ => Mutation::AddEdge {
                u: id(rng),
                v: id(rng),
                w: 1.0,
            },
        }
    };
    let batch = |rng: &mut Rng| {
        (0..rng.gen_range(1usize..=4))
            .map(|_| mutation(rng))
            .collect()
    };
    prop::check(
        "store_write_branches",
        prop::Config::with_cases(16),
        |rng| {
            // An unpinned write first and a pinned one somewhere, so every
            // case takes both branches; the rest is random.
            let mut ops = vec![StoreOp::Write(batch(rng))];
            for _ in 0..rng.gen_range(10usize..40) {
                ops.push(match rng.gen_range(0u32..20) {
                    0..=4 => StoreOp::Pin,
                    5..=8 => StoreOp::Unpin(rng.gen_range(0usize..8)),
                    9..=17 => StoreOp::Write(batch(rng)),
                    _ => StoreOp::Compact,
                });
            }
            let at = rng.gen_range(1..ops.len());
            ops.splice(at..at, [StoreOp::Pin, StoreOp::Write(batch(rng))]);
            Interleaving(ops)
        },
        |Interleaving(ops)| {
            let eng = Engine::with_registry(
                EngineConfig {
                    executors: 1,
                    pool_threads: 1,
                    compact_threshold: 0,
                    ..EngineConfig::default()
                },
                csr.clone(),
                &Registry::new(),
            );
            // The replay's own copy of the base (holding the engine's first
            // state would pin it), rebased at each compaction as the engine
            // is: a vertex or pair deleted before a fold is a plain isolated
            // vertex or absent pair after it, so a later add takes effect.
            let mut base = ShardedGraph::build(csr.clone(), 1);
            let mut replay = MutationBuffer::new(1, n);
            let mut pins: Vec<(Arc<EpochSnapshot>, u64)> = Vec::new();
            let (mut in_place, mut copied) = (0, 0);
            for op in ops {
                match op {
                    StoreOp::Pin => {
                        let snap = eng.store().snapshot();
                        let digest = snap.overlay().live_digest(snap.graph());
                        pins.push((snap, digest));
                    }
                    StoreOp::Unpin(i) => {
                        if !pins.is_empty() {
                            pins.remove(i % pins.len());
                        }
                    }
                    StoreOp::Write(batch) => {
                        let published = eng.store().snapshot();
                        let pinned = pins.iter().any(|(p, _)| Arc::ptr_eq(p, &published));
                        let before = Arc::as_ptr(&published);
                        drop(published);
                        eng.mutate(batch).expect("an idle engine admits a write");
                        replay.apply(&base, batch);
                        let moved = Arc::as_ptr(&eng.store().snapshot()) != before;
                        assert_eq!(
                            moved, pinned,
                            "a write copies exactly when the state is pinned"
                        );
                        if pinned {
                            copied += 1;
                        } else {
                            in_place += 1;
                        }
                    }
                    StoreOp::Compact => {
                        eng.compact();
                        base = replay.current().materialize(&base, 1);
                        replay = MutationBuffer::new(1, base.num_vertices() as u32);
                    }
                }
                for (snap, digest) in &pins {
                    let now = snap.overlay().live_digest(snap.graph());
                    assert_eq!(now, *digest, "a pinned state changed under its reader");
                }
            }
            assert!(
                in_place > 0 && copied > 0,
                "{in_place} in place, {copied} copied"
            );
            assert_eq!(
                live_engine_digest(&eng),
                replay.current().live_digest(&base),
                "the live graph is not a replay of the writes"
            );
        },
    );
}

#[test]
fn write_mix_replay_is_bit_identical_from_one_seed() {
    let spec = MixSpec {
        seed: 1234,
        requests: 600,
        clients: 3,
        point_weight: 50,
        traversal_weight: 5,
        analytics_weight: 5,
        write_weight: 40,
        ..MixSpec::default()
    };
    let run = || {
        let reg = Registry::new();
        let eng = engine(300, 0, &reg);
        let report = run_mix(&eng, &spec);
        let outcomes: Vec<(u64, u64, u64, u64)> = report
            .classes
            .iter()
            .map(|c| (c.completed, c.deadline_missed, c.cancelled, c.failed))
            .collect();
        (
            outcomes,
            report.admitted,
            eng.delta_seq(),
            live_engine_digest(&eng),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same outcomes and final graph");
    assert_eq!(first.1, 600);
}
