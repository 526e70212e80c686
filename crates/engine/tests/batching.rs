//! Batch-equivalence suite: coalesced MS-BFS vs the sequential oracle.
//!
//! The batcher's whole contract is *transparency* — a request that rode a
//! shared 64-lane pass must be indistinguishable (digest-level) from the
//! same request run alone. These tests pin that contract at both layers:
//!
//! * **Kernel**: for seeded random graphs and source sets, every lane of
//!   [`msbfs_dir_opt`] is bit-identical to the [`parallel::bfs`]
//!   per-source oracle — including duplicate sources, out-of-range
//!   sources, and the boundary batch sizes 1, 15, 16 (both sides of the
//!   shared-pass crossover), 63, 64, and 65 (the last straddling two
//!   passes).
//! * **Engine**: a queued BFS storm through the coalescing executor path
//!   fans results back to individual tickets whose digests match a
//!   sequential [`service::run_service`] replay, while the flight
//!   recorder shows the `BatchStart`/`BatchJoin` lifecycle and the
//!   `engine.batch.*` metrics land in the registry. Point reads never
//!   coalesce, however long the window.

use std::time::{Duration, Instant};

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::rng::Rng;
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::sequential_digests;
use graphbig_engine::{Engine, EngineConfig, Mutation, Query, QueryOutput, QueryStatus, Ticket};
use graphbig_framework::csr::{BiCsr, Csr};
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::msbfs::{
    msbfs_dir_opt, msbfs_dir_opt_cancellable, MIN_SHARED_LANES, MSBFS_LANES,
};
use graphbig_workloads::service::{self, ServiceOutput};
use graphbig_workloads::{parallel, Workload};

/// A seeded random directed graph: `n` vertices, ~`2n` distinct non-loop
/// edges (the same shape the metamorphic suite uses).
fn random_edges(rng: &mut Rng) -> (usize, Vec<(u32, u32, f32)>) {
    let n = 8 + rng.u64_below(120) as usize;
    let target = 2 * n;
    let mut seen = std::collections::BTreeSet::new();
    let mut edges = Vec::new();
    for _ in 0..4 * target {
        if edges.len() >= target {
            break;
        }
        let u = rng.u64_below(n as u64) as u32;
        let v = rng.u64_below(n as u64) as u32;
        if u == v || !seen.insert((u, v)) {
            continue;
        }
        edges.push((u, v, 1.0));
    }
    (n, edges)
}

fn digest(levels: &[i64]) -> u64 {
    ServiceOutput::Levels(levels.to_vec()).digest()
}

#[test]
fn every_lane_of_a_batched_pass_matches_the_sequential_oracle() {
    let pool = ThreadPool::new(4);
    prop::check(
        "msbfs_batch_equivalence",
        Config::with_cases(10),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let (n, edges) = random_edges(&mut rng);
            let csr = Csr::from_edges(n, &edges);
            let bi = BiCsr::directed(csr.clone());
            // Wide enough to ride the shared pass, not the per-source
            // fallback.
            let lanes = MIN_SHARED_LANES
                + rng.u64_below((MSBFS_LANES - MIN_SHARED_LANES + 1) as u64) as usize;
            let sources: Vec<u32> = (0..lanes)
                .map(|_| {
                    // ~1 in 8 sources lands out of range; in-range draws
                    // collide into duplicates on small graphs.
                    if rng.u64_below(8) == 0 {
                        n as u32 + rng.u64_below(9) as u32
                    } else {
                        rng.u64_below(n as u64) as u32
                    }
                })
                .collect();
            let batched = msbfs_dir_opt(&pool, &bi, &sources);
            assert_eq!(batched.len(), sources.len());
            for (l, &s) in sources.iter().enumerate() {
                let (solo, _) = parallel::bfs(&pool, &csr, s);
                assert_eq!(
                    digest(&batched[l]),
                    digest(&solo),
                    "lane {l}/{lanes} (source {s}) digest diverged from the oracle"
                );
                assert_eq!(batched[l], solo, "lane {l} levels diverged bitwise");
            }
        },
    );
}

#[test]
fn boundary_batch_sizes_match_the_oracle() {
    let pool = ThreadPool::new(2);
    let n = 300u32;
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n as usize));
    let bi = BiCsr::directed(csr.clone());
    // 1 = degenerate batch, 15/16 = the shared-pass crossover, 63/64 = the
    // lane-width boundary, 65 = two passes. Sources spread over 0..320 so a
    // few are out of range; an explicit duplicate rides every batch big
    // enough to hold one.
    for lanes in [1usize, MIN_SHARED_LANES - 1, MIN_SHARED_LANES, 63, 64, 65] {
        let mut sources: Vec<u32> = (0..lanes).map(|i| (i as u32 * 97 + 250) % 320).collect();
        if lanes >= 4 {
            sources[3] = sources[0];
        }
        let batched = msbfs_dir_opt(&pool, &bi, &sources);
        for (l, &s) in sources.iter().enumerate() {
            let (solo, _) = parallel::bfs(&pool, &csr, s);
            if s >= n {
                assert!(solo.is_empty(), "oracle contract changed");
                assert!(batched[l].is_empty(), "out-of-range lane {l} not empty");
            }
            assert_eq!(
                digest(&batched[l]),
                digest(&solo),
                "batch size {lanes}, lane {l} (source {s}) diverged"
            );
        }
        if lanes >= 4 {
            assert_eq!(batched[3], batched[0], "duplicate lanes must agree");
        }
    }
}

#[test]
fn cancelling_one_lane_mid_pass_leaves_every_other_lane_exact() {
    let pool = ThreadPool::new(2);
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(500));
    let bi = BiCsr::directed(csr.clone());
    let sources: Vec<u32> = (0..MIN_SHARED_LANES as u32).map(|i| i * 29 % 500).collect();
    let tokens: Vec<CancelToken> = sources.iter().map(|_| CancelToken::new()).collect();
    tokens[5].cancel();
    tokens[11].cancel();
    let refs: Vec<&CancelToken> = tokens.iter().collect();
    let out = msbfs_dir_opt_cancellable(&pool, &bi, &sources, &refs);
    for (l, &s) in sources.iter().enumerate() {
        if l == 5 || l == 11 {
            assert!(out[l].is_err(), "fired lane {l} must retire cancelled");
        } else {
            let (solo, _) = parallel::bfs(&pool, &csr, s);
            assert_eq!(
                out[l].as_ref().expect("live lane completes"),
                &solo,
                "lane {l} perturbed by a neighbour's cancellation"
            );
        }
    }
}

/// Drive a queued BFS storm through the engine's coalescing path and
/// check every fanned-out ticket against the sequential oracle.
#[test]
fn engine_fans_batched_results_back_to_tickets_bit_identical() {
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let oracle_graph = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            cache_capacity: 0, // force every request through a kernel
            queue_capacity: 256,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    // Distinct sources plus two out-of-range ones: the whole set queues
    // behind the single executor, so coalescing must engage.
    let queries: Vec<Query> = (0..40u32)
        .map(|i| Query::Run {
            workload: Workload::Bfs,
            source: if i >= 38 { 5000 + i } else { i * 37 % 2000 },
        })
        .collect();
    let tickets: Vec<(Query, Ticket)> = queries
        .iter()
        .map(|&q| (q, engine.submit(q).expect("admitted")))
        .collect();
    let pool = engine.pool().clone();
    let service_graph = graphbig_workloads::service::ServiceGraph::build(oracle_graph);
    let mut rids = Vec::new();
    for (query, ticket) in tickets {
        rids.push(ticket.request_id());
        let response = ticket.wait();
        let QueryStatus::Completed(output) = response.status else {
            panic!("BFS request did not complete: {:?}", response.status);
        };
        let Query::Run { source, .. } = query else {
            unreachable!()
        };
        let oracle = service::run_service(
            Workload::Bfs,
            &pool,
            &service_graph,
            source,
            &CancelToken::never(),
        )
        .expect("oracle run");
        assert_eq!(
            output.digest(),
            QueryOutput::Workload(oracle).digest(),
            "batched result for source {source} diverged from sequential oracle"
        );
    }
    // The coalescing actually happened: batch metrics recorded, and the
    // flight recorder shows a leader with joiners pointing at it.
    let sizes = reg.histogram("engine.batch.size").snapshot();
    assert!(sizes.count >= 1, "no batch ever formed");
    assert!(
        sizes.quantile(1.0) >= 2,
        "formed batches must have >= 2 members"
    );
    let events = recorder::snapshot().events;
    let starts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::BatchStart && rids.contains(&e.id))
        .map(|e| e.id)
        .collect();
    let joins: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::BatchJoin && rids.contains(&e.id))
        .map(|e| (e.id, e.arg))
        .collect();
    assert!(!starts.is_empty(), "no BatchStart recorded");
    assert!(!joins.is_empty(), "no BatchJoin recorded");
    for (rid, leader) in &joins {
        assert!(
            starts.contains(leader),
            "request {rid} joined leader {leader} with no BatchStart"
        );
    }
    // Per-request lifecycle stays exactly-once under batching.
    for rid in rids {
        for kind in [EventKind::Dequeue, EventKind::Run, EventKind::Resolve] {
            let n = events
                .iter()
                .filter(|e| e.kind == kind && e.id == rid)
                .count();
            assert_eq!(n, 1, "request {rid}: {} seen {n} times", kind.name());
        }
    }
}

/// A burst over a *non-empty overlay* coalesces like any other and rides
/// the shared pass over the overlay view: every ticket must equal the
/// sequential oracle run on the materialized graph.
#[test]
fn a_burst_over_a_live_overlay_shares_one_pass_and_matches_the_folded_graph() {
    const N: u32 = 1500;
    const LANES: usize = 24; // past the kernel's shared-pass crossover
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
    let cut = csr.neighbors(3)[0];
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            cache_capacity: 0,
            compact_threshold: 0,
            // The group runs once the whole burst has joined it (the
            // window, counted from the first admission, only bounds a lost
            // race).
            batch_max: LANES,
            batch_window_us: 5_000_000,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    engine
        .mutate(&[
            Mutation::AddVertex,
            Mutation::AddEdge { u: 3, v: N, w: 1.0 },
            Mutation::AddEdge {
                u: N,
                v: 11,
                w: 1.0,
            },
            Mutation::RemoveEdge { u: 3, v: cut },
            Mutation::RemoveVertex { v: 20 },
        ])
        .unwrap();
    // Sources include the added vertex, the removed one, a duplicate and
    // one out of range.
    let mut sources: Vec<u32> = (0..LANES as u32).map(|i| i * 61 % N).collect();
    sources[1] = N;
    sources[2] = 20;
    sources[4] = sources[5];
    sources[6] = N + 9;
    let queries: Vec<Query> = sources
        .iter()
        .map(|&source| Query::Run {
            workload: Workload::Bfs,
            source,
        })
        .collect();
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|&q| engine.submit(q).expect("admitted"))
        .collect();
    let base = engine.store().snapshot();
    let folded = engine.overlay().materialize(base.graph(), 2);
    let oracle = sequential_digests(&folded, engine.pool(), &queries);
    for ((ticket, want), source) in tickets.into_iter().zip(oracle).zip(sources) {
        let QueryStatus::Completed(output) = ticket.wait().status else {
            panic!("BFS from {source} did not complete");
        };
        assert_eq!(Some(output.digest()), want, "BFS from {source}");
    }
    let sizes = reg.histogram("engine.batch.size").snapshot();
    assert_eq!(
        (sizes.count, sizes.sum),
        (1, LANES as u64),
        "one group of {LANES}"
    );
}

/// A BFS group never spans a write. Sixteen BFS queue behind a stalled
/// executor, then a write adds a vertex wired from one of their sources,
/// then the same sixteen BFS again. Each request reads the state it pinned
/// at admission: the first sixteen the base, the last sixteen the
/// post-write graph — two groups, however long the batch window.
#[test]
fn a_bfs_group_never_spans_a_write() {
    const N: u32 = 20_000;
    const LANES: usize = MIN_SHARED_LANES;
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            cache_capacity: 0,
            compact_threshold: 0,
            batch_window_us: 2_000,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let base = engine.store().snapshot();
    let sources: Vec<u32> = (0..LANES as u32).map(|i| i * 1237 % N).collect();
    let bfs: Vec<Query> = sources
        .iter()
        .map(|&source| Query::Run {
            workload: Workload::Bfs,
            source,
        })
        .collect();
    // Park the single executor on a heavy analytics query first: its home
    // is the interactive queue, where BFS waits, so the stall must have
    // started before any BFS queues.
    let stall = engine
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .expect("stall query admitted");
    while engine.admission().queued() > 0 {
        std::thread::yield_now();
    }
    let submit_all = || -> Vec<Ticket> {
        bfs.iter()
            .map(|&q| engine.submit(q).expect("admitted"))
            .collect()
    };
    let before = submit_all();
    engine
        .mutate(&[
            Mutation::AddVertex,
            Mutation::AddEdge {
                u: sources[0],
                v: N,
                w: 1.0,
            },
        ])
        .unwrap();
    let after = submit_all();
    let folded = engine.overlay().materialize(base.graph(), 2);
    let oracles = [
        sequential_digests(base.graph(), engine.pool(), &bfs),
        sequential_digests(&folded, engine.pool(), &bfs),
    ];
    for (half, (tickets, oracle)) in [before, after].into_iter().zip(oracles).enumerate() {
        let got: Vec<Option<u64>> = tickets
            .into_iter()
            .map(|t| match t.wait().status {
                QueryStatus::Completed(output) => Some(output.digest()),
                _ => None,
            })
            .collect();
        assert_eq!(got, oracle, "half {half} read the wrong graph state");
    }
    let _ = stall.wait();
    let sizes = reg.histogram("engine.batch.size").snapshot();
    assert_eq!(
        (sizes.count, sizes.sum),
        (2, 2 * LANES as u64),
        "one group of {LANES} per graph state"
    );
}

/// `batch_max: 1` disables coalescing outright — same results, no batch
/// metrics, no batch lifecycle events.
#[test]
fn batch_max_one_disables_coalescing() {
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(500));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            cache_capacity: 0,
            batch_max: 1,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let tickets: Vec<Ticket> = (0..12u32)
        .map(|i| {
            engine
                .submit(Query::Run {
                    workload: Workload::Bfs,
                    source: i * 17 % 500,
                })
                .expect("admitted")
        })
        .collect();
    for t in tickets {
        assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
    }
    assert_eq!(
        reg.histogram("engine.batch.size").snapshot().count,
        0,
        "batching disabled yet a batch formed"
    );
}

/// Point reads never coalesce. Eight point-class `DCentr` runs queue behind
/// a stalled executor on an engine whose batch window is two seconds: each
/// runs alone as soon as the executor frees up, none waits out the window,
/// and no group is ever measured. `Degree` / `KHop` reads never queue at
/// all: submitted during the stall, they resolve before the stall does.
#[test]
fn queued_point_reads_run_alone_and_never_wait_out_the_window() {
    const N: u32 = 20_000;
    const WINDOW_US: u64 = 2_000_000;
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            cache_capacity: 0,
            batch_window_us: WINDOW_US,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    // Park the single executor behind a heavy analytics query (~16 ms at
    // this scale) so every queued read below is still queued when it frees
    // up; the spin makes sure the stall runs before any read queues, so
    // `queued()` counts exactly the reads.
    let blocker = engine
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .expect("stall query admitted");
    while engine.admission().queued() > 0 {
        std::thread::yield_now();
    }
    let queued: Vec<Query> = (0..8u32)
        .map(|i| Query::Run {
            workload: Workload::DCentr,
            source: i * 211 % N,
        })
        .collect();
    let queued_tickets: Vec<Ticket> = queued
        .iter()
        .map(|&q| engine.submit(q).expect("admitted"))
        .collect();
    assert_eq!(
        engine.admission().queued(),
        queued.len(),
        "every DCentr queues behind the stall"
    );
    let lookups: Vec<Query> = (0..8u32)
        .map(|i| match i % 2 {
            0 => Query::Degree {
                vertex: i * 211 % N,
            },
            _ => Query::KHop {
                source: i * 211 % N,
                hops: 2,
            },
        })
        .collect();
    let lookup_digests: Vec<Option<u64>> = lookups
        .iter()
        .map(
            |&q| match engine.submit(q).expect("admitted").wait().status {
                QueryStatus::Completed(output) => Some(output.digest()),
                _ => None,
            },
        )
        .collect();
    assert_eq!(
        engine.admission().queued(),
        queued.len(),
        "the lookups resolved while the stall still held the executor"
    );
    let _ = blocker.wait();
    let released = Instant::now();
    let digests: Vec<Option<u64>> = queued_tickets
        .into_iter()
        .map(|t| match t.wait().status {
            QueryStatus::Completed(output) => Some(output.digest()),
            _ => None,
        })
        .chain(lookup_digests)
        .collect();
    let waited = released.elapsed();
    let all: Vec<Query> = queued.into_iter().chain(lookups).collect();
    let oracle = sequential_digests(engine.store().snapshot().graph(), engine.pool(), &all);
    assert_eq!(digests, oracle, "point reads diverged from the oracle");
    assert_eq!(
        reg.histogram("engine.batch.size").snapshot().count,
        0,
        "point reads formed a group"
    );
    assert!(
        waited < Duration::from_micros(WINDOW_US / 4),
        "queued point reads took {waited:?} to resolve: they waited for a group"
    );
}

/// A group's window counts from its first admission, not from when an
/// executor reaches it. Sixteen plus four BFS queue behind a ~95 ms stall
/// on an engine whose window is 20 ms: the full group and the tail group
/// are both runnable by the time the executor frees up, so neither waits,
/// and no executor sits idle for a joiner.
#[test]
fn a_tail_group_past_its_window_runs_at_once() {
    const N: u32 = 20_000;
    const LANES: usize = MIN_SHARED_LANES;
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 1,
            cache_capacity: 0,
            batch_max: LANES,
            batch_window_us: 20_000,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    // GColor, not KCore: at this scale a KCore (~16 ms) would not outlast
    // the window; GColor takes ~95 ms.
    let stall = engine
        .submit(Query::Run {
            workload: Workload::GColor,
            source: 0,
        })
        .expect("stall query admitted");
    while engine.admission().queued() > 0 {
        std::thread::yield_now();
    }
    let queries: Vec<Query> = (0..LANES as u32 + 4)
        .map(|i| Query::Run {
            workload: Workload::Bfs,
            source: i * 1237 % N,
        })
        .collect();
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|&q| engine.submit(q).expect("admitted"))
        .collect();
    assert_eq!(
        engine.admission().queued(),
        queries.len(),
        "every BFS is queued behind the stall"
    );
    let oracle = sequential_digests(engine.store().snapshot().graph(), engine.pool(), &queries);
    let got: Vec<Option<u64>> = tickets
        .into_iter()
        .map(|t| match t.wait().status {
            QueryStatus::Completed(output) => Some(output.digest()),
            _ => None,
        })
        .collect();
    assert_eq!(got, oracle, "grouped BFS diverged from the oracle");
    let _ = stall.wait();
    let sizes = reg.histogram("engine.batch.size").snapshot();
    assert_eq!(
        (sizes.count, sizes.sum),
        (2, queries.len() as u64),
        "a group of {LANES} and a tail of 4"
    );
    let idle = reg.histogram("engine.batch.coalesce_us").snapshot();
    assert!(
        idle.sum < 5_000,
        "the executor waited {} us for groups already past their window",
        idle.sum
    );
}

/// A group still filling is not runnable, so it never holds an executor:
/// a queued point-class read (`DCentr`) submitted while a lone BFS waits out
/// a 300 ms window is served at once, and resolves long before the BFS.
#[test]
fn a_filling_group_does_not_hold_the_executor() {
    const WINDOW_US: u64 = 300_000;
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            batch_window_us: WINDOW_US,
            ..EngineConfig::default()
        },
        csr,
        &Registry::new(),
    );
    let started = Instant::now();
    let bfs = engine
        .submit(Query::Run {
            workload: Workload::Bfs,
            source: 7,
        })
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(engine.admission().queued(), 1, "the BFS fills its group");
    let dcentr = engine
        .submit(Query::Run {
            workload: Workload::DCentr,
            source: 7,
        })
        .expect("admitted");
    let read = dcentr.wait();
    let read_done = started.elapsed();
    assert!(matches!(read.status, QueryStatus::Completed(_)));
    assert_eq!(
        engine.admission().queued(),
        1,
        "the read was served around the filling group"
    );
    assert!(
        read.queue_us < 50_000,
        "the read queued {} us behind a filling group",
        read.queue_us
    );
    let traversal = bfs.wait();
    assert!(matches!(traversal.status, QueryStatus::Completed(_)));
    assert!(
        read_done < Duration::from_micros(traversal.queue_us + traversal.exec_us),
        "the read resolved at {read_done:?}, after the BFS"
    );
}
