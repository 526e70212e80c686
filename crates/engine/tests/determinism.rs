//! Engine end-to-end guarantees, property-tested:
//!
//! * any mix of concurrent queries over one epoch is bit-identical to the
//!   same queries run sequentially (the serving-correctness contract);
//! * admission control rejects over-budget load instead of queuing it;
//! * deadline-exceeded queries are cancelled, never completed late;
//! * epoch publication never leaks across in-flight queries.

use std::time::Duration;

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{
    generate_requests, run_mix, sequential_digests, verify_against_oracle,
};
use graphbig_engine::{Engine, EngineConfig, MixSpec, Query, QueryStatus, RejectReason, Ticket};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::MetricValue;
use graphbig_workloads::Workload;

fn csr(n: usize) -> Csr {
    Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n))
}

#[test]
fn any_concurrent_mix_is_bit_identical_to_sequential() {
    prop::check(
        "engine_concurrent_equals_sequential",
        Config::with_cases(6),
        |rng| {
            (
                (
                    rng.next_u64(),            // mix seed
                    rng.gen_range(1u64..=4),   // clients
                    rng.gen_range(10u64..=40), // requests
                ),
                (
                    rng.gen_range(1u64..=10), // point weight
                    rng.gen_range(0u64..=10), // traversal weight
                    rng.gen_range(0u64..=10), // analytics weight
                ),
            )
        },
        |&((seed, clients, requests), (pw, tw, aw))| {
            let spec = MixSpec {
                seed,
                requests: requests as usize,
                clients: clients as usize,
                point_weight: pw as u32,
                traversal_weight: tw as u32,
                analytics_weight: aw as u32,
                deadline_ms: None,
                ..MixSpec::default()
            };
            let reg = Registry::new();
            let engine = Engine::with_registry(
                EngineConfig {
                    executors: 3,
                    pool_threads: 2,
                    ..EngineConfig::default()
                },
                csr(160),
                &reg,
            );
            let report = run_mix(&engine, &spec);
            // Closed loop at <= 4 clients with no deadline: nothing is
            // rejected and everything completes.
            assert_eq!(report.admitted, requests);
            let snapshot = engine.store().snapshot();
            let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
            let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
            let checked = verify_against_oracle(&report, &oracle)
                .expect("concurrent results must be bit-identical to sequential");
            assert_eq!(checked, requests, "every request verified");
        },
    );
}

#[test]
fn over_budget_load_is_rejected_not_queued() {
    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 1,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
        csr(20_000),
        &reg,
    );
    // Open-loop burst: a single executor grinding 20k-vertex analytics
    // cannot drain 4 queue slots before 20 instant submissions land.
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut queue_full = 0u64;
    for _ in 0..20 {
        match engine.submit(Query::Run {
            workload: Workload::CComp,
            source: 0,
        }) {
            Ok(t) => tickets.push(t),
            Err(RejectReason::QueueFull { depth, limit }) => {
                assert!(depth >= limit, "rejection must report a full queue");
                queue_full += 1;
            }
            Err(other) => panic!("unexpected rejection {other}"),
        }
    }
    assert!(queue_full > 0, "bounded queue must shed the burst");
    let admitted = tickets.len() as u64;
    for t in tickets {
        assert!(
            matches!(t.wait().status, QueryStatus::Completed(_)),
            "admitted queries still complete"
        );
    }
    let snap = reg.snapshot();
    assert_eq!(
        snap["engine.rejected.queue_full"],
        MetricValue::Counter(queue_full)
    );
    assert_eq!(snap["engine.submitted"], MetricValue::Counter(admitted));
    assert_eq!(engine.admission().queued(), 0);
    assert_eq!(engine.admission().in_flight_cost(), 0);
}

#[test]
fn cost_budget_rejects_heavy_queries_while_serving_cheap_ones() {
    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            pool_threads: 2,
            cost_budget: 10, // point queries fit, any kernel run does not
            ..EngineConfig::default()
        },
        csr(500),
        &reg,
    );
    // Occupy one cost unit so the engine is not idle: the oversized-query
    // escape hatch only fires when in-flight cost is zero.
    engine.admission().try_admit(1).expect("trivial admit");
    engine.admission().on_start();
    let err = engine
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .unwrap_err();
    assert!(
        matches!(err, RejectReason::CostBudget { limit: 10, .. }),
        "{err}"
    );
    let t = engine.submit(Query::Degree { vertex: 3 }).unwrap();
    assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
    engine.admission().on_finish(1);
    assert_eq!(
        reg.snapshot()["engine.rejected.cost_budget"],
        MetricValue::Counter(1)
    );
}

#[test]
fn deadline_exceeded_queries_are_cancelled_not_completed() {
    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            pool_threads: 2,
            ..EngineConfig::default()
        },
        csr(2_000),
        &reg,
    );
    let responses: Vec<_> = (0..8)
        .map(|i| {
            let query = Query::Run {
                workload: if i % 2 == 0 {
                    Workload::CComp
                } else {
                    Workload::SPath
                },
                source: i,
            };
            engine
                .submit_with_deadline(query, Some(Duration::ZERO))
                .expect("admission is independent of deadlines")
        })
        .map(Ticket::wait)
        .collect();
    for r in &responses {
        assert_eq!(
            r.status,
            QueryStatus::DeadlineExceeded,
            "an already-expired deadline must never produce a completion"
        );
    }
    assert_eq!(
        reg.snapshot()["engine.deadline_missed"],
        MetricValue::Counter(8)
    );
    assert_eq!(engine.admission().in_flight_cost(), 0, "budget released");
}

#[test]
fn epoch_publication_does_not_leak_across_queries() {
    let engine = Engine::with_registry(
        EngineConfig {
            pool_threads: 2,
            ..EngineConfig::default()
        },
        csr(100),
        &Registry::new(),
    );
    let query = Query::Run {
        workload: Workload::CComp,
        source: 0,
    };
    let old_snapshot = engine.store().snapshot();
    let before = engine.submit(query).unwrap();
    let new_epoch = engine.publish(csr(220));
    assert_eq!(new_epoch, 2);
    let after = engine.submit(query).unwrap();
    let (before, after) = (before.wait(), after.wait());
    assert_eq!(before.epoch, 1);
    assert_eq!(after.epoch, 2);
    let new_snapshot = engine.store().snapshot();
    let oracle_old = sequential_digests(old_snapshot.graph(), engine.pool(), &[query]);
    let oracle_new = sequential_digests(new_snapshot.graph(), engine.pool(), &[query]);
    assert_ne!(
        oracle_old[0], oracle_new[0],
        "the two epochs must be distinguishable for this test to mean anything"
    );
    let digest_of = |status: &QueryStatus| match status {
        QueryStatus::Completed(o) => o.digest(),
        other => panic!("expected completion, got {other:?}"),
    };
    assert_eq!(Some(digest_of(&before.status)), oracle_old[0]);
    assert_eq!(Some(digest_of(&after.status)), oracle_new[0]);
}
