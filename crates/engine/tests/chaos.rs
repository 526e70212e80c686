//! Seeded chaos matrix: FaultPlans × mixes, all invariants checked.
//!
//! The armed fault plan is process-global, so every test takes `SERIAL` —
//! chaos runs are process-serial by design.

use std::sync::{Mutex, MutexGuard, Once};

use graphbig_chaos::{self as chaos, FaultAction, FaultPlan, FaultSpec, Trigger};
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{generate_requests, run_chaos_mix, sequential_digests, MixSpec};
use graphbig_engine::{check_chaos_invariants, Engine, EngineConfig, Query, QueryStatus};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::{MetricValue, Registry};
use graphbig_workloads::Workload;

static SERIAL: Mutex<()> = Mutex::new(());
static QUIET: Once = Once::new();

fn serial() -> MutexGuard<'static, ()> {
    QUIET.call_once(chaos::install_quiet_panic_hook);
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine(n: usize, reg: &Registry) -> Engine {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n));
    Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            ..EngineConfig::default()
        },
        csr,
        reg,
    )
}

fn fault(site: &str, trigger: Trigger, action: FaultAction) -> FaultSpec {
    FaultSpec {
        site: site.to_string(),
        trigger,
        action,
        p: 0.0,
        n: 0,
        schedule: Vec::new(),
        delay_us: 0,
    }
}

fn plan(seed: u64, faults: Vec<FaultSpec>) -> FaultPlan {
    FaultPlan {
        seed,
        max_retries: 3,
        backoff_base_us: 50,
        backoff_cap_us: 400,
        faults,
    }
}

/// The schedule-independent outcome of a run: per-class outcome counts,
/// the admission tally, retries, and every completed digest. Latency
/// percentiles are deliberately excluded — they are timing, not outcome.
type Tally = (
    Vec<(u64, u64, u64, u64)>,
    u64,
    u64,
    u64,
    u64,
    Vec<(usize, u64)>,
);

fn tally(report: &graphbig_engine::TrafficReport) -> Tally {
    (
        report
            .classes
            .iter()
            .map(|c| (c.completed, c.deadline_missed, c.cancelled, c.failed))
            .collect(),
        report.admitted,
        report.rejected_queue_full,
        report.rejected_cost_budget,
        report.retries,
        report.completed_digests.clone(),
    )
}

/// Run a chaotic mix, check every invariant (including the oracle), and
/// panic with the rendered report on any violation.
fn run_checked(
    engine: &Engine,
    spec: &MixSpec,
    plan: &FaultPlan,
    reg: &Registry,
) -> graphbig_engine::TrafficReport {
    let report = run_chaos_mix(engine, spec, plan);
    assert!(
        !chaos::is_armed(),
        "run_chaos_mix must disarm before returning"
    );
    let snapshot = engine.store().snapshot();
    let queries = generate_requests(spec, snapshot.graph().num_vertices() as u32);
    let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
    let inv = check_chaos_invariants(engine, &report, Some(&oracle), reg);
    assert!(inv.ok(), "invariants violated:\n{}", inv.render());
    report
}

#[test]
fn reject_storm_retries_and_stays_consistent() {
    let _g = serial();
    let mut storm = fault(
        "engine.admit",
        Trigger::Probability,
        FaultAction::RejectQueueFull,
    );
    storm.p = 0.4;
    let mut budget = fault(
        "engine.admit",
        Trigger::Probability,
        FaultAction::RejectCostBudget,
    );
    budget.p = 0.1;
    let plan = plan(11, vec![storm, budget]);
    let spec = MixSpec {
        requests: 60,
        clients: 3,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let eng = engine(300, &reg);
    let report = run_checked(&eng, &spec, &plan, &reg);
    assert!(
        report.retries > 0,
        "p=0.5 combined storm must force retries"
    );
    // p=0.4/0.1 with only 3 retries: some requests exhaust their budget.
    assert!(
        report.rejected_queue_full + report.rejected_cost_budget > 0,
        "some requests should exhaust retries"
    );
    assert!(
        report.admitted > 0,
        "retries must get most requests through"
    );
}

#[test]
fn deadline_storm_is_replayable_from_the_seed() {
    let _g = serial();
    let mut storm = fault(
        "engine.dequeue",
        Trigger::EveryNth,
        FaultAction::DeadlineExpire,
    );
    storm.n = 4;
    let plan = plan(5, vec![storm]);
    let spec = MixSpec {
        requests: 48,
        clients: 2,
        ..MixSpec::default()
    };
    let run = || {
        let reg = Registry::new();
        let eng = engine(300, &reg);
        tally(&run_checked(&eng, &spec, &plan, &reg))
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same outcome tally and digests");
    let missed: u64 = first.0.iter().map(|c| c.1).sum();
    assert_eq!(missed, 12, "every 4th of 48 requests expires at dequeue");
}

#[test]
fn kernel_panic_marks_only_that_query_failed_and_engine_keeps_serving() {
    let _g = serial();
    let mut bomb = fault("engine.run.pre", Trigger::Schedule, FaultAction::Panic);
    bomb.schedule = vec![1, 3, 7];
    let plan = plan(3, vec![bomb]);
    let spec = MixSpec {
        requests: 20,
        clients: 2,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let eng = engine(300, &reg);
    let report = run_checked(&eng, &spec, &plan, &reg);
    let failed: u64 = report.classes.iter().map(|c| c.failed).sum();
    assert_eq!(failed, 3, "exactly the scheduled requests fail");
    let completed: u64 = report.classes.iter().map(|c| c.completed).sum();
    assert_eq!(completed, 17, "every other request completes normally");
    // Regression: the engine survives kernel panics — no executor died and
    // a fresh query still completes.
    assert_eq!(eng.alive_executors(), eng.executor_count());
    let r = eng.submit(Query::Degree { vertex: 0 }).unwrap().wait();
    assert!(matches!(r.status, QueryStatus::Completed(_)));
    assert_eq!(
        reg.snapshot()["engine.failed"],
        MetricValue::Counter(3),
        "failed counter matches"
    );
}

#[test]
fn panic_inside_a_parallel_kernel_is_contained() {
    let _g = serial();
    // Cancel-check panics fire inside running kernels on the executor
    // thread; pool workers and the executor must both survive.
    let mut bomb = fault(
        "runtime.cancel.check",
        Trigger::Probability,
        FaultAction::Panic,
    );
    bomb.p = 0.3;
    let plan = plan(17, vec![bomb]);
    let spec = MixSpec {
        requests: 24,
        clients: 2,
        point_weight: 0,
        traversal_weight: 50,
        analytics_weight: 50,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let eng = engine(400, &reg);
    let report = run_checked(&eng, &spec, &plan, &reg);
    let failed: u64 = report.classes.iter().map(|c| c.failed).sum();
    assert!(
        failed > 0,
        "p=0.3 over 24 kernel queries must hit something"
    );
    assert_eq!(eng.alive_executors(), eng.executor_count());
}

#[test]
fn republish_during_mix_preserves_oracle_equality() {
    let _g = serial();
    let mut bump = fault(
        "traffic.republish",
        Trigger::EveryNth,
        FaultAction::Republish,
    );
    bump.n = 7;
    let plan = plan(23, vec![bump]);
    let spec = MixSpec {
        requests: 42,
        clients: 3,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let eng = engine(300, &reg);
    let report = run_checked(&eng, &spec, &plan, &reg);
    assert!(
        eng.store().epoch() > 1,
        "mid-mix republishes must bump the epoch"
    );
    let completed: u64 = report.classes.iter().map(|c| c.completed).sum();
    assert_eq!(completed, 42, "republish is not an error path");
}

#[test]
fn forced_cancellation_storm_is_deterministic() {
    let _g = serial();
    let mut storm = fault(
        "runtime.cancel.check",
        Trigger::Probability,
        FaultAction::Cancel,
    );
    storm.p = 0.5;
    let plan = plan(29, vec![storm]);
    let spec = MixSpec {
        requests: 24,
        clients: 2,
        point_weight: 0,
        traversal_weight: 50,
        analytics_weight: 50,
        ..MixSpec::default()
    };
    let run = || {
        let reg = Registry::new();
        let eng = engine(300, &reg);
        tally(&run_checked(&eng, &spec, &plan, &reg))
    };
    let first = run();
    assert_eq!(first, run(), "token-keyed cancel decisions are replayable");
    let cancelled: u64 = first.0.iter().map(|c| c.2).sum();
    assert!(cancelled > 0, "p=0.5 must cancel some kernels");
}

#[test]
fn seeded_matrix_of_plans_times_mixes_holds_every_invariant() {
    let _g = serial();
    let mut reject = fault(
        "engine.admit",
        Trigger::Probability,
        FaultAction::RejectQueueFull,
    );
    reject.p = 0.3;
    let mut expire = fault(
        "engine.dequeue",
        Trigger::EveryNth,
        FaultAction::DeadlineExpire,
    );
    expire.n = 5;
    let mut bombs = fault("engine.run.pre", Trigger::Probability, FaultAction::Panic);
    bombs.p = 0.08;
    let mut bump = fault(
        "traffic.republish",
        Trigger::EveryNth,
        FaultAction::Republish,
    );
    bump.n = 9;
    let mut cancel = fault(
        "runtime.cancel.check",
        Trigger::Probability,
        FaultAction::Cancel,
    );
    cancel.p = 0.15;
    let mut slow = fault("engine.dequeue", Trigger::Probability, FaultAction::Delay);
    slow.p = 0.2;
    slow.delay_us = 300;
    let plans = [
        plan(101, vec![reject.clone()]),
        plan(102, vec![expire.clone()]),
        plan(103, vec![bombs.clone()]),
        plan(104, vec![bump.clone()]),
        plan(105, vec![reject, expire, bombs, bump, cancel, slow]),
    ];
    let mixes = [
        MixSpec {
            requests: 30,
            clients: 2,
            ..MixSpec::default()
        },
        MixSpec {
            requests: 24,
            clients: 3,
            point_weight: 10,
            traversal_weight: 30,
            analytics_weight: 60,
            ..MixSpec::default()
        },
    ];
    for (pi, plan) in plans.iter().enumerate() {
        for (mi, spec) in mixes.iter().enumerate() {
            let reg = Registry::new();
            let eng = engine(250, &reg);
            let report = run_chaos_mix(&eng, spec, plan);
            let snapshot = eng.store().snapshot();
            let queries = generate_requests(spec, snapshot.graph().num_vertices() as u32);
            let oracle = sequential_digests(snapshot.graph(), eng.pool(), &queries);
            let inv = check_chaos_invariants(&eng, &report, Some(&oracle), &reg);
            assert!(
                inv.ok(),
                "plan {pi} × mix {mi} violated invariants:\n{}",
                inv.render()
            );
        }
    }
}

#[test]
fn shutdown_drain_never_double_resolves_tickets() {
    let _g = serial();
    // Slow every dequeue so queued analytics are still pending when the
    // engine drops — the shutdown shed and the drain backstop both race to
    // resolve them, and the one-shot CAS must let exactly one win.
    let mut slow = fault("engine.dequeue", Trigger::Always, FaultAction::Delay);
    slow.delay_us = 2_000;
    let plan = plan(31, vec![slow]);
    chaos::arm(&plan);
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(400));
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 1,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let tickets: Vec<_> = (0..10)
        .filter_map(|_| {
            eng.submit(Query::Run {
                workload: Workload::KCore,
                source: 0,
            })
            .ok()
        })
        .collect();
    let submitted = tickets.len() as u64;
    drop(eng);
    chaos::disarm();
    for t in tickets {
        let r = t.wait();
        assert!(
            matches!(r.status, QueryStatus::Completed(_) | QueryStatus::Cancelled),
            "shutdown must complete or shed, got {:?}",
            r.status
        );
    }
    let snap = reg.snapshot();
    assert_eq!(snap["engine.resolved"], MetricValue::Counter(submitted));
    assert_eq!(snap["engine.double_resolve"], MetricValue::Counter(0));
}

#[test]
fn compaction_delay_mid_mix_holds_invariants_and_logs_the_lifecycle() {
    let _g = serial();
    use graphbig_engine::traffic::{generate_ops, live_engine_digest, mutation_oracle_digest};
    // Stretch every fold with a pre-materialize delay so queries and
    // mutations land inside the compaction window, then drive a
    // write-heavy mix against a low fold threshold.
    let mut slow_fold = fault("engine.compact.pre", Trigger::Always, FaultAction::Delay);
    slow_fold.delay_us = 3_000;
    let mut slow_write = fault("engine.mutate", Trigger::Probability, FaultAction::Delay);
    slow_write.p = 0.2;
    slow_write.delay_us = 200;
    let plan = plan(41, vec![slow_fold, slow_write]);
    let spec = MixSpec {
        seed: 6,
        requests: 500,
        clients: 4,
        point_weight: 45,
        traversal_weight: 5,
        analytics_weight: 0,
        write_weight: 50,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(300));
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            compact_threshold: 64,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let base = eng.store().snapshot();
    let ops = generate_ops(&spec, base.graph().num_vertices() as u32);
    let expected = mutation_oracle_digest(base.graph(), &ops);
    let report = run_chaos_mix(&eng, &spec, &plan);
    assert!(
        report
            .fault_fired
            .iter()
            .any(|(label, n)| label.starts_with("engine.compact.pre") && *n > 0),
        "the fold delay must have fired: {:?}",
        report.fault_fired
    );
    // Let in-flight folds drain, then sweep every invariant — including
    // compaction lifecycle balance and mutation sequencing.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let snap = reg.snapshot();
        let started = match snap.get("engine.compact.started") {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        let completed = match snap.get("engine.compact.completed") {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        if started == completed && started > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never folded or never finished ({started}/{completed})"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let inv = check_chaos_invariants(&eng, &report, None, &reg);
    assert!(inv.ok(), "invariants violated:\n{}", inv.render());
    // Races notwithstanding, the final state equals the sequential oracle.
    assert_eq!(live_engine_digest(&eng), expected);
    // The flight recorder captured the compaction lifecycle.
    use graphbig_telemetry::recorder::{self, EventKind};
    let events = recorder::snapshot().events;
    let starts = events
        .iter()
        .filter(|e| e.kind == EventKind::CompactStart)
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind == EventKind::CompactEnd)
        .count();
    assert!(starts > 0, "CompactStart events recorded");
    assert!(ends > 0, "CompactEnd events recorded");
    assert!(
        events.iter().any(|e| e.kind == EventKind::Mutate),
        "Mutate events recorded"
    );
}

#[test]
fn stale_read_injection_is_caught_by_the_rebuild_oracle() {
    let _g = serial();
    use graphbig_engine::traffic::{resolve_write, WriteOp};
    use graphbig_engine::QueryOutput;
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(200));
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            // No cache: a stale read must not be able to hide behind (or
            // poison) a cached entry while the drill compares views.
            cache_capacity: 0,
            compact_threshold: 0,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    let base = eng.store().snapshot();
    let degree_of = |eng: &Engine| {
        let r = eng.submit(Query::Degree { vertex: 0 }).unwrap().wait();
        match r.status {
            QueryStatus::Completed(QueryOutput::Degree { out, .. }) => out,
            other => panic!("degree query failed: {other:?}"),
        }
    };
    // The same drill over a traversal, which reads the overlay through an
    // adjacency view rather than a point lookup.
    let bfs = Query::Run {
        workload: Workload::Bfs,
        source: 0,
    };
    let bfs_of = |eng: &Engine| match eng.submit(bfs).unwrap().wait().status {
        QueryStatus::Completed(output) => output.digest(),
        other => panic!("BFS failed: {other:?}"),
    };
    let before = degree_of(&eng);
    let bfs_before = bfs_of(&eng);
    // A guaranteed-fresh edge out of vertex 0, via the same resolution the
    // traffic driver uses.
    let batch = resolve_write(base.graph(), WriteOp::Insert { u: 0, salt: 0 });
    assert_eq!(batch.len(), 1);
    eng.mutate(&batch).unwrap();
    let overlay_view = degree_of(&eng);
    assert_eq!(overlay_view, before + 1, "overlay read sees the insert");
    let bfs_overlay = bfs_of(&eng);
    assert_ne!(bfs_overlay, bfs_before, "overlay BFS sees the insert");

    // Inject StaleRead at every overlay read: the engine silently serves
    // the pinned base instead of the overlay.
    let drop_overlay = fault(
        "engine.overlay.read",
        Trigger::Always,
        FaultAction::StaleRead,
    );
    chaos::arm(&plan(51, vec![drop_overlay]));
    let stale_view = degree_of(&eng);
    let bfs_stale = bfs_of(&eng);
    let fired = chaos::fired_counts();
    chaos::disarm();
    assert!(
        fired
            .iter()
            .any(|(label, n)| label.starts_with("engine.overlay.read") && *n > 0),
        "the stale-read fault must have fired: {fired:?}"
    );
    assert_eq!(stale_view, before, "injection served the stale base");
    assert_eq!(bfs_stale, bfs_before, "and traversed the stale base");

    // The rebuild oracle catches it: a graph rebuilt from scratch with the
    // same mutation disagrees with the injected answer — exactly the
    // mismatch a digest comparison would flag.
    let rebuilt = eng.overlay().materialize(base.graph(), 4);
    let (rebuilt_out, _) = rebuilt.degree(0).unwrap();
    assert_eq!(rebuilt_out, before + 1);
    assert_ne!(
        stale_view, rebuilt_out,
        "stale read diverges from the rebuild oracle"
    );
    let rebuilt_bfs = sequential_digests(&rebuilt, eng.pool(), &[bfs])[0];
    assert_eq!(rebuilt_bfs, Some(bfs_overlay));
    assert_ne!(Some(bfs_stale), rebuilt_bfs, "so does the stale traversal");
    // With the fault disarmed the engine agrees with the oracle again.
    assert_eq!(degree_of(&eng), rebuilt_out);
    assert_eq!(Some(bfs_of(&eng)), rebuilt_bfs);
}

/// A plan with `Trigger::Schedule` faults keyed to explicit chaos tags.
fn scheduled_plan(faults: Vec<(&str, FaultAction, Vec<u64>)>) -> FaultPlan {
    plan(
        11,
        faults
            .into_iter()
            .map(|(site, action, schedule)| {
                let mut f = fault(site, Trigger::Schedule, action);
                f.schedule = schedule;
                f
            })
            .collect(),
    )
}

/// Park the single executor behind a heavy analytics query so everything
/// submitted afterwards is still queued when the executor frees up — the
/// deterministic way to force a coalesced batch.
fn stall(engine: &Engine) -> graphbig_engine::Ticket {
    engine
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .expect("stall query admitted")
}

#[test]
fn mid_batch_cancel_or_expiry_resolves_only_its_own_ticket() {
    let _g = serial();
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            queue_capacity: 128,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    // `engine.batch.form` fires at formation time for exactly two members:
    // one cancelled, one deadline-expired. Every other lane of the same
    // shared pass must complete untouched.
    chaos::arm(&scheduled_plan(vec![
        ("engine.batch.form", FaultAction::Cancel, vec![103]),
        ("engine.batch.form", FaultAction::DeadlineExpire, vec![105]),
    ]));
    let blocker = stall(&eng);
    let tickets: Vec<(u64, graphbig_engine::Ticket)> = (100u64..112)
        .map(|tag| {
            let t = eng
                .submit_tagged(
                    Query::Run {
                        workload: Workload::Bfs,
                        source: (tag as u32 - 100) * 41 % 2000,
                    },
                    None,
                    tag,
                )
                .expect("admitted");
            (tag, t)
        })
        .collect();
    let _ = blocker.wait();
    for (tag, ticket) in tickets {
        let r = ticket.wait();
        match tag {
            103 => assert_eq!(r.status, QueryStatus::Cancelled, "tag 103"),
            105 => assert_eq!(r.status, QueryStatus::DeadlineExceeded, "tag 105"),
            _ => assert!(
                matches!(r.status, QueryStatus::Completed(_)),
                "tag {tag}: a neighbour's mid-batch fault leaked: {:?}",
                r.status
            ),
        }
    }
    let fired = chaos::fired_counts();
    chaos::disarm();
    // Exactly-once held across the fan-out: no ticket was resolved twice.
    assert_eq!(
        reg.snapshot()["engine.double_resolve"],
        MetricValue::Counter(0)
    );
    for label in [
        "engine.batch.form.Cancel",
        "engine.batch.form.DeadlineExpire",
    ] {
        assert!(
            fired.iter().any(|(l, n)| l == label && *n == 1),
            "{label} must fire exactly once: {fired:?}"
        );
    }
}

#[test]
fn fanout_double_resolve_is_absorbed_by_the_one_shot_resolver() {
    let _g = serial();
    let reg = Registry::new();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let eng = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            ..EngineConfig::default()
        },
        csr,
        &reg,
    );
    chaos::arm(&scheduled_plan(vec![(
        "engine.batch.fanout",
        FaultAction::DoubleResolve,
        vec![204],
    )]));
    let blocker = stall(&eng);
    let tickets: Vec<graphbig_engine::Ticket> = (200u64..208)
        .map(|tag| {
            eng.submit_tagged(
                Query::Run {
                    workload: Workload::Bfs,
                    source: (tag as u32 - 200) * 59 % 2000,
                },
                None,
                tag,
            )
            .expect("admitted")
        })
        .collect();
    let _ = blocker.wait();
    for t in tickets {
        // Every ticket — including the double-resolved one — receives
        // exactly one response; the second delivery loses the CAS.
        assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
    }
    let fired = chaos::fired_counts();
    chaos::disarm();
    assert_eq!(
        reg.snapshot()["engine.double_resolve"],
        MetricValue::Counter(1),
        "the injected fan-out double resolve is counted, not delivered"
    );
    assert!(
        fired
            .iter()
            .any(|(l, n)| l == "engine.batch.fanout.DoubleResolve" && *n == 1),
        "the fan-out fault must fire exactly once: {fired:?}"
    );
}

#[test]
fn bfs_heavy_mix_under_batch_faults_holds_every_invariant() {
    let _g = serial();
    // The batch fault plan from the issue: formation-time cancels raining
    // on a BFS-heavy mix with enough concurrent clients that coalescing is
    // constantly engaged. All eight invariants — including the sequential
    // oracle over every completed digest and resolved-exactly-once — must
    // hold.
    let mut form = fault(
        "engine.batch.form",
        Trigger::Probability,
        FaultAction::Cancel,
    );
    form.p = 0.3;
    let plan = plan(23, vec![form]);
    let spec = MixSpec {
        requests: 60,
        clients: 8,
        point_weight: 20,
        traversal_weight: 70,
        analytics_weight: 10,
        ..MixSpec::default()
    };
    let reg = Registry::new();
    let eng = engine(2000, &reg);
    let report = run_checked(&eng, &spec, &plan, &reg);
    let completed: u64 = report.classes.iter().map(|c| c.completed).sum();
    assert!(completed > 0, "the mix must still make progress");
    // Coalescing engaged under fire: batches formed and were measured.
    assert!(
        reg.histogram("engine.batch.size").snapshot().count >= 1,
        "no batch formed during a BFS-heavy 8-client mix"
    );
}

/// Regression: a fault plan's outcome must not depend on whether the
/// scheduler coalesced the request. The same scheduled faults run twice —
/// coalescing off (`batch_max: 1`) vs a stalled executor that forces the
/// tagged BFS requests into one shared group — and every tagged request
/// must reach the same terminal status (and digest) and leave the same
/// cache footprint both times.
#[test]
fn fault_plan_replay_does_not_depend_on_coalescing() {
    let _g = serial();
    use graphbig_engine::Mutation;
    const N: u32 = 3000;
    // Tags 400..420 are BFS requests from distinct sources; four of them
    // are scheduled for one fault each.
    let source_of = |tag: u64| (tag as u32 - 400) * 131 % N;
    let (pre_panic, post_panic, expired, stale) = (403u64, 407u64, 411u64, 415u64);
    let bfs = |tag: u64| Query::Run {
        workload: Workload::Bfs,
        source: source_of(tag),
    };
    let run = |batch_max: usize| {
        let reg = Registry::new();
        let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
        let eng = Engine::with_registry(
            EngineConfig {
                executors: 1,
                pool_threads: 2,
                compact_threshold: 0,
                batch_max,
                ..EngineConfig::default()
            },
            csr,
            &reg,
        );
        // A non-empty overlay the stale-read member will be denied: a new
        // vertex hanging off that member's source.
        eng.mutate(&[
            Mutation::AddVertex,
            Mutation::AddEdge {
                u: source_of(stale),
                v: N,
                w: 1.0,
            },
        ])
        .unwrap();
        // Case (i) needs the `run.pre` victim's answer already cached.
        let warm = eng.submit(bfs(pre_panic)).unwrap().wait();
        assert!(matches!(warm.status, QueryStatus::Completed(_)));
        chaos::arm(&scheduled_plan(vec![
            ("engine.run.pre", FaultAction::Panic, vec![pre_panic]),
            ("engine.run.post", FaultAction::Panic, vec![post_panic]),
            ("engine.dequeue", FaultAction::DeadlineExpire, vec![expired]),
            ("engine.overlay.read", FaultAction::StaleRead, vec![stale]),
        ]));
        let blocker = stall(&eng);
        let tickets: Vec<(u64, graphbig_engine::Ticket)> = (400u64..420)
            .map(|tag| {
                (
                    tag,
                    eng.submit_tagged(bfs(tag), None, tag).expect("admitted"),
                )
            })
            .collect();
        let _ = blocker.wait();
        let outcomes: Vec<(u64, u64, u64)> = tickets
            .into_iter()
            .map(|(tag, ticket)| match ticket.wait().status {
                QueryStatus::Completed(output) => (tag, 0, output.digest()),
                QueryStatus::DeadlineExceeded => (tag, 1, 0),
                QueryStatus::Cancelled => (tag, 2, 0),
                QueryStatus::Unsupported(_) => (tag, 3, 0),
                QueryStatus::Failed(_) => (tag, 4, 0),
            })
            .collect();
        chaos::disarm();
        let groups = reg.histogram("engine.batch.size").snapshot().count;
        (outcomes, eng.cache_len(), groups)
    };
    let (solo, solo_cache, solo_groups) = run(1);
    let (grouped, grouped_cache, grouped_groups) = run(64);
    assert_eq!(solo_groups, 0, "batch_max: 1 must never coalesce");
    assert!(grouped_groups >= 1, "the stalled executor must coalesce");
    let code_of = |outcomes: &[(u64, u64, u64)], tag: u64| {
        outcomes.iter().find(|o| o.0 == tag).expect("tag ran").1
    };
    for outcomes in [&solo, &grouped] {
        assert_eq!(
            code_of(outcomes, pre_panic),
            4,
            "(i) run.pre fails a cached hit"
        );
        assert_eq!(code_of(outcomes, post_panic), 4, "(ii) run.post fails");
        assert_eq!(code_of(outcomes, expired), 1, "(iii) dequeue expiry");
        assert_eq!(code_of(outcomes, stale), 0, "(iv) stale read completes");
    }
    assert_eq!(solo, grouped, "statuses and digests diverged by grouping");
    assert_eq!(
        solo_cache, grouped_cache,
        "(ii) cache footprint diverged by grouping"
    );
}
