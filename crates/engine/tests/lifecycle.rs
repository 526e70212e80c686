//! Trace-correlation coverage for the request lifecycle.
//!
//! Every admitted request id minted at admission must appear **exactly
//! once per lifecycle stage** (admit → enqueue → dequeue → run → resolve)
//! in the always-on flight recorder — on the completed path and on every
//! failure path: rejected, deadline-exceeded, cancelled, unsupported, and
//! (with the `chaos` feature) kernel-failed. What the recorder costs is
//! gated here too, as a count: a solo request emits exactly its stages plus
//! one `kernel_step` per superstep poll. The chaos-gated tests also
//! prove the two correlation stories the recorder exists for: fault fires
//! tagged with the triggering request, and an invariant violation dumping
//! the full per-stage story of the affected request.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use graphbig_datagen::Dataset;
use graphbig_engine::{Engine, EngineConfig, Query, QueryStatus};
use graphbig_framework::csr::{BiCsr, Csr};
use graphbig_runtime::CancelToken;
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::recorder::{self, EventKind, RecorderEvent};
use graphbig_workloads::{parallel, Workload};

/// The flight recorder is process-global (and so is chaos arming in the
/// gated tests below), so every test in this file takes one gate and the
/// assertions filter snapshots by freshly-minted request ids.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine(n: usize, cfg: EngineConfig, reg: &Registry) -> Engine {
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n));
    Engine::with_registry(cfg, csr, reg)
}

fn quiet_cfg() -> EngineConfig {
    EngineConfig {
        pool_threads: 2,
        ..EngineConfig::default()
    }
}

/// Submit `q`, wait for it to complete, and return its request id.
fn run_to_completion(eng: &Engine, q: Query) -> u64 {
    let t = eng.submit(q).unwrap();
    let rid = t.request_id();
    assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
    rid
}

fn events_for(rid: u64) -> Vec<RecorderEvent> {
    let mut evs: Vec<RecorderEvent> = recorder::snapshot()
        .events
        .into_iter()
        .filter(|e| e.id == rid)
        .collect();
    evs.sort_by_key(|e| e.ts_us);
    evs
}

fn count(evs: &[RecorderEvent], kind: EventKind) -> usize {
    evs.iter().filter(|e| e.kind == kind).count()
}

fn arg_of(evs: &[RecorderEvent], kind: EventKind) -> u64 {
    evs.iter()
        .find(|e| e.kind == kind)
        .unwrap_or_else(|| panic!("missing {} event", kind.name()))
        .arg
}

fn ts_of(evs: &[RecorderEvent], kind: EventKind) -> u64 {
    evs.iter()
        .find(|e| e.kind == kind)
        .unwrap_or_else(|| panic!("missing {} event", kind.name()))
        .ts_us
}

const STAGES: [EventKind; 5] = [
    EventKind::Admit,
    EventKind::Enqueue,
    EventKind::Dequeue,
    EventKind::Run,
    EventKind::Resolve,
];

/// Assert the five lifecycle stages each appear exactly once for `rid`,
/// in causal order, with the expected status code on run and resolve.
fn assert_full_lifecycle(rid: u64, status_code: u64) -> Vec<RecorderEvent> {
    let evs = events_for(rid);
    for kind in STAGES {
        assert_eq!(
            count(&evs, kind),
            1,
            "request {rid}: stage {} must appear exactly once in {evs:?}",
            kind.name()
        );
    }
    assert_eq!(
        count(&evs, EventKind::Reject),
        0,
        "admitted, never rejected"
    );
    assert_eq!(arg_of(&evs, EventKind::Run), status_code);
    assert_eq!(arg_of(&evs, EventKind::Resolve), status_code);
    for pair in STAGES.windows(2) {
        assert!(
            ts_of(&evs, pair[0]) <= ts_of(&evs, pair[1]),
            "request {rid}: {} must not precede {}",
            pair[1].name(),
            pair[0].name()
        );
    }
    evs
}

#[test]
fn completed_requests_log_every_stage_exactly_once() {
    let _g = gate();
    let reg = Registry::new();
    let eng = engine(300, quiet_cfg(), &reg);
    let t_point = eng.submit(Query::Degree { vertex: 0 }).unwrap();
    let t_analytics = eng
        .submit(Query::Run {
            workload: Workload::CComp,
            source: 0,
        })
        .unwrap();
    let (rid_point, rid_analytics) = (t_point.request_id(), t_analytics.request_id());
    let r1 = t_point.wait();
    let r2 = t_analytics.wait();
    assert!(matches!(r1.status, QueryStatus::Completed(_)));
    assert!(matches!(r2.status, QueryStatus::Completed(_)));
    assert_eq!(r1.request_id, rid_point, "ticket and response agree");
    assert_eq!(r2.request_id, rid_analytics);

    let point = assert_full_lifecycle(rid_point, 0);
    let analytics = assert_full_lifecycle(rid_analytics, 0);
    // Stage events carry the priority lane the request billed to.
    for e in point.iter().filter(|e| STAGES.contains(&e.kind)) {
        assert_eq!(e.lane, 0, "point queries ride lane 0");
    }
    for e in analytics.iter().filter(|e| STAGES.contains(&e.kind)) {
        assert_eq!(e.lane, 2, "analytics queries ride lane 2");
    }
    // A serviced kernel additionally marks where execution entered it.
    assert_eq!(count(&analytics, EventKind::KernelStart), 1);
}

#[test]
fn deadline_exceeded_requests_still_log_the_full_lifecycle() {
    let _g = gate();
    let reg = Registry::new();
    let eng = engine(300, quiet_cfg(), &reg);
    let t = eng
        .submit_with_deadline(
            Query::Run {
                workload: Workload::CComp,
                source: 0,
            },
            Some(Duration::ZERO),
        )
        .unwrap();
    let rid = t.request_id();
    assert_eq!(t.wait().status, QueryStatus::DeadlineExceeded);
    assert_full_lifecycle(rid, 1);
}

#[test]
fn cancelled_requests_log_the_cancel_and_the_full_lifecycle() {
    let _g = gate();
    let reg = Registry::new();
    // One executor: park it behind a heavy analytics query so the victim
    // is still queued when the cancel lands.
    let eng = engine(
        3000,
        EngineConfig {
            executors: 1,
            ..quiet_cfg()
        },
        &reg,
    );
    let blocker = eng
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .unwrap();
    let victim = eng
        .submit(Query::Run {
            workload: Workload::SPath,
            source: 0,
        })
        .unwrap();
    let rid = victim.request_id();
    victim.cancel();
    let r = victim.wait();
    let _ = blocker.wait();
    // The cancel usually lands while queued; a fast blocker can let the
    // victim start (or even finish) first. Either way the lifecycle is
    // exactly-once and the cancel request itself is on record.
    let code = match r.status {
        QueryStatus::Cancelled => 2,
        QueryStatus::Completed(_) => 0,
        other => panic!("unexpected status {other:?}"),
    };
    let evs = assert_full_lifecycle(rid, code);
    assert_eq!(count(&evs, EventKind::CancelRequest), 1);
}

#[test]
fn unsupported_requests_resolve_with_the_unsupported_code() {
    let _g = gate();
    let reg = Registry::new();
    let eng = engine(50, quiet_cfg(), &reg);
    let t = eng
        .submit(Query::Run {
            workload: Workload::Gibbs,
            source: 0,
        })
        .unwrap();
    let rid = t.request_id();
    assert_eq!(t.wait().status, QueryStatus::Unsupported(Workload::Gibbs));
    assert_full_lifecycle(rid, 3);
}

#[test]
fn rejected_requests_log_admit_and_reject_and_nothing_else() {
    let _g = gate();
    let reg = Registry::new();
    let eng = engine(
        100,
        EngineConfig {
            cost_budget: 1, // only Degree-class queries fit
            ..quiet_cfg()
        },
        &reg,
    );
    let before: std::collections::HashSet<u64> =
        recorder::snapshot().events.iter().map(|e| e.id).collect();
    // Fill the budget so the oversized submit hits a *busy* engine — an
    // idle one would admit it via the empty-engine escape hatch.
    eng.admission().try_admit(1).expect("fits the budget");
    eng.admission().on_start();
    eng.submit(Query::Run {
        workload: Workload::KCore,
        source: 0,
    })
    .unwrap_err();
    eng.admission().on_finish(1);
    // The rejected submit returns no ticket, so recover its id from the
    // snapshot diff: exactly one fresh cost-budget reject must appear.
    let fresh: Vec<RecorderEvent> = recorder::snapshot()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Reject && e.arg == 1 && !before.contains(&e.id))
        .collect();
    assert_eq!(fresh.len(), 1, "exactly one new cost-budget rejection");
    let evs = events_for(fresh[0].id);
    assert_eq!(count(&evs, EventKind::Admit), 1);
    assert_eq!(count(&evs, EventKind::Reject), 1);
    assert_eq!(
        evs.len(),
        2,
        "a rejected request has no post-admission stages: {evs:?}"
    );
}

/// The per-request story with the group-shape markers (`batch_start` /
/// `batch_join`) dropped: the lifecycle and kernel-step kinds in causal
/// order. Events that share a microsecond across threads are put in
/// canonical stage order, so the comparisons below are about *which* stages
/// a request passed, not about clock resolution.
fn event_kinds(rid: u64) -> Vec<&'static str> {
    const ORDER: [EventKind; 8] = [
        EventKind::Admit,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::CacheHit,
        EventKind::KernelStart,
        EventKind::KernelStep,
        EventKind::Run,
        EventKind::Resolve,
    ];
    let mut evs: Vec<(u64, usize)> = events_for(rid)
        .iter()
        .filter_map(|e| Some((e.ts_us, ORDER.iter().position(|k| *k == e.kind)?)))
        .collect();
    evs.sort();
    evs.into_iter()
        .map(|(_, rank)| ORDER[rank].name())
        .collect()
}

/// [`event_kinds`] without the kernel-internal steps, whose number depends
/// on whether the request rode a shared pass.
fn lifecycle_kinds(rid: u64) -> Vec<&'static str> {
    let mut kinds = event_kinds(rid);
    kinds.retain(|k| *k != EventKind::KernelStep.name());
    kinds
}

/// The recorder's cost per request, as a count: with the cache and cost
/// feedback off, a solo BFS emits its five stages, one `kernel_start` and
/// one `kernel_step` per superstep poll — a number the kernel's own
/// [`parallel::DirOptReport`] fixes — and a degree read the five stages
/// alone. The same steps come out of `to_trace` as `kernel.step` spans
/// inside the request's `engine.exec`, on one timeline. A raw kernel call
/// — no trace id on its token — pays a branch per poll and records nothing,
/// on any thread.
#[test]
fn a_solo_request_emits_exactly_its_stages_and_one_step_per_poll() {
    let _g = gate();
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(2000));
    let cfg = EngineConfig {
        cache_capacity: 0,
        adaptive_costs: false,
        ..quiet_cfg()
    };
    let eng = Engine::with_registry(cfg, csr.clone(), &Registry::new());
    let source = 9;
    let recorded = || {
        let snap = recorder::snapshot();
        snap.events.len() as u64 + snap.evicted
    };
    let (bi, before) = (BiCsr::directed(csr), recorded());
    let (_, _, report) =
        parallel::bfs_dir_opt(eng.pool(), &bi, source, &CancelToken::never()).unwrap();
    assert_eq!(recorded(), before, "an untraced kernel records no events");
    assert!(report.switches_to_bottom_up > 0, "both directions polled");
    // The kernel polls once per top-down level, and in a bottom-up phase
    // once on entry and then once per level.
    let polls = report.levels.len() + report.switches_to_bottom_up as usize;

    let bfs = run_to_completion(
        &eng,
        Query::Run {
            workload: Workload::Bfs,
            source,
        },
    );
    let mut want = vec!["admit", "enqueue", "dequeue", "kernel_start"];
    want.resize(want.len() + polls, "kernel_step");
    want.extend(["run", "resolve"]);
    assert_eq!(event_kinds(bfs), want);
    let degree = run_to_completion(&eng, Query::Degree { vertex: source });
    assert_eq!(
        event_kinds(degree),
        ["admit", "enqueue", "dequeue", "run", "resolve"]
    );

    let mut snap = recorder::snapshot();
    snap.events.retain(|e| e.id == bfs);
    let trace = recorder::to_trace(&snap);
    let named = |name: &'static str| trace.events.iter().filter(move |e| e.name == name);
    let exec = named("engine.exec").next().expect("the request executed");
    let steps: Vec<_> = named("kernel.step").collect();
    assert_eq!(steps.len(), polls);
    assert_eq!(steps[0].args[1], ("arg", 1.0), "the source's frontier");
    let end = |e: &graphbig_telemetry::chrome::Event| e.ts_us + e.dur_us.unwrap();
    for step in steps {
        assert!(
            exec.ts_us <= step.ts_us && end(step) <= end(exec),
            "{step:?}"
        );
        assert_eq!(step.tid, exec.tid, "drawn on the executor's track");
    }
}

/// There is one lifecycle: the same query leaves the same event-kind
/// sequence whether it ran alone or rode a coalesced group, as a cache
/// miss and as a cache hit, leader and follower alike — only the
/// `batch_*` markers tell the two runs apart.
#[test]
fn solo_and_coalesced_runs_log_the_same_lifecycle() {
    let _g = gate();
    let bfs = |source: u32| Query::Run {
        workload: Workload::Bfs,
        source,
    };
    let cfg = EngineConfig {
        executors: 1,
        ..quiet_cfg()
    };
    // Solo: each submission is waited on before the next, so nothing can
    // coalesce. BFS(9) misses, BFS(5) misses and then hits.
    let solo = engine(2000, cfg.clone(), &Registry::new());
    let run_alone = |q: Query| run_to_completion(&solo, q);
    let solo_miss = lifecycle_kinds(run_alone(bfs(9)));
    run_alone(bfs(5));
    let solo_hit = lifecycle_kinds(run_alone(bfs(5)));
    assert_eq!(
        solo_miss,
        [
            "admit",
            "enqueue",
            "dequeue",
            "kernel_start",
            "run",
            "resolve"
        ]
    );
    assert_eq!(
        solo_hit,
        ["admit", "enqueue", "dequeue", "cache_hit", "run", "resolve"]
    );

    // Coalesced: warm BFS(5), then park the single executor behind a heavy
    // query so the next three requests are dequeued as one group. Should
    // the executor come back before all three are queued, the group is not
    // runnable until they are (the window, counted from the first
    // admission, only bounds a lost race).
    let reg = Registry::new();
    let cfg = EngineConfig {
        batch_max: 3,
        batch_window_us: 500_000,
        ..cfg
    };
    let grouped = engine(2000, cfg, &reg);
    assert!(matches!(
        grouped.submit(bfs(5)).unwrap().wait().status,
        QueryStatus::Completed(_)
    ));
    let blocker = grouped
        .submit(Query::Run {
            workload: Workload::KCore,
            source: 0,
        })
        .unwrap();
    let tickets: Vec<_> = [bfs(5), bfs(9), bfs(5)]
        .into_iter()
        .map(|q| grouped.submit(q).unwrap())
        .collect();
    let rids: Vec<u64> = tickets.iter().map(|t| t.request_id()).collect();
    let _ = blocker.wait();
    for t in tickets {
        assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
    }
    assert_eq!(
        count(&events_for(rids[0]), EventKind::BatchStart),
        1,
        "the stalled executor must have coalesced the three requests"
    );
    for follower in &rids[1..] {
        assert_eq!(
            arg_of(&events_for(*follower), EventKind::BatchJoin),
            rids[0]
        );
    }
    assert_eq!(lifecycle_kinds(rids[0]), solo_hit, "leader, cache hit");
    assert_eq!(lifecycle_kinds(rids[1]), solo_miss, "follower, cache miss");
    assert_eq!(lifecycle_kinds(rids[2]), solo_hit, "follower, cache hit");
}

/// Queries still queued when the engine shuts down are shed by the
/// executors through the same draining dequeue: full lifecycle, status
/// `cancelled`, and a queue-stage sample per shed job.
#[test]
fn shutdown_shed_requests_log_the_full_lifecycle() {
    let _g = gate();
    let reg = Registry::new();
    let eng = engine(
        3000,
        EngineConfig {
            executors: 1,
            pool_threads: 1,
            ..EngineConfig::default()
        },
        &reg,
    );
    let tickets: Vec<_> = (0..6)
        .map(|_| {
            eng.submit(Query::Run {
                workload: Workload::KCore,
                source: 0,
            })
            .unwrap()
        })
        .collect();
    drop(eng);
    let mut shed = 0;
    for t in tickets {
        let rid = t.request_id();
        match t.wait().status {
            QueryStatus::Cancelled => {
                shed += 1;
                assert_full_lifecycle(rid, 2);
            }
            QueryStatus::Completed(_) => {
                assert_full_lifecycle(rid, 0);
            }
            other => panic!("shutdown must complete or shed, got {other:?}"),
        }
    }
    assert!(shed > 0, "dropping a backlogged engine must shed something");
    assert_eq!(
        reg.histogram("engine.stage_us.queue.analytics")
            .snapshot()
            .count,
        6,
        "shed jobs record the queue stage like every other dequeue"
    );
}

#[cfg(feature = "chaos")]
mod chaos_paths {
    use super::*;
    use graphbig_chaos::{self as chaos, FaultAction, FaultPlan, FaultSpec, Trigger};
    use graphbig_engine::check_chaos_invariants;
    use graphbig_engine::traffic::{run_chaos_mix, MixSpec};
    use std::sync::Once;

    static QUIET: Once = Once::new();

    fn chaos_gate() -> MutexGuard<'static, ()> {
        QUIET.call_once(chaos::install_quiet_panic_hook);
        gate()
    }

    fn scheduled(site: &str, action: FaultAction, schedule: Vec<u64>) -> FaultPlan {
        FaultPlan {
            seed: 7,
            max_retries: 0,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            faults: vec![FaultSpec {
                site: site.to_string(),
                trigger: Trigger::Schedule,
                action,
                p: 0.0,
                n: 0,
                schedule,
                delay_us: 0,
            }],
        }
    }

    #[test]
    fn failed_requests_log_the_lifecycle_and_the_fault_that_killed_them() {
        let _g = chaos_gate();
        let reg = Registry::new();
        let eng = engine(300, quiet_cfg(), &reg);
        // `Trigger::Schedule` fires for the listed chaos keys, so tag the
        // request with a key the plan names.
        let tag = 0xFEEDu64;
        chaos::arm(&scheduled("engine.run.pre", FaultAction::Panic, vec![tag]));
        let t = eng
            .submit_tagged(
                Query::Run {
                    workload: Workload::CComp,
                    source: 0,
                },
                None,
                tag,
            )
            .unwrap();
        let rid = t.request_id();
        let r = t.wait();
        chaos::disarm();
        assert!(matches!(r.status, QueryStatus::Failed(_)), "{:?}", r.status);
        let evs = assert_full_lifecycle(rid, 4);
        // The admit event carries the chaos tag, tying the request id to
        // the key fault_fired events are recorded under.
        assert_eq!(arg_of(&evs, EventKind::Admit), tag);
        let fires: Vec<RecorderEvent> = recorder::snapshot()
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::FaultFired && e.id == tag)
            .collect();
        assert_eq!(fires.len(), 1, "one fault fired for this request");
        assert_eq!(
            recorder::label(fires[0].code).as_deref(),
            Some("engine.run.pre"),
            "fault event names the failpoint site"
        );
    }

    #[test]
    fn invariant_violation_dumps_the_affected_requests_full_lifecycle() {
        let _g = chaos_gate();
        let dump = std::env::temp_dir().join("graphbig_lifecycle_violation.json");
        let dump = dump.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&dump);
        recorder::set_auto_dump_path(&dump);

        let reg = Registry::new();
        let eng = engine(300, quiet_cfg(), &reg);
        let plan = scheduled("engine.resolve", FaultAction::DoubleResolve, vec![3]);
        let spec = MixSpec {
            requests: 8,
            clients: 1,
            ..MixSpec::default()
        };
        let report = run_chaos_mix(&eng, &spec, &plan);
        let inv = check_chaos_invariants(&eng, &report, None, &reg);
        assert!(!inv.ok(), "a double resolve must trip resolved_once");

        let text = std::fs::read_to_string(&dump).expect("violation must auto-dump");
        let doc = graphbig_telemetry::json::parse(&text).expect("dump is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("graphbig.flight_recorder/v1")
        );
        assert_eq!(
            doc.get("reason").and_then(|s| s.as_str()),
            Some("invariant-violation")
        );
        let events = doc
            .get("events")
            .and_then(|e| e.as_arr())
            .expect("dump carries events");
        let affected: Vec<u64> = events
            .iter()
            .filter(|e| e.get("kind").and_then(|k| k.as_str()) == Some("double_resolve"))
            .filter_map(|e| e.get("id").and_then(|i| i.as_u64()))
            .collect();
        assert!(
            !affected.is_empty(),
            "dump names the double-resolved request"
        );
        for rid in affected {
            for stage in ["admit", "enqueue", "dequeue", "run", "resolve"] {
                let hits = events
                    .iter()
                    .filter(|e| {
                        e.get("id").and_then(|i| i.as_u64()) == Some(rid)
                            && e.get("kind").and_then(|k| k.as_str()) == Some(stage)
                    })
                    .count();
                assert_eq!(hits, 1, "request {rid}: dump has one {stage} event");
            }
        }
    }
}
