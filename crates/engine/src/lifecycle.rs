//! The request lifecycle, each stage written once.
//!
//! Every request walks `admit → enqueue → dequeue → run → finish`, and each
//! of those stages owns its four parallel concerns — counter, stage
//! histogram, flight-recorder event, failpoint — in exactly one function
//! here: [`admit`] (queries and mutations alike), [`dequeue`] (leaders,
//! followers, caller-thread point lookups and the shutdown shed alike) and
//! [`finish_job`] (every terminal status, grouped or not), ending in the
//! one-shot [`Resolver`]. A `Degree` / `KHop` walks them on the submitting
//! thread and never queues; everything else waits in one of two queues.
//! Enqueue is [`Lanes::push`], where BFS groups form, each due when full
//! or `batch_window_us` after its first admission. The guarded run between
//! dequeue and finish lives in [`crate::exec`]. [`Shared`] is the state
//! all stages (and the compactor) work against; [`EngineMetrics`] is the
//! metric table, created eagerly so every manifest carries the same keys.
//!
//! A [`Job`] pins the published graph state once, at admission: every
//! later stage reads that one [`EpochSnapshot`] — base and overlay — and
//! names it in its response, whatever the writers published meanwhile.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use graphbig_chaos::{self as chaos, FaultAction};
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::metrics::{Counter, Histogram, Registry};
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::{msbfs, CostClass};

use crate::admission::{AdmissionController, RejectReason};
use crate::cache::ResultCache;
use crate::delta::IncrementalCComp;
use crate::engine::{EngineConfig, Query, QueryResponse, QueryStatus};
use crate::exec::bfs_source;
use crate::slo::SloTracker;
use crate::store::{EpochSnapshot, GraphStore};

/// Everything the request stages, the executors and the compactor share.
pub(crate) struct Shared {
    /// The one copy of the sizing knobs; nothing caches a field of it.
    pub(crate) cfg: EngineConfig,
    /// The published graph state — base and overlay as one value — and
    /// the only place writers serialise.
    pub(crate) store: GraphStore,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) metrics: EngineMetrics,
    pub(crate) slo: SloTracker,
    pub(crate) lanes: Mutex<Lanes>,
    pub(crate) available: Condvar,
    pub(crate) admission: AdmissionController,
    pub(crate) cache: ResultCache,
    /// Incremental connected-components state, seeded once per epoch.
    pub(crate) inc_ccomp: Mutex<Option<(u64, IncrementalCComp)>>,
    /// Background-compactor doorbell: `(work_pending, shutdown)`.
    pub(crate) compact_doorbell: (Mutex<(bool, bool)>, Condvar),
}

/// Poison-tolerant lock: a panicking kernel must not wedge the lanes, nor
/// every later mutation or compaction.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-class and engine-wide metric handles, created eagerly in
/// [`crate::Engine::with_registry`] so every run manifest carries the same
/// metric key set regardless of which events actually occurred (the golden
/// structural check depends on this).
pub(crate) struct EngineMetrics {
    submitted: Counter,
    rejected_queue: Counter,
    rejected_cost: Counter,
    deadline_missed: Counter,
    cancelled: Counter,
    unsupported: Counter,
    failed: Counter,
    pub(crate) resolved: Counter,
    double_resolve: Counter,
    pub(crate) completed: [Counter; 4],
    pub(crate) latency_us: [Histogram; 4],
    queue_us: Histogram,
    /// Per-stage latency decomposition: queue-wait and execution per class,
    /// plus engine-wide admission and resolve cost. These feed the
    /// "Per-stage latency breakdown" manifest table.
    stage_queue_us: [Histogram; 4],
    pub(crate) stage_exec_us: [Histogram; 4],
    pub(crate) stage_admit_us: Histogram,
    stage_resolve_us: Histogram,
    pub(crate) cache_hit: Counter,
    pub(crate) cache_miss: Counter,
    pub(crate) cache_evict: Counter,
    /// Mutation batches applied (each bumps the overlay delta-seq once).
    pub(crate) mutations: Counter,
    /// Compactions entered / finished — the chaos invariant sweep requires
    /// these to balance after every mix.
    pub(crate) compact_started: Counter,
    pub(crate) compact_completed: Counter,
    /// Time a compaction held the store's writer lock (the "compaction
    /// pause"; see [`GraphStore::compact`]).
    pub(crate) compact_pause_us: Histogram,
    /// Requests sharing each coalesced group (recorded once per formed
    /// group of size >= 2, never for a solo job; a distribution hugging 2
    /// means coalescing barely engages).
    pub(crate) batch_size: Histogram,
    /// Microseconds an executor sat idle waiting for a group's joiners
    /// before popping it (0 when it was already full or due).
    pub(crate) batch_coalesce_us: Histogram,
}

impl EngineMetrics {
    pub(crate) fn new(reg: &Registry) -> Self {
        let per_class = |prefix: &str| CostClass::ALL.map(|c| format!("{prefix}.{}", c.name()));
        let class_hists = |prefix: &str| per_class(prefix).map(|name| reg.histogram(&name));
        EngineMetrics {
            submitted: reg.counter("engine.submitted"),
            rejected_queue: reg.counter("engine.rejected.queue_full"),
            rejected_cost: reg.counter("engine.rejected.cost_budget"),
            deadline_missed: reg.counter("engine.deadline_missed"),
            cancelled: reg.counter("engine.cancelled"),
            unsupported: reg.counter("engine.unsupported"),
            failed: reg.counter("engine.failed"),
            resolved: reg.counter("engine.resolved"),
            double_resolve: reg.counter("engine.double_resolve"),
            completed: per_class("engine.completed").map(|name| reg.counter(&name)),
            latency_us: class_hists("engine.latency_us"),
            queue_us: reg.histogram("engine.queue_us"),
            stage_queue_us: class_hists("engine.stage_us.queue"),
            stage_exec_us: class_hists("engine.stage_us.exec"),
            stage_admit_us: reg.histogram("engine.stage_us.admit"),
            stage_resolve_us: reg.histogram("engine.stage_us.resolve"),
            cache_hit: reg.counter("engine.cache.hit"),
            cache_miss: reg.counter("engine.cache.miss"),
            cache_evict: reg.counter("engine.cache.evict"),
            mutations: reg.counter("engine.mutations"),
            compact_started: reg.counter("engine.compact.started"),
            compact_completed: reg.counter("engine.compact.completed"),
            compact_pause_us: reg.histogram("engine.compact.pause_us"),
            batch_size: reg.histogram("engine.batch.size"),
            batch_coalesce_us: reg.histogram("engine.batch.coalesce_us"),
        }
    }
}

/// Lane of a cost class: its position in [`CostClass::ALL`], the index of
/// its metrics and recorder events. Which queue it waits in is [`queue_of`].
pub(crate) fn lane(class: CostClass) -> usize {
    class as usize
}

/// Lane of the write class (mutations bill here without queueing).
pub(crate) const WRITE_LANE: usize = 3;

/// The queue a class waits in: interactive (0) for traversals, so BFS
/// groups; analytical (1) for whole-graph runs — analytics, `DCentr` (the
/// one point-class run that queues) and write-class runs, which resolve
/// `Unsupported`. So a filling BFS group only ever holds up traversals.
fn queue_of(class: CostClass) -> usize {
    match class {
        CostClass::Traversal => 0,
        CostClass::Point | CostClass::Analytics | CostClass::Write => 1,
    }
}

/// Compact status code for flight-recorder `run`/`resolve` event args.
fn status_code(status: &QueryStatus) -> u64 {
    match status {
        QueryStatus::Completed(_) => 0,
        QueryStatus::DeadlineExceeded => 1,
        QueryStatus::Cancelled => 2,
        QueryStatus::Unsupported(_) => 3,
        QueryStatus::Failed(_) => 4,
    }
}

/// The terminal status of a query whose token fired: a passed deadline
/// reads as a miss, anything else as an explicit cancellation.
pub(crate) fn terminal_status(token: &CancelToken) -> QueryStatus {
    if token.deadline_passed() {
        QueryStatus::DeadlineExceeded
    } else {
        QueryStatus::Cancelled
    }
}

/// One-shot response channel. Exactly one of the paths that can terminate a
/// query (executor completion, shutdown shedding, drain-on-drop) wins the
/// CAS and sends; any loser is counted in `engine.double_resolve` instead
/// of delivering a second response. This is what makes "every ticket
/// resolved exactly once" a checkable invariant rather than a convention.
pub(crate) struct Resolver {
    tx: Sender<QueryResponse>,
    done: AtomicBool,
}

impl Resolver {
    pub(crate) fn new(tx: Sender<QueryResponse>) -> Self {
        Resolver {
            tx,
            done: AtomicBool::new(false),
        }
    }

    fn resolve(&self, metrics: &EngineMetrics, response: QueryResponse) {
        if self.done.swap(true, Ordering::AcqRel) {
            metrics.double_resolve.inc();
            recorder::record(EventKind::DoubleResolve, response.request_id, 0);
            return;
        }
        metrics.resolved.inc();
        recorder::record_lane(
            EventKind::Resolve,
            lane(response.class) as u8,
            response.request_id,
            status_code(&response.status),
        );
        // A dropped ticket just means nobody is waiting; not an error.
        let _ = self.tx.send(response);
    }
}

/// One admitted query, from enqueue until it resolves.
pub(crate) struct Job {
    pub(crate) query: Query,
    pub(crate) class: CostClass,
    /// Budget cost charged at admission: `Query::cost(n, m)`, or the batch
    /// length for a mutation.
    pub(crate) cost: u64,
    /// The graph state pinned at admission: what this query reads.
    pub(crate) snapshot: Arc<EpochSnapshot>,
    pub(crate) token: CancelToken,
    pub(crate) enqueued: Instant,
    /// Chaos request key (also the token's chaos key); auto-assigned for
    /// untagged submissions.
    pub(crate) tag: u64,
    /// Flight-recorder request id minted at admission.
    pub(crate) request_id: u64,
    pub(crate) resolver: Resolver,
}

/// A dequeued job on its way to [`finish_job`] — the unit the executor
/// works in, whether the job runs alone or as one member of a group.
pub(crate) struct Pending {
    pub(crate) job: Job,
    pub(crate) queue_us: u64,
    /// Terminal status decided at dequeue (shutdown shed, forced fault,
    /// cancelled while queued) — the member never reaches a kernel.
    pub(crate) forced: Option<QueryStatus>,
}

/// One queue entry: a job on its own, or a BFS group formed at admission —
/// the first member at its FIFO position, the BFS that joined it behind.
pub(crate) struct Group {
    pub(crate) leader: Job,
    pub(crate) mates: Vec<Job>,
    /// While a BFS group fills: its first admission plus `batch_window_us`.
    /// `None` once it may run — full, or a job alone.
    due: Option<Instant>,
}

/// The two FIFO queues, interactive and analytical. Each executor has a
/// home queue it serves first, so a queue with an executor of its own
/// waits only behind its own earlier work.
#[derive(Default)]
pub(crate) struct Lanes {
    queues: [VecDeque<Group>; 2],
    pub(crate) shutdown: bool,
}

impl Lanes {
    /// Queue `job`. A BFS joins its queue's open group for the same pinned
    /// state (so a group never spans a write) while it has room — `batch_max`
    /// capped at the MS-BFS lane width — or else opens one. True when an
    /// executor should look: the job is runnable, filled its group or opened
    /// one (whose due an idle executor must learn); a join wakes nobody.
    pub(crate) fn push(&mut self, job: Job, cfg: &EngineConfig) -> bool {
        let cap = cfg.batch_max.min(msbfs::MSBFS_LANES);
        let queue = &mut self.queues[queue_of(job.class)];
        let mut due = None;
        if bfs_source(&job.query).is_some() && cap > 1 {
            let open = queue.iter_mut().rev().find(|g| {
                bfs_source(&g.leader.query).is_some()
                    && Arc::ptr_eq(&g.leader.snapshot, &job.snapshot)
            });
            if let Some(group) = open.filter(|g| g.mates.len() + 1 < cap) {
                group.mates.push(job);
                let full = group.mates.len() + 1 == cap;
                if full {
                    group.due = None;
                }
                return full;
            }
            due = Some(job.enqueued + Duration::from_micros(cfg.batch_window_us));
        }
        queue.push_back(Group {
            leader: job,
            mates: Vec::new(),
            due,
        });
        true
    }

    /// Pop the front of queue `home`, or else the front of the other queue,
    /// whichever is runnable first. A front is runnable when it is due (all
    /// are once the engine shuts down), so a filling group never holds an
    /// executor: it serves the other queue meanwhile.
    pub(crate) fn pop(&mut self, home: usize) -> Option<Group> {
        let served = [home, 1 - home].into_iter().find(|&q| {
            let due = |g: &Group| g.due.is_none_or(|due| due <= Instant::now());
            self.queues[q]
                .front()
                .is_some_and(|g| self.shutdown || due(g))
        })?;
        self.queues[served].pop_front()
    }

    /// When the earliest filling group falls due (`None`: none is filling).
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.queues.iter().filter_map(|q| q.front()?.due).min()
    }
}

/// The admission front every request passes, reads and writes alike: the
/// `admit` event (arg = chaos tag, so `fault_fired` events keyed by tag
/// correlate back), the controller's verdict, and on rejection the matching
/// counter and `reject` event.
pub(crate) fn admit(
    sh: &Shared,
    lane_idx: usize,
    cost: u64,
    tag: u64,
    request_id: u64,
) -> Result<(), RejectReason> {
    let lane_idx = lane_idx as u8;
    recorder::record_lane(EventKind::Admit, lane_idx, request_id, tag);
    let mut verdict = sh.admission.try_admit(cost);
    // Failpoint `engine.admit`: force a spurious rejection *after* a
    // successful admission (rolling the reservation back so the
    // controller's books look exactly like a real rejection), or delay.
    if verdict.is_ok() {
        match chaos::failpoint!("engine.admit", tag).map(|fault| fault.action) {
            Some(FaultAction::RejectQueueFull) => {
                sh.admission.cancel_admit(cost);
                verdict = Err(RejectReason::QueueFull {
                    depth: sh.admission.queued(),
                    limit: sh.admission.max_queue(),
                });
            }
            Some(FaultAction::RejectCostBudget) => {
                sh.admission.cancel_admit(cost);
                verdict = Err(RejectReason::CostBudget {
                    in_flight: sh.admission.in_flight_cost(),
                    requested: cost,
                    limit: sh.admission.max_cost(),
                });
            }
            _ => {}
        }
    }
    match &verdict {
        Ok(()) => sh.metrics.submitted.inc(),
        Err(reason) => {
            let (counter, code) = match reason {
                RejectReason::QueueFull { .. } => (&sh.metrics.rejected_queue, 0),
                RejectReason::CostBudget { .. } => (&sh.metrics.rejected_cost, 1),
            };
            counter.inc();
            recorder::record_lane(EventKind::Reject, lane_idx, request_id, code);
        }
    }
    verdict
}

/// Take `job` off the queue's books: admission start, the queue-stage
/// histograms, the `dequeue` event (and `batch_join` tying a follower to
/// its group's `leader`), then the reasons it may never reach a kernel —
/// the `engine.dequeue` failpoint (plus `engine.batch.form` for members of
/// a group of two or more, which can expire or cancel one member without
/// touching the rest), a token that fired while queued, and a `draining`
/// engine, which sheds instead of running. `leader` is the group leader's
/// request id, `None` for a solo job.
pub(crate) fn dequeue(sh: &Shared, job: Job, leader: Option<u64>, draining: bool) -> Pending {
    sh.admission.on_start();
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let lane_idx = lane(job.class);
    sh.metrics.queue_us.record(queue_us);
    sh.metrics.stage_queue_us[lane_idx].record(queue_us);
    recorder::record_lane(EventKind::Dequeue, lane_idx as u8, job.request_id, queue_us);
    if let Some(leader) = leader.filter(|&rid| rid != job.request_id) {
        recorder::record_lane(EventKind::BatchJoin, lane_idx as u8, job.request_id, leader);
    }
    let forced_by = |fault: Option<chaos::Fault>| match fault?.action {
        FaultAction::DeadlineExpire => Some(QueryStatus::DeadlineExceeded),
        FaultAction::Cancel => Some(QueryStatus::Cancelled),
        _ => None,
    };
    let mut forced = forced_by(chaos::failpoint!("engine.dequeue", job.tag));
    if forced.is_none() && leader.is_some() {
        forced = forced_by(chaos::failpoint!("engine.batch.form", job.tag));
    }
    if draining {
        forced = Some(QueryStatus::Cancelled);
    } else if forced.is_none() && job.token.is_cancelled() {
        // Fired while queued — never start doomed work.
        forced = Some(terminal_status(&job.token));
    }
    Pending {
        job,
        queue_us,
        forced,
    }
}

/// Terminal bookkeeping for every dequeued job: exec-stage metrics, the
/// `run` event, per-status counters and the per-key SLO histogram,
/// admission release, the `engine.resolve` / `engine.batch.fanout`
/// failpoints, then the one-shot resolve.
pub(crate) fn finish_job(sh: &Shared, p: Pending, status: QueryStatus, exec_us: u64) {
    let Pending { job, queue_us, .. } = p;
    let metrics = &sh.metrics;
    let lane_idx = lane(job.class);
    metrics.stage_exec_us[lane_idx].record(exec_us);
    recorder::record_lane(
        EventKind::Run,
        lane_idx as u8,
        job.request_id,
        status_code(&status),
    );
    match &status {
        QueryStatus::Completed(_) => {
            metrics.completed[lane_idx].inc();
            metrics.latency_us[lane_idx].record(queue_us + exec_us);
            sh.slo.key_histogram(&job.query).record(queue_us + exec_us);
        }
        QueryStatus::DeadlineExceeded => metrics.deadline_missed.inc(),
        QueryStatus::Cancelled => metrics.cancelled.inc(),
        QueryStatus::Unsupported(_) => metrics.unsupported.inc(),
        QueryStatus::Failed(_) => metrics.failed.inc(),
    }
    sh.admission.on_finish(job.cost);
    let response = QueryResponse {
        request_id: job.request_id,
        epoch: job.snapshot.epoch(),
        class: job.class,
        status,
        queue_us,
        exec_us,
    };
    // Failpoint `engine.resolve` (and its batch twin
    // `engine.batch.fanout`): a `DoubleResolve` fault delivers the
    // response twice — the second attempt loses the one-shot CAS and
    // trips the resolved-once invariant, exercising the failure dump.
    // Both sites are always evaluated so a plan's fire counts stay
    // independent of which one matches.
    let resolve_double = matches!(
        chaos::failpoint!("engine.resolve", job.tag),
        Some(f) if f.action == FaultAction::DoubleResolve
    );
    let fanout_double = matches!(
        chaos::failpoint!("engine.batch.fanout", job.tag),
        Some(f) if f.action == FaultAction::DoubleResolve
    );
    let resolve_start = Instant::now();
    if resolve_double || fanout_double {
        job.resolver.resolve(metrics, response.clone());
    }
    job.resolver.resolve(metrics, response);
    metrics
        .stage_resolve_us
        .record(resolve_start.elapsed().as_micros() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{csr, quiet_cfg};
    use crate::shard::ShardedGraph;
    use crate::Engine;
    use graphbig_datagen::prop;
    use graphbig_datagen::rng::Rng;
    use graphbig_datagen::Dataset;
    use graphbig_framework::csr::Csr;
    use graphbig_workloads::Workload;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn lanes_follow_the_cost_class_order() {
        for (i, class) in CostClass::ALL.into_iter().enumerate() {
            assert_eq!(lane(class), i, "{class:?}");
        }
        assert_eq!(lane(CostClass::Write), WRITE_LANE);
    }

    /// The no-starvation rule as a structure, not a count: over random
    /// pushes (any class, all due at once) and pops (any home), a pop takes
    /// the front of its home queue whenever that queue holds anything and
    /// the other queue's front only when it is empty, and each queue pops
    /// in FIFO order. So a job waits only behind earlier jobs of its own
    /// queue, as long as its queue has an executor at home.
    #[test]
    fn a_pop_serves_its_home_queue_first_and_each_queue_in_fifo_order() {
        let snapshot = GraphStore::new(ShardedGraph::build(
            Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(8)),
            2,
        ))
        .snapshot();
        let cfg = EngineConfig::default();
        // (push?, x): push a job of class `ALL[x % 4]`, or pop with home `x % 2`.
        let ops =
            |rng: &mut Rng| prop::vec_of(rng, 0..200, |r| (r.gen_bool(0.55), r.gen_range(0u32..4)));
        prop::check(
            "home-first FIFO queues",
            prop::Config::with_cases(64),
            ops,
            |ops: &Vec<(bool, u32)>| {
                let mut lanes = Lanes::default();
                let mut model: [VecDeque<u64>; 2] = Default::default();
                for (id, &(push, x)) in ops.iter().enumerate() {
                    let id = id as u64;
                    if push {
                        let class = CostClass::ALL[x as usize % 4];
                        let (tx, _rx) = channel();
                        lanes.push(
                            Job {
                                query: Query::Degree { vertex: 0 },
                                class,
                                cost: 1,
                                snapshot: Arc::clone(&snapshot),
                                token: CancelToken::new(),
                                enqueued: Instant::now(),
                                tag: id,
                                request_id: id,
                                resolver: Resolver::new(tx),
                            },
                            &cfg,
                        );
                        // Interactive (0) holds the traversals, analytical (1) the rest.
                        model[usize::from(class != CostClass::Traversal)].push_back(id);
                    } else {
                        let home = x as usize % 2;
                        let want = match model[home].pop_front() {
                            Some(id) => Some(id),
                            None => model[1 - home].pop_front(),
                        };
                        let got = lanes.pop(home).map(|g| g.leader.request_id);
                        assert_eq!(got, want, "op {id}: pop(home {home})");
                    }
                }
            },
        );
    }

    #[test]
    fn expired_deadline_cancels_instead_of_completing() {
        let reg = Registry::new();
        let engine = Engine::with_registry(quiet_cfg(), csr(300), &reg);
        let t = engine
            .submit_with_deadline(
                Query::Run {
                    workload: Workload::CComp,
                    source: 0,
                },
                Some(Duration::ZERO),
            )
            .unwrap();
        let r = t.wait();
        assert_eq!(r.status, QueryStatus::DeadlineExceeded);
        use graphbig_telemetry::MetricValue;
        assert_eq!(
            reg.snapshot()["engine.deadline_missed"],
            MetricValue::Counter(1)
        );
        // Budget is released even for missed queries.
        assert_eq!(engine.admission().in_flight_cost(), 0);
    }

    #[test]
    fn explicit_cancel_reports_cancelled() {
        let reg = Registry::new();
        let engine = Engine::with_registry(quiet_cfg(), csr(100), &reg);
        let t = engine
            .submit(Query::Run {
                workload: Workload::SPath,
                source: 0,
            })
            .unwrap();
        t.cancel();
        let r = t.wait();
        // Depending on timing the cancel lands before or during execution;
        // either way the query must not complete... unless it already
        // finished before the cancel arrived, which tiny graphs allow.
        match r.status {
            QueryStatus::Cancelled | QueryStatus::Completed(_) => {}
            other => panic!("unexpected status {other:?}"),
        }
    }
}
