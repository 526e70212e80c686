//! The concurrent query engine: its public types and the [`Engine`] API.
//!
//! Submission is synchronous admission control ([`Engine::submit`] returns
//! `Err(RejectReason)` immediately when over budget). `Degree` / `KHop` run
//! on the submitting thread; other queries wait in one of two FIFO queues,
//! interactive (traversals) or analytical (whole-graph runs), and a small
//! crew of executor threads drains them, each serving its home queue
//! first, so neither kind waits behind the other. Heavy kernels
//! run on one shared [`ThreadPool`]; an executor runs share 0 of its own
//! regions, and concurrent broadcasts take regions in arrival order, so
//! queries interleave at parallel-region granularity instead of fighting
//! over threads. Every query gets a [`CancelToken`] (optionally carrying a
//! deadline); kernels poll it at superstep boundaries, so a deadline miss
//! cancels the query instead of completing it late.
//!
//! The live write path rides alongside: [`Engine::mutate`] folds a batch
//! into the store's overlay (billed through admission under
//! the `write` cost class, synchronously — mutations never queue behind
//! reads), and a background compactor ([`Engine::compact`]) folds the
//! overlay into a fresh CSR published as a new epoch. The [`GraphStore`]
//! publishes base and overlay as one state, which a query pins at
//! admission: it reads exactly the writes that completed before it was
//! admitted, whatever is published while it waits.
//!
//! This file is the front door only. What happens to a request after it is
//! admitted is written once each in `lifecycle.rs` (admit, group formation,
//! dequeue, finish, resolve), `exec.rs` (the executor loop and the guarded
//! run) and `compact.rs` (folding the overlay); a `Degree` / `KHop` walks
//! the same `dequeue` and `run_group` on the submitting thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use graphbig_chaos as chaos;
use graphbig_framework::csr::Csr;
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::service::ServiceOutput;
use graphbig_workloads::{CostClass, Workload};

use crate::admission::{AdmissionController, RejectReason};
use crate::cache::ResultCache;
use crate::compact::{compact_inner, compactor_loop};
use crate::delta::{DeltaOverlay, Mutation, MutationReceipt};
use crate::exec::{executor_loop, run_group};
use crate::lifecycle::{
    admit, dequeue, lane, lock, EngineMetrics, Job, Lanes, Resolver, Shared, WRITE_LANE,
};
use crate::shard::ShardedGraph;
use crate::slo::{self, SloTracker, StatsSnapshot};
use crate::store::GraphStore;

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Executor threads draining the queues (`Degree` / `KHop` never queue:
    /// they run on the submitting thread). Executor `i` serves the
    /// interactive queue first when `i` is even, the analytical one when odd,
    /// and the other only when its own has nothing runnable.
    pub executors: usize,
    /// Shares per kernel-pool region: the opening executor and n − 1 pool threads.
    pub pool_threads: usize,
    /// Bounded submission-queue capacity (across both queues).
    pub queue_capacity: usize,
    /// In-flight cost budget (units of [`Workload::cost_estimate`]).
    pub cost_budget: u64,
    /// Shard count for the graph store's partitions.
    pub shards: usize,
    /// Total entries in the epoch-keyed result cache (0 disables caching).
    pub cache_capacity: usize,
    /// Overlay edge-insert count at which the background compactor folds
    /// the delta overlay into a freshly published epoch. 0 disables the
    /// compactor thread (compaction happens only via [`Engine::compact`]).
    pub compact_threshold: usize,
    /// Maximum BFS requests coalesced into one shared multi-source pass,
    /// capped at the MS-BFS lane width (64). 0 or 1 disables coalescing.
    /// BFS only: point reads have no pass to share and always run alone.
    pub batch_max: usize,
    /// Microseconds a BFS group waits for joiners, counted from its first
    /// member's admission; a full group runs at once, and an executor serves
    /// the other queue meanwhile. 0 (the default) takes only what is queued.
    /// `engine.batch.coalesce_us` is the time an executor sat idle waiting
    /// for joiners; a group's age shows in each member's `queue_us`.
    pub batch_window_us: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            executors: 2,
            pool_threads: 4,
            queue_capacity: 64,
            cost_budget: u64::MAX,
            shards: 8,
            cache_capacity: 1024,
            compact_threshold: 4096,
            batch_max: 64,
            batch_window_us: 0,
        }
    }
}

/// One query against the current epoch. `Hash` covers the shape and every
/// parameter, so `(epoch, delta-seq, Query)` is a sound result-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Point lookup: (out-degree, in-degree) of a vertex.
    Degree {
        /// Dense vertex id.
        vertex: u32,
    },
    /// Point lookup: distinct vertices within `hops` steps of `source`.
    KHop {
        /// Dense root vertex id.
        source: u32,
        /// Maximum traversal depth.
        hops: u32,
    },
    /// A registry workload through [`graphbig_workloads::service::run_service`].
    Run {
        /// The workload to execute.
        workload: Workload,
        /// Root vertex for traversal-rooted kernels (ignored by others).
        source: u32,
    },
}

impl Query {
    /// The cost class this query bills to (its latency class and queue).
    pub fn class(&self) -> CostClass {
        match self {
            Query::Degree { .. } | Query::KHop { .. } => CostClass::Point,
            Query::Run { workload, .. } => workload.cost_class(),
        }
    }

    /// Abstract admission cost on a graph with `n` vertices and `m` edges.
    pub fn cost(&self, n: u64, m: u64) -> u64 {
        match self {
            Query::Degree { .. } => 1,
            Query::KHop { hops, .. } => {
                // Expected neighborhood size: avg-degree^hops, capped at
                // one full traversal.
                let avg = (m / n.max(1)).max(1);
                avg.saturating_pow((*hops).min(8))
                    .min(n.saturating_add(m))
                    .max(1)
            }
            Query::Run { workload, .. } => workload.cost_estimate(n, m),
        }
    }
}

/// Successful payload of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Out/in degree of the requested vertex (zeros when out of range).
    Degree {
        /// Out-degree.
        out: u32,
        /// In-degree.
        inc: u32,
    },
    /// Distinct vertices within the requested hop bound.
    KHop(u64),
    /// A workload kernel's typed output.
    Workload(ServiceOutput),
}

impl QueryOutput {
    /// Comparable 64-bit fingerprint (see [`ServiceOutput::digest`]).
    pub fn digest(&self) -> u64 {
        match self {
            QueryOutput::Degree { out, inc } => {
                0x9e37_79b9_7f4a_7c15u64 ^ ((*out as u64) << 32 | *inc as u64)
            }
            QueryOutput::KHop(c) => 0x2545_f491_4f6c_dd1du64 ^ c,
            QueryOutput::Workload(o) => o.digest(),
        }
    }
}

/// Terminal state of an admitted query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryStatus {
    /// Ran to completion.
    Completed(QueryOutput),
    /// The deadline passed before or during execution; partial work was
    /// abandoned, never returned.
    DeadlineExceeded,
    /// Explicitly cancelled (or shed during engine shutdown).
    Cancelled,
    /// The workload has no serving entry point.
    Unsupported(Workload),
    /// The kernel panicked; the panic was caught at the executor boundary,
    /// only this query failed, and the engine keeps serving. Carries the
    /// panic message.
    Failed(String),
}

/// What the engine hands back for one admitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Process-unique request id minted at admission (flight-recorder
    /// lifecycle events for this query carry the same id).
    pub request_id: u64,
    /// Epoch the query ran (or would have run) against.
    pub epoch: u64,
    /// Latency class it billed to.
    pub class: CostClass,
    /// Terminal status.
    pub status: QueryStatus,
    /// Microseconds spent queued before an executor picked it up.
    pub queue_us: u64,
    /// Microseconds spent executing (0 if never started).
    pub exec_us: u64,
}

/// Handle to one admitted query.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<QueryResponse>,
    token: CancelToken,
    request_id: u64,
}

impl Ticket {
    /// The request id minted at admission (matches
    /// [`QueryResponse::request_id`] and the flight-recorder events).
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Request cancellation; the query's kernel observes it at its next
    /// superstep boundary.
    pub fn cancel(&self) {
        recorder::record(EventKind::CancelRequest, self.request_id, 0);
        self.token.cancel();
    }

    /// Block until the engine responds. Every admitted query receives
    /// exactly one response, even across engine shutdown.
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().expect("engine always responds to a ticket")
    }
}

/// The serving engine: graph store + admission + executors + write path.
pub struct Engine {
    pub(crate) shared: Arc<Shared>,
    auto_tag: AtomicU64,
    executors: Vec<std::thread::JoinHandle<()>>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

/// Auto-assigned chaos tags live above any tag the traffic driver hands
/// out (`attempt << 32 | request_idx`), so direct `submit` calls never
/// collide with a driven request's fault decisions.
const AUTO_TAG_BASE: u64 = 1 << 48;

impl Engine {
    /// An engine serving `csr` with metrics in the process-wide registry.
    pub fn new(cfg: EngineConfig, csr: Csr) -> Self {
        Self::with_registry(cfg, csr, graphbig_telemetry::metrics::global())
    }

    /// An engine with metrics in a caller-owned registry (tests, benches).
    pub fn with_registry(cfg: EngineConfig, csr: Csr, reg: &Registry) -> Self {
        let graph = ShardedGraph::build(csr, cfg.shards);
        let metrics = EngineMetrics::new(reg);
        let shared = Arc::new(Shared {
            store: GraphStore::new(graph),
            pool: Arc::new(ThreadPool::new(cfg.pool_threads)),
            slo: SloTracker::new(metrics.latency_us.clone()),
            lanes: Mutex::new(Lanes::default()),
            available: Condvar::new(),
            admission: AdmissionController::new(cfg.queue_capacity, cfg.cost_budget),
            cache: ResultCache::new(
                cfg.cache_capacity,
                metrics.cache_hit.clone(),
                metrics.cache_miss.clone(),
                metrics.cache_evict.clone(),
            ),
            inc_ccomp: Mutex::new(None),
            compact_doorbell: (Mutex::new((false, false)), Condvar::new()),
            metrics,
            cfg,
        });
        let spawn = |name: String, body: Box<dyn FnOnce(&Shared) + Send>| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || body(&shared))
                .expect("spawn engine thread")
        };
        let executors = (0..shared.cfg.executors.max(1))
            .map(|i| {
                let home = i % 2;
                spawn(
                    format!("graphbig-executor-{i}"),
                    Box::new(move |sh| executor_loop(sh, home)),
                )
            })
            .collect();
        let compactor = (shared.cfg.compact_threshold > 0)
            .then(|| spawn("graphbig-compactor".to_string(), Box::new(compactor_loop)));
        Engine {
            shared,
            auto_tag: AtomicU64::new(0),
            executors,
            compactor,
        }
    }

    /// Submit with no deadline.
    pub fn submit(&self, query: Query) -> Result<Ticket, RejectReason> {
        self.submit_with_deadline(query, None)
    }

    /// Submit with an explicit per-query deadline (`None` = no deadline).
    /// Returns synchronously with a rejection when admission fails.
    pub fn submit_with_deadline(
        &self,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<Ticket, RejectReason> {
        let tag = AUTO_TAG_BASE | self.auto_tag.fetch_add(1, Ordering::Relaxed);
        self.submit_tagged(query, deadline, tag)
    }

    /// Submit with an explicit deadline and chaos request key. The traffic
    /// driver tags every request `attempt << 32 | request_idx`, making every
    /// failpoint decision for it a pure function of the fault-plan seed.
    pub fn submit_tagged(
        &self,
        query: Query,
        deadline: Option<Duration>,
        tag: u64,
    ) -> Result<Ticket, RejectReason> {
        let sh = &*self.shared;
        let admit_start = Instant::now();
        let request_id = recorder::next_request_id();
        let snapshot = sh.store.snapshot();
        let (n, m) = (
            snapshot.graph().num_vertices() as u64,
            snapshot.graph().num_edges() as u64,
        );
        let class = query.class();
        let lane_idx = lane(class);
        let cost = query.cost(n, m);
        admit(sh, lane_idx, cost, tag, request_id)?;
        let token = match deadline {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        }
        .with_chaos_key(tag)
        .with_trace_id(request_id);
        let (tx, rx) = channel();
        // `enqueue` is recorded before the push so an executor's `dequeue`
        // can never precede it in the event stream. The stamp comes last,
        // so the queue stage holds only the hand-off, and it ends the admit
        // stage too (recorded once the job is handed off).
        recorder::record_lane(EventKind::Enqueue, lane_idx as u8, request_id, cost);
        let enqueued = Instant::now();
        let job = Job {
            query,
            class,
            cost,
            snapshot,
            token: token.clone(),
            enqueued,
            tag,
            request_id,
            resolver: Resolver::new(tx),
        };
        if matches!(query, Query::Degree { .. } | Query::KHop { .. }) {
            // A lookup costs less than a hand-off to an executor: it runs
            // here, through the stages an executor walks, before returning.
            run_group(sh, dequeue(sh, job, None, false), Vec::new());
        } else if lock(&sh.lanes).push(job, &sh.cfg) {
            sh.available.notify_one();
        }
        sh.metrics
            .stage_admit_us
            .record((enqueued - admit_start).as_micros() as u64);
        Ok(Ticket {
            rx,
            token,
            request_id,
        })
    }

    /// Publish a new graph as the next epoch (resharded with the engine's
    /// shard count). In-flight queries keep the state they were admitted
    /// under. Any buffered mutations against the *old* graph are
    /// discarded — the caller is replacing the dataset wholesale — and the
    /// delta-seq carries on.
    pub fn publish(&self, csr: Csr) -> u64 {
        let sh = &*self.shared;
        let _ = chaos::failpoint!("engine.publish");
        let epoch = sh.store.publish(ShardedGraph::build(csr, sh.cfg.shards));
        // Epoch keying already makes old entries unreachable; the sweep
        // reclaims their memory promptly.
        sh.cache.invalidate();
        epoch
    }

    /// Republish the current graph under a new epoch number without
    /// rebuilding shards — the chaos driver's cheap mid-mix epoch bump.
    /// The delta overlay follows the graph to the new epoch with its
    /// contents intact (same base, new version number).
    pub fn republish(&self) -> u64 {
        let sh = &*self.shared;
        let _ = chaos::failpoint!("engine.publish");
        let epoch = sh.store.republish();
        sh.cache.invalidate();
        epoch
    }

    /// Apply a batch of mutations to the delta overlay. Synchronous on the
    /// caller's thread: the batch is billed through admission under the
    /// `write` cost class (one unit per mutation), folded into a fresh
    /// overlay version in one atomic step, and visible to every query
    /// admitted afterwards. Returns the receipt carrying the new
    /// delta-seq.
    pub fn mutate(&self, batch: &[Mutation]) -> Result<MutationReceipt, RejectReason> {
        let tag = AUTO_TAG_BASE | self.auto_tag.fetch_add(1, Ordering::Relaxed);
        self.mutate_tagged(batch, tag)
    }

    /// [`Engine::mutate`] with an explicit chaos request key (the traffic
    /// driver tags writes exactly like reads, so failpoint decisions stay
    /// a pure function of the fault-plan seed).
    pub fn mutate_tagged(
        &self,
        batch: &[Mutation],
        tag: u64,
    ) -> Result<MutationReceipt, RejectReason> {
        let sh = &*self.shared;
        let start = Instant::now();
        let request_id = recorder::next_request_id();
        let cost = (batch.len() as u64).max(1);
        admit(sh, WRITE_LANE, cost, tag, request_id)?;
        sh.admission.on_start();
        // Failpoint `engine.mutate`: delay inside the write path, widening
        // the compaction-vs-mutation race window under chaos.
        let _ = chaos::failpoint!("engine.mutate", tag);
        let (receipt, published) = sh.store.mutate(batch);
        sh.admission.on_finish(cost);
        let us = start.elapsed().as_micros() as u64;
        recorder::record_lane(EventKind::Mutate, WRITE_LANE as u8, request_id, receipt.seq);
        sh.metrics.mutations.inc();
        sh.metrics.completed[WRITE_LANE].inc();
        sh.metrics.latency_us[WRITE_LANE].record(us);
        sh.metrics.stage_exec_us[WRITE_LANE].record(us);
        sh.metrics.resolved.inc();
        let threshold = sh.cfg.compact_threshold;
        if threshold > 0 && published.overlay().overlay_edges() >= threshold {
            let (doorbell, cv) = &sh.compact_doorbell;
            lock(doorbell).0 = true;
            cv.notify_one();
        }
        Ok(receipt)
    }

    /// Fold the current delta overlay into a fresh sharded CSR and publish
    /// it as a new epoch with an empty overlay and its sequence counter
    /// intact. In-flight queries keep their pinned state, writes included.
    /// Returns the epoch serving reads afterwards (unchanged when the
    /// overlay was already empty). Safe to call concurrently with
    /// mutations, queries, and itself.
    pub fn compact(&self) -> u64 {
        compact_inner(&self.shared)
    }

    /// The overlay's current delta sequence number. Bumps once per applied
    /// mutation batch and is never reused across compactions or
    /// publishes — `(epoch, delta_seq)` names one exact graph state.
    pub fn delta_seq(&self) -> u64 {
        self.shared.store.snapshot().seq()
    }

    /// The published delta overlay (size and digest accessors for tests,
    /// stats lines, and the serve binary's write-path report).
    pub fn overlay(&self) -> Arc<DeltaOverlay> {
        Arc::clone(self.shared.store.snapshot().overlay())
    }

    /// Executor threads still running (the chaos invariant "no executor
    /// thread lost to a panic" compares this against
    /// [`Engine::executor_count`]).
    pub fn alive_executors(&self) -> usize {
        self.executors.iter().filter(|h| !h.is_finished()).count()
    }

    /// Configured executor thread count.
    pub fn executor_count(&self) -> usize {
        self.executors.len()
    }

    /// The epoch store (snapshots, epoch numbers, byte-level publish).
    pub fn store(&self) -> &GraphStore {
        &self.shared.store
    }

    /// The shared kernel pool (the sequential oracle reuses it so engine
    /// and oracle run the exact same kernel configuration).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.shared.pool
    }

    /// The admission controller's live counters.
    pub fn admission(&self) -> &AdmissionController {
        &self.shared.admission
    }

    /// The live SLO tracker: windows over the lane latency histograms and
    /// the per-key ones, computed when read.
    pub fn slo(&self) -> &SloTracker {
        &self.shared.slo
    }

    /// Entries currently in the result cache (0 when caching is disabled).
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// A point-in-time serving snapshot: queue depth, in-flight cost, and
    /// the per-lane window stats (the `--stats-interval` line's payload).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            t_ms: slo::now_ms(),
            queue_depth: self.shared.admission.queued() as u64,
            in_flight_cost: self.shared.admission.in_flight_cost(),
            lanes: self.shared.slo.lane_stats(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let sh = &*self.shared;
        {
            let (doorbell, cv) = &sh.compact_doorbell;
            lock(doorbell).1 = true;
            cv.notify_all();
        }
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
        lock(&sh.lanes).shutdown = true;
        sh.available.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // Backstop: if any job is still queued after the executors exited
        // (only possible if an executor died outside its panic guard), shed
        // it through the same loop and draining dequeue an executor runs, so
        // no ticket ever hangs and the shed leaves the full lifecycle
        // behind. The Resolver CAS makes this race-free against any
        // response an executor already sent.
        executor_loop(sh, 0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use graphbig_datagen::Dataset;

    pub(crate) fn csr(n: usize) -> Csr {
        Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n))
    }

    pub(crate) fn quiet_cfg() -> EngineConfig {
        EngineConfig {
            pool_threads: 2,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn point_and_analytics_queries_complete() {
        let reg = Registry::new();
        let engine = Engine::with_registry(quiet_cfg(), csr(200), &reg);
        let t1 = engine.submit(Query::Degree { vertex: 0 }).unwrap();
        let t2 = engine
            .submit(Query::Run {
                workload: Workload::CComp,
                source: 0,
            })
            .unwrap();
        let r1 = t1.wait();
        let r2 = t2.wait();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.class, CostClass::Point);
        assert!(matches!(
            r1.status,
            QueryStatus::Completed(QueryOutput::Degree { .. })
        ));
        assert_eq!(r2.class, CostClass::Analytics);
        assert!(matches!(
            r2.status,
            QueryStatus::Completed(QueryOutput::Workload(ServiceOutput::Labels(_)))
        ));
        let snap = reg.snapshot();
        use graphbig_telemetry::MetricValue;
        assert_eq!(snap["engine.submitted"], MetricValue::Counter(2));
        assert_eq!(snap["engine.completed.point"], MetricValue::Counter(1));
        assert_eq!(snap["engine.completed.analytics"], MetricValue::Counter(1));
    }

    #[test]
    fn cost_budget_rejection_is_synchronous_and_counted() {
        let reg = Registry::new();
        let cfg = EngineConfig {
            cost_budget: 1, // only Degree-class queries fit
            ..quiet_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(100), &reg);
        // Occupy the whole budget so the engine is busy (an idle engine
        // now admits any cost — see the admission livelock regression).
        engine.admission().try_admit(1).unwrap();
        let err = engine
            .submit(Query::Run {
                workload: Workload::KCore,
                source: 0,
            })
            .unwrap_err();
        assert!(matches!(err, RejectReason::CostBudget { .. }), "{err}");
        // Releasing the budget lets a cost-1 point query through.
        engine.admission().on_start();
        engine.admission().on_finish(1);
        let t = engine.submit(Query::Degree { vertex: 1 }).unwrap();
        assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
        let snap = reg.snapshot();
        use graphbig_telemetry::MetricValue;
        assert_eq!(snap["engine.rejected.cost_budget"], MetricValue::Counter(1));
        assert_eq!(snap["engine.submitted"], MetricValue::Counter(1));
    }

    #[test]
    fn oversized_query_completes_on_an_idle_engine() {
        // End-to-end form of the admission livelock regression: KCore's
        // estimate dwarfs a budget of 1, but an idle engine must still
        // serve it rather than reject it forever.
        let reg = Registry::new();
        let cfg = EngineConfig {
            cost_budget: 1,
            ..quiet_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(100), &reg);
        let t = engine
            .submit(Query::Run {
                workload: Workload::KCore,
                source: 0,
            })
            .unwrap();
        assert!(matches!(t.wait().status, QueryStatus::Completed(_)));
        assert_eq!(engine.admission().in_flight_cost(), 0);
    }

    #[test]
    fn unsupported_workload_is_reported_not_hung() {
        let reg = Registry::new();
        let engine = Engine::with_registry(quiet_cfg(), csr(50), &reg);
        let t = engine
            .submit(Query::Run {
                workload: Workload::Gibbs,
                source: 0,
            })
            .unwrap();
        assert_eq!(t.wait().status, QueryStatus::Unsupported(Workload::Gibbs));
    }

    #[test]
    fn publish_moves_new_queries_to_new_epoch() {
        let engine = Engine::with_registry(quiet_cfg(), csr(64), &Registry::new());
        let t1 = engine.submit(Query::Degree { vertex: 0 }).unwrap();
        assert_eq!(engine.publish(csr(128)), 2);
        let t2 = engine.submit(Query::Degree { vertex: 0 }).unwrap();
        assert_eq!(t1.wait().epoch, 1);
        assert_eq!(t2.wait().epoch, 2);
    }

    #[test]
    fn accounting_balances_after_mixed_load() {
        let reg = Registry::new();
        let cfg = EngineConfig {
            queue_capacity: 4,
            ..quiet_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(150), &reg);
        let mut tickets = Vec::new();
        let mut sent = 0u64;
        let mut rejected = 0u64;
        for i in 0..50u32 {
            let q = match i % 3 {
                0 => Query::Degree { vertex: i % 150 },
                1 => Query::KHop {
                    source: i % 150,
                    hops: 2,
                },
                _ => Query::Run {
                    workload: Workload::CComp,
                    source: 0,
                },
            };
            match engine.submit(q) {
                Ok(t) => {
                    sent += 1;
                    tickets.push(t);
                }
                Err(_) => rejected += 1,
            }
        }
        let responses: Vec<QueryResponse> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(responses.len() as u64, sent);
        assert_eq!(sent + rejected, 50);
        assert_eq!(engine.admission().in_flight_cost(), 0);
        assert_eq!(engine.admission().queued(), 0);
        let completed = responses
            .iter()
            .filter(|r| matches!(r.status, QueryStatus::Completed(_)))
            .count() as u64;
        assert_eq!(completed, sent, "no deadline was set, all must complete");
    }

    #[test]
    fn shutdown_sheds_queued_queries_with_responses() {
        let reg = Registry::new();
        let cfg = EngineConfig {
            executors: 1,
            pool_threads: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::with_registry(cfg, csr(400), &reg);
        // Stack up slow analytics; drop the engine before they all run.
        let tickets: Vec<Ticket> = (0..8)
            .filter_map(|_| {
                engine
                    .submit(Query::Run {
                        workload: Workload::KCore,
                        source: 0,
                    })
                    .ok()
            })
            .collect();
        drop(engine);
        for t in tickets {
            let r = t.wait();
            assert!(
                matches!(r.status, QueryStatus::Completed(_) | QueryStatus::Cancelled),
                "shutdown must complete or shed, got {:?}",
                r.status
            );
        }
    }

    /// The `Drop` backstop is only reachable when an executor died outside
    /// its panic guard, so this retires the executors by hand to strand a
    /// job — which is why the check lives here and not in
    /// `tests/lifecycle.rs` next to the other lifecycle assertions.
    #[test]
    fn drop_backstop_sheds_through_the_same_dequeue_as_the_executors() {
        use graphbig_telemetry::MetricValue;
        let reg = Registry::new();
        let mut engine = Engine::with_registry(quiet_cfg(), csr(64), &reg);
        lock(&engine.shared.lanes).shutdown = true;
        engine.shared.available.notify_all();
        for h in engine.executors.drain(..) {
            h.join().expect("executor exits cleanly");
        }
        // A point-class query that still queues: Degree and KHop would run
        // on this thread.
        let ticket = engine
            .submit(Query::Run {
                workload: Workload::DCentr,
                source: 0,
            })
            .unwrap();
        assert_eq!(engine.admission().queued(), 1, "the job is stranded");
        let rid = ticket.request_id();
        drop(engine);
        assert_eq!(ticket.wait().status, QueryStatus::Cancelled);
        // The whole story was recorded on this thread, so ring order is
        // causal order: the backstop leaves dequeue -> run -> resolve.
        let story: Vec<(EventKind, u64)> = recorder::snapshot()
            .events
            .iter()
            .filter(|e| e.id == rid)
            .map(|e| (e.kind, e.arg))
            .collect();
        let kinds: Vec<EventKind> = story.iter().map(|(kind, _)| *kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Admit,
                EventKind::Enqueue,
                EventKind::Dequeue,
                EventKind::Run,
                EventKind::Resolve
            ]
        );
        assert_eq!(story[3].1, 2, "run carries the cancelled code");
        assert_eq!(story[4].1, 2, "resolve carries the cancelled code");
        // ... and the queue-stage samples every executor dequeue records.
        assert_eq!(reg.histogram("engine.queue_us").snapshot().count, 1);
        let queue_point = reg.histogram("engine.stage_us.queue.point");
        assert_eq!(queue_point.snapshot().count, 1);
        let snap = reg.snapshot();
        assert_eq!(snap["engine.cancelled"], MetricValue::Counter(1));
        assert_eq!(snap["engine.resolved"], MetricValue::Counter(1));
    }

    #[test]
    fn query_cost_scales_with_class() {
        let (n, m) = (1000u64, 8000u64);
        let degree = Query::Degree { vertex: 0 }.cost(n, m);
        let khop = Query::KHop { source: 0, hops: 2 }.cost(n, m);
        let bfs = Query::Run {
            workload: Workload::Bfs,
            source: 0,
        }
        .cost(n, m);
        let heavy = Query::Run {
            workload: Workload::CComp,
            source: 0,
        }
        .cost(n, m);
        assert_eq!(degree, 1);
        assert!(degree <= khop && khop <= bfs && bfs < heavy);
    }

    pub(crate) fn manual_compaction_cfg() -> EngineConfig {
        EngineConfig {
            compact_threshold: 0,
            ..quiet_cfg()
        }
    }
}
