//! The executor side: pop a group, dequeue it, run it.
//!
//! There is one path. An executor pops the next runnable group — formed at
//! admission by [`crate::lifecycle::Lanes::push`], usually a job alone —
//! under the lane-aging policy, or sleeps until the earliest filling
//! group's window closes. Every member goes through
//! [`crate::lifecycle::dequeue`], and [`run_group`] walks each member
//! through the same guarded run:
//!
//! `engine.run.pre` → cache probe → `engine.overlay.read` → **kernel** →
//! cache insert (`engine.cache.insert`) → `engine.run.post` →
//! [`crate::lifecycle::finish_job`].
//!
//! Only the kernel step depends on the group's shape: the members of a BFS
//! group that miss the cache and read the group's graph state share one
//! multi-source pass; everyone else runs [`run_query_uncached`] alone. So a
//! request's failpoint decisions, terminal status and cache footprint are
//! the same whether or not it was coalesced.
//!
//! Every member reads the state it pinned at admission — base and overlay
//! as one [`crate::store::EpochSnapshot`] — and caches under its
//! `(epoch, delta-seq)`. A group's members all pinned the same state, so a
//! BFS group never spans a write. Only a BFS coalesces: it is the one kind
//! with a pass to share, and a point read would only wait out the window.
//!
//! Over a live overlay every kernel runs on the live graph, an
//! [`OverlayView`] of the pinned base; no query folds the graph.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphbig_chaos::{self as chaos, FaultAction};
use graphbig_runtime::CancelToken;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::service::{self, ServiceError, ServiceOutput};
use graphbig_workloads::{msbfs, Workload};

use crate::compact::incremental_ccomp;
use crate::delta::{DeltaOverlay, OverlayView};
use crate::engine::{Query, QueryOutput, QueryStatus};
use crate::lifecycle::{
    dequeue, finish_job, lane, lock, terminal_status, Group, Job, Pending, Shared,
};
use crate::store::EpochSnapshot;

pub(crate) fn executor_loop(sh: &Shared) {
    loop {
        let (Group { leader, mates, .. }, draining, idle_us) = {
            let mut lanes = lock(&sh.lanes);
            // Set once this executor starts waiting out a filling group.
            let mut idle_since = None;
            loop {
                if let Some((group, aged)) = lanes.pop(sh.cfg.lane_aging_limit) {
                    if aged {
                        sh.metrics.lane_aged.inc();
                    }
                    let idle = idle_since.map_or(Duration::ZERO, |t: Instant| t.elapsed());
                    break (group, lanes.shutdown, idle.as_micros() as u64);
                }
                if lanes.shutdown {
                    return;
                }
                // Sleep until the earliest window closes; a runnable job or
                // the join that fills a group wakes it sooner.
                lanes = match lanes.next_due() {
                    Some(due) => {
                        let now = Instant::now();
                        idle_since.get_or_insert(now);
                        let timeout = due.saturating_duration_since(now);
                        let waited = sh.available.wait_timeout(lanes, timeout);
                        waited.unwrap_or_else(|e| e.into_inner()).0
                    }
                    None => sh.available.wait(lanes).unwrap_or_else(|e| e.into_inner()),
                };
            }
        };
        // A group of two or more is measured (`coalesce_us`: this executor's
        // idle wait for joiners) and marked; a draining engine sheds.
        let leader_rid = (!draining && !mates.is_empty()).then(|| {
            let size = 1 + mates.len() as u64;
            sh.metrics.batch_size.record(size);
            sh.metrics.batch_coalesce_us.record(idle_us);
            let lane_idx = lane(leader.class) as u8;
            recorder::record_lane(EventKind::BatchStart, lane_idx, leader.request_id, size);
            leader.request_id
        });
        let leader = dequeue(sh, leader, leader_rid, draining);
        let mates = mates
            .into_iter()
            .map(|m| dequeue(sh, m, leader_rid, draining))
            .collect();
        run_group(sh, leader, mates);
    }
}

/// The source of a BFS run, the one query kind that coalesces; `None` for
/// every other query, which always runs alone.
pub(crate) fn bfs_source(query: &Query) -> Option<u32> {
    match *query {
        Query::Run {
            workload: Workload::Bfs,
            source,
        } => Some(source),
        _ => None,
    }
}

/// The overlay reads of `snapshot` go through, when there is one to apply.
fn live(snapshot: &EpochSnapshot) -> Option<&DeltaOverlay> {
    let overlay = snapshot.overlay();
    (!overlay.is_empty()).then_some(&**overlay)
}

/// What the pre-kernel steps decided for one member.
enum Probe<'a> {
    /// Served from the cache; no kernel, nothing to insert.
    Hit(QueryOutput),
    /// Run the kernel, reading through this overlay (`None` = pinned base).
    Miss(Option<&'a DeltaOverlay>),
}

/// Run every member of a dequeued group — the leader and whatever BFS
/// mates were coalesced behind it, usually none — to its terminal status.
/// Every member reads the one graph state the group pinned.
pub(crate) fn run_group(sh: &Shared, leader: Pending, mates: Vec<Pending>) {
    let shares_pass = bfs_source(&leader.job.query).is_some();
    // BFS members waiting for the shared pass (never allocated otherwise).
    let mut pass: Vec<Pending> = Vec::new();
    for mut p in std::iter::once(leader).chain(mates) {
        let started = Instant::now();
        // One panic guard around everything this member runs on its own. A
        // panic — injected via `engine.run.pre` / `engine.run.post` /
        // `runtime.cancel.check`, or a genuine bug surfacing through
        // `ThreadPool::broadcast`'s re-throw — terminates *this query* with
        // `Failed`; the executor thread, the pool workers, and every other
        // query keep going. `None` = the member rides the shared pass.
        let outcome = match p.forced.take() {
            Some(forced) => Some(forced),
            None => guard(|| match before_kernel(sh, &p.job) {
                Probe::Hit(output) => {
                    let status = QueryStatus::Completed(output);
                    Some(after_kernel(sh, &p.job, status, false))
                }
                // A `StaleRead` member no longer reads the group's graph
                // state: it leaves the pass and runs alone on the stale base.
                Probe::Miss(overlay)
                    if shares_pass && overlay.is_some() == live(&p.job.snapshot).is_some() =>
                {
                    None
                }
                Probe::Miss(overlay) => {
                    let status = run_query_uncached(sh, &p.job, overlay);
                    Some(after_kernel(sh, &p.job, status, true))
                }
            })
            .unwrap_or_else(Some),
        };
        match outcome {
            Some(status) => finish_job(sh, p, status, started.elapsed().as_micros() as u64),
            None => pass.push(p),
        }
    }
    if !pass.is_empty() {
        run_shared_pass(sh, pass);
    }
}

/// The kernel step for the BFS members of a group: every lane rides one
/// [`msbfs::msbfs_dir_opt_cancellable`] pass (which itself falls back to
/// per-source direction-optimized runs below its lane crossover, so a group
/// of one costs one single-source BFS). Per-lane output is bit-identical to
/// the single-source kernel, so fanned-out results — and the cache entries
/// they leave behind — match what each member would have produced alone.
///
/// The pass never folds a graph: over a live overlay the kernel traverses
/// one [`OverlayView`] built here for the whole group, otherwise the pinned
/// base's `BiCsr` — two instantiations of the same generic kernel.
fn run_shared_pass(sh: &Shared, pass: Vec<Pending>) {
    let snapshot = Arc::clone(&pass[0].job.snapshot);
    // Traced members get the same `KernelStart` marker `run_service`
    // records (arg = Bfs's index in the workload registry).
    let bfs_index = Workload::ALL
        .iter()
        .position(|&w| w == Workload::Bfs)
        .unwrap_or(0) as u64;
    for p in &pass {
        if p.job.token.trace_id() != 0 {
            recorder::record(EventKind::KernelStart, p.job.token.trace_id(), bfs_index);
        }
    }
    let sources: Vec<u32> = pass
        .iter()
        .map(|p| bfs_source(&p.job.query).expect("only a BFS rides the pass"))
        .collect();
    let tokens: Vec<&CancelToken> = pass.iter().map(|p| &p.job.token).collect();
    let started = Instant::now();
    let kernel = guard(|| match live(&snapshot) {
        Some(ov) => {
            let live = OverlayView::new(snapshot.graph(), ov);
            msbfs::msbfs_dir_opt_cancellable(&sh.pool, &live, &sources, &tokens)
        }
        None => {
            let bi = snapshot.graph().service().bi();
            msbfs::msbfs_dir_opt_cancellable(&sh.pool, bi, &sources, &tokens)
        }
    });
    let exec_us = started.elapsed().as_micros() as u64;
    let mut kernel = kernel.map(Vec::into_iter);
    for p in pass {
        let status = match &mut kernel {
            // A genuine kernel panic fails every lane in the pass — the
            // shared-fate cost of sharing one kernel.
            Err(failed) => failed.clone(),
            Ok(lanes) => {
                let status = match lanes.next().expect("one result per lane") {
                    Ok(levels) => {
                        QueryStatus::Completed(QueryOutput::Workload(ServiceOutput::Levels(levels)))
                    }
                    Err(_) => terminal_status(&p.job.token),
                };
                guard(|| after_kernel(sh, &p.job, status, true)).unwrap_or_else(|failed| failed)
            }
        };
        finish_job(sh, p, status, exec_us);
    }
}

/// Run `f` inside the engine's one panic guard; a panic becomes the
/// [`QueryStatus::Failed`] carrying its message.
fn guard<T>(f: impl FnOnce() -> T) -> Result<T, QueryStatus> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        QueryStatus::Failed(if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        })
    })
}

/// The guarded run up to the kernel: `engine.run.pre`, then the cache
/// probe, then — only when an overlay would apply — `engine.overlay.read`.
fn before_kernel<'a>(sh: &Shared, job: &'a Job) -> Probe<'a> {
    if let Some(fault) = chaos::failpoint!("engine.run.pre", job.tag) {
        if fault.is_panic() {
            panic!("{} at engine.run.pre", chaos::PANIC_MSG);
        }
    }
    // Serve from the (epoch, delta-seq)-keyed cache first: identical query
    // + identical graph state = bit-identical output, so a hit skips the
    // kernel entirely while the response (and its digest) stays exactly
    // what a fresh run would produce. Any mutation bumps the delta-seq,
    // making every entry cached against the older overlay unreachable.
    let (epoch, seq) = (job.snapshot.epoch(), job.snapshot.seq());
    if let Some(output) = sh.cache.get(epoch, seq, &job.query) {
        recorder::record_lane(
            EventKind::CacheHit,
            lane(job.class) as u8,
            job.request_id,
            epoch,
        );
        return Probe::Hit(output);
    }
    // Failpoint `engine.overlay.read`: a `StaleRead` fault drops the
    // overlay from this read and serves the stale base — the drill that
    // proves the rebuild oracle catches a broken overlay-read path.
    Probe::Miss(live(&job.snapshot).filter(|_| {
        !matches!(
            chaos::failpoint!("engine.overlay.read", job.tag),
            Some(f) if f.action == FaultAction::StaleRead
        )
    }))
}

/// The guarded run after the kernel: store a completed result under the
/// job's `(epoch, delta-seq)` when `insert` (false for a cache hit —
/// nothing to store), then `engine.run.post`. A stale-read result still
/// lands under the live key; that is the drill — the oracle catches it.
fn after_kernel(sh: &Shared, job: &Job, status: QueryStatus, insert: bool) -> QueryStatus {
    // The clone feeding the store is skipped outright when the cache is
    // off (`cache_capacity: 0`) — a benchmark or test that disables the
    // cache should not pay a per-result deep copy for nothing.
    if let QueryStatus::Completed(output) = &status {
        if insert && sh.cache.enabled() {
            let stored = match chaos::failpoint!("engine.cache.insert", job.tag) {
                Some(f) if f.action == FaultAction::CorruptCache => corrupted(output),
                _ => output.clone(),
            };
            let (epoch, seq) = (job.snapshot.epoch(), job.snapshot.seq());
            sh.cache.insert(epoch, seq, job.query, stored);
        }
    }
    if let Some(fault) = chaos::failpoint!("engine.run.post", job.tag) {
        if fault.is_panic() {
            panic!("{} at engine.run.post", chaos::PANIC_MSG);
        }
    }
    status
}

/// Chaos cache poisoning: the corrupted entry a firing
/// [`FaultAction::CorruptCache`] stores in place of the real output. Any
/// later hit serves a wrong answer whose digest cannot match the
/// sequential oracle's — the drill that proves the oracle guards the
/// cache path.
fn corrupted(output: &QueryOutput) -> QueryOutput {
    QueryOutput::KHop(output.digest() ^ 0xBAD_CAC4E)
}

/// The kernel step for one member on its own, against the job's pinned
/// snapshot read through `overlay`.
fn run_query_uncached(sh: &Shared, job: &Job, overlay: Option<&DeltaOverlay>) -> QueryStatus {
    let graph = job.snapshot.graph();
    match job.query {
        // Point queries run inline on the executor thread: waking the pool
        // would cost more than the lookup.
        Query::Degree { vertex } => {
            let (out, inc) = match overlay {
                Some(ov) => ov.degree(graph, vertex),
                None => graph.degree(vertex),
            }
            .unwrap_or((0, 0));
            QueryStatus::Completed(QueryOutput::Degree { out, inc })
        }
        Query::KHop { source, hops } => {
            let count = match overlay {
                Some(ov) => ov.k_hop(graph, source, hops),
                None => graph.k_hop(source, hops),
            };
            QueryStatus::Completed(QueryOutput::KHop(count))
        }
        Query::Run { workload, source } => {
            let served = match overlay {
                None => {
                    service::run_service(workload, &sh.pool, graph.service(), source, &job.token)
                }
                Some(ov) => run_overlay_service(sh, job, ov, workload, source),
            };
            match served {
                Ok(output) => QueryStatus::Completed(QueryOutput::Workload(output)),
                Err(ServiceError::Cancelled) => terminal_status(&job.token),
                Err(ServiceError::Unsupported(w)) => QueryStatus::Unsupported(w),
            }
        }
    }
}

/// Serve a workload query against base + overlay, for a member running on
/// its own (a BFS that reads the group's graph state never gets here — it
/// rides [`run_shared_pass`]). Connected components on an insert-only
/// ("clean") overlay goes through the incremental union-find kernel;
/// everything else runs [`service::run_service`] on the live graph, an
/// [`OverlayView`] whose row faces re-derive only what the overlay touched.
fn run_overlay_service(
    sh: &Shared,
    job: &Job,
    ov: &DeltaOverlay,
    workload: Workload,
    source: u32,
) -> Result<ServiceOutput, ServiceError> {
    if workload == Workload::CComp && !ov.dirty() {
        if let Some(labels) = incremental_ccomp(sh, job, ov)? {
            return Ok(ServiceOutput::Labels(labels));
        }
    }
    let live = OverlayView::new(job.snapshot.graph(), ov);
    service::run_service(workload, &sh.pool, &live, source, &job.token)
}

#[cfg(test)]
mod tests {
    use super::bfs_source;
    use crate::engine::tests::{csr, manual_compaction_cfg, quiet_cfg};
    use crate::{Engine, EngineConfig, Mutation, Query, QueryOutput, QueryStatus};
    use graphbig_telemetry::metrics::{MetricValue, Registry};
    use graphbig_workloads::Workload;

    #[test]
    fn only_bfs_runs_have_a_bfs_source() {
        let run = |workload| Query::Run {
            workload,
            source: 3,
        };
        assert_eq!(bfs_source(&run(Workload::Bfs)), Some(3));
        // Point lookups run inline and whole-graph kernels gain nothing
        // from source coalescing: neither ever forms a group.
        assert_eq!(bfs_source(&Query::Degree { vertex: 3 }), None);
        assert_eq!(bfs_source(&Query::KHop { source: 3, hops: 2 }), None);
        for w in Workload::ALL.into_iter().filter(|&w| w != Workload::Bfs) {
            assert_eq!(bfs_source(&run(w)), None, "{w}");
        }
    }

    #[test]
    fn cache_serves_identical_results_and_publish_invalidates() {
        let reg = Registry::new();
        let engine = Engine::with_registry(quiet_cfg(), csr(200), &reg);
        let q = Query::KHop { source: 3, hops: 2 };
        let first = engine.submit(q).unwrap().wait();
        let QueryStatus::Completed(ref cold) = first.status else {
            panic!("{:?}", first.status);
        };
        assert!(engine.cache_len() >= 1);
        let second = engine.submit(q).unwrap().wait();
        let QueryStatus::Completed(ref hot) = second.status else {
            panic!("{:?}", second.status);
        };
        assert_eq!(cold, hot, "cache hit must be bit-identical");
        assert_eq!(cold.digest(), hot.digest());
        assert_eq!(reg.snapshot()["engine.cache.hit"], MetricValue::Counter(1));
        // Publishing a *different* graph must not serve stale results.
        engine.publish(csr(300));
        assert_eq!(engine.cache_len(), 0, "publish sweeps the cache");
        let fresh = engine.submit(q).unwrap().wait();
        let QueryStatus::Completed(ref post) = fresh.status else {
            panic!("{:?}", fresh.status);
        };
        assert_ne!(
            cold.digest(),
            post.digest(),
            "a 200- vs 300-vertex graph must answer differently"
        );
        let snap = reg.snapshot();
        assert!(matches!(snap["engine.cache.evict"], MetricValue::Counter(n) if n >= 1));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let reg = Registry::new();
        let cfg = EngineConfig {
            cache_capacity: 0,
            ..quiet_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(100), &reg);
        let q = Query::Degree { vertex: 5 };
        let a = engine.submit(q).unwrap().wait();
        let b = engine.submit(q).unwrap().wait();
        assert_eq!(a.status, b.status, "identical answers either way");
        let snap = reg.snapshot();
        assert_eq!(snap["engine.cache.hit"], MetricValue::Counter(0));
        assert_eq!(snap["engine.cache.miss"], MetricValue::Counter(0));
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn mutation_moves_the_cache_to_a_new_delta_seq() {
        let reg = Registry::new();
        let engine = Engine::with_registry(manual_compaction_cfg(), csr(100), &reg);
        let q = Query::Degree { vertex: 7 };
        let a = engine.submit(q).unwrap().wait();
        let _warm = engine.submit(q).unwrap().wait();
        assert_eq!(reg.snapshot()["engine.cache.hit"], MetricValue::Counter(1));
        // A mutation bumps the delta-seq: same epoch, new key — the entry
        // cached at seq 0 must be unreachable, not served stale.
        engine
            .mutate(&[
                Mutation::AddVertex,
                Mutation::AddEdge {
                    u: 7,
                    v: 100,
                    w: 1.0,
                },
            ])
            .unwrap();
        let c = engine.submit(q).unwrap().wait();
        assert_eq!(
            reg.snapshot()["engine.cache.hit"],
            MetricValue::Counter(1),
            "the pre-mutation entry must not hit"
        );
        let d = engine.submit(q).unwrap().wait();
        assert_eq!(
            reg.snapshot()["engine.cache.hit"],
            MetricValue::Counter(2),
            "the post-mutation entry caches at the new delta-seq"
        );
        assert_eq!(c.status, d.status, "hit is bit-identical");
        let QueryStatus::Completed(QueryOutput::Degree { out: oa, .. }) = a.status else {
            panic!("{:?}", a.status);
        };
        let QueryStatus::Completed(QueryOutput::Degree { out: oc, .. }) = c.status else {
            panic!("{:?}", c.status);
        };
        assert_eq!(oc, oa + 1);
    }
}
