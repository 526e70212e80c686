//! Folding the delta overlay: background compaction and the materialized
//! views queries share with it.
//!
//! [`compact_inner`] folds base + overlay into a fresh sharded CSR and
//! publishes it as a new epoch ([`crate::Engine::compact`] calls it
//! directly, [`compactor_loop`] when the write path rings the doorbell).
//! [`materialized_for`] is the memoized fold that workload queries over a
//! non-empty overlay and the compactor both read, and
//! [`incremental_ccomp`] the per-epoch union-find state that spares
//! connected-components queries that fold entirely.

use std::sync::Arc;
use std::time::Instant;

use graphbig_chaos as chaos;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::parallel;
use graphbig_workloads::service::ServiceError;

use crate::delta::{DeltaOverlay, IncrementalCComp};
use crate::lifecycle::{lock, Job, Shared};
use crate::shard::ShardedGraph;
use crate::store::EpochSnapshot;

/// Advance the per-epoch incremental connected-components state to this
/// overlay's insert log and return the labels. `None` when the shared
/// state has already advanced past this overlay's log (an older in-flight
/// view must recompute — union-find cannot rewind).
pub(crate) fn incremental_ccomp(
    sh: &Shared,
    job: &Job,
    ov: &DeltaOverlay,
) -> Result<Option<Vec<u32>>, ServiceError> {
    let mut guard = lock(&sh.inc_ccomp);
    let needs_seed = !matches!(&*guard, Some((e, _)) if *e == ov.epoch());
    if needs_seed {
        // Seed once per epoch with a full pool run over the base graph;
        // every later clean-overlay CComp is a cheap union of the new
        // insert-log suffix instead of a whole-graph recompute.
        let base = parallel::ccomp_cancellable(
            &sh.pool,
            job.snapshot.graph().service().sym(),
            &job.token,
        )?;
        *guard = Some((ov.epoch(), IncrementalCComp::new(&base)));
    }
    let (_, inc) = guard.as_mut().expect("state seeded above");
    if inc.applied() > ov.insert_log().len() {
        return Ok(None);
    }
    inc.advance(ov.insert_log());
    Ok(Some(inc.labels(ov.n_total() as usize)))
}

/// The memoized materialization of `(epoch, delta-seq)` — base + overlay
/// folded into a real sharded CSR, shared by every workload query and by
/// the compactor so one overlay version pays the fold exactly once.
pub(crate) fn materialized_for(
    sh: &Shared,
    snap: &EpochSnapshot,
    ov: &DeltaOverlay,
) -> Arc<ShardedGraph> {
    let mut memo = lock(&sh.materialized);
    if let Some((e, s, g)) = &*memo {
        if *e == ov.epoch() && *s == ov.seq() {
            return Arc::clone(g);
        }
    }
    let g = Arc::new(ov.materialize(snap.graph(), sh.cfg.shards));
    *memo = Some((ov.epoch(), ov.seq(), Arc::clone(&g)));
    g
}

/// Background compaction worker: waits on the doorbell the write path
/// rings when the overlay crosses the configured threshold, folds, and
/// re-checks (mutations landing mid-fold may already warrant another
/// pass).
pub(crate) fn compactor_loop(sh: &Shared) {
    let (doorbell, cv) = &sh.compact_doorbell;
    loop {
        {
            let mut state = lock(doorbell);
            while !state.0 && !state.1 {
                state = cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            if state.1 {
                return;
            }
            state.0 = false;
        }
        compact_inner(sh);
        if sh.buffer.current().overlay_edges() >= sh.cfg.compact_threshold {
            lock(doorbell).0 = true;
        }
    }
}

/// Fold the current overlay into a fresh sharded CSR and publish it as a
/// new epoch. Materialization runs *off* the write lock (mutations keep
/// landing); publication retries optimistically and only falls back to
/// folding under the lock — the measured "compaction pause" — when writers
/// keep winning the race. Returns the serving epoch (unchanged when there
/// was nothing to fold).
pub(crate) fn compact_inner(sh: &Shared) -> u64 {
    let ov0 = sh.buffer.current();
    if ov0.is_empty() {
        return sh.store.epoch();
    }
    sh.metrics.compact_started.inc();
    recorder::record(EventKind::CompactStart, ov0.epoch(), ov0.seq());
    let _ = chaos::failpoint!("engine.compact.pre");
    let mut attempts = 0;
    let epoch = loop {
        attempts += 1;
        if attempts > 3 {
            // Writers keep beating us to the buffer: fold while holding
            // the write lock. This is the stop-the-world pause the bench
            // reports; the optimistic path below keeps it rare.
            let _w = lock(&sh.write_lock);
            let snap = sh.store.snapshot();
            let cur = sh.buffer.current();
            if cur.is_empty() {
                break 0;
            }
            let pause = Instant::now();
            let graph = Arc::new(cur.materialize(snap.graph(), sh.cfg.shards));
            break publish_folded(sh, graph, pause);
        }
        let snap = sh.store.snapshot();
        let cur = sh.buffer.current();
        if cur.is_empty() {
            break 0; // another writer already folded or replaced the graph
        }
        if cur.epoch() != snap.epoch() {
            continue; // raced a publish; re-grab a consistent pair
        }
        let graph = materialized_for(sh, &snap, &cur);
        let pause = Instant::now();
        let _w = lock(&sh.write_lock);
        if sh.buffer.current().seq() == cur.seq() && sh.store.epoch() == snap.epoch() {
            break publish_folded(sh, graph, pause);
        }
        // A batch landed while we materialized; retry with the fresh log.
    };
    let _ = chaos::failpoint!("engine.compact.post");
    recorder::record(EventKind::CompactEnd, ov0.epoch(), epoch);
    sh.metrics.compact_completed.inc();
    if epoch == 0 {
        sh.store.epoch()
    } else {
        epoch
    }
}

/// Publish an already-folded graph as the next epoch, reset the overlay
/// onto it (sequence counter preserved), and sweep the cache. The caller
/// holds the write lock; `pause` marks when the write path stalled.
fn publish_folded(sh: &Shared, graph: Arc<ShardedGraph>, pause: Instant) -> u64 {
    let n_total = graph.num_vertices() as u32;
    let epoch = sh.store.publish_shared(graph);
    sh.buffer.reset(epoch, n_total);
    sh.cache.invalidate();
    sh.metrics
        .compact_pause_us
        .record(pause.elapsed().as_micros() as u64);
    epoch
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{csr, manual_compaction_cfg, quiet_cfg};
    use crate::{Engine, EngineConfig, Mutation, Query, QueryOutput, QueryStatus};
    use graphbig_telemetry::metrics::{MetricValue, Registry};
    use graphbig_workloads::Workload;
    use std::time::{Duration, Instant};

    #[test]
    fn mutations_read_through_the_overlay_and_compaction_preserves_them() {
        let reg = Registry::new();
        let engine = Engine::with_registry(manual_compaction_cfg(), csr(64), &reg);
        let before = engine.submit(Query::Degree { vertex: 0 }).unwrap().wait();
        let QueryStatus::Completed(QueryOutput::Degree { out: out0, .. }) = before.status else {
            panic!("{:?}", before.status);
        };
        // A new vertex (id 64) plus an edge to it from vertex 0.
        let receipt = engine
            .mutate(&[
                Mutation::AddVertex,
                Mutation::AddEdge {
                    u: 0,
                    v: 64,
                    w: 1.0,
                },
            ])
            .unwrap();
        assert_eq!((receipt.epoch, receipt.seq, receipt.applied), (1, 1, 2));
        let during = engine.submit(Query::Degree { vertex: 0 }).unwrap().wait();
        let QueryStatus::Completed(QueryOutput::Degree { out: out1, .. }) = during.status else {
            panic!("{:?}", during.status);
        };
        assert_eq!(out1, out0 + 1, "reads must see the overlay insert");
        // Compaction folds the overlay into epoch 2; the read sticks.
        assert_eq!(engine.compact(), 2);
        assert!(engine.overlay().is_empty());
        assert_eq!(engine.delta_seq(), 1, "delta-seq survives compaction");
        let after = engine.submit(Query::Degree { vertex: 0 }).unwrap().wait();
        assert_eq!(after.epoch, 2);
        let QueryStatus::Completed(QueryOutput::Degree { out: out2, .. }) = after.status else {
            panic!("{:?}", after.status);
        };
        assert_eq!(out2, out0 + 1);
        let snap = reg.snapshot();
        assert_eq!(snap["engine.mutations"], MetricValue::Counter(1));
        assert_eq!(snap["engine.completed.write"], MetricValue::Counter(1));
        assert_eq!(snap["engine.compact.started"], MetricValue::Counter(1));
        assert_eq!(snap["engine.compact.completed"], MetricValue::Counter(1));
    }

    #[test]
    fn incremental_ccomp_over_the_overlay_matches_materialized_recompute() {
        let cfg = EngineConfig {
            cache_capacity: 0,
            ..manual_compaction_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(120), &Registry::new());
        let q = Query::Run {
            workload: Workload::CComp,
            source: 0,
        };
        // Bridge two far-apart vertices through a fresh one: a clean
        // (insert-only) overlay, so the incremental union-find path serves
        // this query.
        engine
            .mutate(&[
                Mutation::AddVertex,
                Mutation::AddEdge {
                    u: 3,
                    v: 120,
                    w: 1.0,
                },
                Mutation::AddEdge {
                    u: 90,
                    v: 120,
                    w: 1.0,
                },
            ])
            .unwrap();
        let inc = engine.submit(q).unwrap().wait();
        let QueryStatus::Completed(ref inc_out) = inc.status else {
            panic!("{:?}", inc.status);
        };
        // The same logical graph served from the compacted CSR must agree
        // bit-for-bit.
        engine.compact();
        let full = engine.submit(q).unwrap().wait();
        let QueryStatus::Completed(ref full_out) = full.status else {
            panic!("{:?}", full.status);
        };
        assert_eq!(inc_out.digest(), full_out.digest());
    }

    #[test]
    fn background_compactor_folds_the_overlay_past_the_threshold() {
        let cfg = EngineConfig {
            compact_threshold: 4,
            ..quiet_cfg()
        };
        let engine = Engine::with_registry(cfg, csr(64), &Registry::new());
        engine.mutate(&[Mutation::AddVertex]).unwrap();
        for u in 0..6u32 {
            engine
                .mutate(&[Mutation::AddEdge { u, v: 64, w: 1.0 }])
                .unwrap();
        }
        // The compactor folds asynchronously; wait for the epoch to move.
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.store().epoch() == 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            engine.store().epoch() >= 2,
            "compactor never folded the overlay"
        );
        // All six inserts survive, wherever the compaction boundary fell.
        let r = engine.submit(Query::Degree { vertex: 64 }).unwrap().wait();
        let QueryStatus::Completed(QueryOutput::Degree { inc, .. }) = r.status else {
            panic!("{:?}", r.status);
        };
        assert_eq!(inc, 6);
    }
}
