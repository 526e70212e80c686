//! Folding the delta overlay: background compaction and the materialized
//! views queries share with it.
//!
//! [`compact_inner`] folds base + overlay into a fresh sharded CSR and
//! publishes it as a new epoch ([`crate::Engine::compact`] calls it
//! directly, [`compactor_loop`] when the write path rings the doorbell).
//! The fold ([`DeltaOverlay::fold`]) copies the rows the overlay left alone
//! and re-derives the rest, so a compaction costs what was written since
//! the last one, not the graph; each one records a `compact.fold` phase
//! whose payload is the number of rows it re-derived.
//! [`materialized_for`] is the memoized fold the compactor shares with the
//! workload queries whose kernels still need a real CSR over a non-empty
//! overlay — BFS is not one of them, it traverses a
//! [`crate::delta::OverlayView`] — and [`incremental_ccomp`] the per-epoch
//! union-find state that spares connected-components queries that fold
//! entirely. [`rebase_overlay`] is the one place the write path moves to a
//! new epoch, so the memo never outlives the graph it was folded from.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use graphbig_chaos as chaos;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::parallel;
use graphbig_workloads::service::ServiceError;

use crate::delta::{DeltaOverlay, FoldStats, IncrementalCComp};
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
        let base = parallel::ccomp(&sh.pool, job.snapshot.graph().service().sym(), &job.token)?;
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
/// folded into a real sharded CSR, so one overlay version pays the fold
/// exactly once. Two callers: [`compact_inner`], and `run_overlay_service`
/// for the kernels not yet written against an adjacency view (SPath, KCore,
/// dirty CComp, DCentr, TC, GColor). BFS does not call it. Once those
/// kernels read through a view too, the query side goes away and the memo
/// and its mutex with it. The counts are what *this call* rewrote: all zero
/// when the memo already held the fold.
pub(crate) fn materialized_for(
    sh: &Shared,
    snap: &EpochSnapshot,
    ov: &DeltaOverlay,
) -> (Arc<ShardedGraph>, FoldStats) {
    let mut memo = lock(&sh.materialized);
    if let Some((e, s, g)) = &*memo {
        if *e == ov.epoch() && *s == ov.seq() {
            return (Arc::clone(g), FoldStats::default());
        }
    }
    let (g, stats) = ov.fold(snap.graph(), sh.cfg.shards);
    let g = Arc::new(g);
    *memo = Some((ov.epoch(), ov.seq(), Arc::clone(&g)));
    (g, stats)
}

/// Run `fold` inside a `compact.fold` phase whose payload is the number of
/// rows it re-derived (only known once it is done, so given at close).
fn in_fold_phase<G>(fold: impl FnOnce() -> (G, FoldStats)) -> G {
    static CODE: OnceLock<u16> = OnceLock::new();
    let phase = recorder::phase(*CODE.get_or_init(|| recorder::intern("compact.fold")), 0);
    let (graph, stats) = fold();
    phase.close_with(stats.rows_rebuilt());
    graph
}

/// Point the write path at the freshly published `epoch`: an empty overlay
/// over its `base_n` vertices (sequence counter preserved), and the
/// materialization memo dropped, since it is a fold of the epoch just
/// retired and would otherwise pin that graph until some later overlay
/// query happened to replace it. The caller holds the write lock.
pub(crate) fn rebase_overlay(sh: &Shared, epoch: u64, base_n: u32) {
    *lock(&sh.materialized) = None;
    sh.buffer.reset(epoch, base_n);
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
            let graph = in_fold_phase(|| cur.fold(snap.graph(), sh.cfg.shards));
            break publish_folded(sh, Arc::new(graph), pause);
        }
        let snap = sh.store.snapshot();
        let cur = sh.buffer.current();
        if cur.is_empty() {
            break 0; // another writer already folded or replaced the graph
        }
        if cur.epoch() != snap.epoch() {
            continue; // raced a publish; re-grab a consistent pair
        }
        let graph = in_fold_phase(|| materialized_for(sh, &snap, &cur));
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
    rebase_overlay(sh, epoch, n_total);
    sh.cache.invalidate();
    sh.metrics
        .compact_pause_us
        .record(pause.elapsed().as_micros() as u64);
    epoch
}

#[cfg(test)]
mod tests {
    use super::lock;
    use crate::engine::tests::{csr, manual_compaction_cfg, quiet_cfg};
    use crate::{Engine, EngineConfig, Mutation, Query, QueryOutput, QueryStatus};
    use graphbig_telemetry::metrics::{MetricValue, Registry};
    use graphbig_workloads::Workload;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// An engine over `csr(n)` with no cache and no background compactor,
    /// carrying an overlay of every shape: a new vertex wired both ways, a
    /// tombstoned base edge and a removed vertex.
    fn engine_with_overlay(n: u32) -> Engine {
        let base = csr(n as usize);
        let gone = base.neighbors(0)[0];
        let cfg = EngineConfig {
            cache_capacity: 0,
            ..manual_compaction_cfg()
        };
        let engine = Engine::with_registry(cfg, base, &Registry::new());
        engine
            .mutate(&[
                Mutation::AddVertex,
                Mutation::AddEdge { u: 0, v: n, w: 1.0 },
                Mutation::AddEdge { u: n, v: 7, w: 1.0 },
                Mutation::RemoveEdge { u: 0, v: gone },
                Mutation::RemoveVertex { v: 5 },
            ])
            .unwrap();
        engine
    }

    fn digest_of(engine: &Engine, workload: Workload) -> u64 {
        let r = engine
            .submit(Query::Run {
                workload,
                source: 0,
            })
            .unwrap()
            .wait();
        match r.status {
            QueryStatus::Completed(output) => output.digest(),
            other => panic!("{workload:?}: {other:?}"),
        }
    }

    #[test]
    fn overlay_bfs_reads_through_the_view_and_only_other_kernels_fold() {
        let engine = engine_with_overlay(300);
        let memo = || lock(&engine.shared.materialized).clone();
        let bfs = digest_of(&engine, Workload::Bfs);
        assert!(memo().is_none(), "a BFS over an overlay must not fold it");
        let kcore = digest_of(&engine, Workload::KCore);
        let (epoch, seq, _) = memo().expect("KCore still runs on the folded graph");
        assert_eq!((epoch, seq), (1, 1));
        // The compacted CSR answers both exactly as the overlay reads did.
        assert_eq!(engine.compact(), 2);
        assert!(memo().is_none(), "the fold became the store's graph");
        assert_eq!(digest_of(&engine, Workload::Bfs), bfs);
        assert_eq!(digest_of(&engine, Workload::KCore), kcore);
    }

    #[test]
    fn publish_releases_the_fold_of_the_retired_epoch() {
        let engine = engine_with_overlay(200);
        digest_of(&engine, Workload::KCore);
        let (_, _, folded) = lock(&engine.shared.materialized)
            .clone()
            .expect("KCore folded the overlay");
        assert_eq!(Arc::strong_count(&folded), 2, "the memo's and ours");
        engine.publish(csr(100));
        assert!(lock(&engine.shared.materialized).is_none());
        assert_eq!(
            Arc::strong_count(&folded),
            1,
            "nothing in the engine may pin a fold of the replaced graph"
        );
    }

    #[test]
    fn compaction_records_its_fold_as_a_phase_carrying_rows_rebuilt() {
        use graphbig_telemetry::recorder::{self, EventKind};
        let engine = engine_with_overlay(300);
        let (_, want) = engine.overlay().fold(engine.store().snapshot().graph(), 2);
        assert_eq!(engine.compact(), 2);
        // `compact` ran on this thread; other tests record on theirs.
        let snap = recorder::snapshot();
        let me = std::thread::current().name().map(str::to_owned);
        let (tid, _) = snap
            .threads
            .iter()
            .find(|(_, name)| Some(name) == me.as_ref())
            .expect("this thread recorded");
        let fold = recorder::intern("compact.fold");
        let mine: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.tid == *tid)
            .filter(|e| match e.kind {
                EventKind::CompactStart | EventKind::CompactEnd => true,
                EventKind::PhaseBegin | EventKind::PhaseEnd => e.code == fold,
                _ => false,
            })
            .map(|e| (e.kind, e.arg))
            .collect();
        assert_eq!(
            mine,
            [
                (EventKind::CompactStart, 1), // arg = the overlay's delta-seq
                (EventKind::PhaseBegin, 0),
                (EventKind::PhaseEnd, want.rows_rebuilt()),
                (EventKind::CompactEnd, 2), // arg = the epoch published
            ]
        );
        assert!(want.rows_rebuilt() > 0 && want.rows_copied > want.rows_rebuilt());
    }

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
