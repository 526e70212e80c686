//! Folding the delta overlay: background compaction, the one caller of the
//! fold.
//!
//! [`compact_inner`] folds base + overlay into a fresh sharded CSR and
//! publishes it as a new epoch ([`crate::Engine::compact`] calls it
//! directly, [`compactor_loop`] when the write path rings the doorbell).
//! The store ([`crate::store::GraphStore::compact`]) decides when a fold
//! may publish — only over the very state it folded — so a query that
//! pinned the pre-fold state keeps reading its writes through its overlay.
//! The fold ([`DeltaOverlay::fold`]) copies the rows the overlay left alone
//! and re-derives the rest, so a compaction costs what was written since
//! the last one, not the graph; the fold records a `compact.fold` phase
//! whose payload is the number of rows it re-derived. Queries never fold:
//! they run on the live graph, [`crate::delta::OverlayView`]. What else
//! lives here is [`incremental_ccomp`], the per-epoch union-find state
//! that spares connected-components queries on an insert-only overlay
//! even that.

use graphbig_chaos as chaos;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::parallel;
use graphbig_workloads::service::ServiceError;

use crate::delta::{DeltaOverlay, IncrementalCComp};
use crate::lifecycle::{lock, Job, Shared};

/// Advance the per-epoch incremental connected-components state to this
/// overlay's insert log and return the labels. `None` when the shared
/// state has already advanced past this overlay's log (an older in-flight
/// view must recompute — union-find cannot rewind).
pub(crate) fn incremental_ccomp(
    sh: &Shared,
    job: &Job,
    ov: &DeltaOverlay,
) -> Result<Option<Vec<u32>>, ServiceError> {
    let epoch = job.snapshot.epoch();
    let mut guard = lock(&sh.inc_ccomp);
    let needs_seed = !matches!(&*guard, Some((e, _)) if *e == epoch);
    if needs_seed {
        // Seed once per epoch with a full pool run over the base graph;
        // every later clean-overlay CComp is a cheap union of the new
        // insert-log suffix instead of a whole-graph recompute.
        let base = parallel::ccomp(&sh.pool, job.snapshot.graph().service().sym(), &job.token)?;
        *guard = Some((epoch, IncrementalCComp::new(&base)));
    }
    let (_, inc) = guard.as_mut().expect("state seeded above");
    if inc.applied() > ov.insert_log().len() {
        return Ok(None);
    }
    inc.advance(ov.insert_log());
    Ok(Some(inc.labels(ov.n_total() as usize)))
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
        if sh.store.snapshot().overlay().overlay_edges() >= sh.cfg.compact_threshold {
            lock(doorbell).0 = true;
        }
    }
}

/// Fold the published overlay into a fresh sharded CSR and publish it as a
/// new epoch, then sweep the cache. The fold runs off the store's writer
/// lock (mutations keep landing); see [`crate::store::GraphStore::compact`]
/// for when it may publish. Returns the serving epoch (unchanged when
/// there was nothing to fold).
pub(crate) fn compact_inner(sh: &Shared) -> u64 {
    let snap = sh.store.snapshot();
    if snap.overlay().is_empty() {
        return snap.epoch();
    }
    sh.metrics.compact_started.inc();
    recorder::record(EventKind::CompactStart, snap.epoch(), snap.seq());
    let _ = chaos::failpoint!("engine.compact.pre");
    let folded = sh
        .store
        .compact(|from| from.overlay().fold(from.graph(), sh.cfg.shards).0);
    if let Some((_, pause)) = folded {
        sh.cache.invalidate();
        sh.metrics.compact_pause_us.record(pause.as_micros() as u64);
    }
    let _ = chaos::failpoint!("engine.compact.post");
    let published = folded.map(|(epoch, _)| epoch);
    recorder::record(EventKind::CompactEnd, snap.epoch(), published.unwrap_or(0));
    sh.metrics.compact_completed.inc();
    published.unwrap_or_else(|| sh.store.epoch())
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::{csr, manual_compaction_cfg, quiet_cfg};
    use crate::{Engine, EngineConfig, Mutation, Query, QueryOutput, QueryStatus};
    use graphbig_telemetry::metrics::{MetricValue, Registry};
    use graphbig_telemetry::recorder::{self, EventKind};
    use graphbig_workloads::Workload;
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

    /// Compaction markers and `compact.fold` phase events as `(kind, arg,
    /// ts_us)`, from the recorder threads whose name `on` accepts.
    fn compaction_events(on: impl Fn(&str) -> bool) -> Vec<(EventKind, u64, u64)> {
        let snap = recorder::snapshot();
        let tids: Vec<u32> = snap
            .threads
            .iter()
            .filter(|(_, name)| on(name))
            .map(|&(tid, _)| tid)
            .collect();
        let fold = recorder::intern("compact.fold");
        snap.events
            .iter()
            .filter(|e| tids.contains(&e.tid))
            .filter(|e| match e.kind {
                EventKind::CompactStart | EventKind::CompactEnd => true,
                EventKind::PhaseBegin | EventKind::PhaseEnd => e.code == fold,
                _ => false,
            })
            .map(|e| (e.kind, e.arg, e.ts_us))
            .collect()
    }

    fn fold_phases(on: impl Fn(&str) -> bool) -> usize {
        compaction_events(on)
            .iter()
            .filter(|e| e.0 == EventKind::PhaseBegin)
            .count()
    }

    /// `compact` runs on its caller's thread; other tests record on theirs.
    fn here(name: &str) -> bool {
        Some(name) == std::thread::current().name()
    }

    /// One read path: over a live overlay of every shape, each servable
    /// workload answers what it answers on the compacted graph, and no
    /// query folds — only `compact()` records a `compact.fold` phase.
    #[test]
    fn every_workload_reads_the_live_graph_and_only_compaction_folds() {
        let engine = engine_with_overlay(300);
        let servable: Vec<Workload> = Workload::ALL
            .into_iter()
            .filter(|&w| graphbig_workloads::service::servable(w))
            .collect();
        let live: Vec<u64> = servable.iter().map(|&w| digest_of(&engine, w)).collect();
        // Queries run on executor threads, and no engine's query may fold.
        let executors = |name: &str| name.starts_with("graphbig-executor");
        assert_eq!(fold_phases(executors), 0, "a query folded the overlay");
        let folds = fold_phases(here);
        assert_eq!(engine.compact(), 2);
        assert_eq!(fold_phases(here), folds + 1, "compaction folds once");
        for (&w, &want) in servable.iter().zip(&live) {
            assert_eq!(digest_of(&engine, w), want, "{w:?}");
        }
    }

    #[test]
    fn compaction_records_its_fold_as_a_phase_carrying_rows_rebuilt() {
        let engine = engine_with_overlay(300);
        // Folded on another thread, whose recorder this test does not read.
        let (ov, snap) = (engine.overlay(), engine.store().snapshot());
        let want = std::thread::spawn(move || ov.fold(snap.graph(), 2).1)
            .join()
            .unwrap();
        assert_eq!(engine.compact(), 2);
        // The snapshot orders events by microsecond, so the compaction's
        // start and its fold phase may share one: check each pair, then
        // that the phase nests inside the compaction.
        let (phase, markers): (Vec<_>, Vec<_>) = compaction_events(here)
            .into_iter()
            .partition(|e| matches!(e.0, EventKind::PhaseBegin | EventKind::PhaseEnd));
        let args = |events: &[(EventKind, u64, u64)]| -> Vec<(EventKind, u64)> {
            events.iter().map(|&(kind, arg, _)| (kind, arg)).collect()
        };
        assert_eq!(
            args(&markers),
            [
                (EventKind::CompactStart, 1), // arg = the overlay's delta-seq
                (EventKind::CompactEnd, 2),   // arg = the epoch published
            ]
        );
        assert_eq!(
            args(&phase),
            [
                (EventKind::PhaseBegin, 0),
                (EventKind::PhaseEnd, want.rows_rebuilt())
            ]
        );
        assert!(markers[0].2 <= phase[0].2 && phase[1].2 <= markers[1].2);
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
