//! The one published graph state.
//!
//! The store publishes one immutable [`EpochSnapshot`]: a base
//! [`ShardedGraph`] *and* the [`DeltaOverlay`] of writes on top of it. A
//! query pins it once, at admission, and reads exactly the writes that
//! completed before it was admitted, whatever is published while it waits;
//! old states free themselves when the last query holding them drops its
//! `Arc`. This is the only place an overlay is paired with a base and the
//! only place writers serialise: each writer (mutate, publish, republish,
//! compact) builds the next state off the readers' lock and swaps it in,
//! bar a write to a state nobody else holds, which applies in place.
//! Every write moves `(epoch, delta-seq)`, so the pair names one state.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphbig_framework::csr::Csr;
use graphbig_framework::snapshot;

use crate::delta::{DeltaOverlay, Mutation, MutationReceipt};
use crate::lifecycle::lock;
use crate::shard::ShardedGraph;

/// Folds a compaction tries off the writer lock before it folds holding it.
const OPTIMISTIC_FOLDS: usize = 3;

/// One immutable published graph state: a base graph and the overlay of
/// writes on top of it. The graph is behind its own `Arc` so a mutation or
/// a republish shares it instead of copying shards.
pub struct EpochSnapshot {
    epoch: u64,
    graph: Arc<ShardedGraph>,
    overlay: Arc<DeltaOverlay>,
}

impl EpochSnapshot {
    /// Monotonic version number of the base, starting at 1.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base graph of this state.
    pub fn graph(&self) -> &ShardedGraph {
        &self.graph
    }

    /// The writes on top of [`EpochSnapshot::graph`] (empty right after a
    /// publish or compaction).
    pub fn overlay(&self) -> &Arc<DeltaOverlay> {
        &self.overlay
    }

    /// The overlay's delta-seq: with the epoch, the name of this state.
    pub fn seq(&self) -> u64 {
        self.overlay.seq()
    }

    /// This state's graph under `epoch`, with `overlay` on top.
    fn with(&self, epoch: u64, overlay: Arc<DeltaOverlay>) -> EpochSnapshot {
        let graph = Arc::clone(&self.graph);
        EpochSnapshot {
            epoch,
            graph,
            overlay,
        }
    }

    /// The state after `graph` replaced the base: next epoch, empty
    /// overlay, same delta-seq.
    fn rebased(&self, graph: ShardedGraph) -> EpochSnapshot {
        EpochSnapshot {
            epoch: self.epoch + 1,
            overlay: Arc::new(DeltaOverlay::empty(self.seq(), graph.num_vertices() as u32)),
            graph: Arc::new(graph),
        }
    }
}

/// The engine's published-state holder.
pub struct GraphStore {
    current: Mutex<Arc<EpochSnapshot>>,
    /// Held across a writer's whole step, so the state it builds on is
    /// still the published one when it swaps. Taken before `current`.
    writer: Mutex<()>,
}

impl GraphStore {
    /// A store whose first state is `graph` at epoch 1 with an empty
    /// overlay at delta-seq 0.
    pub fn new(graph: ShardedGraph) -> Self {
        GraphStore {
            current: Mutex::new(Arc::new(EpochSnapshot {
                epoch: 1,
                overlay: Arc::new(DeltaOverlay::empty(0, graph.num_vertices() as u32)),
                graph: Arc::new(graph),
            })),
            writer: Mutex::new(()),
        }
    }

    /// The published state; cheap (one mutex-guarded `Arc` clone) and
    /// never blocked by readers or by a writer's work.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        lock(&self.current).epoch
    }

    /// Publish `next`; the caller holds the writer lock.
    fn swap(&self, next: EpochSnapshot) -> Arc<EpochSnapshot> {
        let next = Arc::new(next);
        *lock(&self.current) = Arc::clone(&next);
        next
    }

    /// Apply `batch` to the overlay as one new state (same epoch, next
    /// delta-seq). Even an all-no-op batch bumps the delta-seq. Returns the
    /// receipt and the state it published.
    ///
    /// In place, in O(batch), when the store holds the only reference to the
    /// published state and its overlay (nobody can see it); otherwise on a
    /// clone swapped in, so a visible state never changes.
    pub fn mutate(&self, batch: &[Mutation]) -> (MutationReceipt, Arc<EpochSnapshot>) {
        let _w = lock(&self.writer);
        let mut current = lock(&self.current);
        if let Some(snap) = Arc::get_mut(&mut current) {
            if let Some(overlay) = Arc::get_mut(&mut snap.overlay) {
                let receipt = overlay.apply_batch(&snap.graph, batch, snap.epoch);
                return (receipt, Arc::clone(&current));
            }
        }
        let cur = Arc::clone(&current);
        drop(current);
        let (overlay, receipt) = cur.overlay.with_batch(&cur.graph, batch, cur.epoch);
        (receipt, self.swap(cur.with(cur.epoch, Arc::new(overlay))))
    }

    /// Publish `graph` as the next epoch with an empty overlay: buffered
    /// writes go with the base they applied to, the delta-seq carries on.
    /// Queries already admitted keep their old state until they finish.
    pub fn publish(&self, graph: ShardedGraph) -> u64 {
        let _w = lock(&self.writer);
        let next = self.snapshot().rebased(graph);
        self.swap(next).epoch
    }

    /// Republish the current graph and overlay under a new epoch number —
    /// a pure version bump sharing both. The chaos driver uses this to
    /// exercise mid-mix epoch transitions without paying a reshard; queries
    /// admitted before the bump keep their old epoch number.
    pub fn republish(&self) -> u64 {
        let _w = lock(&self.writer);
        let cur = self.snapshot();
        self.swap(cur.with(cur.epoch + 1, Arc::clone(&cur.overlay)))
            .epoch
    }

    /// Fold the overlay into a new base with `fold` and publish it as the
    /// next epoch with an empty overlay (delta-seq kept). The fold runs off
    /// the writer lock and is published only if no writer moved the state
    /// meanwhile; after [`OPTIMISTIC_FOLDS`] lost races it folds holding
    /// the lock. Returns the published epoch and how long writers were
    /// held off, or `None` when the overlay was (or became) empty.
    pub fn compact(
        &self,
        mut fold: impl FnMut(&EpochSnapshot) -> ShardedGraph,
    ) -> Option<(u64, Duration)> {
        for attempt in 1.. {
            // Writers kept beating the fold: take the lock first. This is the
            // stop-the-world pause the bench reports.
            let held = (attempt > OPTIMISTIC_FOLDS).then(|| (lock(&self.writer), Instant::now()));
            let from = self.snapshot();
            if from.overlay.is_empty() {
                return None;
            }
            let graph = fold(&from);
            let (_w, pause) = held.unwrap_or_else(|| (lock(&self.writer), Instant::now()));
            if Arc::ptr_eq(&from, &self.snapshot()) {
                let epoch = self.swap(from.rebased(graph)).epoch;
                return Some((epoch, pause.elapsed()));
            }
            // A writer landed while we folded; retry on the new state.
        }
        unreachable!("attempts are unbounded")
    }

    /// Publish a new epoch from serialized [`framework snapshot
    /// bytes`](graphbig_framework::snapshot), resharded into `num_shards`.
    ///
    /// Decode failures are wrapped with the input length, so a truncated
    /// upload reports *where* it ran out ("need N bytes at offset X") and
    /// how much was received, instead of an opaque loader failure.
    pub fn publish_snapshot_bytes(
        &self,
        bytes: &[u8],
        num_shards: usize,
    ) -> Result<u64, graphbig_framework::error::GraphError> {
        let g = snapshot::load(bytes).map_err(|e| {
            graphbig_framework::error::GraphError::MalformedInput(format!(
                "publish_snapshot_bytes: cannot decode {}-byte snapshot: {e}",
                bytes.len()
            ))
        })?;
        let csr = Csr::from_graph(&g);
        Ok(self.publish(ShardedGraph::build(csr, num_shards)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::Dataset;

    fn graph(n: usize) -> ShardedGraph {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        ShardedGraph::build(Csr::from_graph(&g), 4)
    }

    #[test]
    fn epochs_are_monotonic_and_old_snapshots_survive() {
        let store = GraphStore::new(graph(64));
        assert_eq!(store.epoch(), 1);
        let old = store.snapshot();
        assert_eq!(store.publish(graph(128)), 2);
        assert_eq!(store.epoch(), 2);
        // The reader that grabbed epoch 1 still sees epoch 1's graph.
        assert_eq!(old.epoch(), 1);
        assert_eq!(old.graph().num_vertices(), 64);
        assert_eq!(store.snapshot().graph().num_vertices(), 128);
    }

    #[test]
    fn republish_bumps_epoch_and_shares_the_graph() {
        let store = GraphStore::new(graph(64));
        store.mutate(&[Mutation::AddVertex]);
        let before = store.snapshot();
        assert_eq!(store.republish(), 2);
        let after = store.snapshot();
        assert_eq!(after.epoch(), 2);
        // Same shards and writes, new version: both are literally shared.
        assert!(std::ptr::eq(before.graph(), after.graph()));
        assert!(Arc::ptr_eq(before.overlay(), after.overlay()));
        assert_eq!(after.overlay().n_total(), 65);
    }

    #[test]
    fn a_pinned_state_keeps_its_writes_across_compaction() {
        let store = GraphStore::new(graph(64));
        let (receipt, _) = store.mutate(&[Mutation::AddVertex]);
        assert_eq!((receipt.epoch, receipt.seq, receipt.applied), (1, 1, 1));
        let pinned = store.snapshot();
        let (epoch, _) = store
            .compact(|s| s.overlay().materialize(s.graph(), 2))
            .expect("a non-empty overlay folds");
        assert_eq!(epoch, 2);
        // The pinned reader still sees base + overlay as one value ...
        assert_eq!((pinned.epoch(), pinned.overlay().n_total()), (1, 65));
        // ... and the published state carries the write in its base.
        let now = store.snapshot();
        assert_eq!((now.graph().num_vertices(), now.seq()), (65, 1));
        assert!(now.overlay().is_empty());
        assert_eq!(store.compact(|_| unreachable!("nothing to fold")), None);
    }

    #[test]
    fn compaction_publishes_only_the_state_it_folded() {
        let store = GraphStore::new(graph(64));
        store.mutate(&[Mutation::AddVertex]);
        let mut folds = 0;
        let (epoch, _) = store
            .compact(|s: &EpochSnapshot| {
                folds += 1;
                if folds == 1 {
                    // A write lands mid-fold: this fold must be discarded.
                    store.mutate(&[Mutation::AddVertex]);
                }
                s.overlay().materialize(s.graph(), 2)
            })
            .unwrap();
        assert_eq!((epoch, folds), (2, 2));
        assert_eq!(store.snapshot().graph().num_vertices(), 66);
    }

    #[test]
    fn publish_from_snapshot_bytes_round_trips() {
        let store = GraphStore::new(graph(32));
        let g = Dataset::Ldbc.generate_with_vertices(96);
        let bytes = snapshot::save(&g);
        let epoch = store.publish_snapshot_bytes(&bytes, 3).unwrap();
        assert_eq!(epoch, 2);
        let snap = store.snapshot();
        assert_eq!(snap.graph().num_vertices(), 96);
        assert!(!snap.graph().shards().is_empty());
        // Corrupt bytes are rejected without changing the epoch.
        assert!(store.publish_snapshot_bytes(&[1, 2, 3], 3).is_err());
        assert_eq!(store.epoch(), 2);
    }

    #[test]
    fn truncated_snapshot_bytes_report_offset_and_length() {
        let store = GraphStore::new(graph(32));
        let g = Dataset::Ldbc.generate_with_vertices(96);
        let bytes = snapshot::save(&g);
        let cut = bytes.len() / 2;
        let err = store
            .publish_snapshot_bytes(&bytes[..cut], 3)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("{cut}-byte snapshot")),
            "error must state how many bytes arrived: {err}"
        );
        assert!(
            err.contains("truncated") && err.contains("at offset"),
            "error must carry the loader's offset context: {err}"
        );
        assert_eq!(store.epoch(), 1, "a failed publish must not bump the epoch");
    }
}
