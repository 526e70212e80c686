//! Epoch-versioned graph store.
//!
//! Readers take an `Arc<EpochSnapshot>` and keep it for the lifetime of
//! their query: the snapshot is immutable, so any number of concurrent
//! queries read it without synchronization. A writer builds the next
//! [`ShardedGraph`] off to the side and [`GraphStore::publish`]es it — one
//! pointer swap under a mutex — while in-flight queries finish against the
//! epoch they started on. Old epochs free themselves when the last query
//! holding them drops its `Arc` (epoch-based reclamation for free).

use std::sync::{Arc, Mutex};

use graphbig_framework::csr::Csr;
use graphbig_framework::snapshot;

use crate::shard::ShardedGraph;

/// One immutable published graph version. The graph itself is behind its
/// own `Arc` so a republish ([`GraphStore::republish`]) can stamp a new
/// epoch onto the same graph without copying shards.
pub struct EpochSnapshot {
    epoch: u64,
    graph: Arc<ShardedGraph>,
}

impl EpochSnapshot {
    /// Monotonic version number, starting at 1.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sharded graph of this epoch.
    pub fn graph(&self) -> &ShardedGraph {
        &self.graph
    }
}

/// The engine's current-epoch holder.
pub struct GraphStore {
    current: Mutex<Arc<EpochSnapshot>>,
}

impl GraphStore {
    /// A store whose first epoch (1) is `graph`.
    pub fn new(graph: ShardedGraph) -> Self {
        GraphStore {
            current: Mutex::new(Arc::new(EpochSnapshot {
                epoch: 1,
                graph: Arc::new(graph),
            })),
        }
    }

    /// The current epoch's snapshot; cheap (one mutex-guarded `Arc` clone)
    /// and never blocked by readers.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Publish `graph` as the next epoch; returns the new epoch number.
    /// Queries already running keep their old snapshot until they finish.
    pub fn publish(&self, graph: ShardedGraph) -> u64 {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = current.epoch + 1;
        *current = Arc::new(EpochSnapshot {
            epoch,
            graph: Arc::new(graph),
        });
        epoch
    }

    /// Republish the *current* graph under a new epoch number — a pure
    /// version bump sharing the existing shards. The chaos driver uses this
    /// to exercise mid-mix epoch transitions without paying a reshard;
    /// queries admitted before the bump keep their old epoch number.
    pub fn republish(&self) -> u64 {
        let mut current = self.current.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = current.epoch + 1;
        let graph = Arc::clone(&current.graph);
        *current = Arc::new(EpochSnapshot { epoch, graph });
        epoch
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

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.lock().unwrap_or_else(|e| e.into_inner()).epoch
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
        let before = store.snapshot();
        assert_eq!(store.republish(), 2);
        let after = store.snapshot();
        assert_eq!(after.epoch(), 2);
        // Same shards, new version: the graphs are literally shared.
        assert!(std::ptr::eq(before.graph(), after.graph()));
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
