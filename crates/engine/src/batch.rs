//! Batching policy: which queued queries may share one kernel execution.
//!
//! The executor (see `exec.rs`) pops one job under the normal lane-aging
//! policy, then — if the job is *batchable* — drains compatible jobs from
//! the same lane into its group and runs one shared kernel for all of them. This module holds the pure, unit-testable
//! policy pieces: the batch-kind classification and the sort key for point
//! sweeps.
//!
//! Compatibility is keyed by `(kind, epoch, delta-seq)`:
//! * **kind** — only queries answered by the same kernel can share a pass
//!   (multi-source BFS for `Run{Bfs}`, a shard-ordered sweep for
//!   `Degree`/`KHop`).
//! * **epoch** — members must pin the same published graph; a batch
//!   executes against exactly one snapshot.
//! * **delta-seq** — the live overlay version is part of the key because
//!   the result cache is keyed `(epoch, delta-seq, query)`: one batch
//!   executes at exactly one overlay state and every fanned-out result is
//!   cached under that one key. A mutation landing mid-window bumps the
//!   seq and closes the batch rather than mixing graph states.

use crate::engine::Query;
use graphbig_workloads::Workload;

/// Which shared kernel a batch runs. Queries of different kinds never
/// coalesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchKind {
    /// `Query::Run { workload: Bfs, .. }` — one multi-source BFS pass,
    /// one bit-lane per request (capped at
    /// [`graphbig_workloads::msbfs::MSBFS_LANES`]).
    Bfs,
    /// `Query::Degree` / `Query::KHop` — one cache-friendly sweep in
    /// shard order.
    Point,
}

/// Classify a query for coalescing; `None` means it always runs solo.
pub(crate) fn kind_of(query: &Query) -> Option<BatchKind> {
    match query {
        Query::Run {
            workload: Workload::Bfs,
            ..
        } => Some(BatchKind::Bfs),
        Query::Degree { .. } | Query::KHop { .. } => Some(BatchKind::Point),
        Query::Run { .. } => None,
    }
}

/// The vertex a point query touches first — the sweep's sort key. Shards
/// are contiguous ascending vertex ranges, so ascending vertex order groups
/// a sweep by shard.
pub(crate) fn point_vertex(query: &Query) -> u32 {
    match query {
        Query::Degree { vertex } => *vertex,
        Query::KHop { source, .. } => *source,
        Query::Run { source, .. } => *source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_bfs_runs_and_point_lookups_are_batchable() {
        assert_eq!(
            kind_of(&Query::Run {
                workload: Workload::Bfs,
                source: 3
            }),
            Some(BatchKind::Bfs)
        );
        assert_eq!(
            kind_of(&Query::Degree { vertex: 1 }),
            Some(BatchKind::Point)
        );
        assert_eq!(
            kind_of(&Query::KHop { source: 1, hops: 2 }),
            Some(BatchKind::Point)
        );
        // Whole-graph kernels gain nothing from source coalescing.
        for w in [Workload::CComp, Workload::KCore, Workload::SPath] {
            assert_eq!(
                kind_of(&Query::Run {
                    workload: w,
                    source: 0
                }),
                None
            );
        }
    }

    /// The sweep used to sort by `(shard index, vertex)` with out-of-range
    /// vertices last; on contiguous ascending shards that is the plain
    /// (stable) vertex order `run_group` sorts by now.
    #[test]
    fn shard_sweep_groups_by_shard_then_vertex() {
        use graphbig_framework::csr::Csr;
        let n = 200u32;
        let edges: Vec<(u32, u32, f32)> = (0..n).map(|v| (v, (v * 7 + 1) % n, 1.0)).collect();
        let sharded = crate::ShardedGraph::build(Csr::from_edges(n as usize, &edges), 4);
        assert_eq!(sharded.shards().len(), 4);
        let queries: Vec<Query> = [170u32, 10, 950, 55, 10, 199, 0, 101, 49, 50]
            .into_iter()
            .enumerate()
            .map(|(i, v)| match i % 2 {
                0 => Query::Degree { vertex: v },
                _ => Query::KHop { source: v, hops: 2 },
            })
            .collect();
        let mut by_shard = queries.clone();
        by_shard.sort_by_key(|q| {
            let v = point_vertex(q);
            let shard = sharded.shard_of(v).map_or(usize::MAX, |s| s.index());
            (shard, v)
        });
        let mut by_vertex = queries;
        by_vertex.sort_by_key(point_vertex);
        assert_eq!(by_vertex, by_shard);
    }
}
