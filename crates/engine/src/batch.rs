//! Batching policy: which queued queries may share one kernel execution.
//!
//! The executor (see `exec.rs`) pops one job under the normal lane-aging
//! policy, then — if the job is *batchable* — drains compatible jobs from
//! the same lane into its group and runs one shared kernel for all of them. This module holds the pure, unit-testable
//! policy pieces: the batch-kind classification and the shard-grouped
//! ordering for point sweeps.
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

/// The vertex a point query touches first — the shard-grouping sort key.
pub(crate) fn point_vertex(query: &Query) -> u32 {
    match query {
        Query::Degree { vertex } => *vertex,
        Query::KHop { source, .. } => *source,
        Query::Run { source, .. } => *source,
    }
}

/// Stable order for a shard-grouped point sweep: group by shard index,
/// then by vertex within the shard, so one pass walks each shard's slice
/// of the CSR once instead of hopping between shards per request. Pure so
/// the ordering is testable without an engine; `shard_of` maps a vertex to
/// its shard index (out-of-range vertices sort last).
pub(crate) fn shard_sweep_order<T>(
    items: &mut [T],
    vertex_of: impl Fn(&T) -> u32,
    shard_of: impl Fn(u32) -> Option<usize>,
) {
    items.sort_by_key(|item| {
        let v = vertex_of(item);
        (shard_of(v).unwrap_or(usize::MAX), v)
    });
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

    #[test]
    fn shard_sweep_groups_by_shard_then_vertex() {
        // 2 shards of 50 vertices each; vertex 120 is out of range.
        let shard_of = |v: u32| (v < 100).then_some((v / 50) as usize);
        let mut items: Vec<u32> = vec![70, 10, 120, 55, 5, 99];
        shard_sweep_order(&mut items, |&v| v, shard_of);
        assert_eq!(items, vec![5, 10, 55, 70, 99, 120]);
    }

    #[test]
    fn shard_sweep_is_stable_for_duplicate_vertices() {
        let mut items: Vec<(u32, char)> = vec![(7, 'a'), (3, 'x'), (7, 'b')];
        shard_sweep_order(&mut items, |&(v, _)| v, |_| Some(0));
        assert_eq!(items, vec![(3, 'x'), (7, 'a'), (7, 'b')]);
    }
}
