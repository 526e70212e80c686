//! The reference fold: what [`DeltaOverlay::materialize`] must equal, array
//! for array, written the slow and obvious way over public API only — every
//! live edge into one list, then a from-scratch build. It shares neither the
//! touched-row marking nor the row patching with the code under test, so it
//! can judge both the fold and the traversal view.
//!
//! Shared by the integration suites (`mod common;`) and by `delta.rs`'s unit
//! tests (`crate::test_common`, by `#[path]`), hence the `graphbig_engine::` paths.
#![allow(dead_code)] // each suite uses its own subset

use graphbig_engine::{DeltaOverlay, ShardedGraph};
use graphbig_framework::csr::Csr;

/// Base + overlay rebuilt from the live edge list.
pub fn reference_fold(base: &ShardedGraph, overlay: &DeltaOverlay, shards: usize) -> ShardedGraph {
    let n = overlay.n_total() as usize;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        overlay.for_each_live_out(base, u, |t, w| edges.push((u, t, w)));
    }
    ShardedGraph::build(Csr::from_edges(n, &edges), shards)
}

/// Every array of the three CSRs and the shard list equal (`Csr`'s derived
/// `PartialEq`: offsets, columns, weights, ids, `dangling_skipped`).
pub fn assert_same_graph(got: &ShardedGraph, want: &ShardedGraph, what: &str) {
    let (g, w) = (got.service(), want.service());
    assert_eq!(g.out(), w.out(), "{what}: out CSR");
    assert_eq!(g.bi().inc(), w.bi().inc(), "{what}: in CSR");
    assert_eq!(g.sym(), w.sym(), "{what}: undirected CSR");
    assert_eq!(got.shards(), want.shards(), "{what}: shards");
}
