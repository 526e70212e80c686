//! Live write path: the delta overlay and the live graph it makes.
//!
//! A [`DeltaOverlay`] is every write applied on top of one base graph. It
//! is immutable while anyone else can see it: [`DeltaOverlay::with_batch`]
//! folds a batch of [`Mutation`]s into a copy-on-write successor stamped
//! with the next delta-sequence number, and the store applies a batch in
//! place (the same `apply_batch`) only to an overlay nobody else holds. The
//! engine's [`GraphStore`](crate::store::GraphStore) publishes overlay and
//! base together as one state, which every query pins at admission;
//! [`MutationBuffer`] is the same batch step over a bare overlay, for
//! oracles and benches that replay writes without an engine. Reads evaluate
//! *base CSR + overlay*. Point queries — degree, k-hop — walk the overlay's
//! live rows directly. Every workload kernel runs on an [`OverlayView`],
//! the live graph: BFS traversals (single-source, direction-optimized and
//! the shared multi-source pass) walk it per visit, sending only the rows
//! the overlay touched through the overlay; the kernels that revisit rows
//! (SPath, KCore, TC, GColor, DCentr, CComp) read a [`PatchedCsr`] face of
//! it, the base CSR with the touched rows re-derived into a side table. No
//! query folds the graph: [`DeltaOverlay::fold`] is compaction's, and it
//! derives the same rows by the same functions, straight into fresh arrays
//! between copied runs.
//!
//! Semantics are set-based and tombstone-wins, chosen so a mutation stream
//! is confluent — the live edge set is always
//! `(base ∪ inserts) − deletes`, regardless of interleaving:
//!
//! - Adding an edge that exists in the base upserts its weight (a patch);
//!   adding one already tombstoned is a no-op (the delete wins).
//! - Removing an edge tombstones every parallel base copy of the pair and
//!   drops any overlay-inserted copy.
//! - Removing a vertex kills all its incident edges (base and overlay);
//!   the dense id is never reused, so the vertex survives as an isolated
//!   id with degree `(0, 0)` — exactly what a from-scratch rebuild yields.
//! - New vertices take dense ids `base_n, base_n + 1, …` in creation
//!   order.
//!
//! The correctness bar is the **rebuild oracle**: after any mutation
//! stream, reads through the overlay and reads after compaction must both
//! be digest-identical ([`structural_digest`]) to a graph rebuilt from
//! scratch with the same mutations applied. [`IncrementalCComp`] maintains
//! connected-component labels across *insert-only* deltas with a union-find
//! seeded from the base labels; any effective delete marks the overlay
//! dirty and the engine falls back to a full recompute over the live
//! graph.

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use graphbig_framework::csr::{Adjacency, BiCsr, Csr, InAdjacency, Rows};
use graphbig_framework::types::VertexId;
use graphbig_telemetry::recorder;
use graphbig_workloads::service::{ServiceGraph, ServiceView};

use crate::shard::{k_hop_walk, ShardedGraph};

/// Hasher of the overlay's maps, whose keys are dense vertex ids and pairs
/// of them: one rotate-xor-multiply per `u32` (the Fx scheme). Every read
/// of a touched row probes `deleted` once per base edge, so with the
/// standard library's SipHash (~20 ns a probe) what an overlay read cost
/// followed the degree of the vertices the writes happened to land on: an
/// overlay BFS ran 1.1-1.7x a clean one depending on the seed. The keys
/// are the engine's own ids, not input an attacker picks, so there is no
/// flooding to defend against.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(u64::from(b)));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(u64::from(x));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;
type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<IdHasher>>;

/// One structural update, in dense-id space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Append a new isolated vertex; it takes the next dense id.
    AddVertex,
    /// Remove a vertex and every edge incident to it. The id is retired,
    /// never reused.
    RemoveVertex {
        /// Dense id of the vertex to remove.
        v: u32,
    },
    /// Insert a directed edge, or upsert its weight if the pair already
    /// exists. A no-op if either endpoint is dead or the pair is
    /// tombstoned (deletes win).
    AddEdge {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
        /// Edge weight.
        w: f32,
    },
    /// Delete every copy of the directed edge `u -> v` (base and overlay).
    RemoveEdge {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
    },
    /// Update the weight of a live edge; a no-op if the pair is not live.
    SetWeight {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
        /// New weight.
        w: f32,
    },
}

/// What one applied batch ([`DeltaOverlay::with_batch`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReceipt {
    /// Delta-sequence number the overlay advanced to.
    pub seq: u64,
    /// Epoch the overlay applies to.
    pub epoch: u64,
    /// Mutations that changed state (no-ops excluded).
    pub applied: usize,
}

/// An immutable view of all mutations applied on top of one base graph.
///
/// Readers hold an `Arc<DeltaOverlay>` and combine it with the base it was
/// applied to (the engine pairs them in one
/// [`EpochSnapshot`](crate::store::EpochSnapshot)); writers never touch a
/// visible overlay — [`DeltaOverlay::with_batch`] clones it and applies
/// the batch to the clone.
#[derive(Debug, Clone)]
pub struct DeltaOverlay {
    seq: u64,
    base_n: u32,
    added_vertices: u32,
    removed: HashSet<u32>,
    /// Overlay out-adjacency: inserted edges by source, insertion order,
    /// unique targets (adds upsert in place).
    adds: HashMap<u32, Vec<(u32, f32)>>,
    /// Reverse index of `adds`: sources per target (for in-degree).
    in_adds: HashMap<u32, Vec<u32>>,
    /// Tombstoned base pairs (every parallel copy is dead).
    deleted: HashSet<(u32, u32)>,
    /// Weight overrides on live base pairs.
    patches: HashMap<(u32, u32), f32>,
    /// Cumulative append-only log of overlay edge inserts, the feed for
    /// [`IncrementalCComp`]. Entries are never removed — a later delete
    /// sets `dirty` instead, which retires the incremental path for this
    /// overlay generation.
    insert_log: Vec<(u32, u32, f32)>,
    /// True once any effective delete or vertex removal happened.
    dirty: bool,
}

impl DeltaOverlay {
    /// An empty overlay over `base_n` base vertices, at `seq`.
    pub fn empty(seq: u64, base_n: u32) -> Self {
        DeltaOverlay {
            seq,
            base_n,
            added_vertices: 0,
            removed: HashSet::default(),
            adds: HashMap::default(),
            in_adds: HashMap::default(),
            deleted: HashSet::default(),
            patches: HashMap::default(),
            insert_log: Vec::new(),
            dirty: false,
        }
    }

    /// Delta-sequence number: globally monotone across epochs, bumped once
    /// per applied batch, never reset by compaction.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Vertices in the base snapshot.
    pub fn base_n(&self) -> u32 {
        self.base_n
    }

    /// Total vertices in the overlay view (base + added; removed ids still
    /// count — they are retired, not recycled).
    pub fn n_total(&self) -> u32 {
        self.base_n + self.added_vertices
    }

    /// True when the overlay view equals the base snapshot exactly.
    pub fn is_empty(&self) -> bool {
        self.added_vertices == 0
            && self.removed.is_empty()
            && self.adds.is_empty()
            && self.deleted.is_empty()
            && self.patches.is_empty()
    }

    /// True once any effective delete or vertex removal happened —
    /// the signal that retires the insert-only incremental kernels.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Edges currently inserted by the overlay (live ones only).
    pub fn overlay_edges(&self) -> usize {
        self.adds.values().map(Vec::len).sum()
    }

    /// Tombstoned base pairs.
    pub fn deleted_edges(&self) -> usize {
        self.deleted.len()
    }

    /// The cumulative insert log (see [`IncrementalCComp`]).
    pub fn insert_log(&self) -> &[(u32, u32, f32)] {
        &self.insert_log
    }

    /// Approximate heap footprint in bytes — the "overlay bytes per edge"
    /// numerator the mutation bench reports.
    pub fn byte_size(&self) -> usize {
        let adds: usize = self.adds.values().map(|v| 12 + v.len() * 8).sum();
        let in_adds: usize = self.in_adds.values().map(|v| 12 + v.len() * 4).sum();
        adds + in_adds
            + self.removed.len() * 8
            + self.deleted.len() * 12
            + self.patches.len() * 16
            + self.insert_log.len() * 12
    }

    fn alive(&self, v: u32) -> bool {
        v < self.n_total() && !self.removed.contains(&v)
    }

    fn base_has_edge(&self, base: &ShardedGraph, u: u32, v: u32) -> bool {
        u < self.base_n && v < self.base_n && base.service().out().neighbors(u).contains(&v)
    }

    fn overlay_has_edge(&self, u: u32, v: u32) -> bool {
        self.adds
            .get(&u)
            .is_some_and(|row| row.iter().any(|&(t, _)| t == v))
    }

    /// The next overlay generation: this one with `batch` applied against
    /// `base` (the graph this overlay sits on) at the next delta-seq, and
    /// the receipt naming it under `epoch`. Even an all-no-op batch bumps
    /// `seq` — sequence numbers count batches, not effects.
    pub fn with_batch(
        &self,
        base: &ShardedGraph,
        batch: &[Mutation],
        epoch: u64,
    ) -> (DeltaOverlay, MutationReceipt) {
        let mut next = self.clone();
        let receipt = next.apply_batch(base, batch, epoch);
        (next, receipt)
    }

    /// [`DeltaOverlay::with_batch`] in place, in O(batch): only for an overlay
    /// nobody else can see (a clone, or one only `GraphStore::mutate` holds).
    pub(crate) fn apply_batch(
        &mut self,
        base: &ShardedGraph,
        batch: &[Mutation],
        epoch: u64,
    ) -> MutationReceipt {
        self.seq += 1;
        let applied = batch.iter().filter(|&&m| self.apply_one(base, m)).count();
        MutationReceipt {
            seq: self.seq,
            epoch,
            applied,
        }
    }

    /// Apply one mutation in place (only on an overlay nobody else can see:
    /// a visible overlay is immutable). Returns true when state changed.
    fn apply_one(&mut self, base: &ShardedGraph, m: Mutation) -> bool {
        match m {
            Mutation::AddVertex => {
                self.added_vertices += 1;
                true
            }
            Mutation::RemoveVertex { v } => {
                if !self.alive(v) {
                    return false;
                }
                self.removed.insert(v);
                // Purge overlay edges out of and into v so the adds maps
                // only ever hold live edges.
                if let Some(row) = self.adds.remove(&v) {
                    for (t, _) in row {
                        prune(&mut self.in_adds, t, |&s| s == v);
                    }
                }
                if let Some(sources) = self.in_adds.remove(&v) {
                    for s in sources {
                        if let Some(row) = self.adds.get_mut(&s) {
                            row.retain(|&(t, _)| t != v);
                            if row.is_empty() {
                                self.adds.remove(&s);
                            }
                        }
                    }
                }
                self.patches.retain(|&(a, b), _| a != v && b != v);
                self.dirty = true;
                true
            }
            Mutation::AddEdge { u, v, w } => {
                if u == v || !self.alive(u) || !self.alive(v) || self.deleted.contains(&(u, v)) {
                    return false;
                }
                if self.base_has_edge(base, u, v) {
                    // Pair already in the base: pure weight upsert.
                    return self.patches.insert((u, v), w) != Some(w);
                }
                if let Some(row) = self.adds.get_mut(&u) {
                    if let Some(slot) = row.iter_mut().find(|(t, _)| *t == v) {
                        let changed = slot.1 != w;
                        slot.1 = w;
                        return changed;
                    }
                }
                self.adds.entry(u).or_default().push((v, w));
                self.in_adds.entry(v).or_default().push(u);
                self.insert_log.push((u, v, w));
                true
            }
            Mutation::RemoveEdge { u, v } => {
                let mut changed = false;
                if self.overlay_has_edge(u, v) {
                    prune(&mut self.adds, u, |&(t, _)| t == v);
                    prune(&mut self.in_adds, v, |&s| s == u);
                    changed = true;
                }
                if self.base_has_edge(base, u, v) && self.deleted.insert((u, v)) {
                    self.patches.remove(&(u, v));
                    changed = true;
                }
                if changed {
                    self.dirty = true;
                }
                changed
            }
            Mutation::SetWeight { u, v, w } => {
                if let Some(row) = self.adds.get_mut(&u) {
                    if let Some(slot) = row.iter_mut().find(|(t, _)| *t == v) {
                        let changed = slot.1 != w;
                        slot.1 = w;
                        return changed;
                    }
                }
                if self.base_has_edge(base, u, v) && !self.deleted.contains(&(u, v)) {
                    return self.patches.insert((u, v), w) != Some(w);
                }
                false
            }
        }
    }

    /// Visit every live out-edge of `u` — base edges minus tombstones and
    /// dead endpoints (weights patched), then overlay inserts in insertion
    /// order. This is the one definition of "the current graph" every
    /// overlay read and [`DeltaOverlay::materialize`] share.
    pub fn for_each_live_out(&self, base: &ShardedGraph, u: u32, mut f: impl FnMut(u32, f32)) {
        if !self.alive(u) {
            return;
        }
        if u < self.base_n {
            let out = base.service().out();
            let weights = out.edge_weights(u);
            for (i, &t) in out.neighbors(u).iter().enumerate() {
                if self.removed.contains(&t) || self.deleted.contains(&(u, t)) {
                    continue;
                }
                let w = self.patches.get(&(u, t)).copied().unwrap_or(weights[i]);
                f(t, w);
            }
        }
        if let Some(row) = self.adds.get(&u) {
            for &(t, w) in row {
                f(t, w);
            }
        }
    }

    /// Visit the source of every live in-edge of `v` — base in-neighbours
    /// minus removed sources and tombstoned pairs, then overlay inserts.
    /// The mirror of [`DeltaOverlay::for_each_live_out`]: the two walk the
    /// same live edge set from either end.
    pub fn for_each_live_in(&self, base: &ShardedGraph, v: u32, mut f: impl FnMut(u32)) {
        self.any_live_in(base, v, |s, _| {
            f(s);
            false
        });
    }

    /// The one definition of a live in-edge, in its one breakable form —
    /// the fold, [`DeltaOverlay::for_each_live_in`] and the view's
    /// bottom-up `any_in` all walk it. `f` gets the source and, for a base
    /// copy, the weight the base stores for it (unpatched); `None` marks an
    /// overlay insert, whose weight lives in `adds`. Stops at the first
    /// call that returns true and reports whether one did.
    #[inline]
    fn any_live_in(
        &self,
        base: &ShardedGraph,
        v: u32,
        mut f: impl FnMut(u32, Option<f32>) -> bool,
    ) -> bool {
        if !self.alive(v) {
            return false;
        }
        if v < self.base_n {
            let inc = base.service().bi().inc();
            for (&s, &w) in inc.neighbors(v).iter().zip(inc.edge_weights(v)) {
                if !self.removed.contains(&s) && !self.deleted.contains(&(s, v)) && f(s, Some(w)) {
                    return true;
                }
            }
        }
        self.in_adds
            .get(&v)
            .is_some_and(|sources| sources.iter().any(|&s| f(s, None)))
    }

    /// Point query: `(out, in)` degree of `v` through the overlay —
    /// identical to `materialize(..).degree(v)`, but O(degree) instead of
    /// O(n + m). `None` when `v` is outside the overlay vertex range.
    pub fn degree(&self, base: &ShardedGraph, v: u32) -> Option<(u32, u32)> {
        if v >= self.n_total() {
            return None;
        }
        if self.is_empty() {
            return base.degree(v);
        }
        let (mut out, mut inc) = (0u32, 0u32);
        self.for_each_live_out(base, v, |_, _| out += 1);
        self.for_each_live_in(base, v, |_| inc += 1);
        Some((out, inc))
    }

    /// Point query: distinct vertices within `hops` out-steps of `source`
    /// through the overlay (including the source). Matches
    /// `materialize(..).k_hop(source, hops)` exactly.
    pub fn k_hop(&self, base: &ShardedGraph, source: u32, hops: u32) -> u64 {
        if self.is_empty() {
            return base.k_hop(source, hops);
        }
        k_hop_walk(self.n_total() as usize, source, hops, |u, reach| {
            self.for_each_live_out(base, u, |t, _| reach.visit(t));
        })
    }

    /// [`DeltaOverlay::fold`] without the counts.
    pub fn materialize(&self, base: &ShardedGraph, num_shards: usize) -> ShardedGraph {
        OverlayView::new(base, self).to_graph(num_shards).0
    }

    /// Fold the overlay into a fresh graph over `n_total` vertices —
    /// compaction's step, and no query's. The rows the live graph's
    /// [`PatchedCsr`] faces would re-derive are derived the same way, and
    /// every other row is copied in runs straight from the base arrays. So
    /// the cost follows the write, not the graph, and the result is array
    /// for array a from-scratch build of the live edge list, identity ids
    /// included.
    pub fn fold(&self, base: &ShardedGraph, num_shards: usize) -> (ShardedGraph, FoldStats) {
        OverlayView::new(base, self).to_graph(num_shards)
    }

    /// Structural digest of the overlay view — must equal
    /// [`structural_digest`] of both the materialized graph and a graph
    /// rebuilt from scratch with the same mutations. This is the oracle's
    /// comparison key.
    pub fn live_digest(&self, base: &ShardedGraph) -> u64 {
        digest_rows(self.n_total(), |u, row| {
            self.for_each_live_out(base, u, |t, w| row.push((t, w)))
        })
    }
}

/// How much of the graph one [`DeltaOverlay::fold`] rewrote, in rows of the
/// three CSRs a [`ShardedGraph`] holds (out, in, undirected): a row is
/// either re-derived through the overlay or copied from the base inside a
/// run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Out rows re-derived.
    pub out_rows_rebuilt: u64,
    /// In (transpose) rows re-derived.
    pub in_rows_rebuilt: u64,
    /// Undirected rows re-derived.
    pub sym_rows_rebuilt: u64,
    /// Rows of any of the three copied as they stood.
    pub rows_copied: u64,
}

impl FoldStats {
    /// Rows re-derived across the three CSRs.
    pub fn rows_rebuilt(&self) -> u64 {
        self.out_rows_rebuilt + self.in_rows_rebuilt + self.sym_rows_rebuilt
    }
}

/// One bit per row: set while a view is built, then only read.
#[derive(Clone)]
struct Marks(Vec<u64>);

impl Marks {
    fn new(n: u32) -> Self {
        Marks(vec![0; (n as usize).div_ceil(64)])
    }

    #[inline]
    fn set(&mut self, u: u32) {
        self.0[u as usize / 64] |= 1 << (u % 64);
    }

    #[inline]
    fn get(&self, u: u32) -> bool {
        self.0[u as usize / 64] >> (u % 64) & 1 != 0
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| w.count_ones() as u64).sum()
    }

    fn or(&self, other: &Marks) -> Marks {
        Marks(self.0.iter().zip(&other.0).map(|(a, b)| a | b).collect())
    }
}

/// One row face of the live graph: `base` with the marked rows re-derived
/// into a side table, every other row the base slice. Building it costs
/// O(n/64 + the marked rows' edges) at ~6 ns an edge: worth it for kernels
/// that revisit rows, not for a traversal. Ids are the identity, as in a
/// fold's [`Csr::from_rows`].
pub struct PatchedCsr<'a> {
    base: &'a Csr,
    n: u32,
    marks: Marks,
    /// Marked rows before each word of `marks`: a marked row's side-table
    /// index is its word's rank plus the marked bits below it.
    rank: Vec<u32>,
    offsets: Vec<u64>,
    col: Vec<u32>,
    weights: Vec<f32>,
}

impl<'a> PatchedCsr<'a> {
    /// Derive the marked rows, ascending, as `derive` appends them.
    fn new(base: &'a Csr, n: u32, marks: Marks, mut derive: impl FnMut(u32, &mut Row)) -> Self {
        let mut rank = Vec::with_capacity(marks.0.len());
        let (mut offsets, mut row) = (vec![0], (Vec::new(), Vec::new()));
        for (i, &word) in marks.0.iter().enumerate() {
            rank.push(offsets.len() as u32 - 1);
            let mut bits = word;
            while bits != 0 {
                derive(64 * i as u32 + bits.trailing_zeros(), &mut row);
                offsets.push(row.0.len() as u64);
                bits &= bits - 1;
            }
        }
        let (col, weights) = row;
        PatchedCsr {
            base,
            n,
            marks,
            rank,
            offsets,
            col,
            weights,
        }
    }

    /// Where `u`'s row sits in the side table, if it was derived.
    #[inline]
    fn side(&self, u: u32) -> Option<std::ops::Range<usize>> {
        let (word, bit) = (self.marks.0[u as usize / 64], u % 64);
        (word >> bit & 1 != 0).then(|| {
            let below = (word & ((1 << bit) - 1)).count_ones();
            let i = (self.rank[u as usize / 64] + below) as usize;
            self.offsets[i] as usize..self.offsets[i + 1] as usize
        })
    }
}

impl Rows for PatchedCsr<'_> {
    fn num_vertices(&self) -> usize {
        self.n as usize
    }

    #[inline]
    fn row(&self, u: u32) -> &[u32] {
        self.side(u)
            .map_or_else(|| self.base.neighbors(u), |side| &self.col[side])
    }

    #[inline]
    fn row_weights(&self, u: u32) -> &[f32] {
        self.side(u)
            .map_or_else(|| self.base.edge_weights(u), |side| &self.weights[side])
    }

    fn id_of(&self, u: u32) -> VertexId {
        u as VertexId
    }
}

/// Columns and weights a derived row is appended to.
type Row = (Vec<u32>, Vec<f32>);

/// The fold's copy of one face: a CSR over `n` vertices (identity ids) that
/// is `base` with the marked rows derived straight into it. Each maximal
/// run of unmarked rows is one slice copy of `base`'s column and weight
/// arrays with its offsets shifted. Every row at or past `base`'s vertex
/// count must be marked; `grown` bounds the edges the overlay adds.
fn patch_rows(
    base: &Csr,
    n: u32,
    marks: &Marks,
    grown: usize,
    mut derive: impl FnMut(u32, &mut Row),
) -> Csr {
    let base_offsets = base.row_offsets();
    let hint = base.num_edges() + grown;
    let mut row_offsets = Vec::with_capacity(n as usize + 1);
    let mut row = (Vec::with_capacity(hint), Vec::with_capacity(hint));
    row_offsets.push(0u64);
    let mut u = 0;
    while u < n {
        if marks.get(u) {
            derive(u, &mut row);
            row_offsets.push(row.0.len() as u64);
            u += 1;
            continue;
        }
        let start = u as usize;
        while u < n && !marks.get(u) {
            u += 1;
        }
        let (lo, at) = (base_offsets[start], row.0.len() as u64);
        let edges = lo as usize..base_offsets[u as usize] as usize;
        row.0.extend_from_slice(&base.col_indices()[edges.clone()]);
        row.1.extend_from_slice(&base.weight_values()[edges]);
        row_offsets.extend(
            base_offsets[start + 1..=u as usize]
                .iter()
                .map(|&o| o - lo + at),
        );
    }
    Csr::from_rows(row_offsets, row.0, row.1)
}

/// The live undirected row of `x`, from its live out and in rows: their
/// sorted, deduplicated union minus `x` itself, weights 1.0 — what
/// `symmetrize` gives. `both` is scratch.
fn derive_sym(x: u32, out: &impl Rows, inc: &impl Rows, both: &mut Vec<u32>, row: &mut Row) {
    both.clear();
    both.extend(out.row(x).iter().chain(inc.row(x)));
    both.retain(|&y| y != x);
    both.sort_unstable();
    both.dedup();
    row.0.extend_from_slice(both);
    row.1.resize(row.0.len(), 1.0);
}

/// The live graph — one epoch's base CSR read through a [`DeltaOverlay`] —
/// as the [`ServiceView`] every workload kernel runs on. Building it costs
/// O(n/64 + |overlay|): two bitmaps mark the rows whose live out- / in-
/// adjacency (neighbours, not weights) differs from the base, every row
/// past `base_n` included. A traversal walks an unmarked row as the base
/// slice and a marked one through the overlay's hash maps; kernels that
/// revisit rows read [`PatchedCsr`] faces, whose weighted out and in rows
/// also re-derive every row holding a patched weight. The marks live here
/// because a visible overlay is cloned per write ([`DeltaOverlay::with_batch`]).
pub struct OverlayView<'a> {
    base: &'a ShardedGraph,
    overlay: &'a DeltaOverlay,
    out: Marks,
    inc: Marks,
}

impl<'a> OverlayView<'a> {
    /// View `base` (the graph the overlay sits on) through `overlay`.
    pub fn new(base: &'a ShardedGraph, overlay: &'a DeltaOverlay) -> Self {
        let (bi, n) = (base.service().bi(), overlay.n_total());
        let (mut out, mut inc) = (Marks::new(n), Marks::new(n));
        for v in overlay.base_n..n {
            out.set(v);
            inc.set(v);
        }
        for &(u, v) in &overlay.deleted {
            out.set(u);
            inc.set(v);
        }
        overlay.adds.keys().for_each(|&u| out.set(u));
        overlay.in_adds.keys().for_each(|&v| inc.set(v));
        // A removed vertex empties its own rows and drops out of every
        // base neighbour's row on the other side.
        for &v in &overlay.removed {
            out.set(v);
            inc.set(v);
            if v < overlay.base_n {
                bi.inc().neighbors(v).iter().for_each(|&u| out.set(u));
                bi.out().neighbors(v).iter().for_each(|&w| inc.set(w));
            }
        }
        OverlayView {
            base,
            overlay,
            out,
            inc,
        }
    }

    /// The out and in rows the weighted faces re-derive: the touched ones
    /// plus, since they carry weights, both ends of every patched pair.
    fn weighted_marks(&self) -> (Marks, Marks) {
        let (mut out, mut inc) = (self.out.clone(), self.inc.clone());
        for &(u, v) in self.overlay.patches.keys() {
            out.set(u);
            inc.set(v);
        }
        (out, inc)
    }

    /// The live out row of `u`: base edges in base order, weights patched,
    /// then overlay inserts in insertion order.
    fn derive_out(&self, u: u32, row: &mut Row) {
        self.overlay.for_each_live_out(self.base, u, |t, w| {
            row.0.push(t);
            row.1.push(w);
        })
    }

    /// The live in row of `v`, sources ascending as a transpose lists them.
    /// `pairs` is scratch.
    fn derive_in(&self, v: u32, pairs: &mut Vec<(u32, f32)>, row: &mut Row) {
        let ov = self.overlay;
        pairs.clear();
        ov.any_live_in(self.base, v, |s, stored| {
            let w = match stored {
                Some(w) => ov.patches.get(&(s, v)).copied().unwrap_or(w),
                None => {
                    ov.adds[&s]
                        .iter()
                        .find(|&&(t, _)| t == v)
                        .expect("in_adds mirrors adds")
                        .1
                }
            };
            pairs.push((s, w));
            false
        });
        // Base sources arrive ascending, the overlay's after them. An
        // overlay pair is never a base pair, so the stable sort keeps
        // parallel base copies in base order.
        pairs.sort_by_key(|&(s, _)| s);
        row.0.extend(pairs.iter().map(|&(s, _)| s));
        row.1.extend(pairs.iter().map(|&(_, w)| w));
    }

    /// [`DeltaOverlay::fold`]'s body. The faces' marks and row derivations,
    /// but each derived row goes straight into the next epoch's arrays
    /// between copied runs: through a side table, every compaction would
    /// copy it once more. Recorded as a `compact.fold` phase whose payload
    /// is the rows re-derived.
    fn to_graph(&self, num_shards: usize) -> (ShardedGraph, FoldStats) {
        static CODE: OnceLock<u16> = OnceLock::new();
        let phase = recorder::phase(*CODE.get_or_init(|| recorder::intern("compact.fold")), 0);
        let (service, n) = (self.base.service(), self.overlay.n_total());
        let grown = 2 * self.overlay.overlay_edges();
        let (out_marks, in_marks) = self.weighted_marks();
        let out = patch_rows(service.out(), n, &out_marks, grown, |u, row| {
            self.derive_out(u, row)
        });
        let mut pairs = Vec::new();
        let inc = patch_rows(service.bi().inc(), n, &in_marks, grown, |v, row| {
            self.derive_in(v, &mut pairs, row)
        });
        let sym_marks = out_marks.or(&in_marks);
        let mut both = Vec::new();
        let sym = patch_rows(service.sym(), n, &sym_marks, grown, |x, row| {
            derive_sym(x, &out, &inc, &mut both, row)
        });
        let rebuilt = [&out_marks, &in_marks, &sym_marks].map(Marks::count);
        let stats = FoldStats {
            out_rows_rebuilt: rebuilt[0],
            in_rows_rebuilt: rebuilt[1],
            sym_rows_rebuilt: rebuilt[2],
            rows_copied: 3 * n as u64 - rebuilt.iter().sum::<u64>(),
        };
        let bi = BiCsr::from_parts(out, inc);
        let graph = ShardedGraph::from_service(ServiceGraph::from_parts(bi, sym), num_shards);
        phase.close_with(stats.rows_rebuilt());
        (graph, stats)
    }
}

impl ServiceView for OverlayView<'_> {
    type Traversal = Self;
    type Rows<'r>
        = PatchedCsr<'r>
    where
        Self: 'r;

    fn traversal(&self) -> &Self {
        self
    }

    fn out_rows(&self) -> PatchedCsr<'_> {
        let out = self.weighted_marks().0;
        let n = self.overlay.n_total();
        PatchedCsr::new(self.base.service().out(), n, out, |u, row| {
            self.derive_out(u, row)
        })
    }

    fn in_rows(&self) -> PatchedCsr<'_> {
        let (inc, mut pairs) = (self.weighted_marks().1, Vec::new());
        let n = self.overlay.n_total();
        PatchedCsr::new(self.base.service().bi().inc(), n, inc, |v, row| {
            self.derive_in(v, &mut pairs, row)
        })
    }

    fn sym_rows(&self) -> PatchedCsr<'_> {
        let (out, inc) = (self.out_rows(), self.in_rows());
        let marks = out.marks.or(&inc.marks);
        let mut both = Vec::new();
        let sym = self.base.service().sym();
        PatchedCsr::new(sym, self.overlay.n_total(), marks, |x, row| {
            derive_sym(x, &out, &inc, &mut both, row)
        })
    }
}

impl Adjacency for OverlayView<'_> {
    fn num_vertices(&self) -> usize {
        self.overlay.n_total() as usize
    }

    /// An upper bound: tombstoned base edges are not subtracted.
    fn num_edges(&self) -> usize {
        self.base.num_edges() + self.overlay.overlay_edges()
    }

    /// Exact on an untouched row; on a touched one an O(1) upper bound
    /// (base edges the overlay killed still count). Counting the live row
    /// instead costs its hash probes again on every call, and the kernels
    /// call this once per discovered vertex.
    #[inline]
    fn out_degree(&self, u: u32) -> u32 {
        let mut d = 0;
        if u < self.overlay.base_n {
            d = self.base.service().out().degree(u);
        }
        if self.out.get(u) {
            d += self.overlay.adds.get(&u).map_or(0, |row| row.len() as u32);
        }
        d
    }

    #[inline]
    fn for_each_out(&self, u: u32, mut f: impl FnMut(u32)) {
        if self.out.get(u) {
            self.overlay.for_each_live_out(self.base, u, |t, _| f(t));
        } else {
            self.base.service().out().for_each_out(u, f);
        }
    }
}

impl InAdjacency for OverlayView<'_> {
    /// Like [`OverlayView::out_degree`]: an upper bound on a touched row.
    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        let mut d = 0;
        if v < self.overlay.base_n {
            d = self.base.service().bi().in_degree(v);
        }
        if self.inc.get(v) {
            d += self
                .overlay
                .in_adds
                .get(&v)
                .map_or(0, |row| row.len() as u32);
        }
        d
    }

    #[inline]
    fn any_in(&self, v: u32, mut f: impl FnMut(u32) -> bool) -> bool {
        if self.inc.get(v) {
            self.overlay.any_live_in(self.base, v, |s, _| f(s))
        } else {
            self.base.service().bi().any_in(v, f)
        }
    }
}

/// Remove matching entries from one keyed row, dropping the key when the
/// row empties.
fn prune<T>(map: &mut HashMap<u32, Vec<T>>, key: u32, mut dead: impl FnMut(&T) -> bool) {
    if let Some(row) = map.get_mut(&key) {
        row.retain(|e| !dead(e));
        if row.is_empty() {
            map.remove(&key);
        }
    }
}

/// Order-independent structural digest of a sharded graph: FNV-1a over
/// `(u, sorted [(v, weight bits)])` rows. Two graphs digest equal iff they
/// have the same vertex count and the same edge multiset with bit-equal
/// weights — regardless of within-row edge order.
pub fn structural_digest(g: &ShardedGraph) -> u64 {
    let out = g.service().out();
    digest_rows(g.num_vertices() as u32, |u, row| {
        for (i, &t) in out.neighbors(u).iter().enumerate() {
            row.push((t, out.edge_weights(u)[i]));
        }
    })
}

fn digest_rows(n: u32, mut fill: impl FnMut(u32, &mut Vec<(u32, f32)>)) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let eat = |h: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(PRIME);
        }
    };
    eat(&mut h, &n.to_le_bytes());
    let mut row: Vec<(u32, f32)> = Vec::new();
    for u in 0..n {
        row.clear();
        fill(u, &mut row);
        row.sort_unstable_by_key(|a| (a.0, a.1.to_bits()));
        eat(&mut h, &u.to_le_bytes());
        for &(t, w) in &row {
            eat(&mut h, &t.to_le_bytes());
            eat(&mut h, &w.to_bits().to_le_bytes());
        }
    }
    h
}

/// A bare overlay that accepts batches: one base, one epoch, no engine.
/// The write oracle and the benches replay mutations through it; the
/// engine's writes go through [`GraphStore::mutate`](crate::store::GraphStore::mutate)
/// instead, which pairs the overlay with its base. Both apply a batch with
/// [`DeltaOverlay::with_batch`].
///
/// One mutex guards the current overlay `Arc`. Writers clone the overlay,
/// apply their batch, and swap — readers holding the old `Arc` keep a
/// consistent view for free.
pub struct MutationBuffer {
    epoch: u64,
    current: Mutex<Arc<DeltaOverlay>>,
}

impl MutationBuffer {
    /// A buffer whose first overlay is empty over `base_n` vertices, at
    /// sequence 0; its receipts name `epoch`.
    pub fn new(epoch: u64, base_n: u32) -> Self {
        MutationBuffer {
            epoch,
            current: Mutex::new(Arc::new(DeltaOverlay::empty(0, base_n))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<DeltaOverlay>> {
        self.current.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current overlay (cheap: one mutex-guarded `Arc` clone).
    pub fn current(&self) -> Arc<DeltaOverlay> {
        Arc::clone(&self.lock())
    }

    /// Fold `batch` into a new overlay generation against `base` (the
    /// graph this buffer's overlays sit on); see
    /// [`DeltaOverlay::with_batch`].
    pub fn apply(&self, base: &ShardedGraph, batch: &[Mutation]) -> MutationReceipt {
        let mut guard = self.lock();
        let (next, receipt) = guard.with_batch(base, batch, self.epoch);
        *guard = Arc::new(next);
        receipt
    }
}

/// Connected-component labels maintained incrementally across edge
/// inserts.
///
/// Seeded from one full ccomp run on the base graph (`parent[v] =
/// base_label[v]`, which self-parents every component's minimum id), each
/// [`IncrementalCComp::advance`] unions only the overlay's *new* insert-log
/// entries. Because unions always attach the larger root below the
/// smaller, `find(v)` stays "minimum dense id in v's component" — the
/// exact labeling the parallel kernel produces — so
/// [`IncrementalCComp::labels`] is bit-identical to a full recompute on
/// the materialized graph, at O(inserts · α) instead of O(n + m).
///
/// Inserts only: deletes can split components, which union-find cannot
/// express. The engine consults [`DeltaOverlay::dirty`] and falls back to
/// the full recompute the moment any delete lands.
pub struct IncrementalCComp {
    parent: Vec<u32>,
    applied: usize,
}

impl IncrementalCComp {
    /// Seed from the base labeling (`labels[v]` = min id in v's
    /// component).
    pub fn new(base_labels: &[u32]) -> Self {
        IncrementalCComp {
            parent: base_labels.to_vec(),
            applied: 0,
        }
    }

    /// Insert-log entries already folded in.
    pub fn applied(&self) -> usize {
        self.applied
    }

    fn ensure(&mut self, id: u32) {
        while self.parent.len() <= id as usize {
            self.parent.push(self.parent.len() as u32);
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut v = v as usize;
        while self.parent[v] as usize != v {
            let grand = self.parent[self.parent[v] as usize];
            self.parent[v] = grand;
            v = grand as usize;
        }
        v as u32
    }

    /// Union every insert-log entry past what was already applied.
    /// `log` must be a cumulative log that only grows (the overlay's
    /// [`DeltaOverlay::insert_log`]).
    pub fn advance(&mut self, log: &[(u32, u32, f32)]) {
        for &(u, v, _) in &log[self.applied.min(log.len())..] {
            self.ensure(u.max(v));
            let (ru, rv) = (self.find(u), self.find(v));
            if ru != rv {
                // Larger root under smaller: roots stay component minima.
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                self.parent[hi as usize] = lo;
            }
        }
        self.applied = log.len();
    }

    /// The full labeling over `n_total` vertices (ids beyond the seeded
    /// range label themselves, as isolated vertices do).
    pub fn labels(&mut self, n_total: usize) -> Vec<u32> {
        if n_total > 0 {
            self.ensure(n_total as u32 - 1);
        }
        (0..n_total as u32).map(|v| self.find(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::rng::Rng;
    use graphbig_datagen::Dataset;
    use graphbig_runtime::{CancelToken, ThreadPool};
    use graphbig_workloads::parallel;

    use crate::test_common::{assert_same_graph, reference_fold};

    fn base(n: usize) -> ShardedGraph {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        ShardedGraph::build(Csr::from_graph(&g), 4)
    }

    /// Rebuild "from scratch": replay the same mutation stream through a
    /// *fresh* buffer and materialize — the reference the overlay view
    /// must match bit-for-bit.
    fn rebuilt(b: &ShardedGraph, muts: &[Mutation]) -> ShardedGraph {
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        buf.apply(b, muts);
        buf.current().materialize(b, 4)
    }

    fn seeded_mutations(b: &ShardedGraph, seed: u64, count: usize) -> Vec<Mutation> {
        let n = b.num_vertices() as u32;
        let mut rng = Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| match rng.u64_below(10) {
                0 => Mutation::AddVertex,
                1 => Mutation::RemoveVertex {
                    v: rng.u64_below(n as u64 + 4) as u32,
                },
                2 | 3 => Mutation::RemoveEdge {
                    u: rng.u64_below(n as u64) as u32,
                    v: rng.u64_below(n as u64) as u32,
                },
                4 => Mutation::SetWeight {
                    u: rng.u64_below(n as u64) as u32,
                    v: rng.u64_below(n as u64) as u32,
                    w: rng.u64_below(100) as f32,
                },
                _ => Mutation::AddEdge {
                    u: rng.u64_below(n as u64 + 4) as u32,
                    v: rng.u64_below(n as u64 + 4) as u32,
                    w: rng.u64_below(100) as f32 + 0.5,
                },
            })
            .collect()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let b = base(120);
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        let ov = buf.current();
        assert!(ov.is_empty());
        assert_eq!(ov.seq(), 0);
        assert_eq!(ov.n_total() as usize, b.num_vertices());
        for v in [0u32, 7, 119, 120] {
            assert_eq!(ov.degree(&b, v), b.degree(v), "vertex {v}");
        }
        assert_eq!(ov.k_hop(&b, 3, 2), b.k_hop(3, 2));
        assert_eq!(ov.live_digest(&b), structural_digest(&b));
        assert_eq!(
            structural_digest(&ov.materialize(&b, 4)),
            structural_digest(&b)
        );
    }

    #[test]
    fn edge_semantics_are_set_based_and_tombstone_wins() {
        // 0 -> 1 -> 2, 0 -> 2.
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 1.0), (0, 2, 1.0)];
        let b = ShardedGraph::build(Csr::from_edges(3, &edges), 2);
        let buf = MutationBuffer::new(1, 3);

        // Insert a fresh edge, then delete a base edge.
        let r = buf.apply(
            &b,
            &[
                Mutation::AddEdge { u: 2, v: 0, w: 5.0 },
                Mutation::RemoveEdge { u: 0, v: 1 },
            ],
        );
        assert_eq!((r.seq, r.applied), (1, 2));
        let ov = buf.current();
        assert_eq!(ov.degree(&b, 0), Some((1, 1))); // out: 0->2; in: 2->0
        assert_eq!(ov.degree(&b, 1), Some((1, 0))); // 0->1 gone
        assert_eq!(ov.k_hop(&b, 0, 1), 2); // {0, 2}

        // Tombstone wins: re-adding the deleted pair is a no-op; adding an
        // existing base pair is a weight patch, not a duplicate.
        let r = buf.apply(
            &b,
            &[
                Mutation::AddEdge { u: 0, v: 1, w: 9.0 },
                Mutation::AddEdge { u: 0, v: 2, w: 7.0 },
                Mutation::AddEdge { u: 2, v: 2, w: 1.0 }, // self loop: no-op
            ],
        );
        assert_eq!(r.applied, 1, "only the weight patch lands");
        let ov = buf.current();
        assert_eq!(ov.degree(&b, 1), Some((1, 0)));
        assert_eq!(ov.degree(&b, 0), Some((1, 1)));

        // The overlay view equals a from-scratch rebuild at every step.
        let muts = [
            Mutation::AddEdge { u: 2, v: 0, w: 5.0 },
            Mutation::RemoveEdge { u: 0, v: 1 },
            Mutation::AddEdge { u: 0, v: 1, w: 9.0 },
            Mutation::AddEdge { u: 0, v: 2, w: 7.0 },
            Mutation::AddEdge { u: 2, v: 2, w: 1.0 },
        ];
        assert_eq!(ov.live_digest(&b), structural_digest(&rebuilt(&b, &muts)));
    }

    #[test]
    fn vertex_removal_kills_incident_edges_and_retires_the_id() {
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 2.0), (2, 0, 3.0)];
        let b = ShardedGraph::build(Csr::from_edges(3, &edges), 2);
        let buf = MutationBuffer::new(1, 3);
        buf.apply(
            &b,
            &[
                Mutation::AddVertex, // id 3
                Mutation::AddEdge { u: 3, v: 1, w: 1.0 },
                Mutation::RemoveVertex { v: 1 },
            ],
        );
        let ov = buf.current();
        assert_eq!(ov.n_total(), 4, "removed ids are retired, not recycled");
        assert_eq!(ov.degree(&b, 1), Some((0, 0)));
        assert_eq!(ov.degree(&b, 0), Some((0, 1))); // 0->1 dead, 2->0 lives
        assert_eq!(ov.degree(&b, 3), Some((0, 0))); // its overlay edge died too
        assert_eq!(ov.k_hop(&b, 1, 5), 1, "removed vertex sees only itself");
        // Mutating the dead vertex again is a no-op.
        let r = buf.apply(
            &b,
            &[
                Mutation::RemoveVertex { v: 1 },
                Mutation::AddEdge { u: 0, v: 1, w: 4.0 },
            ],
        );
        assert_eq!(r.applied, 0);
        let muts = [
            Mutation::AddVertex,
            Mutation::AddEdge { u: 3, v: 1, w: 1.0 },
            Mutation::RemoveVertex { v: 1 },
        ];
        assert_eq!(
            buf.current().live_digest(&b),
            structural_digest(&rebuilt(&b, &muts))
        );
    }

    #[test]
    fn seeded_stream_matches_rebuild_oracle_at_every_prefix() {
        let b = base(150);
        let muts = seeded_mutations(&b, 0xD5EA, 400);
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        for (i, chunk) in muts.chunks(40).enumerate() {
            buf.apply(&b, chunk);
            let ov = buf.current();
            let reference = rebuilt(&b, &muts[..(i + 1) * 40]);
            assert_eq!(
                ov.live_digest(&b),
                structural_digest(&reference),
                "prefix {} diverged from rebuild",
                (i + 1) * 40
            );
            assert_eq!(
                structural_digest(&ov.materialize(&b, 4)),
                structural_digest(&reference),
                "materialization diverged at prefix {}",
                (i + 1) * 40
            );
            // The patched fold is the edge-list fold, array for array.
            for shards in [1, 2, 8] {
                assert_same_graph(
                    &ov.materialize(&b, shards),
                    &reference_fold(&b, &ov, shards),
                    &format!("prefix {}, {shards} shards", (i + 1) * 40),
                );
            }
            // Point queries agree with the reference graph everywhere.
            for v in (0..ov.n_total()).step_by(17) {
                assert_eq!(ov.degree(&b, v), reference.degree(v), "degree({v})");
                assert_eq!(ov.k_hop(&b, v, 2), reference.k_hop(v, 2), "k_hop({v})");
            }
        }
    }

    /// 0 -> 1 (twice, weights 1 and 2), 0 -> 2, 1 -> 2, 2 -> 3, 3 -> 0, and
    /// an isolated 4. Identity ids, so a fold of the empty overlay is `==`.
    fn small_base() -> ShardedGraph {
        let edges = [
            (0u32, 1u32, 1.0f32),
            (0, 2, 1.0),
            (0, 1, 2.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
        ];
        ShardedGraph::build(Csr::from_edges(5, &edges), 2)
    }

    /// Apply `muts` over `b`, fold both ways, assert they agree, and hand
    /// back the patched fold with its counts.
    fn folded(b: &ShardedGraph, muts: &[Mutation]) -> (ShardedGraph, FoldStats, Arc<DeltaOverlay>) {
        let buf = MutationBuffer::new(1, b.num_vertices() as u32);
        buf.apply(b, muts);
        let ov = buf.current();
        let (g, stats) = ov.fold(b, 2);
        assert_same_graph(&g, &reference_fold(b, &ov, 2), "patched vs reference fold");
        assert_eq!(ov.live_digest(b), structural_digest(&g));
        (g, stats, ov)
    }

    #[test]
    fn fold_of_an_empty_overlay_is_the_base() {
        let b = small_base();
        let (g, stats, _) = folded(&b, &[]);
        assert_same_graph(&g, &b, "empty overlay");
        assert_eq!((stats.rows_rebuilt(), stats.rows_copied), (0, 15));
    }

    #[test]
    fn fold_writes_a_weight_patch_into_the_out_row_and_the_in_row() {
        let b = small_base();
        let (g, stats, ov) = folded(&b, &[Mutation::SetWeight { u: 2, v: 3, w: 9.0 }]);
        assert!(!ov.dirty() && ov.overlay_edges() == 0);
        assert_eq!(g.service().out().edge_weights(2), &[9.0]);
        assert_eq!(g.service().bi().inc().edge_weights(3), &[9.0]);
        // Out row 2 and in row 3 — and the two undirected rows that read
        // them — are the only rows re-derived.
        assert_eq!(
            (
                stats.out_rows_rebuilt,
                stats.in_rows_rebuilt,
                stats.sym_rows_rebuilt
            ),
            (1, 1, 2)
        );
        // A patch reaches every parallel copy of its pair.
        let (g, _, _) = folded(&b, &[Mutation::SetWeight { u: 0, v: 1, w: 5.0 }]);
        assert_eq!(g.service().out().edge_weights(0), &[5.0, 1.0, 5.0]);
        assert_eq!(g.service().bi().inc().edge_weights(1), &[5.0, 5.0]);
    }

    #[test]
    fn fold_drops_every_parallel_copy_of_a_removed_pair() {
        let b = small_base();
        let (g, stats, _) = folded(&b, &[Mutation::RemoveEdge { u: 0, v: 1 }]);
        assert_eq!(g.service().out().neighbors(0), &[2]);
        assert!(g.service().bi().inc().neighbors(1).is_empty());
        assert_eq!(g.service().sym().neighbors(1), &[2]);
        assert_eq!((stats.out_rows_rebuilt, stats.in_rows_rebuilt), (1, 1));
    }

    #[test]
    fn fold_wires_an_added_vertex_both_ways() {
        let b = small_base();
        let (g, _, _) = folded(
            &b,
            &[
                Mutation::AddVertex, // id 5
                Mutation::AddEdge { u: 5, v: 0, w: 3.0 },
                Mutation::AddEdge { u: 3, v: 5, w: 4.0 },
                // A second in-edge of 0 from below its base source 3: the
                // in row must come out ascending, not in arrival order.
                Mutation::AddEdge { u: 1, v: 0, w: 6.0 },
            ],
        );
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.service().out().neighbors(5), &[0]);
        assert_eq!(g.service().out().neighbors(3), &[0, 5]);
        let inc = g.service().bi().inc();
        assert_eq!(
            (inc.neighbors(0), inc.edge_weights(0)),
            (&[1, 3, 5][..], &[6.0, 1.0, 3.0][..])
        );
        assert_eq!(
            (inc.neighbors(5), inc.edge_weights(5)),
            (&[3][..], &[4.0][..])
        );
        assert_eq!(g.service().sym().neighbors(5), &[0, 3]);
        assert_eq!(g.shards().last().unwrap().end(), 6);
    }

    #[test]
    fn fold_of_a_removed_hub_shrinks_every_neighbours_opposite_row() {
        let b = base(150);
        let out = b.service().out();
        let hub = (0..150u32).max_by_key(|&v| out.degree(v)).unwrap();
        let (g, stats, _) = folded(&b, &[Mutation::RemoveVertex { v: hub }]);
        assert_eq!(g.degree(hub), Some((0, 0)));
        assert!(g.service().sym().neighbors(hub).is_empty());
        for v in 0..150u32 {
            assert!(
                !g.service().out().neighbors(v).contains(&hub),
                "out row {v}"
            );
            assert!(
                !g.service().bi().inc().neighbors(v).contains(&hub),
                "in row {v}"
            );
            assert!(
                !g.service().sym().neighbors(v).contains(&hub),
                "undirected row {v}"
            );
        }
        // The hub's own two rows, plus one row per distinct neighbour on
        // the other side; nothing else.
        let distinct = |row: &[u32]| {
            row.iter()
                .filter(|&&x| x != hub)
                .collect::<HashSet<_>>()
                .len()
        };
        assert_eq!(
            stats.out_rows_rebuilt as usize,
            1 + distinct(b.service().bi().inc().neighbors(hub))
        );
        assert_eq!(
            stats.in_rows_rebuilt as usize,
            1 + distinct(out.neighbors(hub))
        );
    }

    #[test]
    fn fold_of_adds_that_were_all_removed_again_is_the_base() {
        let b = small_base();
        let (g, _, ov) = folded(
            &b,
            &[
                Mutation::AddEdge { u: 4, v: 0, w: 1.0 },
                Mutation::AddEdge { u: 1, v: 3, w: 1.0 },
                Mutation::RemoveEdge { u: 4, v: 0 },
                Mutation::RemoveEdge { u: 1, v: 3 },
            ],
        );
        assert!(
            ov.dirty() && ov.is_empty(),
            "nothing left but the dirty bit"
        );
        assert_same_graph(&g, &b, "adds removed again");
    }

    #[test]
    fn fold_of_a_fold_matches_a_rebuild_from_scratch() {
        let b = base(150);
        let first = seeded_mutations(&b, 0xF01D, 120);
        let (g1, _, ov1) = folded(&b, &first);
        // Compaction publishes g1; the next overlay's base is the fold.
        let second = seeded_mutations(&g1, 0xF02D, 120);
        let (g2, _, _) = folded(&g1, &second);
        let r1 = reference_fold(&b, &ov1, 2);
        let buf = MutationBuffer::new(2, r1.num_vertices() as u32);
        buf.apply(&r1, &second);
        assert_same_graph(
            &g2,
            &reference_fold(&r1, &buf.current(), 2),
            "fold of a fold",
        );
    }

    /// Counts, not clocks: the fold's cost follows the write. `k` single
    /// edges on distinct pairs re-derive at most `k` out rows, `k` in rows
    /// and `2k` undirected rows, and copy every other row of the graph.
    #[test]
    fn fold_rebuilds_only_the_rows_the_writes_touched() {
        let b = base(400);
        let n = b.num_vertices() as u64;
        let k = 16u32;
        let muts: Vec<Mutation> = (0..k)
            .map(|i| Mutation::AddEdge {
                u: 3 * i,
                v: 399 - 5 * i,
                w: 1.0,
            })
            .collect();
        let (_, stats, ov) = folded(&b, &muts);
        assert_eq!(
            ov.overlay_edges() + ov.patches.len(),
            k as usize,
            "every write landed"
        );
        assert!(
            stats.out_rows_rebuilt + stats.in_rows_rebuilt <= 2 * k as u64,
            "{stats:?}"
        );
        assert!(stats.sym_rows_rebuilt <= 2 * k as u64, "{stats:?}");
        assert!(stats.rows_copied >= 3 * n - 4 * k as u64, "{stats:?}");
    }

    /// The table indexes by a hash's low bits and tags by its top seven:
    /// dense ids must not pile up in either.
    #[test]
    fn id_hasher_spreads_dense_ids_and_pairs() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let low: HashSet<u64> = (0..4096u32).map(|v| build.hash_one(v) & 4095).collect();
        assert_eq!(low.len(), 4096, "ids 0..4096 fill 4096 buckets exactly");
        let pairs: Vec<u64> = (0..64u32)
            .flat_map(|u| (0..64u32).map(move |v| (u, v)))
            .map(|p| build.hash_one(p))
            .collect();
        let distinct: HashSet<u64> = pairs.iter().copied().collect();
        assert_eq!(distinct.len(), pairs.len(), "no two pairs collide");
        for (what, bits) in [("bucket", 0u32), ("tag", 57)] {
            let mut seen = [0u32; 128];
            pairs
                .iter()
                .for_each(|h| seen[(h >> bits) as usize & 127] += 1);
            let (min, max) = (seen.iter().min().unwrap(), seen.iter().max().unwrap());
            assert!(*min >= 8 && *max <= 72, "{what} bits: {min}..{max} of 32");
        }
    }

    #[test]
    fn sequence_numbers_are_monotone_and_survive_reset() {
        let b = base(40);
        let buf = MutationBuffer::new(1, 40);
        assert_eq!(buf.apply(&b, &[Mutation::AddVertex]).seq, 1);
        assert_eq!(buf.apply(&b, &[]).seq, 2, "empty batches still bump seq");
        // The engine's store resets the overlay on publish and keeps it on
        // republish; neither rewinds seq.
        let store = crate::store::GraphStore::new(base(40));
        store.mutate(&[Mutation::AddVertex]);
        store.mutate(&[]);
        assert_eq!(store.publish(base(41)), 2);
        let s = store.snapshot();
        assert!(s.overlay().is_empty());
        assert_eq!((s.epoch(), s.seq(), s.overlay().base_n()), (2, 2, 41));
        assert_eq!(store.mutate(&[Mutation::AddVertex]).0.seq, 3);
        assert_eq!(store.republish(), 3);
        let s = store.snapshot();
        assert_eq!((s.epoch(), s.seq()), (3, 3));
        assert!(
            !s.overlay().is_empty(),
            "republish keeps buffered mutations"
        );
    }

    #[test]
    fn concurrent_appliers_never_lose_a_batch() {
        let b = std::sync::Arc::new(base(60));
        let buf = std::sync::Arc::new(MutationBuffer::new(1, 60));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let b = std::sync::Arc::clone(&b);
                let buf = std::sync::Arc::clone(&buf);
                scope.spawn(move || {
                    for i in 0..50u32 {
                        // Distinct (u, v) per thread: all batches commute.
                        let u = t % 60;
                        let v = 10 + (t * 50 + i) % 50;
                        buf.apply(
                            &b,
                            &[Mutation::AddEdge {
                                u,
                                v: v + 1,
                                w: 1.0,
                            }],
                        );
                    }
                });
            }
        });
        let ov = buf.current();
        assert_eq!(ov.seq(), 200, "every batch got a distinct seq");
        // State equals the same edges applied sequentially.
        let mut muts = Vec::new();
        for t in 0..4u32 {
            for i in 0..50u32 {
                muts.push(Mutation::AddEdge {
                    u: t % 60,
                    v: 11 + (t * 50 + i) % 50,
                    w: 1.0,
                });
            }
        }
        assert_eq!(ov.live_digest(&b), structural_digest(&rebuilt(&b, &muts)));
    }

    #[test]
    fn incremental_ccomp_matches_full_recompute_on_inserts() {
        let b = base(200);
        let pool = ThreadPool::new(2);
        let never = CancelToken::never();
        let base_labels = parallel::ccomp(&pool, b.service().sym(), &never).unwrap();
        let mut inc = IncrementalCComp::new(&base_labels);

        let buf = MutationBuffer::new(1, 200);
        let mut rng = Rng::seed_from_u64(77);
        for round in 0..10 {
            let batch: Vec<Mutation> = (0..8)
                .map(|_| Mutation::AddEdge {
                    u: rng.u64_below(200) as u32,
                    v: rng.u64_below(200) as u32,
                    w: 1.0,
                })
                .collect();
            buf.apply(&b, &batch);
            let ov = buf.current();
            assert!(!ov.dirty(), "insert-only stream stays clean");
            inc.advance(ov.insert_log());
            let got = inc.labels(ov.n_total() as usize);
            let full =
                parallel::ccomp(&pool, ov.materialize(&b, 4).service().sym(), &never).unwrap();
            assert_eq!(got, full, "round {round}: incremental labels diverged");
        }
        // A delete flips the dirty bit — the fallback signal.
        buf.apply(
            &b,
            &[Mutation::RemoveEdge {
                u: 0,
                v: b.service().out().neighbors(0)[0],
            }],
        );
        assert!(buf.current().dirty());
    }

    #[test]
    fn overlay_size_accounting_is_plausible() {
        let b = base(80);
        let buf = MutationBuffer::new(1, 80);
        assert_eq!(buf.current().byte_size(), 0);
        assert_eq!(buf.current().overlay_edges(), 0);
        let batch: Vec<Mutation> = (0..30)
            .map(|i| Mutation::AddEdge {
                u: i as u32,
                v: (i as u32 + 40) % 80,
                w: 1.0,
            })
            .collect();
        buf.apply(&b, &batch);
        let ov = buf.current();
        assert!(ov.overlay_edges() <= 30);
        assert!(ov.overlay_edges() > 0);
        let per_edge = ov.byte_size() / ov.overlay_edges();
        assert!(
            (8..=256).contains(&per_edge),
            "implausible overlay bytes/edge: {per_edge}"
        );
    }

    #[test]
    fn structural_digest_is_edge_order_independent() {
        let a = ShardedGraph::build(
            Csr::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]),
            2,
        );
        let c = ShardedGraph::build(
            Csr::from_edges(3, &[(1, 2, 3.0), (0, 2, 2.0), (0, 1, 1.0)]),
            3,
        );
        assert_eq!(structural_digest(&a), structural_digest(&c));
        let d = ShardedGraph::build(
            Csr::from_edges(3, &[(0, 1, 1.5), (0, 2, 2.0), (1, 2, 3.0)]),
            2,
        );
        assert_ne!(
            structural_digest(&a),
            structural_digest(&d),
            "weights count"
        );
    }
}
