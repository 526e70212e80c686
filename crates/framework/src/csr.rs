//! Compressed Sparse Row representation (Figure 2(b)).
//!
//! CSR packs the graph into three flat arrays — row offsets, column indices
//! and weights — giving the compact, cache-friendly but *static* layout the
//! paper contrasts with the vertex-centric structure. In GraphBIG the GPU
//! side always computes on CSR: the "graph populating" step converts the
//! dynamic CPU-side graph ([`Csr::from_graph`]) exactly as the paper
//! describes transferring data to GPU memory.
//!
//! Vertices are renumbered into a dense `0..n` space; `ids` maps dense
//! indices back to external [`VertexId`]s and [`Csr::dense_of`] goes the
//! other way.

use graphbig_json::codec::{field, field_or_default, DecodeError, FromJson, ToJson};
use graphbig_json::{json_struct, Json, ObjBuilder};

use crate::error::{GraphError, Result};
use crate::graph::PropertyGraph;
use crate::trace::{addr_of, NullTracer, Region, Tracer};
use crate::types::VertexId;

/// Reverse id→dense lookup used during the populating step.
///
/// When external ids are reasonably dense (`max_id` within a small constant
/// factor of `n`) a direct-indexed table makes each edge translation O(1),
/// turning [`Csr::from_graph`] into an O(n + m) pass. Sparse id spaces fall
/// back to binary search over the sorted map (O(m log n), the old behavior).
enum DenseLookup<'a> {
    Table(Vec<u32>),
    Sorted(&'a [(VertexId, u32)]),
}

/// Sentinel for "id not present" in the table variant.
const ABSENT: u32 = u32::MAX;

impl<'a> DenseLookup<'a> {
    fn build(ids: &[VertexId], id_map: &'a [(VertexId, u32)]) -> Self {
        let n = ids.len();
        let max_id = ids.iter().copied().max().unwrap_or(0);
        // Direct table only when the id space is bounded: 8x the vertex count
        // plus slack keeps worst-case memory at ~32 bytes/vertex.
        if (max_id as usize) < 8 * n + 1024 {
            let mut table = vec![ABSENT; max_id as usize + 1];
            for (dense, &id) in ids.iter().enumerate() {
                table[id as usize] = dense as u32;
            }
            DenseLookup::Table(table)
        } else {
            DenseLookup::Sorted(id_map)
        }
    }

    #[inline]
    fn get(&self, id: VertexId) -> Option<u32> {
        match self {
            DenseLookup::Table(t) => match t.get(id as usize) {
                Some(&d) if d != ABSENT => Some(d),
                _ => None,
            },
            DenseLookup::Sorted(m) => m
                .binary_search_by_key(&id, |&(k, _)| k)
                .ok()
                .map(|p| m[p].1),
        }
    }
}

/// The identity mapping over `0..n`: `ids` and its sorted reverse `id_map`.
fn identity_ids(n: usize) -> (Vec<VertexId>, Vec<(VertexId, u32)>) {
    (
        (0..n as VertexId).collect(),
        (0..n).map(|i| (i as VertexId, i as u32)).collect(),
    )
}

/// A static CSR view of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// `row_offsets[u]..row_offsets[u+1]` indexes `col`/`weights` for dense
    /// vertex `u`; length `n + 1`.
    row_offsets: Vec<u64>,
    /// Dense target index per edge.
    col: Vec<u32>,
    /// Weight per edge (parallel to `col`).
    weights: Vec<f32>,
    /// Dense index -> external vertex id.
    ids: Vec<VertexId>,
    /// Sorted `(external id, dense index)` pairs for reverse lookup.
    id_map: Vec<(VertexId, u32)>,
    /// Edges whose target was not a live vertex, dropped during a lenient
    /// populating pass. Absent in snapshots written before this field existed.
    dangling_skipped: u64,
}

impl ToJson for Csr {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .push("row_offsets", self.row_offsets.to_json())
            .push("col", self.col.to_json())
            .push("weights", self.weights.to_json())
            .push("ids", self.ids.to_json())
            .push("id_map", self.id_map.to_json())
            .push("dangling_skipped", self.dangling_skipped.to_json())
            .build()
    }
}

impl FromJson for Csr {
    fn from_json(v: &Json) -> std::result::Result<Self, DecodeError> {
        Ok(Csr {
            row_offsets: field(v, "row_offsets")?,
            col: field(v, "col")?,
            weights: field(v, "weights")?,
            ids: field(v, "ids")?,
            id_map: field(v, "id_map")?,
            // `field_or_default` keeps the old `#[serde(default)]` tolerance
            // for snapshots written before this field existed.
            dangling_skipped: field_or_default(v, "dangling_skipped")?,
        })
    }
}

impl Csr {
    /// Build a CSR snapshot of a dynamic graph (the populating step). Dense
    /// indices follow the graph's deterministic vertex order.
    ///
    /// Edges whose target is not a live vertex (possible only when edge
    /// lists are mutated outside the [`PropertyGraph`] API) are skipped and
    /// counted in [`Csr::dangling_skipped`]; use [`Csr::try_from_graph`] to
    /// treat them as errors instead.
    pub fn from_graph(g: &PropertyGraph) -> Self {
        Self::from_graph_t(g, &mut NullTracer)
    }

    /// Traced variant of [`Csr::from_graph`].
    pub fn from_graph_t<T: Tracer>(g: &PropertyGraph, t: &mut T) -> Self {
        Self::build_from_graph(g, t, false).expect("lenient build is infallible")
    }

    /// Like [`Csr::from_graph`] but returns [`GraphError::VertexNotFound`]
    /// for the first edge whose target is not a live vertex.
    pub fn try_from_graph(g: &PropertyGraph) -> Result<Self> {
        Self::try_from_graph_t(g, &mut NullTracer)
    }

    /// Traced variant of [`Csr::try_from_graph`].
    pub fn try_from_graph_t<T: Tracer>(g: &PropertyGraph, t: &mut T) -> Result<Self> {
        Self::build_from_graph(g, t, true)
    }

    /// Shared populating pass. One O(n) table build plus one O(1) lookup per
    /// edge when the id space is dense (see [`DenseLookup`]), so the whole
    /// conversion is O(n + m) instead of the previous O(m log n).
    fn build_from_graph<T: Tracer>(g: &PropertyGraph, t: &mut T, strict: bool) -> Result<Self> {
        t.enter_framework();
        t.region(Region::CsrScan);
        let n = g.num_vertices();
        let ids: Vec<VertexId> = g.vertex_ids().to_vec();
        let mut id_map: Vec<(VertexId, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        id_map.sort_unstable();
        let lookup = DenseLookup::build(&ids, &id_map);

        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut weights = Vec::new();
        let mut dangling_skipped = 0u64;
        row_offsets.push(0u64);
        for &id in &ids {
            let v = g.find_vertex(id).expect("id from order vector is live");
            t.load(addr_of(v), 32);
            for e in &v.out {
                t.load(addr_of(e), 16);
                match lookup.get(e.target) {
                    Some(dense) => {
                        col.push(dense);
                        weights.push(e.weight);
                        t.store(addr_of(col.last().unwrap()), 8);
                        t.alu(1); // table lookup
                    }
                    None if strict => {
                        t.exit_framework();
                        return Err(GraphError::VertexNotFound(e.target));
                    }
                    None => dangling_skipped += 1,
                }
            }
            row_offsets.push(col.len() as u64);
        }
        t.exit_framework();
        Ok(Csr {
            row_offsets,
            col,
            weights,
            ids,
            id_map,
            dangling_skipped,
        })
    }

    /// Edges dropped by the lenient populating pass because their target was
    /// not a live vertex. Zero for graphs mutated only through the API.
    #[inline]
    pub fn dangling_skipped(&self) -> u64 {
        self.dangling_skipped
    }

    /// Build directly from dense edges `(u, v, w)` over `n` vertices with
    /// identity id mapping. Edges need not be sorted.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut degree = vec![0u64; n];
        for &(u, _, _) in edges {
            degree[u as usize] += 1;
        }
        let mut row_offsets = vec![0u64; n + 1];
        for u in 0..n {
            row_offsets[u + 1] = row_offsets[u] + degree[u];
        }
        let m = edges.len();
        let mut col = vec![0u32; m];
        let mut weights = vec![0f32; m];
        let mut cursor = row_offsets.clone();
        for &(u, v, w) in edges {
            let p = cursor[u as usize] as usize;
            col[p] = v;
            weights[p] = w;
            cursor[u as usize] += 1;
        }
        let (ids, id_map) = identity_ids(n);
        Csr {
            row_offsets,
            col,
            weights,
            ids,
            id_map,
            dangling_skipped: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of stored arcs.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// Out-degree of dense vertex `u`.
    #[inline]
    pub fn degree(&self, u: u32) -> u32 {
        (self.row_offsets[u as usize + 1] - self.row_offsets[u as usize]) as u32
    }

    /// Neighbor slice of dense vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        &self.col[lo..hi]
    }

    /// Weight slice parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_weights(&self, u: u32) -> &[f32] {
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// Raw row-offset array (for kernels that index edges globally).
    #[inline]
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// Raw column array.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col
    }

    /// Raw weight array.
    #[inline]
    pub fn weight_values(&self) -> &[f32] {
        &self.weights
    }

    /// External id of dense vertex `u`.
    #[inline]
    pub fn id_of(&self, u: u32) -> VertexId {
        self.ids[u as usize]
    }

    /// Dense index of external id, if present.
    pub fn dense_of(&self, id: VertexId) -> Option<u32> {
        self.id_map
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|p| self.id_map[p].1)
    }

    /// Build from finished CSR arrays over `row_offsets.len() - 1` vertices
    /// with identity id mapping — [`Csr::from_edges`] for a caller that
    /// already holds its rows in order.
    ///
    /// # Panics
    /// When the arrays do not describe a CSR: offsets not starting at 0,
    /// decreasing, or not ending at `col.len()`, or `weights` not parallel
    /// to `col`. That every column is a vertex id is an O(m) scan and, as
    /// in [`Csr::from_edges`], left to debug builds.
    pub fn from_rows(row_offsets: Vec<u64>, col: Vec<u32>, weights: Vec<f32>) -> Self {
        assert!(!row_offsets.is_empty(), "row_offsets holds n + 1 entries");
        let n = row_offsets.len() - 1;
        assert_eq!(row_offsets[0], 0, "row 0 starts at 0");
        assert_eq!(row_offsets[n], col.len() as u64, "last offset is m");
        assert_eq!(col.len(), weights.len(), "weights parallel to col");
        assert!(
            row_offsets.windows(2).all(|w| w[0] <= w[1]),
            "row offsets ascend"
        );
        debug_assert!(
            col.iter().all(|&v| (v as usize) < n),
            "columns are vertex ids"
        );
        let (ids, id_map) = identity_ids(n);
        Csr {
            row_offsets,
            col,
            weights,
            ids,
            id_map,
            dangling_skipped: 0,
        }
    }

    /// Reverse every edge (used to get in-edges on static graphs): a
    /// two-pass counting transpose, O(n + m). Row `v` of the result lists
    /// the sources of `v`'s in-edges ascending, parallel copies of one pair
    /// in their out-row order, each with its own weight.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut row_offsets = vec![0u64; n + 1];
        for &v in &self.col {
            row_offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            row_offsets[v + 1] += row_offsets[v];
        }
        let mut cursor = row_offsets[..n].to_vec();
        let mut col = vec![0u32; self.col.len()];
        let mut weights = vec![0f32; self.col.len()];
        for u in 0..n {
            let row = self.row_offsets[u] as usize..self.row_offsets[u + 1] as usize;
            for (&v, &w) in self.col[row.clone()].iter().zip(&self.weights[row]) {
                let at = &mut cursor[v as usize];
                col[*at as usize] = u as u32;
                weights[*at as usize] = w;
                *at += 1;
            }
        }
        Csr {
            row_offsets,
            col,
            weights,
            ids: self.ids.clone(),
            id_map: self.id_map.clone(),
            dangling_skipped: 0,
        }
    }

    /// Symmetrize: ensure `v in N(u)  =>  u in N(v)`, deduplicating edges.
    /// Self-loops are dropped and every weight is 1.0. Used by undirected
    /// GPU kernels (kCore, TC).
    ///
    /// Every row of the result is **strictly ascending** — the order
    /// intersection-based kernels (Schank's triangle counting) need, so no
    /// [`Csr::sort_adjacency`] has to follow.
    pub fn symmetrize(&self) -> Csr {
        self.symmetrize_with(&self.transpose())
    }

    /// [`Csr::symmetrize`] for a caller that already owns `self`'s
    /// [`Csr::transpose`] (`inc`), so no second one is built.
    ///
    /// A scatter, O(n + m), no sort: walking `x` ascending and appending it
    /// to the row of every out- and in-neighbour fills each undirected row
    /// in ascending order with duplicates adjacent, so deduplication is one
    /// compare with the value last appended to that row. One counting pass
    /// sizes the rows, a second fills them.
    pub fn symmetrize_with(&self, inc: &Csr) -> Csr {
        let n = self.num_vertices();
        assert_eq!(inc.num_vertices(), n, "transpose of another graph");
        let mut last = vec![0u32; n];
        let mut row_offsets = vec![0u64; n + 1];
        self.scatter_undirected(inc, &mut last, |y, _, fresh| {
            row_offsets[y + 1] += fresh as u64
        });
        for y in 0..n {
            row_offsets[y + 1] += row_offsets[y];
        }
        let mut cursor = row_offsets[..n].to_vec();
        // One spare slot past the end for duplicates to land in, so the
        // store needs no branch.
        let m = row_offsets[n] as usize;
        let mut col = vec![0u32; m + 1];
        self.scatter_undirected(inc, &mut last, |y, x, fresh| {
            col[if fresh { cursor[y] as usize } else { m }] = x;
            cursor[y] += fresh as u64;
        });
        col.truncate(m);
        Csr {
            row_offsets,
            weights: vec![1.0; col.len()],
            col,
            ids: self.ids.clone(),
            id_map: self.id_map.clone(),
            dangling_skipped: 0,
        }
    }

    /// One pass of [`Csr::symmetrize_with`]: `append(y, x)` for every
    /// distinct undirected arc `y — x`, `x` ascending within each `y`.
    /// `last[y]` is the value last appended to row `y` (scratch, reset here).
    #[inline]
    fn scatter_undirected(
        &self,
        inc: &Csr,
        last: &mut [u32],
        mut append: impl FnMut(usize, u32, bool),
    ) {
        // "Nothing appended yet": a source is a dense id below `n`, so
        // `u32::MAX` is never one.
        last.fill(u32::MAX);
        for x in 0..self.num_vertices() as u32 {
            for row in [self.neighbors(x), inc.neighbors(x)] {
                for &y in row {
                    let fresh = y != x && last[y as usize] != x;
                    last[y as usize] = x;
                    append(y as usize, x, fresh);
                }
            }
        }
    }

    /// Sort each adjacency list ascending by column, weights carried along
    /// (required by intersection-based kernels like Schank's triangle
    /// counting). Rows already in order are left alone.
    pub fn sort_adjacency(&mut self) {
        let mut pair: Vec<(u32, f32)> = Vec::new();
        for u in 0..self.num_vertices() {
            let lo = self.row_offsets[u] as usize;
            let hi = self.row_offsets[u + 1] as usize;
            if self.col[lo..hi].is_sorted() {
                continue;
            }
            // sort col and weights together
            pair.clear();
            pair.extend(
                self.col[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.weights[lo..hi].iter().copied()),
            );
            pair.sort_unstable_by_key(|&(c, _)| c);
            for (k, &(c, w)) in pair.iter().enumerate() {
                self.col[lo + k] = c;
                self.weights[lo + k] = w;
            }
        }
    }

    /// Traced sequential scan over a row (CPU-side CSR baseline accesses).
    pub fn visit_neighbors_t<T: Tracer>(
        &self,
        u: u32,
        t: &mut T,
        mut f: impl FnMut(u32, f32, &mut T),
    ) {
        t.enter_framework();
        t.region(Region::CsrScan);
        t.load(addr_of(&self.row_offsets[u as usize]), 16);
        let lo = self.row_offsets[u as usize] as usize;
        let hi = self.row_offsets[u as usize + 1] as usize;
        for i in lo..hi {
            t.load(addr_of(&self.col[i]), 4);
            t.branch(line!() as usize, true);
            f(self.col[i], self.weights[i], t);
        }
        t.branch(line!() as usize, false);
        t.exit_framework();
    }

    /// Approximate device-resident size in bytes (row offsets + columns +
    /// weights), the quantity that must fit in GPU memory.
    pub fn byte_size(&self) -> usize {
        self.row_offsets.len() * 8 + self.col.len() * 4 + self.weights.len() * 4
    }
}

/// A CSR paired with its in-edge (transposed) view.
///
/// Direction-optimizing traversals need both directions: top-down steps
/// expand out-edges of the frontier while bottom-up steps scan the
/// *in*-edges of unvisited vertices looking for a visited parent. For
/// symmetric graphs the two views coincide, so [`BiCsr::symmetric`] stores
/// the adjacency once and serves it for both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct BiCsr {
    out: Csr,
    /// `None` means the graph is symmetric and `out` doubles as the in-view.
    inc: Option<Csr>,
}

json_struct!(BiCsr { out, inc });

impl BiCsr {
    /// Pair a directed CSR with its transpose (built here, O(n + m)).
    pub fn directed(out: Csr) -> Self {
        let inc = out.transpose();
        BiCsr::from_parts(out, inc)
    }

    /// Pair a directed CSR with its transpose, already built by the caller.
    pub fn from_parts(out: Csr, inc: Csr) -> Self {
        assert_eq!(out.num_vertices(), inc.num_vertices());
        assert_eq!(out.num_edges(), inc.num_edges());
        BiCsr {
            out,
            inc: Some(inc),
        }
    }

    /// Wrap an already-symmetric CSR; no transpose is materialized.
    pub fn symmetric(csr: Csr) -> Self {
        BiCsr {
            out: csr,
            inc: None,
        }
    }

    /// Out-edge view.
    #[inline]
    pub fn out(&self) -> &Csr {
        &self.out
    }

    /// In-edge view (the out view itself for symmetric graphs).
    #[inline]
    pub fn inc(&self) -> &Csr {
        self.inc.as_ref().unwrap_or(&self.out)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of stored arcs in the out view.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }
}

/// The out-neighbourhood interface traversal kernels are written against,
/// so one kernel body serves a plain [`Csr`] and any view layered over one
/// (the serving engine's base + delta-overlay view is such an
/// implementation). Kernels take it as a type parameter: each
/// implementation is monomorphized, and the [`Csr`] one inlines to the
/// slice loops the kernels used to spell out.
///
/// Iteration is *internal* (the view drives the loop and calls back) rather
/// than an `Iterator`: a layered view decides once per row which
/// representation to walk and then runs a tight loop over it, where an
/// external iterator would re-dispatch on every `next()`.
///
/// Unweighted by design: kernels that read weights, undirected rows or
/// exact degrees revisit rows and take [`Rows`] instead.
pub trait Adjacency: Sync {
    /// Number of vertices; valid ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Number of arcs, or an upper bound on it: traversals only weigh
    /// frontier edge counts against it to pick a direction.
    fn num_edges(&self) -> usize;

    /// Out-degree of `u`, or an upper bound on it — a scheduling weight and
    /// the other side of the direction heuristic, never an index. A view
    /// for which the exact count means walking the row may answer in O(1).
    fn out_degree(&self, u: u32) -> u32;

    /// Call `f` with the target of every out-arc of `u`.
    fn for_each_out(&self, u: u32, f: impl FnMut(u32));
}

/// [`Adjacency`] that can also be walked against the arcs — what the
/// bottom-up half of a direction-optimizing traversal needs.
pub trait InAdjacency: Adjacency {
    /// In-degree of `v`, or an upper bound on it (a scheduling weight only).
    fn in_degree(&self, v: u32) -> u32;

    /// Call `f` with the source of each in-arc of `v` until it returns
    /// true; returns whether it did. The early exit is the point: a
    /// bottom-up step stops scanning at the first parent it finds.
    fn any_in(&self, v: u32, f: impl FnMut(u32) -> bool) -> bool;
}

/// The row-slice face for kernels that revisit rows (peeling, label
/// propagation, colouring, intersection, relaxation sweeps): one body
/// serves a plain [`Csr`] and a view that keeps some rows elsewhere, such
/// as the serving engine's patched CSR. Unlike [`Adjacency`]'s degrees,
/// everything here is exact.
pub trait Rows: Sync {
    /// Number of vertices; valid ids are `0..num_vertices()`.
    fn num_vertices(&self) -> usize;

    /// Targets of `u`'s arcs.
    fn row(&self, u: u32) -> &[u32];

    /// Weights parallel to [`Rows::row`].
    fn row_weights(&self, u: u32) -> &[f32];

    /// Exact degree of `u`.
    #[inline]
    fn degree(&self, u: u32) -> u32 {
        self.row(u).len() as u32
    }

    /// External id of `u`.
    fn id_of(&self, u: u32) -> VertexId;
}

impl Rows for Csr {
    #[inline]
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    #[inline]
    fn row(&self, u: u32) -> &[u32] {
        self.neighbors(u)
    }

    #[inline]
    fn row_weights(&self, u: u32) -> &[f32] {
        self.edge_weights(u)
    }

    #[inline]
    fn id_of(&self, u: u32) -> VertexId {
        Csr::id_of(self, u)
    }
}

impl<R: Rows + ?Sized> Rows for &R {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn row(&self, u: u32) -> &[u32] {
        (**self).row(u)
    }

    fn row_weights(&self, u: u32) -> &[f32] {
        (**self).row_weights(u)
    }

    fn id_of(&self, u: u32) -> VertexId {
        (**self).id_of(u)
    }
}

impl Adjacency for Csr {
    #[inline]
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    #[inline]
    fn out_degree(&self, u: u32) -> u32 {
        self.degree(u)
    }

    #[inline]
    fn for_each_out(&self, u: u32, f: impl FnMut(u32)) {
        self.neighbors(u).iter().copied().for_each(f)
    }
}

impl Adjacency for BiCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        BiCsr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        BiCsr::num_edges(self)
    }

    #[inline]
    fn out_degree(&self, u: u32) -> u32 {
        self.out.degree(u)
    }

    #[inline]
    fn for_each_out(&self, u: u32, f: impl FnMut(u32)) {
        self.out.for_each_out(u, f)
    }
}

impl InAdjacency for BiCsr {
    #[inline]
    fn in_degree(&self, v: u32) -> u32 {
        self.inc().degree(v)
    }

    #[inline]
    fn any_in(&self, v: u32, f: impl FnMut(u32) -> bool) -> bool {
        self.inc().neighbors(v).iter().copied().any(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let vs: Vec<_> = (0..4).map(|_| g.add_vertex()).collect();
        g.add_edge(vs[0], vs[1], 1.0).unwrap();
        g.add_edge(vs[0], vs[2], 2.0).unwrap();
        g.add_edge(vs[1], vs[3], 3.0).unwrap();
        g.add_edge(vs[2], vs[3], 4.0).unwrap();
        g
    }

    #[test]
    fn from_graph_matches_topology() {
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.edge_weights(1), &[3.0]);
    }

    #[test]
    fn id_mapping_round_trips() {
        let mut g = PropertyGraph::new();
        g.add_vertex_with_id(100).unwrap();
        g.add_vertex_with_id(7).unwrap();
        g.add_vertex_with_id(55).unwrap();
        g.add_edge(100, 7, 1.0).unwrap();
        let csr = Csr::from_graph(&g);
        for u in 0..3u32 {
            assert_eq!(csr.dense_of(csr.id_of(u)), Some(u));
        }
        assert_eq!(csr.dense_of(9999), None);
        // edge 100 -> 7 survives renumbering
        let u = csr.dense_of(100).unwrap();
        let v = csr.dense_of(7).unwrap();
        assert_eq!(csr.neighbors(u), &[v]);
    }

    #[test]
    fn from_edges_handles_unsorted_input() {
        let edges = [(2u32, 0u32, 1.0f32), (0, 1, 2.0), (2, 1, 3.0), (0, 2, 4.0)];
        let csr = Csr::from_edges(3, &edges);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
        assert_eq!(csr.degree(2), 2);
        let mut n0 = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        let t = csr.transpose();
        assert_eq!(t.num_edges(), csr.num_edges());
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(3), 2);
        let mut p3 = t.neighbors(3).to_vec();
        p3.sort_unstable();
        assert_eq!(p3, vec![1, 2]);
    }

    #[test]
    fn symmetrize_makes_edges_bidirectional_and_deduped() {
        let edges = [(0u32, 1u32, 1.0f32), (1, 0, 1.0), (1, 2, 1.0), (2, 2, 1.0)];
        let s = Csr::from_edges(3, &edges).symmetrize();
        // 0-1 deduped to one pair each way, 1-2 symmetrized, self-loop dropped
        assert_eq!(s.num_edges(), 4);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.neighbors(2), &[1]);
    }

    #[test]
    fn sort_adjacency_orders_columns_and_keeps_weights() {
        let edges = [(0u32, 3u32, 3.0f32), (0, 1, 1.0), (0, 2, 2.0)];
        let mut csr = Csr::from_edges(4, &edges);
        csr.sort_adjacency();
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
        assert_eq!(csr.edge_weights(0), &[1.0, 2.0, 3.0]);
    }

    /// A random graph as `(n, edges)`: endpoints are reduced mod `n` when
    /// the graph is built, so a shrunk `n` keeps the case well-formed. Rows
    /// arrive unsorted, with self-loops, parallel edges (distinct weights)
    /// and isolated vertices; ids are not the identity.
    type Case = (u64, Vec<(u32, u32, u32)>);

    fn gen_case(rng: &mut graphbig_datagen::rng::Rng) -> Case {
        let n = rng.u64_below(40);
        let m = rng.u64_below(4 * n + 1);
        let mut edges = Vec::new();
        for _ in 0..m {
            // Endpoints from the lower two thirds: the rest stay isolated.
            let u = rng.u64_below(n * 2 / 3 + 1) as u32;
            let v = match rng.u64_below(8) {
                0 => u, // self-loop
                _ => rng.u64_below(n * 2 / 3 + 1) as u32,
            };
            edges.push((u, v, rng.u64_below(50) as u32));
            if rng.u64_below(6) == 0 {
                edges.push((u, v, rng.u64_below(50) as u32)); // parallel copy
            }
        }
        (n, edges)
    }

    fn build_case((n, edges): &Case) -> Csr {
        let n = *n as usize;
        let edges: Vec<(u32, u32, f32)> = match n {
            0 => Vec::new(),
            _ => edges
                .iter()
                .map(|&(u, v, w)| (u % n as u32, v % n as u32, w as f32))
                .collect(),
        };
        let mut csr = Csr::from_edges(n, &edges);
        csr.ids = (0..n as VertexId)
            .map(|i| 1000 + 7 * (n as VertexId - i))
            .collect();
        csr.id_map = csr
            .ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        csr.id_map.sort_unstable();
        csr
    }

    /// The transpose as it was before the counting one: every edge reversed
    /// into a list, rebuilt with `from_edges`.
    fn edge_list_transpose(csr: &Csr) -> Csr {
        let n = csr.num_vertices();
        let mut edges = Vec::with_capacity(csr.num_edges());
        for u in 0..n as u32 {
            for (i, &v) in csr.neighbors(u).iter().enumerate() {
                edges.push((v, u, csr.edge_weights(u)[i]));
            }
        }
        let mut t = Csr::from_edges(n, &edges);
        t.ids = csr.ids.clone();
        t.id_map = csr.id_map.clone();
        t
    }

    /// The symmetrize as it was before the scatter: both directions of
    /// every non-loop edge pushed as pairs, one global sort, dedup.
    fn pair_sort_symmetrize(csr: &Csr) -> Csr {
        let n = csr.num_vertices();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(csr.num_edges() * 2);
        for u in 0..n as u32 {
            for &v in csr.neighbors(u) {
                if u != v {
                    pairs.push((u, v));
                    pairs.push((v, u));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let edges: Vec<(u32, u32, f32)> = pairs.into_iter().map(|(u, v)| (u, v, 1.0)).collect();
        let mut s = Csr::from_edges(n, &edges);
        s.ids = csr.ids.clone();
        s.id_map = csr.id_map.clone();
        s
    }

    #[test]
    fn symmetrize_matches_the_pair_sort_reference_and_sorts_every_row() {
        use graphbig_datagen::prop::{self, Config};
        prop::check(
            "csr_symmetrize",
            Config::with_cases(200),
            gen_case,
            |case: &Case| {
                let csr = build_case(case);
                let sym = csr.symmetrize();
                assert_eq!(sym, pair_sort_symmetrize(&csr));
                assert_eq!(sym, csr.symmetrize_with(&csr.transpose()));
                for u in 0..sym.num_vertices() as u32 {
                    let row = sym.neighbors(u);
                    assert!(row.windows(2).all(|w| w[0] < w[1]), "row {u}: {row:?}");
                    assert!(!row.contains(&u), "self-loop kept in row {u}");
                }
                // Which is why nothing has to sort it afterwards.
                let mut sorted = sym.clone();
                sorted.sort_adjacency();
                assert_eq!(sorted, sym);
            },
        );
    }

    #[test]
    fn transpose_matches_the_edge_list_reference() {
        use graphbig_datagen::prop::{self, Config};
        prop::check(
            "csr_transpose",
            Config::with_cases(200),
            gen_case,
            |case: &Case| {
                let csr = build_case(case);
                let t = csr.transpose();
                // Weights of parallel edges, ids and id_map included.
                assert_eq!(t, edge_list_transpose(&csr));
                // Transposing back gives the input with each row stably sorted
                // by column: parallel copies keep their order and weights.
                let mut want = csr.clone();
                for u in 0..want.num_vertices() {
                    let (lo, hi) = (
                        want.row_offsets[u] as usize,
                        want.row_offsets[u + 1] as usize,
                    );
                    let mut row: Vec<(u32, f32)> =
                        (lo..hi).map(|i| (csr.col[i], csr.weights[i])).collect();
                    row.sort_by_key(|&(c, _)| c);
                    for (k, (c, w)) in row.into_iter().enumerate() {
                        want.col[lo + k] = c;
                        want.weights[lo + k] = w;
                    }
                }
                assert_eq!(t.transpose(), want);
            },
        );
    }

    #[test]
    fn transpose_and_symmetrize_handle_zero_and_one_vertex() {
        for case in [(0u64, vec![]), (1, vec![]), (1, vec![(0, 0, 3), (0, 0, 4)])] {
            let csr = build_case(&case);
            assert_eq!(csr.transpose(), edge_list_transpose(&csr));
            let sym = csr.symmetrize();
            assert_eq!(sym, pair_sort_symmetrize(&csr));
            assert_eq!(sym.num_edges(), 0);
        }
    }

    #[test]
    fn sort_adjacency_leaves_sorted_rows_alone() {
        // Row 0 is unsorted, row 1 sorted with parallel copies whose weight
        // order an unstable re-sort would be free to disturb.
        let edges = [
            (0u32, 2u32, 2.0f32),
            (0, 1, 1.0),
            (1, 0, 5.0),
            (1, 2, 7.0),
            (1, 2, 6.0),
        ];
        let mut csr = Csr::from_edges(3, &edges);
        csr.sort_adjacency();
        assert_eq!(
            (csr.neighbors(0), csr.edge_weights(0)),
            (&[1, 2][..], &[1.0, 2.0][..])
        );
        assert_eq!(
            (csr.neighbors(1), csr.edge_weights(1)),
            (&[0, 2, 2][..], &[5.0, 7.0, 6.0][..])
        );
    }

    #[test]
    fn from_rows_is_from_edges_for_rows_already_in_order() {
        let edges = [(0u32, 2u32, 2.0f32), (0, 1, 1.0), (2, 0, 5.0)];
        let want = Csr::from_edges(4, &edges);
        let got = Csr::from_rows(
            want.row_offsets.clone(),
            want.col.clone(),
            want.weights.clone(),
        );
        assert_eq!(got, want);
        assert_eq!(
            Csr::from_rows(vec![0], vec![], vec![]),
            Csr::from_edges(0, &[])
        );
    }

    #[test]
    #[should_panic(expected = "last offset is m")]
    fn from_rows_rejects_offsets_that_do_not_cover_the_columns() {
        Csr::from_rows(vec![0, 1], vec![0, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn empty_graph_produces_empty_csr() {
        let g = PropertyGraph::new();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.row_offsets(), &[0]);
    }

    #[test]
    fn traced_scan_reports_row_reads() {
        use crate::trace::CountingTracer;
        let g = diamond_graph();
        let csr = Csr::from_graph(&g);
        let mut t = CountingTracer::new();
        let mut cnt = 0;
        csr.visit_neighbors_t(0, &mut t, |_, _, _| cnt += 1);
        assert_eq!(cnt, 2);
        assert!(t.loads >= 3); // row offsets + 2 columns
    }

    #[test]
    fn byte_size_accounts_for_all_arrays() {
        let csr = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(csr.byte_size(), 4 * 8 + 2 * 4 + 2 * 4);
    }

    /// Build a graph that contains a dangling edge: `delete_vertex` cleans up
    /// both directions, so the stale edge is injected through the public
    /// `Vertex::out` field afterwards — the only way to produce one.
    fn graph_with_dangling_edge() -> (PropertyGraph, VertexId) {
        use crate::vertex::Edge;
        let mut g = PropertyGraph::new();
        let a = g.add_vertex();
        let b = g.add_vertex();
        let dead = g.add_vertex();
        g.add_edge(a, b, 1.0).unwrap();
        g.delete_vertex(dead).unwrap();
        g.find_vertex_mut(a).unwrap().out.push(Edge::new(dead));
        (g, dead)
    }

    #[test]
    fn dangling_edge_is_skipped_and_counted() {
        // Regression: this used to panic ("edge target must be a live vertex").
        let (g, _) = graph_with_dangling_edge();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 2);
        assert_eq!(csr.num_edges(), 1, "only the live edge survives");
        assert_eq!(csr.dangling_skipped(), 1);
        // The surviving topology is exactly a -> b.
        let a = csr.dense_of(csr.id_of(0)).unwrap();
        assert_eq!(csr.degree(a), 1);
    }

    #[test]
    fn try_from_graph_reports_dangling_edge() {
        let (g, dead) = graph_with_dangling_edge();
        match Csr::try_from_graph(&g) {
            Err(GraphError::VertexNotFound(id)) => assert_eq!(id, dead),
            other => panic!("expected VertexNotFound, got {other:?}"),
        }
    }

    #[test]
    fn try_from_graph_succeeds_on_clean_graph() {
        let g = diamond_graph();
        let csr = Csr::try_from_graph(&g).unwrap();
        assert_eq!(csr, Csr::from_graph(&g));
        assert_eq!(csr.dangling_skipped(), 0);
    }

    #[test]
    fn sparse_id_space_uses_fallback_lookup() {
        // Ids far beyond 8n force the binary-search path; topology must match
        // what the dense-table path produces for equivalent structure.
        let mut g = PropertyGraph::new();
        g.add_vertex_with_id(1_000_000).unwrap();
        g.add_vertex_with_id(2_000_000).unwrap();
        g.add_vertex_with_id(5).unwrap();
        g.add_edge(1_000_000, 2_000_000, 1.0).unwrap();
        g.add_edge(2_000_000, 5, 2.0).unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_edges(), 2);
        let u = csr.dense_of(1_000_000).unwrap();
        let v = csr.dense_of(2_000_000).unwrap();
        assert_eq!(csr.neighbors(u), &[v]);
    }

    #[test]
    fn bicsr_directed_pairs_out_with_transpose() {
        let g = diamond_graph();
        let bi = BiCsr::directed(Csr::from_graph(&g));
        assert_eq!(bi.num_vertices(), 4);
        assert_eq!(bi.num_edges(), 4);
        assert_eq!(bi.out().degree(0), 2);
        assert_eq!(bi.inc().degree(0), 0);
        let mut parents = bi.inc().neighbors(3).to_vec();
        parents.sort_unstable();
        assert_eq!(parents, vec![1, 2]);
    }

    #[test]
    fn bicsr_symmetric_shares_one_view() {
        let s = Csr::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).symmetrize();
        let bi = BiCsr::symmetric(s.clone());
        assert_eq!(bi.out(), &s);
        assert_eq!(bi.inc(), &s);
    }

    #[test]
    fn adjacency_views_walk_the_same_arcs_as_the_slices() {
        fn outs(g: &impl Adjacency, u: u32) -> Vec<u32> {
            let mut row = Vec::new();
            g.for_each_out(u, |v| row.push(v));
            assert_eq!(row.len(), g.out_degree(u) as usize);
            row
        }
        let bi = BiCsr::directed(Csr::from_graph(&diamond_graph()));
        assert_eq!(Adjacency::num_vertices(&bi), 4);
        assert_eq!(Adjacency::num_edges(&bi), 4);
        for u in 0..4 {
            assert_eq!(outs(bi.out(), u), bi.out().neighbors(u));
            assert_eq!(outs(&bi, u), bi.out().neighbors(u));
            assert_eq!(bi.in_degree(u), bi.inc().degree(u));
        }
        // `any_in` stops at the first hit and reports a miss as false.
        let mut seen = Vec::new();
        assert!(bi.any_in(3, |u| {
            seen.push(u);
            true
        }));
        assert_eq!(seen, [bi.inc().neighbors(3)[0]]);
        assert!(!bi.any_in(3, |_| false));
        assert!(!bi.any_in(0, |_| true), "no in-arcs, nothing to hit");
    }

    #[test]
    fn csr_reflects_graph_after_mutation() {
        // CSR is a snapshot: rebuilding after a deletion reflects the change.
        let mut g = diamond_graph();
        let before = Csr::from_graph(&g);
        assert_eq!(before.num_edges(), 4);
        let ids = g.vertex_ids().to_vec();
        g.delete_vertex(ids[1]).unwrap();
        let after = Csr::from_graph(&g);
        assert_eq!(after.num_vertices(), 3);
        assert_eq!(after.num_edges(), 2);
    }
}
