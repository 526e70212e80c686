//! Parallel CPU variants of key workloads, mirroring the paper's 16-thread
//! runs (Section 5.1 pins one thread per core).
//!
//! These run on a static CSR snapshot with atomic per-vertex state — the
//! standard shared-memory formulations — and are validated against the
//! sequential framework implementations in tests. They power the serving
//! dispatch ([`crate::service`]) and the CPU side of the Figure 12 speedup
//! comparison.
//!
//! The traversal kernels ([`bfs`], [`bfs_dir_opt`], [`ccomp`], [`kcore`])
//! run on the runtime's frontier engine: degree-weighted chunks feed a
//! dynamic scheduler, workers emit discoveries into chunk-tagged buffers
//! ([`ChunkedSink`]), and the merge is a prefix-sum compaction in chunk
//! order — schedule-independent, so results are bit-identical for any
//! thread count without sorting the frontier.
//! [`bfs_dir_opt`] additionally switches between top-down and bottom-up
//! traversal with the GAP alpha/beta heuristic (see DESIGN.md).
//!
//! No kernel names the CSR arrays. The BFS kernels walk [`Adjacency`] /
//! [`InAdjacency`] once per visit; the rest revisit rows and read them as
//! slices through [`Rows`]. Either way one body serves a plain `Csr` /
//! `BiCsr` and the serving engine's base + delta-overlay graph, each
//! monomorphized.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

use graphbig_framework::bitmap::AtomicBitmap;
use graphbig_framework::csr::{Adjacency, InAdjacency, Rows};
use graphbig_runtime::frontier::{should_be_dense, ChunkedSink, Frontier};
use graphbig_runtime::{parfor, CancelToken, Cancelled, ThreadPool};

/// Target edge weight per scheduling chunk: large enough to amortize the
/// cursor fetch_add, small enough that a hub vertex doesn't serialize a
/// level.
const CHUNK_WEIGHT: u64 = 2048;

/// Switch top-down -> bottom-up when the frontier's out-edges exceed
/// 1/ALPHA of the unexplored edges (GAP's tuned default).
const ALPHA: u64 = 15;

/// Switch bottom-up -> top-down when the frontier shrinks below 1/BETA of
/// the vertices (GAP's tuned default).
const BETA: usize = 18;

/// Traversal direction chosen for one level of [`bfs_dir_opt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelDir {
    /// Out-edges of frontier vertices relaxed (queue frontier).
    TopDown,
    /// Unreached vertices scanned their in-edges for parents (bitmap frontier).
    BottomUp,
}

/// One executed level of a direction-optimized traversal, with the
/// heuristic's trigger values as they stood when the direction was chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRecord {
    /// Depth of the frontier entering this step.
    pub depth: i64,
    /// Direction the step executed in.
    pub dir: LevelDir,
    /// Vertices in the frontier entering the step.
    pub frontier_len: usize,
    /// Out-edge scout count (the alpha trigger's left side). During a
    /// bottom-up phase this carries the value that triggered the switch —
    /// the heuristic does not recompute it until the phase exits.
    pub scout: u64,
    /// Remaining unexplored-edge estimate (the alpha trigger's right side).
    pub edges_to_check: u64,
}

/// Execution trajectory of one [`bfs_dir_opt`] run: every level with its
/// direction and trigger values, plus the direction-switch counts. The
/// trajectory is a pure function of the graph and source (the heuristic
/// inputs are schedule-independent), so tests can check it against a
/// reference simulation driven by sequential BFS level data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirOptReport {
    /// Per-level records in execution order.
    pub levels: Vec<LevelRecord>,
    /// Top-down -> bottom-up transitions (alpha trigger firings).
    pub switches_to_bottom_up: u64,
    /// Bottom-up -> top-down transitions (beta trigger firings) that
    /// resumed traversal; a bottom-up phase that drains the frontier ends
    /// the run and is not counted.
    pub switches_to_top_down: u64,
}

impl DirOptReport {
    /// Publish the trajectory into `reg` under the `bfs.*` metric schema:
    /// per-level frontier occupancy as a log₂ histogram, level and
    /// direction-switch counters.
    pub fn publish(&self, reg: &graphbig_telemetry::Registry) {
        let occupancy = reg.histogram("bfs.frontier.occupancy");
        for record in &self.levels {
            occupancy.record(record.frontier_len as u64);
        }
        reg.counter("bfs.levels").add(self.levels.len() as u64);
        reg.counter("bfs.switches.to_bottom_up")
            .add(self.switches_to_bottom_up);
        reg.counter("bfs.switches.to_top_down")
            .add(self.switches_to_top_down);
    }
}

/// One top-down expansion: relax out-edges of `frontier` (a queue), CAS
/// unreached vertices to `level + 1`, and gather discoveries in
/// deterministic chunk order into `next`. Returns the sum of out-degrees of
/// the discovered vertices (the scout count for the direction heuristic).
fn top_down_step<G: Adjacency>(
    pool: &ThreadPool,
    g: &G,
    levels: &[AtomicI64],
    frontier: &[u32],
    level: i64,
    sink: &ChunkedSink,
    next: &mut Vec<u32>,
) -> u64 {
    // Serial fast path: one worker, or a frontier small enough for a single
    // chunk. Emits in frontier order — exactly what the chunk-ordered merge
    // would produce — while skipping the chunking and sink bookkeeping.
    let serial = pool.threads() == 1;
    let chunks = if serial {
        Vec::new()
    } else {
        parfor::weighted_chunks(frontier.len(), CHUNK_WEIGHT, |i| {
            g.out_degree(frontier[i]) as u64 + 1
        })
    };
    // Relax `u`'s out-arcs, pushing discoveries onto `buf`; returns their
    // out-degree sum.
    let expand = |u: u32, buf: &mut Vec<u32>| -> u64 {
        let mut scout = 0u64;
        g.for_each_out(u, |v| {
            if levels[v as usize]
                .compare_exchange(-1, level + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                buf.push(v);
                scout += g.out_degree(v) as u64;
            }
        });
        scout
    };
    if serial || chunks.len() == 1 {
        next.clear();
        return frontier.iter().map(|&u| expand(u, next)).sum();
    }
    let scout = AtomicU64::new(0);
    parfor::parallel_for_chunk_list(pool, &chunks, |worker, chunk, range| {
        let mut buf = sink.take_buffer(worker);
        let mut local_scout = 0u64;
        for i in range {
            local_scout += expand(frontier[i], &mut buf);
        }
        scout.fetch_add(local_scout, Ordering::Relaxed);
        sink.commit(worker, chunk, buf);
    });
    next.clear();
    sink.drain_into(next);
    scout.into_inner()
}

/// Level-synchronous parallel BFS over an out-adjacency view — a `Csr` or
/// anything layered over one — always top-down; returns
/// per-vertex levels (`-1` = unreached) and the number of visited vertices.
///
/// Per-level output is merged from chunk-tagged worker buffers by prefix-sum
/// compaction, so the merge is schedule-independent (frontier order depends
/// only on which chunk discovered each vertex, never on worker timing) and
/// the level array is bit-identical for every thread count — with no
/// per-level sort.
pub fn bfs<G: Adjacency>(pool: &ThreadPool, g: &G, source: u32) -> (Vec<i64>, u64) {
    let n = g.num_vertices();
    if n == 0 || source as usize >= n {
        return (Vec::new(), 0);
    }
    let levels: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    levels[source as usize].store(0, Ordering::Relaxed);
    let sink = ChunkedSink::new(pool.threads());
    let mut frontier = vec![source];
    let mut next: Vec<u32> = Vec::new();
    let mut level = 0i64;
    let mut visited = 1u64;
    while !frontier.is_empty() {
        top_down_step(pool, g, &levels, &frontier, level, &sink, &mut next);
        visited += next.len() as u64;
        std::mem::swap(&mut frontier, &mut next);
        level += 1;
    }
    let levels = levels.into_iter().map(|a| a.into_inner()).collect();
    (levels, visited)
}

/// One bottom-up step: every unreached vertex scans its *in*-edges for a
/// parent in the (dense) frontier and adopts `level + 1` on the first hit.
/// Returns (next-frontier bitmap, awake count).
fn bottom_up_step<G: InAdjacency>(
    pool: &ThreadPool,
    g: &G,
    levels: &[AtomicI64],
    frontier: &AtomicBitmap,
    level: i64,
) -> (AtomicBitmap, usize) {
    let n = levels.len();
    let next = AtomicBitmap::new(n);
    let awake = AtomicU64::new(0);
    let chunks = parfor::weighted_chunks(n, CHUNK_WEIGHT, |v| g.in_degree(v as u32) as u64 + 1);
    parfor::parallel_for_chunk_list(pool, &chunks, |_worker, _chunk, range| {
        let mut local_awake = 0u64;
        for v in range {
            if levels[v].load(Ordering::Relaxed) != -1 {
                continue;
            }
            if g.any_in(v as u32, |u| frontier.get(u as usize)) {
                levels[v].store(level + 1, Ordering::Relaxed);
                next.set(v);
                local_awake += 1;
            }
        }
        awake.fetch_add(local_awake, Ordering::Relaxed);
    });
    (next, awake.into_inner() as usize)
}

/// Direction-optimizing parallel BFS (Beamer's hybrid as tuned in the GAP
/// benchmark suite): top-down while the frontier is small, bottom-up once
/// the frontier's out-edges dominate the unexplored edges, back to top-down
/// when the frontier collapses. Returns per-vertex levels (`-1` =
/// unreached) and the visited count — identical output to [`bfs`] — plus
/// the full [`DirOptReport`] trajectory. Cancellation is cooperative,
/// polled at every level boundary in both traversal directions; the global
/// metric registry is not touched ([`DirOptReport::publish`] exports the
/// trajectory where a caller wants it).
pub fn bfs_dir_opt<G: InAdjacency>(
    pool: &ThreadPool,
    g: &G,
    source: u32,
    cancel: &CancelToken,
) -> Result<(Vec<i64>, u64, DirOptReport), Cancelled> {
    let mut report = DirOptReport::default();
    let n = g.num_vertices();
    if n == 0 || source as usize >= n {
        return Ok((Vec::new(), 0, report));
    }
    let m = g.num_edges() as u64;
    let levels: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    levels[source as usize].store(0, Ordering::Relaxed);
    let sink = ChunkedSink::new(pool.threads());
    let mut frontier = Frontier::singleton(source);
    let mut scout = g.out_degree(source) as u64;
    let mut edges_to_check = m;
    let mut level = 0i64;
    let mut next_queue: Vec<u32> = Vec::new();

    while !frontier.is_empty() {
        cancel.step(frontier.len() as u64)?;
        if scout > edges_to_check / ALPHA {
            report.switches_to_bottom_up += 1;
            // Bottom-up phase: stay here while the frontier is still growing
            // or still a large fraction of the graph.
            frontier.ensure_dense(n);
            loop {
                let before = frontier.len();
                cancel.step(before as u64)?;
                report.levels.push(LevelRecord {
                    depth: level,
                    dir: LevelDir::BottomUp,
                    frontier_len: before,
                    scout,
                    edges_to_check,
                });
                let (bits, awake) = bottom_up_step(
                    pool,
                    g,
                    &levels,
                    frontier.as_dense().expect("ensured dense"),
                    level,
                );
                level += 1;
                frontier = Frontier::Dense { bits, count: awake };
                if awake == 0 || (awake < before && awake * BETA < n) {
                    break;
                }
            }
            // Back to top-down: recompute the scout count for the (possibly
            // sparse) surviving frontier.
            let mut s = 0u64;
            frontier.for_each(|v| s += g.out_degree(v) as u64);
            scout = s;
            if let Frontier::Dense { bits, count } = frontier {
                frontier = Frontier::from_bitmap(bits, count);
            }
            if !frontier.is_empty() {
                report.switches_to_top_down += 1;
            }
        } else {
            report.levels.push(LevelRecord {
                depth: level,
                dir: LevelDir::TopDown,
                frontier_len: frontier.len(),
                scout,
                edges_to_check,
            });
            edges_to_check = edges_to_check.saturating_sub(scout);
            // The frontier may still be occupancy-dense even when the
            // heuristic picks top-down; materialize a queue in that case.
            let materialized;
            let queue: &[u32] = match &frontier {
                Frontier::Sparse(q) => q,
                Frontier::Dense { bits, .. } => {
                    materialized = bits.to_vec();
                    &materialized
                }
            };
            scout = top_down_step(pool, g, &levels, queue, level, &sink, &mut next_queue);
            level += 1;
            let produced = std::mem::take(&mut next_queue);
            frontier = Frontier::from_queue(produced, n);
        }
    }
    let visited = levels
        .iter()
        .filter(|l| l.load(Ordering::Relaxed) >= 0)
        .count() as u64;
    Ok((
        levels.into_iter().map(|a| a.into_inner()).collect(),
        visited,
        report,
    ))
}

/// Parallel degree centrality (out-degree + in-degree) over the out rows
/// and the in rows of one graph; returns normalized scores. Row faces
/// because the degree is the result: [`Rows::degree`] is exact, where an
/// [`InAdjacency`] view may answer with an upper bound.
pub fn dcentr<G: Rows>(pool: &ThreadPool, out: &G, inc: &G) -> Vec<f64> {
    let n = out.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let scores: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let denom = (n.saturating_sub(1)).max(1) as f64;
    parfor::parallel_for(pool, 0..n, 256, |u| {
        let d = out.degree(u as u32) + inc.degree(u as u32);
        let c = d as f64 / denom;
        scores[u].store(c.to_bits(), Ordering::Relaxed);
    });
    scores
        .into_iter()
        .map(|a| f64::from_bits(a.into_inner()))
        .collect()
}

/// Parallel connected components via frontier-driven min-label propagation
/// (undirected view; symmetrize the CSR first for directed graphs).
/// Returns per-vertex labels — the minimum dense id in each component.
///
/// Unlike the earlier whole-graph pull sweep repeated until fixpoint, only
/// vertices whose label just improved push to their neighbors, so late
/// rounds touch a shrinking active set instead of all `n` vertices. Labels
/// converge to the per-component minimum — a unique fixed point, hence
/// deterministic for any schedule.
///
/// `cancel` is polled once per propagation round
/// ([`CancelToken::never`] runs unconditionally). Round bitmaps cycle
/// through a one-deep spare pool ([`AtomicBitmap::reset`]), so steady-state
/// rounds allocate nothing.
pub fn ccomp<G: Rows>(
    pool: &ThreadPool,
    g: &G,
    cancel: &CancelToken,
) -> Result<Vec<u32>, Cancelled> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(Vec::new());
    }
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    // Round 0: every vertex is active.
    let mut frontier = Frontier::from_queue((0..n as u32).collect(), n);
    let mut spare: Option<AtomicBitmap> = None;
    while !frontier.is_empty() {
        cancel.check()?;
        let next = match spare.take() {
            Some(mut b) => {
                b.reset();
                b
            }
            None => AtomicBitmap::new(n),
        };
        let awake = AtomicU64::new(0);
        let relax = |u: u32, local_awake: &mut u64| {
            let lu = labels[u as usize].load(Ordering::Relaxed);
            for &v in g.row(u) {
                if labels[v as usize].fetch_min(lu, Ordering::Relaxed) > lu && next.set(v as usize)
                {
                    *local_awake += 1;
                }
            }
        };
        match &frontier {
            Frontier::Sparse(q) => {
                let chunks =
                    parfor::weighted_chunks(q.len(), CHUNK_WEIGHT, |i| g.degree(q[i]) as u64 + 1);
                parfor::parallel_for_chunk_list(pool, &chunks, |_w, _c, range| {
                    let mut local = 0u64;
                    for i in range {
                        relax(q[i], &mut local);
                    }
                    awake.fetch_add(local, Ordering::Relaxed);
                });
            }
            Frontier::Dense { bits, .. } => {
                let chunks =
                    parfor::weighted_chunks(n, CHUNK_WEIGHT, |v| g.degree(v as u32) as u64 + 1);
                parfor::parallel_for_chunk_list(pool, &chunks, |_w, _c, range| {
                    let mut local = 0u64;
                    for v in range {
                        if bits.get(v) {
                            relax(v as u32, &mut local);
                        }
                    }
                    awake.fetch_add(local, Ordering::Relaxed);
                });
            }
        }
        // Build the next frontier the way `Frontier::from_bitmap` would,
        // but recycle whichever bitmap falls out of use (the one dropped by
        // a dense->sparse conversion, or the previous round's dense one).
        let count = awake.into_inner() as usize;
        let produced = if should_be_dense(count, n) {
            Frontier::Dense { bits: next, count }
        } else {
            let queue = next.to_vec();
            spare = Some(next);
            Frontier::Sparse(queue)
        };
        if let Frontier::Dense { bits, .. } = std::mem::replace(&mut frontier, produced) {
            spare.get_or_insert(bits);
        }
    }
    Ok(labels.into_iter().map(|a| a.into_inner()).collect())
}

/// Parallel k-core decomposition over a **symmetrized, deduplicated** CSR
/// (build with `Csr::symmetrize`, which also drops self-loops — the same
/// undirected view the sequential Matula–Beck peeler uses). Returns each
/// vertex's core number.
///
/// ParK-style level-synchronous peeling: all vertices of the current
/// minimum degree `k` peel together; each removal decrements neighbor
/// degrees with a clamp at `k` (`fetch_update`), and exactly the thread
/// that observes the `k + 1 -> k` transition enqueues the neighbor for this
/// level's next wave. Core numbers are a graph invariant, so the output is
/// deterministic for any schedule. `cancel` is polled once per peel level
/// and once per wave inside a level.
pub fn kcore<G: Rows>(
    pool: &ThreadPool,
    g: &G,
    cancel: &CancelToken,
) -> Result<Vec<u32>, Cancelled> {
    let n = g.num_vertices();
    if n == 0 {
        return Ok(Vec::new());
    }
    const UNPEELED: u32 = u32::MAX;
    let deg: Vec<AtomicU32> = (0..n).map(|v| AtomicU32::new(g.degree(v as u32))).collect();
    let core: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNPEELED)).collect();
    let sink = ChunkedSink::new(pool.threads());
    let mut remaining = n;
    let mut k = 0u32;
    let mut frontier: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    while remaining > 0 {
        cancel.check()?;
        // Seed this level: alive vertices whose degree has reached k.
        // (Alive vertices always have degree >= k here, see the clamp.)
        let chunks = parfor::weighted_chunks(n, CHUNK_WEIGHT, |_| 1);
        parfor::parallel_for_chunk_list(pool, &chunks, |worker, chunk, range| {
            let mut buf = sink.take_buffer(worker);
            for v in range {
                if core[v].load(Ordering::Relaxed) == UNPEELED
                    && deg[v].load(Ordering::Relaxed) <= k
                {
                    buf.push(v as u32);
                }
            }
            sink.commit(worker, chunk, buf);
        });
        frontier.clear();
        sink.drain_into(&mut frontier);
        if frontier.is_empty() {
            // Nothing at this k: jump straight to the smallest alive degree.
            k = parfor::parallel_reduce(
                pool,
                0..n,
                4096,
                u32::MAX,
                |v| {
                    if core[v].load(Ordering::Relaxed) == UNPEELED {
                        deg[v].load(Ordering::Relaxed)
                    } else {
                        u32::MAX
                    }
                },
                |a, b| a.min(b),
            );
            continue;
        }
        // Peel waves at this k until no more degrees collapse to k.
        while !frontier.is_empty() {
            cancel.check()?;
            remaining -= frontier.len();
            let chunks = parfor::weighted_chunks(frontier.len(), CHUNK_WEIGHT, |i| {
                g.degree(frontier[i]) as u64 + 1
            });
            let f = &frontier;
            parfor::parallel_for_chunk_list(pool, &chunks, |worker, chunk, range| {
                let mut buf = sink.take_buffer(worker);
                for i in range {
                    let v = f[i];
                    core[v as usize].store(k, Ordering::Relaxed);
                    for &u in g.row(v) {
                        // Decrement, clamped at k: peeled/at-k neighbors stay
                        // untouched, and exactly one decrementer sees k+1.
                        let prev = deg[u as usize].fetch_update(
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                            |d| if d > k { Some(d - 1) } else { None },
                        );
                        if prev == Ok(k + 1) {
                            buf.push(u);
                        }
                    }
                }
                sink.commit(worker, chunk, buf);
            });
            next.clear();
            sink.drain_into(&mut next);
            std::mem::swap(&mut frontier, &mut next);
        }
        k += 1;
    }
    Ok(core.into_iter().map(|a| a.into_inner()).collect())
}

/// Parallel SSSP via round-synchronous Bellman-Ford relaxation (the
/// shared-memory analogue of the GPU kernel); returns per-vertex distances
/// (`f32::INFINITY` = unreached). `cancel` is polled once per relaxation
/// round.
pub fn spath<G: Rows>(
    pool: &ThreadPool,
    g: &G,
    source: u32,
    cancel: &CancelToken,
) -> Result<Vec<f32>, Cancelled> {
    let n = g.num_vertices();
    if n == 0 || source as usize >= n {
        return Ok(Vec::new());
    }
    let dist: Vec<AtomicU32> = (0..n)
        .map(|_| AtomicU32::new(f32::INFINITY.to_bits()))
        .collect();
    dist[source as usize].store(0f32.to_bits(), Ordering::Relaxed);
    for _round in 0..n {
        cancel.check()?;
        let changed = AtomicU64::new(0);
        parfor::parallel_for(pool, 0..n, 128, |u| {
            let du = f32::from_bits(dist[u].load(Ordering::Relaxed));
            if !du.is_finite() {
                return;
            }
            let ws = g.row_weights(u as u32);
            for (i, &v) in g.row(u as u32).iter().enumerate() {
                let cand = (du + ws[i]).to_bits();
                // non-negative f32 bits compare like the floats themselves
                if dist[v as usize].fetch_min(cand, Ordering::Relaxed) > cand {
                    changed.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        if changed.load(Ordering::Relaxed) == 0 {
            break;
        }
    }
    Ok(dist
        .into_iter()
        .map(|a| f32::from_bits(a.into_inner()))
        .collect())
}

/// Parallel Luby–Jones coloring over a (symmetrized) CSR; identical colors
/// to the sequential and GPU implementations (same `hash_id` priorities).
/// Returns per-vertex colors.
pub fn gcolor<G: Rows>(pool: &ThreadPool, g: &G) -> Vec<i64> {
    use graphbig_framework::index::hash_id;
    let n = g.num_vertices();
    let color: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(-1)).collect();
    let mut remaining = n;
    while remaining > 0 {
        let colored_this_round = AtomicU64::new(0);
        parfor::parallel_for(pool, 0..n, 128, |u| {
            if color[u].load(Ordering::Relaxed) >= 0 {
                return;
            }
            let my_id = g.id_of(u as u32);
            let my_pri = hash_id(my_id);
            let mut is_max = true;
            for &v in g.row(u as u32) {
                if v as usize == u || color[v as usize].load(Ordering::Relaxed) >= 0 {
                    continue;
                }
                let vid = g.id_of(v);
                let vp = hash_id(vid);
                if vp > my_pri || (vp == my_pri && vid > my_id) {
                    is_max = false;
                    break;
                }
            }
            if is_max {
                let mut used: Vec<i64> = g
                    .row(u as u32)
                    .iter()
                    .filter_map(|&v| {
                        let c = color[v as usize].load(Ordering::Relaxed);
                        (c >= 0).then_some(c)
                    })
                    .collect();
                used.sort_unstable();
                used.dedup();
                let mut pick = 0i64;
                for c in used {
                    if c == pick {
                        pick += 1;
                    } else if c > pick {
                        break;
                    }
                }
                color[u].store(pick, Ordering::Relaxed);
                colored_this_round.fetch_add(1, Ordering::Relaxed);
            }
        });
        let done = colored_this_round.load(Ordering::Relaxed) as usize;
        assert!(done > 0, "Luby-Jones always makes progress");
        remaining -= done;
    }
    color.into_iter().map(|c| c.into_inner()).collect()
}

/// Parallel triangle count over a symmetrized, adjacency-sorted CSR.
pub fn tc<G: Rows>(pool: &ThreadPool, g: &G) -> u64 {
    let n = g.num_vertices();
    parfor::parallel_reduce(
        pool,
        0..n,
        64,
        0u64,
        |u| {
            let u = u as u32;
            let mut count = 0u64;
            for &v in g.row(u) {
                if v <= u {
                    continue;
                }
                // merge-intersect N(u) and N(v) above v
                let (a, b) = (g.row(u), g.row(v));
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            if a[i] > v {
                                count += 1;
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            count
        },
        |a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig_datagen::Dataset;
    use graphbig_framework::csr::{BiCsr, Csr};
    use graphbig_framework::PropertyGraph;

    /// Levels and visited count of a never-cancelled dir-opt BFS from 0.
    fn dir_opt(pool: &ThreadPool, bi: &BiCsr) -> (Vec<i64>, u64) {
        let (levels, visited, _) = bfs_dir_opt(pool, bi, 0, &CancelToken::never()).unwrap();
        (levels, visited)
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn ldbc(n: usize) -> (PropertyGraph, Csr) {
        let g = Dataset::Ldbc.generate_with_vertices(n);
        let csr = Csr::from_graph(&g);
        (g, csr)
    }

    #[test]
    fn parallel_bfs_matches_sequential_levels() {
        let (mut g, csr) = ldbc(400);
        let (levels, visited) = bfs(&pool(), &csr, 0);
        let root = g.vertex_ids()[0];
        let seq = crate::bfs::run(&mut g, root);
        assert_eq!(visited, seq.visited);
        for (dense, &l) in levels.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            let seq_level = crate::bfs::level_of(&g, id).map(|x| x as i64).unwrap_or(-1);
            assert_eq!(l, seq_level, "vertex {id}");
        }
    }

    #[test]
    fn parallel_dcentr_matches_sequential() {
        let (mut g, csr) = ldbc(300);
        let scores = dcentr(&pool(), &csr, &csr.transpose());
        crate::dcentr::run(&mut g);
        for (dense, &s) in scores.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            let want = crate::dcentr::centrality_of(&g, id).unwrap();
            assert!((s - want).abs() < 1e-12, "vertex {id}: {s} vs {want}");
        }
    }

    /// The scores the kernel produced when it transposed the CSR itself on
    /// every call; reading the stored transpose must not move a bit.
    #[test]
    fn dcentr_from_the_stored_transpose_is_bit_identical() {
        for g in [
            Dataset::Ldbc.generate_with_vertices(250),
            Dataset::CaRoad.generate_with_vertices(400),
        ] {
            let csr = Csr::from_graph(&g);
            let n = csr.num_vertices();
            let transpose = csr.transpose();
            let denom = (n - 1).max(1) as f64;
            let old: Vec<u64> = (0..n as u32)
                .map(|u| ((csr.degree(u) + transpose.degree(u)) as f64 / denom).to_bits())
                .collect();
            let new = dcentr(&pool(), &csr, &transpose);
            assert_eq!(new.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), old);
        }
    }

    #[test]
    fn parallel_ccomp_matches_sequential_count() {
        let (mut g, csr) = ldbc(300);
        let sym = csr.symmetrize();
        let labels = ccomp(&pool(), &sym, &CancelToken::never()).unwrap();
        let mut distinct: Vec<u32> = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let seq = crate::ccomp::run(&mut g);
        assert_eq!(distinct.len() as u64, seq.components);
    }

    #[test]
    fn parallel_tc_matches_sequential() {
        let (mut g, csr) = ldbc(200);
        let sym = csr.symmetrize();
        let par = tc(&pool(), &sym);
        let seq = crate::tc::run(&mut g);
        assert_eq!(par, seq.triangles);
    }

    #[test]
    fn parallel_spath_matches_sequential_dijkstra() {
        let (mut g, csr) = ldbc(250);
        let dist = spath(&pool(), &csr, 0, &CancelToken::never()).unwrap();
        let root = csr.id_of(0);
        crate::spath::run(&mut g, root);
        for (dense, &d) in dist.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            match crate::spath::distance_of(&g, id) {
                Some(want) => assert!((d as f64 - want).abs() < 1e-4, "vertex {id}"),
                None => assert!(d.is_infinite(), "vertex {id}"),
            }
        }
    }

    #[test]
    fn parallel_gcolor_matches_sequential_colors() {
        let g = Dataset::WatsonGene.generate_with_vertices(300);
        let csr = Csr::from_graph(&g);
        let colors = gcolor(&pool(), &csr);
        let mut g2 = Dataset::WatsonGene.generate_with_vertices(300);
        crate::gcolor::run(&mut g2);
        for (dense, &c) in colors.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            assert_eq!(Some(c), crate::gcolor::color_of(&g2, id), "vertex {id}");
        }
    }

    #[test]
    fn dir_opt_bfs_matches_sequential_levels() {
        let (mut g, csr) = ldbc(400);
        let bi = BiCsr::directed(csr.clone());
        let (levels, visited) = dir_opt(&pool(), &bi);
        let root = g.vertex_ids()[0];
        let seq = crate::bfs::run(&mut g, root);
        assert_eq!(visited, seq.visited);
        for (dense, &l) in levels.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            let seq_level = crate::bfs::level_of(&g, id).map(|x| x as i64).unwrap_or(-1);
            assert_eq!(l, seq_level, "vertex {id}");
        }
    }

    #[test]
    fn dir_opt_bfs_matches_top_down_everywhere() {
        // Dense enough that the heuristic actually goes bottom-up.
        for n in [64usize, 300, 900] {
            let (_, csr) = ldbc(n);
            let bi = BiCsr::directed(csr.clone());
            let (td, tv) = bfs(&pool(), &csr, 0);
            let (opt, ov) = dir_opt(&pool(), &bi);
            assert_eq!(td, opt, "n={n}");
            assert_eq!(tv, ov, "n={n}");
        }
    }

    #[test]
    fn dir_opt_bfs_on_symmetric_view() {
        let (_, csr) = ldbc(300);
        let sym = csr.symmetrize();
        let (td, _) = bfs(&pool(), &sym, 0);
        let bi = BiCsr::symmetric(sym);
        let (opt, _) = dir_opt(&pool(), &bi);
        assert_eq!(td, opt);
    }

    #[test]
    fn cancellable_kernels_bail_on_fired_token() {
        let (_, csr) = ldbc(200);
        let p = pool();
        let token = CancelToken::new();
        token.cancel();
        let bi = BiCsr::directed(csr.clone());
        assert!(bfs_dir_opt(&p, &bi, 0, &token).is_err());
        let sym = csr.symmetrize();
        assert_eq!(ccomp(&p, &sym, &token), Err(Cancelled));
        assert_eq!(kcore(&p, &sym, &token), Err(Cancelled));
        assert_eq!(spath(&p, &csr, 0, &token), Err(Cancelled));
    }

    #[test]
    fn cancellable_kernels_match_plain_with_live_token() {
        let (_, csr) = ldbc(250);
        let p = pool();
        let live = CancelToken::new();
        let bi = BiCsr::directed(csr.clone());
        let (levels, visited, _) = bfs_dir_opt(&p, &bi, 0, &live).unwrap();
        let (want_levels, want_visited) = bfs(&p, &csr, 0);
        assert_eq!(levels, want_levels);
        assert_eq!(visited, want_visited);
    }

    #[test]
    fn parallel_kcore_matches_sequential() {
        let (mut g, csr) = ldbc(300);
        let sym = csr.symmetrize();
        let cores = kcore(&pool(), &sym, &CancelToken::never()).unwrap();
        crate::kcore::run(&mut g);
        for (dense, &c) in cores.iter().enumerate() {
            let id = csr.id_of(dense as u32);
            let want = crate::kcore::core_of(&g, id).expect("vertex exists");
            assert_eq!(c, want, "vertex {id}");
        }
    }

    #[test]
    fn kcore_handles_disconnected_and_isolated() {
        // Two triangles joined by a bridge, plus an isolated vertex.
        let edges = [
            (0u32, 1u32, 1.0f32),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (5, 3, 1.0),
            (0, 3, 1.0),
        ];
        let sym = Csr::from_edges(7, &edges).symmetrize();
        let cores = kcore(&pool(), &sym, &CancelToken::never()).unwrap();
        assert_eq!(cores, vec![2, 2, 2, 2, 2, 2, 0]);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let (_, csr) = ldbc(250);
        let one = ThreadPool::new(1);
        let eight = ThreadPool::new(8);
        assert_eq!(bfs(&one, &csr, 0).0, bfs(&eight, &csr, 0).0);
        let bi = BiCsr::directed(csr.clone());
        assert_eq!(dir_opt(&one, &bi), dir_opt(&eight, &bi));
        let sym = csr.symmetrize();
        let never = CancelToken::never();
        assert_eq!(ccomp(&one, &sym, &never), ccomp(&eight, &sym, &never));
        assert_eq!(kcore(&one, &sym, &never), kcore(&eight, &sym, &never));
    }

    #[test]
    fn empty_csr_is_handled() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(bfs(&pool(), &csr, 0).1, 0);
        assert_eq!(dir_opt(&pool(), &BiCsr::directed(csr.clone())).1, 0);
        assert!(dcentr(&pool(), &csr, &csr.transpose()).is_empty());
        let never = CancelToken::never();
        assert_eq!(ccomp(&pool(), &csr, &never), Ok(Vec::new()));
        assert_eq!(kcore(&pool(), &csr, &never), Ok(Vec::new()));
        assert_eq!(tc(&pool(), &csr), 0);
    }

    /// Replay the alpha/beta heuristic over per-depth frontier sizes and
    /// scout counts taken from a sequential (one-thread, level-synchronous)
    /// traversal — the schedule-free reference trajectory the parallel
    /// direction-optimizer must reproduce exactly.
    fn simulate_trajectory(bi: &BiCsr, seq_levels: &[i64]) -> DirOptReport {
        let n = bi.num_vertices();
        let out = bi.out();
        let max_depth = seq_levels.iter().copied().max().unwrap_or(-1);
        let mut report = DirOptReport::default();
        if max_depth < 0 {
            return report;
        }
        // size[d] / scout_at[d]: frontier occupancy and out-edge scout count
        // of the depth-d frontier; one trailing empty slot for lookahead.
        let depths = max_depth as usize + 2;
        let mut size = vec![0usize; depths];
        let mut scout_at = vec![0u64; depths];
        for (v, &l) in seq_levels.iter().enumerate() {
            if l >= 0 {
                size[l as usize] += 1;
                scout_at[l as usize] += out.degree(v as u32) as u64;
            }
        }
        let mut edges_to_check = bi.num_edges() as u64;
        let mut d = 0usize;
        while size[d] > 0 {
            let scout = scout_at[d];
            if scout > edges_to_check / ALPHA {
                report.switches_to_bottom_up += 1;
                loop {
                    let before = size[d];
                    report.levels.push(LevelRecord {
                        depth: d as i64,
                        dir: LevelDir::BottomUp,
                        frontier_len: before,
                        scout,
                        edges_to_check,
                    });
                    let awake = size[d + 1];
                    d += 1;
                    if awake == 0 || (awake < before && awake * BETA < n) {
                        break;
                    }
                }
                if size[d] > 0 {
                    report.switches_to_top_down += 1;
                }
            } else {
                report.levels.push(LevelRecord {
                    depth: d as i64,
                    dir: LevelDir::TopDown,
                    frontier_len: size[d],
                    scout,
                    edges_to_check,
                });
                edges_to_check = edges_to_check.saturating_sub(scout);
                d += 1;
            }
        }
        report
    }

    #[test]
    fn dir_opt_report_trivial_inputs_are_empty() {
        let empty = BiCsr::directed(Csr::from_edges(0, &[]));
        let (_, visited, report) = bfs_dir_opt(&pool(), &empty, 0, &CancelToken::never()).unwrap();
        assert_eq!(visited, 0);
        assert_eq!(report, DirOptReport::default());
        // Out-of-range source: no traversal, no trajectory.
        let (_, csr) = ldbc(50);
        let bi = BiCsr::directed(csr);
        let (_, visited, report) = bfs_dir_opt(&pool(), &bi, 9999, &CancelToken::never()).unwrap();
        assert_eq!(visited, 0);
        assert!(report.levels.is_empty());
    }

    #[test]
    fn dir_opt_report_single_vertex_graph() {
        // One vertex, no edges: exactly one top-down level, no switches.
        let bi = BiCsr::directed(Csr::from_edges(1, &[]));
        let (levels, visited, report) =
            bfs_dir_opt(&pool(), &bi, 0, &CancelToken::never()).unwrap();
        assert_eq!(levels, vec![0]);
        assert_eq!(visited, 1);
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.levels[0].dir, LevelDir::TopDown);
        assert_eq!(report.levels[0].frontier_len, 1);
        assert_eq!(report.levels[0].scout, 0);
        assert_eq!(report.switches_to_bottom_up, 0);
        assert_eq!(report.switches_to_top_down, 0);
    }

    #[test]
    fn dir_opt_report_source_without_out_edges() {
        // Edges exist elsewhere, but the source produces an empty frontier
        // at level 0: the run records that single level and stops.
        let edges = [(1u32, 2u32, 1.0f32), (2, 3, 1.0), (3, 1, 1.0)];
        let bi = BiCsr::directed(Csr::from_edges(4, &edges));
        let (levels, visited, report) =
            bfs_dir_opt(&pool(), &bi, 0, &CancelToken::never()).unwrap();
        assert_eq!(visited, 1);
        assert_eq!(levels, vec![0, -1, -1, -1]);
        assert_eq!(report.levels.len(), 1);
        assert_eq!(report.levels[0].dir, LevelDir::TopDown);
        assert_eq!(report.switches_to_bottom_up, 0);
        assert_eq!(report.switches_to_top_down, 0);
    }

    #[test]
    fn dir_opt_trajectory_matches_reference_simulation() {
        // The executed trajectory (directions, occupancy, trigger values,
        // switch counters) must equal the alpha/beta rules replayed over
        // sequential per-level data — including the dense->sparse switch
        // back to top-down near the final levels.
        let one = ThreadPool::new(1);
        let mut saw_bottom_up = false;
        let mut saw_switch_back = false;
        for n in [64usize, 300, 900] {
            let (_, csr) = ldbc(n);
            let sym = csr.symmetrize();
            for bi in [BiCsr::directed(csr), BiCsr::symmetric(sym)] {
                let (seq_levels, _) = bfs(&one, bi.out(), 0);
                let expected = simulate_trajectory(&bi, &seq_levels);
                let (_, _, report) = bfs_dir_opt(&pool(), &bi, 0, &CancelToken::never()).unwrap();
                assert_eq!(report, expected, "n={n}");
                saw_bottom_up |= report.switches_to_bottom_up > 0;
                saw_switch_back |= report.switches_to_top_down > 0;
                // A switch back means a top-down level follows a bottom-up
                // one in execution order.
                if report.switches_to_top_down > 0 {
                    let resumed = report
                        .levels
                        .windows(2)
                        .any(|w| w[0].dir == LevelDir::BottomUp && w[1].dir == LevelDir::TopDown);
                    assert!(resumed, "n={n}: counted a switch back but never resumed");
                }
            }
        }
        assert!(saw_bottom_up, "no graph ever triggered bottom-up");
        assert!(saw_switch_back, "no graph ever switched back to top-down");
    }

    #[test]
    fn dir_opt_report_is_thread_count_independent() {
        let (_, csr) = ldbc(300);
        let bi = BiCsr::directed(csr);
        let one = ThreadPool::new(1);
        let eight = ThreadPool::new(8);
        let (_, _, a) = bfs_dir_opt(&one, &bi, 0, &CancelToken::never()).unwrap();
        let (_, _, b) = bfs_dir_opt(&eight, &bi, 0, &CancelToken::never()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dir_opt_publish_exports_bfs_schema() {
        let (_, csr) = ldbc(300);
        let bi = BiCsr::directed(csr);
        let (_, _, report) = bfs_dir_opt(&pool(), &bi, 0, &CancelToken::never()).unwrap();
        let reg = graphbig_telemetry::Registry::new();
        report.publish(&reg);
        let snap = reg.snapshot();
        use graphbig_telemetry::MetricValue;
        assert_eq!(
            snap["bfs.levels"],
            MetricValue::Counter(report.levels.len() as u64)
        );
        assert_eq!(
            snap["bfs.switches.to_bottom_up"],
            MetricValue::Counter(report.switches_to_bottom_up)
        );
        assert_eq!(
            snap["bfs.switches.to_top_down"],
            MetricValue::Counter(report.switches_to_top_down)
        );
        match &snap["bfs.frontier.occupancy"] {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, report.levels.len() as u64);
                let occupancy_sum: u64 = report.levels.iter().map(|l| l.frontier_len as u64).sum();
                assert_eq!(h.sum, occupancy_sum);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
