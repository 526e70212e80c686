//! Multi-source BFS: up to 64 traversals share one pass over the graph.
//!
//! The MS-BFS trick (Then et al., "The More the Merrier") packs one bit
//! per concurrent source into a `u64` word per vertex. One level-
//! synchronous sweep advances *all* lanes at once: a frontier vertex
//! carries the mask of lanes that reached it last level, and relaxing an
//! edge ORs that mask into the neighbor's `seen` word — the 64-lane
//! generalization of the dense-bitmap frontier the single-source kernel
//! already uses. Shared edge scans are what the serving engine's batcher
//! amortizes: 64 coalesced BFS queries traverse each adjacency list once
//! instead of 64 times.
//!
//! Per-lane output is bit-identical to [`crate::parallel::bfs`] /
//! [`crate::parallel::bfs_dir_opt`] for the same source (BFS levels are
//! shortest hop distances, a pure function of graph and source, and every
//! discovery writes the schedule-independent value `level + 1`), so the
//! engine can fan batched results back to tickets whose digests match the
//! sequential per-source oracle exactly.
//!
//! Lanes are independent failure domains: a lane whose frontier empties
//! retires early, and a lane whose [`CancelToken`] fires is masked out of
//! the propagation at the next level boundary — in both cases without
//! perturbing any other lane's levels.

use std::sync::atomic::{AtomicI32, AtomicU16, AtomicU64, Ordering};

use graphbig_framework::csr::{Adjacency, InAdjacency};
use graphbig_runtime::frontier::ChunkedSink;
use graphbig_runtime::{parfor, CancelToken, Cancelled, ThreadPool};

use crate::parallel;

/// Maximum sources one shared pass can carry (bits in the per-vertex word).
pub const MSBFS_LANES: usize = 64;

/// Target edge weight per scheduling chunk (same constant as the
/// single-source kernels in [`crate::parallel`]).
const CHUNK_WEIGHT: u64 = 2048;

/// Switch to the bottom-up step when the frontier's out-edges exceed
/// 1/ALPHA of all edges. Deliberately *more conservative* than the
/// single-source kernel's GAP-tuned 15: the bottom-up early break stops a
/// vertex's in-edge scan once every lane still missing is covered, and
/// with a 64-wide `missing` mask that almost never fires in early levels
/// — the scan degrades to the full in-edge sweep. Measured on LDBC-64k,
/// pulling at the single-source threshold makes level 1 ~4x slower than
/// pushing it; by level 2 the union frontier saturates the graph and the
/// pull phase wins regardless, which is where the batch speedup over 64
/// separate direction-optimized traversals comes from.
const ALPHA: u64 = 4;

/// Below this many lanes the direction-optimized shared pass falls back to
/// per-source [`crate::parallel::bfs_dir_opt`] runs: the pull
/// step costs roughly one full in-edge sweep per level *regardless* of
/// lane count, so a thin batch pays nearly the 64-lane price to answer a
/// handful of requests. Measured on LDBC-16k the shared pass overtakes
/// per-source runs somewhere around a dozen lanes; 16 keeps a margin. A
/// narrower batch never reaches the shared pass.
pub const MIN_SHARED_LANES: usize = 16;

/// One shared top-down expansion over all live lanes. For each frontier
/// vertex `u` with visit mask `m`, each out-neighbor `v` adopts the lanes
/// in `m` it has not seen (`fetch_or` arbitration makes the newly-set bits
/// exclusive to one thread, which then owns the level writes for those
/// `(lane, v)` cells). Returns the OR of all newly-discovered lane masks —
/// a zero bit means that lane's next frontier is empty and it retires.
#[allow(clippy::too_many_arguments)]
fn ms_step<C: LevelCell, G: Adjacency>(
    pool: &ThreadPool,
    g: &G,
    live: u64,
    seen: &[AtomicU64],
    visit: &[AtomicU64],
    visit_next: &[AtomicU64],
    levels: &[C],
    lanes: usize,
    frontier: &[u32],
    level: i64,
    sink: &ChunkedSink,
    next: &mut Vec<u32>,
) -> u64 {
    // Discoveries at depth `level + 1` store `depth + 1` (see `drive`).
    let mark = level + 2;
    let expand = |u: u32, buf: &mut Vec<u32>| -> u64 {
        let mask = visit[u as usize].load(Ordering::Relaxed) & live;
        if mask == 0 {
            return 0;
        }
        let mut produced = 0u64;
        g.for_each_out(u, |v| {
            let vi = v as usize;
            let cand = mask & !seen[vi].load(Ordering::Relaxed);
            if cand == 0 {
                return;
            }
            let newly = cand & !seen[vi].fetch_or(cand, Ordering::Relaxed);
            if newly == 0 {
                return;
            }
            let mut bits = newly;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                levels[vi * lanes + l].store_mark(mark);
                bits &= bits - 1;
            }
            produced |= newly;
            if visit_next[vi].fetch_or(newly, Ordering::Relaxed) == 0 {
                buf.push(v);
            }
        });
        produced
    };
    // Serial fast path mirrors `top_down_step`: one worker or one chunk
    // skips the sink bookkeeping.
    let serial = pool.threads() == 1;
    let chunks = if serial {
        Vec::new()
    } else {
        parfor::weighted_chunks(frontier.len(), CHUNK_WEIGHT, |i| {
            g.out_degree(frontier[i]) as u64 + 1
        })
    };
    if serial || chunks.len() == 1 {
        next.clear();
        let mut produced = 0u64;
        for &u in frontier {
            produced |= expand(u, next);
        }
        return produced;
    }
    let produced = AtomicU64::new(0);
    parfor::parallel_for_chunk_list(pool, &chunks, |worker, chunk, range| {
        let mut buf = sink.take_buffer(worker);
        let mut local = 0u64;
        for i in range {
            local |= expand(frontier[i], &mut buf);
        }
        produced.fetch_or(local, Ordering::Relaxed);
        sink.commit(worker, chunk, buf);
    });
    next.clear();
    sink.drain_into(next);
    produced.into_inner()
}

/// One shared bottom-up expansion: every vertex still missing live lanes
/// scans its *in*-neighbors and adopts their frontier masks, stopping as
/// soon as its missing set is covered. Each vertex is owned by exactly one
/// chunk, so discoveries need no arbitration — the owner writes the level
/// cells and the `visit_next` word directly. Returns the OR of all
/// newly-discovered lane masks, exactly like [`ms_step`]; the caller
/// rebuilds the sparse frontier from the non-zero `visit_next` words.
#[allow(clippy::too_many_arguments)]
fn ms_pull_step<C: LevelCell, G: InAdjacency>(
    pool: &ThreadPool,
    g: &G,
    live: u64,
    seen: &[AtomicU64],
    visit: &[AtomicU64],
    visit_next: &[AtomicU64],
    levels: &[C],
    n: usize,
    lanes: usize,
    level: i64,
) -> u64 {
    // Discoveries at depth `level + 1` store `depth + 1` (see `drive`).
    let mark = level + 2;
    let produced = AtomicU64::new(0);
    parfor::parallel_for(pool, 0..n, 4096, |vi| {
        let missing = live & !seen[vi].load(Ordering::Relaxed);
        if missing == 0 {
            return;
        }
        let mut gathered = 0u64;
        g.any_in(vi as u32, |u| {
            gathered |= visit[u as usize].load(Ordering::Relaxed);
            gathered & missing == missing // every missing lane found a parent: stop scanning
        });
        let newly = gathered & missing;
        if newly == 0 {
            return;
        }
        seen[vi].fetch_or(newly, Ordering::Relaxed);
        let mut bits = newly;
        while bits != 0 {
            let l = bits.trailing_zeros() as usize;
            levels[vi * lanes + l].store_mark(mark);
            bits &= bits - 1;
        }
        visit_next[vi].store(newly, Ordering::Relaxed);
        produced.fetch_or(newly, Ordering::Relaxed);
    });
    produced.into_inner()
}

/// Batched, direction-optimized BFS from up to [`MSBFS_LANES`] sources in
/// one shared pass, with per-lane cooperative cancellation.
///
/// Level by level the pass picks the top-down step or — once the union
/// frontier's out-edges pass the ALPHA threshold — the bottom-up step over
/// `g`'s in-edges. Levels are shortest hop distances either way, so
/// per-lane output is bit-identical to the single-source kernels; the pull
/// phase only changes how fast the pass gets there. Fewer than
/// [`MIN_SHARED_LANES`] sources run one by one through
/// [`crate::parallel::bfs_dir_opt`] instead, with the same output.
///
/// Returns one result per source, index-aligned: `Ok(levels)` with `-1`
/// for unreached vertices, `Ok(Vec::new())` for an out-of-range source
/// (matching [`crate::parallel::bfs`]), or `Err(Cancelled)` when that
/// lane's token fired. Tokens are polled once per level; a fired lane is
/// masked out of further propagation while every other lane continues
/// undisturbed. Duplicate sources ride independent lanes and produce
/// identical outputs.
///
/// # Panics
/// If `sources.len() > MSBFS_LANES` or `cancels.len() != sources.len()`.
pub fn msbfs_dir_opt_cancellable<G: InAdjacency>(
    pool: &ThreadPool,
    g: &G,
    sources: &[u32],
    cancels: &[&CancelToken],
) -> Vec<Result<Vec<i64>, Cancelled>> {
    assert_eq!(sources.len(), cancels.len(), "one token per lane");
    // The bottom-up step's cost is graph-sized, not frontier-sized: it
    // scans every unreached vertex's in-edges no matter how few lanes
    // ride the pass. A near-empty batch would pay a full pull pass to
    // serve two requests, which loses to just running them one by one
    // with the single-source direction-optimized kernel. Below the
    // crossover, do exactly that — output is bit-identical either way.
    if sources.len() < MIN_SHARED_LANES {
        return sources
            .iter()
            .zip(cancels)
            .map(|(&s, cancel)| {
                parallel::bfs_dir_opt(pool, g, s, cancel).map(|(levels, _, _)| levels)
            })
            .collect();
    }
    drive(pool, g, sources, cancels)
}

/// One shared pass over `g`, pulling over its in-edges on the levels where
/// that is cheaper.
fn drive<G: InAdjacency>(
    pool: &ThreadPool,
    g: &G,
    sources: &[u32],
    cancels: &[&CancelToken],
) -> Vec<Result<Vec<i64>, Cancelled>> {
    let lanes = sources.len();
    assert!(lanes <= MSBFS_LANES, "at most {MSBFS_LANES} lanes per pass");
    let n = g.num_vertices();
    let mut active = 0u64;
    for (l, &s) in sources.iter().enumerate() {
        if (s as usize) < n {
            active |= 1u64 << l;
        }
    }
    // Working arrays come from a per-thread scratch reused across passes:
    // a 64-lane pass on a large graph touches tens of MB of level and mask
    // state, and allocating it fresh each time pays a page fault per 4 KiB
    // on first touch — a fixed multi-ms tax per batch that the kernel
    // proper never sees. Re-zeroing warm pages with plain stores is far
    // cheaper. The executor thread that serves batch after batch is
    // exactly the caller this wins for.
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        // Optimistic narrow pass first: 16-bit level cells halve the
        // traffic through the pass's dominant array. Only a graph whose
        // BFS actually runs past ~65k levels overflows them; the pass
        // detects that at the level boundary and reruns wide from scratch
        // — a 2x cost paid only on path-shaped graphs no serving mix
        // resembles.
        if let Some(results) =
            drive_in::<AtomicU16, G>(scratch, pool, g, sources, cancels, lanes, n, active)
        {
            return results;
        }
        drive_in::<AtomicI32, G>(scratch, pool, g, sources, cancels, lanes, n, active)
            .expect("i32 marks outlast any BFS depth")
    })
}

/// Storage cell for the per-`(vertex, lane)` level matrix. The pass writes
/// each cell at most once (`depth + 1`, 0 = unreached) under `fetch_or`
/// arbitration, then the collect transpose reads every cell back with
/// exclusive access. Two widths implement it: `AtomicU16` is the working
/// default (the matrix is the pass's dominant memory traffic, and halving
/// it is worth ~15% of the whole pass at 64 lanes), `AtomicI32` is the
/// overflow fallback for BFS depths past [`LevelCell::MAX_MARK`].
trait LevelCell: Default + Send + Sync {
    /// Largest `depth + 1` mark the cell can represent.
    const MAX_MARK: i64;
    /// Relaxed store of a mark; the caller guarantees `mark <= MAX_MARK`.
    fn store_mark(&self, mark: i64);
    /// Plain exclusive read of the raw mark, zeroing the cell behind the
    /// read (the line is already in cache, and the zero is what lets the
    /// next pass skip its dedicated sweep — see [`Scratch`]).
    fn take(&mut self) -> i64;
    /// Plain zeroing store.
    fn zero(&mut self);
    /// This width's level buffer and clean flag out of the scratch, along
    /// with the shared mask buffers (disjoint field borrows).
    fn parts(scratch: &mut Scratch) -> ScratchParts<'_, Self>
    where
        Self: Sized;
}

impl LevelCell for AtomicU16 {
    const MAX_MARK: i64 = u16::MAX as i64;
    fn store_mark(&self, mark: i64) {
        self.store(mark as u16, Ordering::Relaxed);
    }
    fn take(&mut self) -> i64 {
        let v = i64::from(*self.get_mut());
        *self.get_mut() = 0;
        v
    }
    fn zero(&mut self) {
        *self.get_mut() = 0;
    }
    fn parts(scratch: &mut Scratch) -> ScratchParts<'_, Self> {
        ScratchParts {
            levels: &mut scratch.levels16,
            clean: &mut scratch.clean16,
            seen: &mut scratch.seen,
            visit: &mut scratch.visit,
            visit_next: &mut scratch.visit_next,
        }
    }
}

impl LevelCell for AtomicI32 {
    const MAX_MARK: i64 = i32::MAX as i64;
    fn store_mark(&self, mark: i64) {
        self.store(mark as i32, Ordering::Relaxed);
    }
    fn take(&mut self) -> i64 {
        let v = i64::from(*self.get_mut());
        *self.get_mut() = 0;
        v
    }
    fn zero(&mut self) {
        *self.get_mut() = 0;
    }
    fn parts(scratch: &mut Scratch) -> ScratchParts<'_, Self> {
        ScratchParts {
            levels: &mut scratch.levels32,
            clean: &mut scratch.clean32,
            seen: &mut scratch.seen,
            visit: &mut scratch.visit,
            visit_next: &mut scratch.visit_next,
        }
    }
}

/// Per-thread reusable working set for [`drive`] (see the comment at its
/// use). Buffers only ever grow, to the largest `(lanes * n, n)` a thread
/// has driven. The two level buffers back the two [`LevelCell`] widths; in
/// practice only the u16 one ever grows.
#[derive(Default)]
struct Scratch {
    levels16: Vec<AtomicU16>,
    levels32: Vec<AtomicI32>,
    seen: Vec<AtomicU64>,
    visit: Vec<AtomicU64>,
    visit_next: Vec<AtomicU64>,
    /// True iff every cell of the matching level buffer is zero. The
    /// collect transpose at the end of a pass restores the zeros as it
    /// reads each cell out, so the next pass can skip the separate
    /// multi-MB zeroing sweep. A pass that dies mid-flight (including the
    /// u16 overflow rerun) leaves the flag false and the next reset pays
    /// the full sweep.
    clean16: bool,
    clean32: bool,
}

/// One width's view of the [`Scratch`]: the level buffer for the chosen
/// [`LevelCell`] plus the width-independent mask buffers.
struct ScratchParts<'a, C> {
    levels: &'a mut Vec<C>,
    clean: &'a mut bool,
    seen: &'a mut Vec<AtomicU64>,
    visit: &'a mut Vec<AtomicU64>,
    visit_next: &'a mut Vec<AtomicU64>,
}

impl<C: LevelCell> ScratchParts<'_, C> {
    fn reset(&mut self, level_len: usize, n: usize) {
        // `get_mut`-style plain zeroing stores the compiler can vectorize;
        // exclusive access makes that sound.
        if self.levels.len() < level_len {
            self.levels.resize_with(level_len, C::default);
        }
        if !*self.clean {
            self.levels.iter_mut().for_each(C::zero);
        }
        *self.clean = false;
        for buf in [&mut *self.seen, &mut *self.visit, &mut *self.visit_next] {
            if buf.len() < n {
                buf.resize_with(n, || AtomicU64::new(0));
            }
            buf[..n].iter_mut().for_each(|a| *a.get_mut() = 0);
        }
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

#[allow(clippy::too_many_arguments)]
fn drive_in<C: LevelCell, G: InAdjacency>(
    scratch: &mut Scratch,
    pool: &ThreadPool,
    g: &G,
    sources: &[u32],
    cancels: &[&CancelToken],
    lanes: usize,
    n: usize,
    mut active: u64,
) -> Option<Vec<Result<Vec<i64>, Cancelled>>> {
    let mut cancelled = 0u64;
    let mut parts = C::parts(scratch);
    parts.reset(lanes * n, n);
    // Levels are stored vertex-major (`levels[v * lanes + l]`) as
    // `depth + 1` (0 = unreached): a discovery's per-bit writes land in
    // the same cache lines as its vertex, the zero init doubles as the
    // "unreached" fill, and the cells are narrow — on a 64-lane pass the
    // `lanes * n` level traffic, not the shared edge scan, is what
    // dominates the pass cost.
    {
        let levels = &parts.levels[..lanes * n];
        let seen = &parts.seen[..n];
        let mut visit = &parts.visit[..n];
        let mut visit_next = &parts.visit_next[..n];
        let mut frontier: Vec<u32> = Vec::new();
        for (l, &s) in sources.iter().enumerate() {
            if active & (1u64 << l) == 0 {
                continue;
            }
            let vi = s as usize;
            levels[vi * lanes + l].store_mark(1);
            seen[vi].fetch_or(1u64 << l, Ordering::Relaxed);
            if visit[vi].fetch_or(1u64 << l, Ordering::Relaxed) == 0 {
                frontier.push(s);
            }
        }
        let sink = ChunkedSink::new(pool.threads());
        let mut next: Vec<u32> = Vec::new();
        let mut level = 0i64;
        while !frontier.is_empty() && active != 0 {
            // The next discoveries would store `level + 2`; if that no longer
            // fits the cell, abandon the pass (masks stay dirty, the clean
            // flag stays false) and let the caller rerun with a wider cell.
            if level + 2 > C::MAX_MARK {
                return None;
            }
            // Per-lane cancellation poll at the level boundary: retire fired
            // lanes here, exactly where the single-source kernel polls.
            for (l, cancel) in cancels.iter().enumerate() {
                let bit = 1u64 << l;
                if active & bit != 0 && cancel.step(frontier.len() as u64).is_err() {
                    cancelled |= bit;
                    active &= !bit;
                }
            }
            if active == 0 {
                break;
            }
            // Direction choice, per level: pull once the union frontier's
            // out-edges pass the ALPHA fraction of all edges.
            let scout: u64 = frontier.iter().map(|&u| g.out_degree(u) as u64).sum();
            let pull = scout > g.num_edges() as u64 / ALPHA;
            let produced = if pull {
                ms_pull_step(
                    pool, g, active, seen, visit, visit_next, levels, n, lanes, level,
                )
            } else {
                ms_step(
                    pool, g, active, seen, visit, visit_next, levels, lanes, &frontier, level,
                    &sink, &mut next,
                )
            };
            // Lanes with no discoveries this level have drained: early exit.
            active &= produced;
            let old = &frontier;
            parfor::parallel_for(pool, 0..old.len(), 4096, |i| {
                visit[old[i] as usize].store(0, Ordering::Relaxed);
            });
            if pull {
                // The pull step discovers by owner, not by frontier scan:
                // rebuild the sparse frontier from the non-zero visit words.
                next.clear();
                for (vi, w) in visit_next.iter().enumerate() {
                    if w.load(Ordering::Relaxed) != 0 {
                        next.push(vi as u32);
                    }
                }
            }
            std::mem::swap(&mut visit, &mut visit_next);
            std::mem::swap(&mut frontier, &mut next);
            level += 1;
        }
    } // shared borrows of the scratch end here; collect takes it exclusively
      // Blocked transpose out of the vertex-major array: a block of vertex
      // rows stays cache-resident while every lane's slice of it is copied
      // out, so each level cell is read exactly once per pass. At 64 lanes a
      // 64-vertex block is at most 16KB of level rows — inside L1, where a
      // larger block would re-fetch every row from L2 for each lane's
      // strided scan. The pass is over, so `take` turns the cell reads into
      // plain loads, and each cell is zeroed behind the read — that store
      // hits the same cache line and replaces the next pass's dedicated
      // zeroing sweep (the clean flag in [`Scratch`]).
    const BLOCK: usize = 64;
    let levels = &mut parts.levels[..lanes * n];
    let mut outs: Vec<Vec<i64>> = (0..lanes).map(|_| Vec::with_capacity(n)).collect();
    for b in (0..n).step_by(BLOCK) {
        let end = (b + BLOCK).min(n);
        for (l, out) in outs.iter_mut().enumerate() {
            let wanted = cancelled & (1u64 << l) == 0 && (sources[l] as usize) < n;
            let base = out.as_mut_ptr();
            for v in b..end {
                let x = levels[v * lanes + l].take();
                if wanted {
                    // SAFETY: `base` points at `n` reserved (uninitialized)
                    // elements and each `v < n` is written exactly once
                    // across the blocked sweep; `set_len(n)` below only
                    // runs for lanes where every index was filled. The
                    // streaming store bypasses the cache on x86-64: these
                    // 8 MB-per-lane output rows are written once and read
                    // next by another thread entirely, so pulling each
                    // line in just to overwrite it (the read-for-ownership
                    // a normal store pays) is pure wasted bandwidth — and
                    // this loop is measurably bandwidth-bound.
                    unsafe {
                        let dst = base.add(v);
                        #[cfg(target_arch = "x86_64")]
                        std::arch::x86_64::_mm_stream_si64(dst, x - 1);
                        #[cfg(not(target_arch = "x86_64"))]
                        dst.write(x - 1);
                    }
                }
            }
        }
    }
    for (l, out) in outs.iter_mut().enumerate() {
        if cancelled & (1u64 << l) == 0 && (sources[l] as usize) < n {
            // SAFETY: the sweep above wrote all `n` elements of this lane.
            unsafe { out.set_len(n) };
        }
    }
    // Streaming stores are weakly ordered; fence before the rows can be
    // handed to whichever thread resolves the tickets.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_sfence` has no memory-safety preconditions.
    unsafe {
        std::arch::x86_64::_mm_sfence()
    };
    *parts.clean = true;
    Some(
        sources
            .iter()
            .enumerate()
            .zip(outs)
            .map(|((l, &s), out)| {
                if cancelled & (1u64 << l) != 0 {
                    Err(Cancelled)
                } else if (s as usize) >= n {
                    Ok(Vec::new())
                } else {
                    Ok(out)
                }
            })
            .collect(),
    )
}

/// Batched, direction-optimized BFS over any number of sources: chunks into
/// passes of [`MSBFS_LANES`] lanes, no cancellation. Returns per-source
/// levels, index-aligned with `sources`.
pub fn msbfs_dir_opt<G: InAdjacency>(pool: &ThreadPool, g: &G, sources: &[u32]) -> Vec<Vec<i64>> {
    let never = CancelToken::never();
    sources
        .chunks(MSBFS_LANES)
        .flat_map(|chunk| {
            let cancels: Vec<&CancelToken> = chunk.iter().map(|_| &never).collect();
            msbfs_dir_opt_cancellable(pool, g, chunk, &cancels)
                .into_iter()
                .map(|r| r.expect("never token cannot cancel"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;
    use graphbig_datagen::Dataset;
    use graphbig_framework::csr::{BiCsr, Csr};

    fn graph(n: usize) -> BiCsr {
        BiCsr::directed(Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n)))
    }

    /// `lanes` sources spread over `0..n`: enough of them to ride the shared
    /// pass rather than the per-source fallback.
    fn spread(lanes: usize, n: u32) -> Vec<u32> {
        (0..lanes as u32).map(|i| i * 37 % n).collect()
    }

    #[test]
    fn every_lane_matches_single_source_bfs() {
        let g = graph(300);
        let pool = ThreadPool::new(4);
        // Duplicates and an unreachable-ish high vertex included; 70 lanes
        // are one 64-lane shared pass plus a 6-lane per-source remainder.
        let sources: Vec<u32> = (0..70u32).map(|i| (i * 13) % 300).collect();
        let batched = msbfs_dir_opt(&pool, &g, &sources);
        assert_eq!(batched.len(), sources.len());
        for (l, &s) in sources.iter().enumerate() {
            let (solo, _) = parallel::bfs(&pool, &g, s);
            assert_eq!(batched[l], solo, "lane {l} (source {s}) diverged");
        }
    }

    #[test]
    fn duplicate_sources_produce_identical_lanes() {
        let g = graph(120);
        let pool = ThreadPool::new(2);
        let out = msbfs_dir_opt(&pool, &g, &[7; MIN_SHARED_LANES]);
        assert!(out.iter().all(|lane| *lane == out[0]));
        assert_eq!(out[0], parallel::bfs(&pool, &g, 7).0);
    }

    #[test]
    fn out_of_range_sources_return_empty_like_single_source() {
        let g = graph(50);
        let pool = ThreadPool::new(2);
        let mut sources = spread(MIN_SHARED_LANES, 50);
        sources[1] = 999;
        let out = msbfs_dir_opt(&pool, &g, &sources);
        assert!(out[1].is_empty(), "matches parallel::bfs's contract");
        for (l, &s) in sources.iter().enumerate().filter(|&(l, _)| l != 1) {
            assert_eq!(out[l], parallel::bfs(&pool, &g, s).0, "lane {l}");
        }
    }

    #[test]
    fn cancelling_one_lane_leaves_the_others_bit_identical() {
        let g = graph(400);
        let pool = ThreadPool::new(2);
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        let sources = spread(MIN_SHARED_LANES, 400);
        let mut tokens = vec![&live; MIN_SHARED_LANES];
        tokens[1] = &dead;
        let out = msbfs_dir_opt_cancellable(&pool, &g, &sources, &tokens);
        assert!(out[1].is_err(), "fired lane retires with Cancelled");
        for (l, &s) in sources.iter().enumerate().filter(|&(l, _)| l != 1) {
            let lane = out[l].as_ref().unwrap();
            assert_eq!(lane, &parallel::bfs(&pool, &g, s).0, "lane {l}");
        }
    }

    #[test]
    fn lane_results_are_thread_count_independent() {
        let g = graph(250);
        let sources: Vec<u32> = (0..64u32).map(|i| i * 3 % 250).collect();
        let one = msbfs_dir_opt(&ThreadPool::new(1), &g, &sources);
        let four = msbfs_dir_opt(&ThreadPool::new(4), &g, &sources);
        assert_eq!(one, four);
    }

    /// The push-only pass is the single-source top-down kernel
    /// ([`parallel::bfs`]): a lane that went through the pull phase must
    /// still equal it, and the direction-optimized kernel, bit for bit.
    #[test]
    fn direction_optimized_lanes_match_the_push_only_pass_exactly() {
        let g = graph(400);
        let pool = ThreadPool::new(4);
        // 64 dense lanes force the ALPHA switch into the pull phase.
        let sources: Vec<u32> = (0..64u32).map(|i| (i * 7) % 400).collect();
        let pull = msbfs_dir_opt(&pool, &g, &sources);
        for (l, &s) in sources.iter().enumerate() {
            let (push, _) = parallel::bfs(&pool, &g, s);
            assert_eq!(pull[l], push, "pull phase changed lane {l} (source {s})");
            let (solo, _, _) = parallel::bfs_dir_opt(&pool, &g, s, &CancelToken::never()).unwrap();
            assert_eq!(pull[l], solo, "lane {l} (source {s}) diverged");
        }
    }

    #[test]
    fn depth_past_u16_marks_reruns_wide_and_stays_exact() {
        // A directed chain deeper than a u16 mark can hold: the optimistic
        // narrow pass must abandon at the overflow boundary and the wide
        // rerun must still produce exact levels end to end. The batch is
        // wide enough to ride the shared pass; a narrower one would run
        // per source and never reach the narrow cells.
        let n = (u16::MAX as usize) + 70;
        let edges: Vec<(u32, u32, f32)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = BiCsr::directed(Csr::from_edges(n, &edges));
        let pool = ThreadPool::new(1);
        let sources: Vec<u32> = (0..MIN_SHARED_LANES as u32).map(|l| l * 40).collect();
        let out = msbfs_dir_opt(&pool, &g, &sources);
        for (lane, &s) in sources.iter().enumerate() {
            let s = i64::from(s);
            let expect: Vec<i64> = (0..n as i64)
                .map(|v| if v < s { -1 } else { v - s })
                .collect();
            assert_eq!(out[lane], expect, "lane {lane} diverged after rerun");
        }
    }

    /// Below [`MIN_SHARED_LANES`] the pass runs each source on its own; that
    /// fallback keeps the same contract: an out-of-range lane is empty, a
    /// fired lane is `Cancelled`, a live lane equals the push kernel.
    #[test]
    fn direction_optimized_pass_cancels_and_skips_like_the_push_pass() {
        let g = graph(300);
        let pool = ThreadPool::new(2);
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        let out = msbfs_dir_opt_cancellable(&pool, &g, &[5, 900, 8], &[&live, &live, &dead]);
        assert!(out[1].as_ref().unwrap().is_empty(), "out-of-range lane");
        assert!(out[2].is_err(), "fired lane retires with Cancelled");
        assert_eq!(out[0].as_ref().unwrap(), &parallel::bfs(&pool, &g, 5).0);
    }
}
