//! Equivalence suite for the live graph.
//!
//! [`OverlayView`] lets every workload kernel run on base CSR +
//! [`DeltaOverlay`] without folding the two into a fresh graph: BFS walks
//! it per visit, the other kernels read its patched row faces. Its whole
//! contract is that nobody can tell: for any base graph and any mutation
//! stream, every traversal of the view must be bit-identical to the same
//! traversal of the folded graph — in both directions of the
//! direction-optimizing kernel, on both sides of the MS-BFS lane crossover
//! (below it lanes run single-source, at and above it they share one pass
//! whose pull step walks `any_in`), at one pool thread and at several — and
//! so must every other servable kernel dispatched through `run_service`.
//!
//! The folded graph is [`common::reference_fold`]'s, not
//! [`DeltaOverlay::materialize`]'s: that one copies out the very patched
//! faces the view serves, and would check them against themselves.

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::rng::Rng;
use graphbig_engine::{DeltaOverlay, Mutation, MutationBuffer, OverlayView, ShardedGraph};
use graphbig_framework::csr::{Csr, InAdjacency};
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_workloads::msbfs::msbfs_dir_opt;
use graphbig_workloads::parallel::{self, LevelDir};
use graphbig_workloads::service::{run_service, servable};
use graphbig_workloads::Workload;
use std::sync::Arc;

mod common;
use common::reference_fold;

/// Levels and visited count of a never-cancelled dir-opt BFS.
fn dir_opt<G: InAdjacency>(pool: &ThreadPool, g: &G, source: u32) -> (Vec<i64>, u64) {
    let (levels, visited, _) =
        parallel::bfs_dir_opt(pool, g, source, &CancelToken::never()).unwrap();
    (levels, visited)
}

/// A seeded random directed base graph: `n` vertices, ~`2n` non-loop edges,
/// roughly one in ten stored twice (parallel base copies).
fn random_base(rng: &mut Rng) -> ShardedGraph {
    let n = 8 + rng.u64_below(90) as usize;
    let mut edges = Vec::new();
    while edges.len() < 2 * n {
        let u = rng.u64_below(n as u64) as u32;
        let v = rng.u64_below(n as u64) as u32;
        if u == v {
            continue;
        }
        edges.push((u, v, 1.0));
        if rng.u64_below(10) == 0 {
            edges.push((u, v, 2.0));
        }
    }
    ShardedGraph::build(Csr::from_edges(n, &edges), 2)
}

/// A mutation stream over all five kinds: the shapes that stress the view
/// first (a fresh vertex wired both ways, the base's biggest hub removed, a
/// tombstoned pair re-added, a weight patch that survives and one that a
/// delete wipes), then random ops whose ids also reach the added vertices
/// and a little past them.
fn random_mutations(rng: &mut Rng, base: &ShardedGraph) -> Vec<Mutation> {
    let n = base.num_vertices() as u32;
    let out = base.service().out();
    let hub = (0..n).max_by_key(|&v| out.degree(v)).expect("n >= 8");
    let with_edge = (0..n).find(|&u| u != hub && out.degree(u) > 0);
    let any = |rng: &mut Rng| rng.u64_below(n as u64 + 4) as u32;
    let mut muts = vec![
        Mutation::AddVertex, // id n
        Mutation::AddEdge {
            u: any(rng) % n,
            v: n,
            w: 1.0,
        },
        Mutation::AddEdge {
            u: n,
            v: any(rng) % n,
            w: 1.0,
        },
        Mutation::RemoveVertex { v: hub },
    ];
    if let Some(u) = with_edge {
        let v = out.neighbors(u)[0];
        muts.push(Mutation::SetWeight { u, v, w: 7.0 });
        muts.push(Mutation::RemoveEdge { u, v });
        muts.push(Mutation::AddEdge { u, v, w: 3.0 }); // tombstone wins
    }
    // A live base pair in a row nothing else touches, made cheaper: only
    // the weight marks the row, and shortest paths run through it.
    let untouched =
        |x: &u32| Some(*x) != with_edge && *x != hub && !out.neighbors(*x).contains(&hub);
    if let Some(u) = (0..n).filter(untouched).find(|&u| out.degree(u) > 0) {
        let t = out.neighbors(u)[0];
        muts.push(Mutation::SetWeight { u, v: t, w: 0.25 });
    }
    for _ in 0..rng.u64_below(40) {
        let (u, v) = (any(rng), any(rng));
        muts.push(match rng.u64_below(10) {
            0 => Mutation::AddVertex,
            1 => Mutation::RemoveVertex { v },
            2 | 3 => match out.neighbors(u % n).first() {
                // Half the deletes aim at an edge that exists.
                Some(&t) if rng.gen_bool(0.5) => Mutation::RemoveEdge { u: u % n, v: t },
                _ => Mutation::RemoveEdge { u, v },
            },
            4 => Mutation::SetWeight { u, v, w: 9.0 },
            _ => Mutation::AddEdge { u, v, w: 1.5 },
        });
    }
    muts
}

fn overlay_of(base: &ShardedGraph, muts: &[Mutation]) -> Arc<DeltaOverlay> {
    let buf = MutationBuffer::new(1, base.num_vertices() as u32);
    // Several batches, so later ones land on a non-empty overlay.
    for batch in muts.chunks(8) {
        buf.apply(base, batch);
    }
    buf.current()
}

#[test]
fn traversals_of_the_view_match_the_materialized_graph() {
    let pools = [ThreadPool::new(1), ThreadPool::new(4)];
    prop::check(
        "overlay_view_equivalence",
        Config::with_cases(12),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let base = random_base(&mut rng);
            let ov = overlay_of(&base, &random_mutations(&mut rng, &base));
            let view = OverlayView::new(&base, &ov);
            let folded = reference_fold(&base, &ov, 2);
            let bi = folded.service().bi();
            // Every id — removed and added vertices included — plus two
            // past the end.
            let n = ov.n_total();
            for pool in &pools {
                for source in 0..n + 2 {
                    let want = dir_opt(pool, bi, source);
                    assert_eq!(
                        dir_opt(pool, &view, source),
                        want,
                        "dir-opt over the view, source {source}"
                    );
                    assert_eq!(
                        parallel::bfs(pool, &view, source),
                        want,
                        "top-down over the view, source {source}"
                    );
                }
                // Both sides of MIN_SHARED_LANES (16), and a full pass.
                for lanes in [1usize, 15, 16, 17, 64] {
                    let mut sources: Vec<u32> = (0..lanes)
                        .map(|_| rng.u64_below(n as u64 + 2) as u32)
                        .collect();
                    if lanes >= 2 {
                        sources[1] = sources[0];
                    }
                    assert_eq!(
                        msbfs_dir_opt(pool, &view, &sources),
                        msbfs_dir_opt(pool, bi, &sources),
                        "{lanes}-lane pass over the view, sources {sources:?}"
                    );
                }
            }
        },
    );
}

/// A hub whose out-edges swamp the graph sends the very first level
/// bottom-up, so the rows the overlay touched are decided by the pull
/// step's in-edge walk, not by a push from the frontier.
#[test]
fn bottom_up_steps_read_touched_rows_through_the_overlay() {
    // 0 -> 1..=40; 0 -> 42 and 0 -> 43 are the only ways into 42 and 43;
    // 41 has no way in at all.
    let mut edges: Vec<(u32, u32, f32)> = (1..=40).map(|v| (0, v, 1.0)).collect();
    edges.extend([(0, 42, 1.0), (0, 43, 1.0)]);
    let base = ShardedGraph::build(Csr::from_edges(44, &edges), 2);
    let ov = overlay_of(
        &base,
        &[
            // 41's only live parent is an overlay insert.
            Mutation::AddEdge {
                u: 0,
                v: 41,
                w: 1.0,
            },
            // 42's only base parent is tombstoned; an overlay insert lets
            // it back in one level later.
            Mutation::RemoveEdge { u: 0, v: 42 },
            Mutation::AddEdge {
                u: 1,
                v: 42,
                w: 1.0,
            },
            // 43's only base parent is tombstoned, and that is that.
            Mutation::RemoveEdge { u: 0, v: 43 },
        ],
    );
    let view = OverlayView::new(&base, &ov);
    let folded = reference_fold(&base, &ov, 2);
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let (levels, visited, report) =
            parallel::bfs_dir_opt(&pool, &view, 0, &CancelToken::never()).unwrap();
        assert_eq!(report.levels[0].dir, LevelDir::BottomUp);
        assert_eq!(report.levels[1].dir, LevelDir::BottomUp);
        assert_eq!(levels[41], 1, "found through its in_adds parent");
        assert_eq!(levels[42], 2, "not through the tombstoned pair");
        assert_eq!(levels[43], -1);
        assert_eq!((levels, visited), dir_opt(&pool, folded.service().bi(), 0));
        // The shared pass pulls over the same rows: 16 lanes from the hub.
        let sources = [0u32; 16];
        let lanes = msbfs_dir_opt(&pool, &view, &sources);
        assert_eq!(lanes, msbfs_dir_opt(&pool, folded.service().bi(), &sources));
        assert_eq!((lanes[15][41], lanes[15][42], lanes[15][43]), (1, 2, -1));
    }
}

/// The other servable kernels, dispatched through `run_service` on the live
/// graph — CComp, KCore, TC and GColor on its undirected face, SPath on its
/// weighted out face, DCentr on the exact degrees of its out and in faces —
/// answer bit for bit what they answer on the reference fold.
#[test]
fn every_kernel_over_the_live_graph_matches_the_reference_fold() {
    let pools = [ThreadPool::new(1), ThreadPool::new(4)];
    let never = CancelToken::never();
    let kernels: Vec<Workload> = Workload::ALL
        .into_iter()
        .filter(|&w| servable(w) && w != Workload::Bfs)
        .collect();
    assert_eq!(kernels.len(), 6);
    prop::check(
        "live_graph_kernel_equivalence",
        Config::with_cases(12),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let base = random_base(&mut rng);
            let ov = overlay_of(&base, &random_mutations(&mut rng, &base));
            let live = OverlayView::new(&base, &ov);
            let folded = reference_fold(&base, &ov, 2);
            let n = ov.n_total();
            for pool in &pools {
                for &w in &kernels {
                    // Only SPath reads the source: every id, the added
                    // vertices and one past the end.
                    let sources = if w == Workload::SPath { 0..n + 1 } else { 0..1 };
                    for source in sources {
                        let got = run_service(w, pool, &live, source, &never).unwrap();
                        let want = run_service(w, pool, folded.service(), source, &never);
                        assert_eq!(
                            got.digest(),
                            want.unwrap().digest(),
                            "{w} from {source}, {} threads",
                            pool.threads()
                        );
                    }
                }
            }
        },
    );
}

/// The bottom-up step asks a touched in row for *any* parent: the walk
/// stops at the first live source that answers, and on a miss asks each
/// live source once — never a tombstoned or removed one.
#[test]
fn any_in_on_a_touched_row_stops_at_the_first_hit() {
    // Sources 0..=5 all point at 9.
    let edges: Vec<(u32, u32, f32)> = (0..6).map(|u| (u, 9, 1.0)).collect();
    let base = ShardedGraph::build(Csr::from_edges(10, &edges), 2);
    let ov = overlay_of(
        &base,
        &[
            Mutation::RemoveEdge { u: 0, v: 9 },
            Mutation::RemoveVertex { v: 3 },
            Mutation::AddEdge { u: 7, v: 9, w: 1.0 },
        ],
    );
    let view = OverlayView::new(&base, &ov);
    let mut asked = Vec::new();
    assert!(view.any_in(9, |s| {
        asked.push(s);
        true
    }));
    assert_eq!(asked, [1], "one call: the first live source answered");
    asked.clear();
    assert!(!view.any_in(9, |s| {
        asked.push(s);
        false
    }));
    assert_eq!(
        asked,
        [1, 2, 4, 5, 7],
        "each live source once, base then overlay"
    );
}
