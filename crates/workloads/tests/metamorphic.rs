//! Metamorphic tests for the servable kernels.
//!
//! Two relations that must hold for any graph, checked over seeded random
//! edge lists (`datagen::prop`):
//!
//! * **Edge-order shuffle**: the CSR built from a shuffled edge list is the
//!   same graph, so every kernel output — and therefore its digest — must
//!   be bit-identical. Catches adjacency-order dependence (uninitialized
//!   tie-breaking, order-sensitive float accumulation) that a fixed
//!   dataset would never expose.
//! * **Vertex relabeling**: applying a permutation π to all vertex ids
//!   maps every output through π — levels/cores/distances permute, component
//!   partitions are isomorphic, triangle counts are invariant. Catches
//!   hidden dependence on vertex numbering.
//!
//! These are the same digests the serving oracle compares, so a kernel
//! that passes here and the chaos suite is checked end to end.

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::rng::Rng;
use graphbig_framework::csr::{BiCsr, Csr};
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_workloads::service::{run_service, ServiceGraph, ServiceOutput};
use graphbig_workloads::Workload;

/// Workloads under metamorphic test (the issue's bfs/ccomp/kcore/spath/tc
/// set — the digest-servable kernels with a sequential twin).
const WORKLOADS: [Workload; 5] = [
    Workload::Bfs,
    Workload::CComp,
    Workload::KCore,
    Workload::SPath,
    Workload::Tc,
];

/// A seeded random directed graph: `n` vertices, ~`2n` distinct non-loop
/// edges with small positive weights.
fn random_edges(rng: &mut Rng) -> (usize, Vec<(u32, u32, f32)>) {
    let n = 8 + rng.u64_below(56) as usize;
    let target = 2 * n;
    let mut seen = std::collections::BTreeSet::new();
    let mut edges = Vec::new();
    for _ in 0..4 * target {
        if edges.len() >= target {
            break;
        }
        let u = rng.u64_below(n as u64) as u32;
        let v = rng.u64_below(n as u64) as u32;
        if u == v || !seen.insert((u, v)) {
            continue;
        }
        // Weights from a small grid of exactly-representable floats so
        // equal-length paths sum bit-identically in any evaluation order.
        let w = (1 + rng.u64_below(8)) as f32 * 0.25;
        edges.push((u, v, w));
    }
    (n, edges)
}

/// A batch width that rides the shared MS-BFS pass rather than its
/// per-source fallback.
fn shared_pass_lanes(rng: &mut Rng) -> usize {
    use graphbig_workloads::msbfs::{MIN_SHARED_LANES, MSBFS_LANES};
    MIN_SHARED_LANES + rng.u64_below((MSBFS_LANES - MIN_SHARED_LANES + 1) as u64) as usize
}

fn run(pool: &ThreadPool, g: &ServiceGraph, w: Workload, source: u32) -> ServiceOutput {
    run_service(w, pool, g, source, &CancelToken::never()).expect("servable workload")
}

/// Canonical partition form: labels renumbered by first occurrence in
/// vertex order, so two labelings are isomorphic iff their canonical
/// forms are equal.
fn canonical_partition(labels: &[u32]) -> Vec<u32> {
    let mut rename = std::collections::BTreeMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = rename.len() as u32;
            *rename.entry(l).or_insert(next)
        })
        .collect()
}

#[test]
fn edge_order_shuffle_leaves_every_digest_bit_identical() {
    let pool = ThreadPool::new(2);
    prop::check(
        "edge_order_shuffle",
        Config::with_cases(12),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let (n, edges) = random_edges(&mut rng);
            let base = ServiceGraph::build(Csr::from_edges(n, &edges));
            let mut shuffled = edges.clone();
            rng.shuffle(&mut shuffled);
            let alt = ServiceGraph::build(Csr::from_edges(n, &shuffled));
            let source = rng.u64_below(n as u64) as u32;
            for w in WORKLOADS {
                let a = run(&pool, &base, w, source).digest();
                let b = run(&pool, &alt, w, source).digest();
                assert_eq!(a, b, "{w}: digest changed under edge-order shuffle");
            }
        },
    );
}

#[test]
fn vertex_relabeling_permutes_every_output() {
    let pool = ThreadPool::new(2);
    prop::check(
        "vertex_relabeling",
        Config::with_cases(12),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let (n, edges) = random_edges(&mut rng);
            let mut perm: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut perm);
            let relabeled: Vec<(u32, u32, f32)> = edges
                .iter()
                .map(|&(u, v, w)| (perm[u as usize], perm[v as usize], w))
                .collect();
            let base = ServiceGraph::build(Csr::from_edges(n, &edges));
            let alt = ServiceGraph::build(Csr::from_edges(n, &relabeled));
            let source = rng.u64_below(n as u64) as u32;
            let alt_source = perm[source as usize];

            // BFS levels and SPath distances permute exactly; kcore
            // numbers permute; ccomp partitions are isomorphic; triangle
            // counts are invariant.
            for w in WORKLOADS {
                let a = run(&pool, &base, w, source);
                let b = run(&pool, &alt, w, alt_source);
                match (w, a, b) {
                    (Workload::Bfs, ServiceOutput::Levels(a), ServiceOutput::Levels(b)) => {
                        for v in 0..n {
                            assert_eq!(
                                a[v], b[perm[v] as usize],
                                "bfs level of vertex {v} not permutation-equivariant"
                            );
                        }
                    }
                    (Workload::SPath, ServiceOutput::Distances(a), ServiceOutput::Distances(b)) => {
                        for v in 0..n {
                            assert_eq!(
                                a[v].to_bits(),
                                b[perm[v] as usize].to_bits(),
                                "spath distance of vertex {v} not bit-equal under relabeling"
                            );
                        }
                    }
                    (Workload::KCore, ServiceOutput::Cores(a), ServiceOutput::Cores(b)) => {
                        for v in 0..n {
                            assert_eq!(
                                a[v], b[perm[v] as usize],
                                "core number of vertex {v} not permutation-equivariant"
                            );
                        }
                    }
                    (Workload::CComp, ServiceOutput::Labels(a), ServiceOutput::Labels(b)) => {
                        let permuted: Vec<u32> = (0..n).map(|v| b[perm[v] as usize]).collect();
                        assert_eq!(
                            canonical_partition(&a),
                            canonical_partition(&permuted),
                            "ccomp partition not isomorphic under relabeling"
                        );
                    }
                    (Workload::Tc, ServiceOutput::Count(a), ServiceOutput::Count(b)) => {
                        assert_eq!(a, b, "triangle count not relabeling-invariant");
                    }
                    (w, a, b) => panic!("unexpected output shapes for {w}: {a:?} vs {b:?}"),
                }
            }
        },
    );
}

/// Batch-composition invariance: coalescing sources into one MS-BFS pass
/// must commute with both metamorphic relations. An edge-order shuffle
/// leaves every *batched* lane digest bit-identical, exactly as it does
/// the unbatched kernel — and each lane always equals its unbatched twin,
/// so batching cannot smuggle in an order dependence of its own.
#[test]
fn edge_order_shuffle_leaves_batched_lane_digests_bit_identical() {
    use graphbig_workloads::msbfs::msbfs_dir_opt;
    let pool = ThreadPool::new(2);
    prop::check(
        "batched_edge_order_shuffle",
        Config::with_cases(10),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let (n, edges) = random_edges(&mut rng);
            let base = BiCsr::directed(Csr::from_edges(n, &edges));
            let mut shuffled_edges = edges.clone();
            rng.shuffle(&mut shuffled_edges);
            let shuffled = BiCsr::directed(Csr::from_edges(n, &shuffled_edges));
            let lanes = shared_pass_lanes(&mut rng);
            let sources: Vec<u32> = (0..lanes).map(|_| rng.u64_below(n as u64) as u32).collect();
            let a = msbfs_dir_opt(&pool, &base, &sources);
            let b = msbfs_dir_opt(&pool, &shuffled, &sources);
            for (l, &s) in sources.iter().enumerate() {
                let da = ServiceOutput::Levels(a[l].clone()).digest();
                let db = ServiceOutput::Levels(b[l].clone()).digest();
                assert_eq!(
                    da, db,
                    "lane {l} (source {s}): batched digest changed under edge-order shuffle"
                );
                let (solo, _) = graphbig_workloads::parallel::bfs(&pool, &base, s);
                assert_eq!(
                    da,
                    ServiceOutput::Levels(solo).digest(),
                    "lane {l} (source {s}): batched digest diverged from unbatched"
                );
            }
        },
    );
}

/// Relabeling equivariance for the batched kernel: applying a vertex
/// permutation π to the graph and to every source maps each lane's levels
/// through π — the same equivariance the unbatched kernel satisfies.
#[test]
fn vertex_relabeling_permutes_every_batched_lane() {
    use graphbig_workloads::msbfs::msbfs_dir_opt;
    let pool = ThreadPool::new(2);
    prop::check(
        "batched_vertex_relabeling",
        Config::with_cases(10),
        |rng: &mut Rng| rng.next_u64(),
        |&seed: &u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let (n, edges) = random_edges(&mut rng);
            let mut perm: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut perm);
            let relabeled_edges: Vec<(u32, u32, f32)> = edges
                .iter()
                .map(|&(u, v, w)| (perm[u as usize], perm[v as usize], w))
                .collect();
            let base = BiCsr::directed(Csr::from_edges(n, &edges));
            let relabeled = BiCsr::directed(Csr::from_edges(n, &relabeled_edges));
            let lanes = shared_pass_lanes(&mut rng);
            let sources: Vec<u32> = (0..lanes).map(|_| rng.u64_below(n as u64) as u32).collect();
            let mapped: Vec<u32> = sources.iter().map(|&s| perm[s as usize]).collect();
            let a = msbfs_dir_opt(&pool, &base, &sources);
            let b = msbfs_dir_opt(&pool, &relabeled, &mapped);
            for l in 0..lanes {
                for v in 0..n {
                    assert_eq!(
                        a[l][v], b[l][perm[v] as usize],
                        "lane {l}: level of vertex {v} not permutation-equivariant"
                    );
                }
                let (solo, _) = graphbig_workloads::parallel::bfs(&pool, &base, sources[l]);
                assert_eq!(a[l], solo, "lane {l}: batched diverged from unbatched");
            }
        },
    );
}
