//! Property-based tests over cross-crate invariants, on the in-tree
//! harness (`graphbig_datagen::prop`): same invariants as the old proptest
//! suite, same 64-case budget, seeded generation + shrink-by-halving.

use graphbig::framework::coo::Coo;
use graphbig::framework::csr::Csr;
use graphbig::prelude::*;
use graphbig_datagen::prop::{check, Config};
use graphbig_datagen::rng::Rng;

/// Generator: a random edge list over `2..max_n` vertices.
fn edges_case(rng: &mut Rng, max_n: u64, max_m: usize) -> (u64, Vec<(u64, u64)>) {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(0..max_m);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    (n, edges)
}

fn build(n: u64, edges: &[(u64, u64)]) -> PropertyGraph {
    let mut g = PropertyGraph::with_capacity(n as usize);
    for _ in 0..n {
        g.add_vertex();
    }
    for &(u, v) in edges {
        // Shrinking may halve vertex counts below edge endpoints; skip the
        // out-of-range arcs so shrunk cases stay well-formed.
        if u < n && v < n {
            g.add_edge(u, v, 1.0).unwrap();
        }
    }
    g
}

/// Direction-optimizing BFS levels equal the sequential framework BFS on a
/// random graph, for 1-, 2- and 8-thread pools.
fn check_dir_opt_bfs_matches_sequential(n: u64, edges: &[(u64, u64)]) {
    use graphbig::framework::csr::BiCsr;
    use graphbig::runtime::{CancelToken, ThreadPool};
    use graphbig::workloads::parallel;

    let mut g = build(n, edges);
    let csr = Csr::from_graph(&g);
    let source = csr.dense_of(0).expect("vertex 0 exists");
    graphbig::workloads::bfs::run(&mut g, 0);
    let seq: Vec<i64> = (0..csr.num_vertices() as u32)
        .map(|u| {
            graphbig::workloads::bfs::level_of(&g, csr.id_of(u))
                .map(|x| x as i64)
                .unwrap_or(-1)
        })
        .collect();
    let bi = BiCsr::directed(csr);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let (levels, _, _) =
            parallel::bfs_dir_opt(&pool, &bi, source, &CancelToken::never()).unwrap();
        assert_eq!(levels, seq, "{threads} threads");
        let (td, _) = parallel::bfs(&pool, bi.out(), source);
        assert_eq!(td, seq, "top-down, {threads} threads");
    }
}

/// Parallel ccomp labels induce the same partition as sequential ccomp on a
/// random graph, for 1-, 2- and 8-thread pools.
fn check_parallel_ccomp_matches_sequential(n: u64, edges: &[(u64, u64)]) {
    use graphbig::runtime::{CancelToken, ThreadPool};
    use graphbig::workloads::parallel;

    let mut g = build(n, edges);
    let csr = Csr::from_graph(&g);
    let sym = csr.symmetrize();
    graphbig::workloads::ccomp::run(&mut g);
    let seq: Vec<i64> = (0..csr.num_vertices() as u32)
        .map(|u| graphbig::workloads::ccomp::component_of(&g, csr.id_of(u)).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let par = parallel::ccomp(&pool, &sym, &CancelToken::never()).unwrap();
        // Same partition: pairs agree on "same component" both ways.
        let mut seq_to_par = std::collections::HashMap::new();
        let mut par_to_seq = std::collections::HashMap::new();
        for (i, (&s, &p)) in seq.iter().zip(par.iter()).enumerate() {
            assert_eq!(
                *seq_to_par.entry(s).or_insert(p),
                p,
                "vertex {i}, {threads} threads"
            );
            assert_eq!(
                *par_to_seq.entry(p).or_insert(s),
                s,
                "vertex {i}, {threads} threads"
            );
        }
    }
}

/// Parallel kcore numbers equal the sequential Matula–Beck peeler on a
/// random graph, for 1-, 2- and 8-thread pools.
fn check_parallel_kcore_matches_sequential(n: u64, edges: &[(u64, u64)]) {
    use graphbig::runtime::{CancelToken, ThreadPool};
    use graphbig::workloads::parallel;

    let mut g = build(n, edges);
    let csr = Csr::from_graph(&g);
    let sym = csr.symmetrize();
    graphbig::workloads::kcore::run(&mut g);
    let seq: Vec<u32> = (0..csr.num_vertices() as u32)
        .map(|u| graphbig::workloads::kcore::core_of(&g, csr.id_of(u)).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let par = parallel::kcore(&pool, &sym, &CancelToken::never()).unwrap();
        assert_eq!(par, seq, "{threads} threads");
    }
}

#[test]
fn csr_round_trips_topology() {
    check(
        "csr_round_trips_topology",
        Config::with_cases(64),
        |rng| edges_case(rng, 60, 200),
        |(n, edges)| {
            let g = build(*n, edges);
            let csr = Csr::from_graph(&g);
            assert_eq!(csr.num_vertices(), g.num_vertices());
            assert_eq!(csr.num_edges(), g.num_arcs());
            // every graph arc appears in the CSR and vice versa
            for (u, e) in g.arcs() {
                let du = csr.dense_of(u).unwrap();
                let dv = csr.dense_of(e.target).unwrap();
                assert!(csr.neighbors(du).contains(&dv));
            }
            let degree_sum: u64 = (0..csr.num_vertices() as u32)
                .map(|u| csr.degree(u) as u64)
                .sum();
            assert_eq!(degree_sum, g.num_arcs() as u64);
        },
    );
}

#[test]
fn coo_matches_csr() {
    check(
        "coo_matches_csr",
        Config::with_cases(64),
        |rng| edges_case(rng, 40, 120),
        |(n, edges)| {
            let g = build(*n, edges);
            let csr = Csr::from_graph(&g);
            let coo = Coo::from_csr(&csr);
            assert_eq!(coo.num_edges(), csr.num_edges());
            for i in 0..coo.num_edges() {
                let (u, v, _) = coo.edge(i);
                assert!(csr.neighbors(u).contains(&v));
            }
        },
    );
}

#[test]
fn deletion_keeps_graph_consistent() {
    check(
        "deletion_keeps_graph_consistent",
        Config::with_cases(64),
        |rng| {
            let (n, edges) = edges_case(rng, 40, 150);
            (n, edges, rng.gen_range(0u64..1000))
        },
        |(n, edges, seed)| {
            let mut g = build(*n, edges);
            let victims = graphbig::workloads::gup::pick_victims(&g, (*n / 3) as usize, *seed);
            graphbig::workloads::gup::run(&mut g, &victims);
            // arcs never dangle
            let mut arc_count = 0;
            for (u, e) in g.arcs() {
                assert!(g.find_vertex(u).is_some());
                assert!(g.find_vertex(e.target).is_some());
                arc_count += 1;
            }
            assert_eq!(arc_count, g.num_arcs());
            // parent lists mirror arcs
            for &id in g.vertex_ids() {
                for p in g.parents(id) {
                    assert!(g.has_edge(p, id), "parent {p} of {id} has no arc");
                }
            }
        },
    );
}

#[test]
fn bfs_levels_equal_unit_weight_dijkstra() {
    check(
        "bfs_levels_equal_unit_weight_dijkstra",
        Config::with_cases(64),
        |rng| edges_case(rng, 50, 200),
        |(n, edges)| {
            let mut g1 = build(*n, edges);
            let mut g2 = build(*n, edges);
            graphbig::workloads::bfs::run(&mut g1, 0);
            graphbig::workloads::spath::run(&mut g2, 0);
            for v in 0..*n {
                let level = graphbig::workloads::bfs::level_of(&g1, v).map(f64::from);
                let dist = graphbig::workloads::spath::distance_of(&g2, v);
                assert_eq!(level, dist, "vertex {v}");
            }
        },
    );
}

#[test]
fn coloring_is_always_proper() {
    check(
        "coloring_is_always_proper",
        Config::with_cases(64),
        |rng| edges_case(rng, 50, 200),
        |(n, edges)| {
            let mut g = build(*n, edges);
            graphbig::workloads::gcolor::run(&mut g);
            assert!(graphbig::workloads::gcolor::is_valid_coloring(&g));
        },
    );
}

#[test]
fn component_labels_partition() {
    check(
        "component_labels_partition",
        Config::with_cases(64),
        |rng| edges_case(rng, 50, 150),
        |(n, edges)| {
            let mut g = build(*n, edges);
            let r = graphbig::workloads::ccomp::run(&mut g);
            let mut labels = std::collections::HashSet::new();
            for &v in g.vertex_ids() {
                let l = graphbig::workloads::ccomp::component_of(&g, v).unwrap();
                labels.insert(l);
            }
            assert_eq!(labels.len() as u64, r.components);
            for (u, e) in g.arcs() {
                assert_eq!(
                    graphbig::workloads::ccomp::component_of(&g, u),
                    graphbig::workloads::ccomp::component_of(&g, e.target)
                );
            }
        },
    );
}

#[test]
fn moral_graph_marries_all_coparents() {
    check(
        "moral_graph_marries_all_coparents",
        Config::with_cases(64),
        |rng| edges_case(rng, 30, 80),
        |(n, edges)| {
            let g = build(*n, edges);
            let dag = graphbig::workloads::harness::orient_to_dag(&g);
            let (moral, _) = graphbig::workloads::tmorph::run(&dag);
            for &v in dag.vertex_ids() {
                let parents: Vec<_> = dag.parents(v).collect();
                // original edges undirected in the moral graph
                for &p in &parents {
                    assert!(moral.has_edge(p, v) && moral.has_edge(v, p));
                }
                // every pair of parents married
                for i in 0..parents.len() {
                    for j in (i + 1)..parents.len() {
                        if parents[i] != parents[j] {
                            assert!(
                                moral.has_edge(parents[i], parents[j]),
                                "co-parents {} and {} of {} not married",
                                parents[i],
                                parents[j],
                                v
                            );
                        }
                    }
                }
            }
        },
    );
}

#[test]
fn gpu_metrics_stay_in_bounds() {
    check(
        "gpu_metrics_stay_in_bounds",
        Config::with_cases(64),
        |rng| edges_case(rng, 40, 150),
        |(n, edges)| {
            let g = build(*n, edges);
            let csr = Csr::from_graph(&g);
            let cfg = GpuConfig::tesla_k40();
            let r = graphbig::gpu::bfs::run(&cfg, &csr, 0);
            assert!((0.0..=1.0).contains(&r.metrics.bdr));
            assert!((0.0..=1.0).contains(&r.metrics.mdr));
            assert!(r.metrics.read_throughput_gbps <= cfg.peak_bandwidth_gbps);
            assert!(r.metrics.ipc <= cfg.issue_per_sm + 1e-9);
        },
    );
}

#[test]
fn dir_opt_bfs_matches_sequential_on_random_graphs() {
    check(
        "dir_opt_bfs_matches_sequential_on_random_graphs",
        Config::with_cases(64),
        |rng| edges_case(rng, 50, 250),
        |(n, edges)| check_dir_opt_bfs_matches_sequential(*n, edges),
    );
}

#[test]
fn parallel_ccomp_partition_matches_sequential() {
    check(
        "parallel_ccomp_partition_matches_sequential",
        Config::with_cases(64),
        |rng| edges_case(rng, 50, 200),
        |(n, edges)| check_parallel_ccomp_matches_sequential(*n, edges),
    );
}

#[test]
fn parallel_kcore_matches_sequential_on_random_graphs() {
    check(
        "parallel_kcore_matches_sequential_on_random_graphs",
        Config::with_cases(64),
        |rng| edges_case(rng, 40, 180),
        |(n, edges)| check_parallel_kcore_matches_sequential(*n, edges),
    );
}

#[test]
fn kcore_members_have_k_core_neighbors() {
    check(
        "kcore_members_have_k_core_neighbors",
        Config::with_cases(64),
        |rng| edges_case(rng, 40, 150),
        |(n, edges)| {
            let mut g = build(*n, edges);
            let r = graphbig::workloads::kcore::run(&mut g);
            let k = r.max_core;
            // every max-core vertex has >= k neighbors (undirected, dedup) in the max core
            for &v in g.vertex_ids() {
                if graphbig::workloads::kcore::core_of(&g, v) == Some(k) && k > 0 {
                    let mut inside = std::collections::HashSet::new();
                    for e in g.neighbors(v) {
                        if e.target != v
                            && graphbig::workloads::kcore::core_of(&g, e.target)
                                .map(|c| c >= k)
                                .unwrap_or(false)
                        {
                            inside.insert(e.target);
                        }
                    }
                    for p in g.parents(v) {
                        if p != v
                            && graphbig::workloads::kcore::core_of(&g, p)
                                .map(|c| c >= k)
                                .unwrap_or(false)
                        {
                            inside.insert(p);
                        }
                    }
                    assert!(
                        inside.len() as u32 >= k,
                        "vertex {} has {} same-core neighbors, needs {}",
                        v,
                        inside.len(),
                        k
                    );
                }
            }
        },
    );
}
