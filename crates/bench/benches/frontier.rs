//! Frontier-engine benchmark: classic top-down BFS vs the
//! direction-optimizing hybrid on social-network-shaped graphs.
//!
//! The LDBC generator at 2^16 vertices is the headline comparison (the
//! direction switch pays off on low-diameter, hub-heavy graphs where the
//! middle levels sweep most of the edge set bottom-up); the Twitter
//! generator checks the same effect on a power-law degree distribution.
//! Baseline numbers live in `results/BENCH_frontier.json`.

use graphbig::framework::csr::{BiCsr, Csr};
use graphbig::prelude::*;
use graphbig::runtime::CancelToken;
use graphbig::workloads::parallel;
use graphbig_bench::timing::{black_box, AllocRegime, Runner};

fn main() {
    AllocRegime::Warm.pin();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(4);
    let mut r = Runner::new("frontier");
    r.threads(threads);
    r.param("dataset", "LDBC, Twitter");
    r.param("vertices", "65536, 32768");
    r.param("seed", "datagen defaults");
    let never = CancelToken::never();
    for (name, dataset, n) in [
        ("ldbc_64k", Dataset::Ldbc, 1usize << 16),
        ("twitter_32k", Dataset::Twitter, 1usize << 15),
    ] {
        let g = dataset.generate_with_vertices(n);
        let csr = Csr::from_graph(&g);
        let bi = BiCsr::directed(csr.clone());
        let pool = ThreadPool::new(threads);

        r.bench(&format!("{name}/top_down/{threads}t"), || {
            black_box(parallel::bfs(&pool, &csr, 0));
        });
        r.bench(&format!("{name}/dir_opt/{threads}t"), || {
            black_box(parallel::bfs_dir_opt(&pool, &bi, 0, &never).unwrap());
        });
    }
    r.finish();
}
