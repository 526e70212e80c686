//! What one parallel region costs, by count: heap allocations per
//! `broadcast` and OS threads per pool. Its own test binary, because the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use graphbig_runtime::ThreadPool;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn a_region_allocates_nothing_and_a_pool_spawns_n_minus_1_threads() {
    const REGIONS: u64 = 100;
    for shares in [1, 2, 4] {
        let pool = ThreadPool::new(shares);
        let hits = AtomicU64::new(0);
        let region = |_: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        pool.broadcast(region); // warm-up: first wake of every worker
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..REGIONS {
            pool.broadcast(region);
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "{allocs} allocations over {REGIONS} regions at {shares} shares"
        );
        assert_eq!(hits.load(Ordering::Relaxed), (REGIONS + 1) * shares as u64);
    }

    #[cfg(target_os = "linux")]
    {
        let before = os_threads();
        let pool = ThreadPool::new(4);
        assert_eq!(os_threads(), before + 3, "a 4-share pool spawns 3 workers");
        drop(pool);
    }
}
