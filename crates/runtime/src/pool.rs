//! A persistent SPMD thread pool.
//!
//! `ThreadPool::new(n)` spawns n − 1 workers; the thread that calls
//! [`ThreadPool::broadcast`] runs share 0, as the thread opening an OpenMP
//! parallel region is thread 0 of its team. A region is published once into
//! one slot (a `Mutex` with a `start` and a `done` `Condvar`) and allocates
//! nothing, so iterative kernels can open one per step (level-synchronous
//! BFS runs one per frontier level). Broadcasters sharing a pool take the
//! slot in ticket (arrival) order: the engine's executors alternate region
//! by region.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use graphbig_telemetry::metrics::{HistogramSnapshot, MetricSink};

/// A region's closure with its lifetime erased (see [`ThreadPool::broadcast`]).
type ErasedJob = &'static (dyn Fn(usize) + Sync);

/// The one region slot.
#[derive(Default)]
struct Region {
    /// The published region's closure; `None` between regions.
    job: Option<ErasedJob>,
    /// Ticket of the region holding the slot, running or next to run.
    serving: u64,
    next: u64, // the next ticket to hand out
    /// Shares of the published region, share 0 included, still running.
    running: usize,
    /// First panic caught in the published region; later ones are dropped.
    panic: Option<Box<dyn Any + Send>>,
    /// Set on drop: workers exit instead of waiting for a region.
    exit: bool,
}

/// What the broadcasters and the workers share.
struct Shared {
    region: Mutex<Region>,
    /// Wakes the workers when a region is published or the pool drops.
    start: Condvar,
    /// Wakes a broadcaster when its region's last share finishes or the
    /// slot passes to its ticket.
    done: Condvar,
    stats: PoolStats,
}

impl Shared {
    /// Region code never runs under the lock; recover from poison all the same.
    fn lock(&self) -> MutexGuard<'_, Region> {
        self.region.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run share `idx` of `job`, catching a panic for `broadcast` to re-throw
    /// (it must not kill the worker). Returns the slot locked, the share done.
    fn run_share(&self, job: ErasedJob, idx: usize) -> MutexGuard<'_, Region> {
        let t0 = Instant::now();
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(idx)));
        self.stats.busy_us[idx].fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        let mut region = self.lock();
        if let Err(payload) = result {
            self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            region.panic.get_or_insert(payload);
        }
        region.running -= 1;
        if region.running == 0 && idx != 0 {
            self.done.notify_all();
        }
        region
    }

    /// Worker `idx`'s loop: run every region once, in ticket order.
    fn work(&self, idx: usize) {
        let mut ticket = 0;
        let mut region = self.lock();
        while !region.exit {
            match region.job.filter(|_| region.serving == ticket) {
                Some(job) => {
                    drop(region);
                    ticket += 1;
                    region = self.run_share(job, idx);
                }
                None => region = wait(&self.start, region),
            }
        }
    }
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, Region>) -> MutexGuard<'a, Region> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Always-on lightweight pool accounting: broadcast regions, per-share
/// dynamic-scheduler chunk grabs, and per-share busy time. A few relaxed
/// atomics per region keep this cheap enough to leave unconditional; the
/// numbers feed [`ThreadPool::export_metrics`] and the run manifest.
#[derive(Debug)]
pub struct PoolStats {
    regions: AtomicU64,
    worker_panics: AtomicU64,
    chunks: Vec<AtomicU64>,
    busy_us: Vec<AtomicU64>,
    created: Instant,
}

impl PoolStats {
    fn new(threads: usize) -> Self {
        PoolStats {
            regions: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            chunks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            busy_us: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            created: Instant::now(),
        }
    }

    /// Panics caught inside region shares, share 0 included (the first of a
    /// region is re-thrown on the broadcasting thread; the workers survive).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Count one dynamic-scheduler chunk executed by `worker` (called by
    /// the `parfor` loops).
    #[inline]
    pub fn record_chunk(&self, worker: usize) {
        self.chunks[worker].fetch_add(1, Ordering::Relaxed);
    }

    /// Broadcast regions executed so far.
    pub fn regions(&self) -> u64 {
        self.regions.load(Ordering::Relaxed)
    }

    /// Chunks executed by `worker` so far.
    pub fn chunks_of(&self, worker: usize) -> u64 {
        self.chunks[worker].load(Ordering::Relaxed)
    }

    /// Total chunks executed across all workers.
    pub fn total_chunks(&self) -> u64 {
        self.chunks.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Fraction of worker-seconds spent inside regions since pool
    /// creation (1.0 = every worker busy the whole time).
    pub fn utilization(&self) -> f64 {
        let wall_us = self.created.elapsed().as_micros() as f64;
        if wall_us <= 0.0 || self.busy_us.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.busy_us.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        (busy as f64 / (wall_us * self.busy_us.len() as f64)).min(1.0)
    }
}

/// A fixed-size pool executing SPMD regions: n shares per region, run by
/// the broadcasting thread (share 0) and n − 1 long-lived workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `threads` shares per region (at least one): spawns
    /// `threads − 1` workers, `graphbig-worker-1` onward.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            region: Mutex::default(),
            start: Condvar::new(),
            done: Condvar::new(),
            stats: PoolStats::new(threads),
        });
        let workers = (1..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("graphbig-worker-{idx}"))
                    .spawn(move || shared.work(idx))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// The pool's always-on accounting (regions, chunks, busy time).
    #[inline]
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Serialize pool state into any [`MetricSink`] under the
    /// `runtime.pool.*` schema: region/chunk counters, the chunk
    /// distribution across workers as a log₂ histogram, and utilization.
    pub fn export_metrics(&self, sink: &mut dyn MetricSink) {
        let stats = self.stats();
        sink.gauge("runtime.pool.threads", self.threads() as f64);
        sink.counter("runtime.pool.regions", stats.regions());
        sink.counter("runtime.pool.chunks", stats.total_chunks());
        sink.counter("runtime.pool.worker_panics", stats.worker_panics());
        sink.gauge("runtime.pool.utilization", stats.utilization());
        let mut buckets: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut sum = 0u64;
        for w in 0..self.threads() {
            let c = stats.chunks_of(w);
            sum += c;
            let le = if c == 0 {
                1
            } else {
                1u64 << graphbig_telemetry::metrics::bucket_index(c).min(63)
            };
            *buckets.entry(le).or_default() += 1;
        }
        sink.histogram(
            "runtime.pool.chunks_per_worker",
            HistogramSnapshot {
                count: self.threads() as u64,
                sum,
                buckets: buckets.into_iter().collect(),
            },
        );
    }

    /// Shares per region: the workers plus the broadcasting thread.
    #[inline]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `f(share)` for every share `0..threads()` at once, share 0 on the
    /// calling thread, and return when all have finished (an SPMD region).
    ///
    /// # Panics
    /// Re-throws the first panic raised inside `f` once the whole region has
    /// finished (the workers survive; the pool stays usable), and panics under
    /// the chaos `runtime.pool.region` failpoint when a `Panic` fault fires.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Some(fault) = graphbig_chaos::failpoint!("runtime.pool.region") {
            if fault.is_panic() {
                panic!("{} at runtime.pool.region", graphbig_chaos::PANIC_MSG);
            }
        }
        // SAFETY: the slot is 'static, `f` is borrowed. A worker copies the
        // job out only while its share counts in `running`, and this function
        // clears the slot and returns only once `running` is 0, after every
        // share has returned. Nothing unwinds before that (share 0 runs under
        // `catch_unwind`; lock and waits ignore poison), so `f` outlives
        // every call through the erased reference.
        let job: ErasedJob = unsafe { std::mem::transmute(&f as &(dyn Fn(usize) + Sync)) };
        let shared = &*self.shared;
        let mut region = shared.lock();
        let ticket = region.next;
        region.next += 1;
        while region.serving != ticket {
            region = wait(&shared.done, region);
        }
        region.job = Some(job);
        region.running = self.threads();
        drop(region);
        if !self.workers.is_empty() {
            shared.start.notify_all(); // a syscall even with nobody waiting
        }
        shared.stats.regions.fetch_add(1, Ordering::Relaxed);

        let mut region = shared.run_share(job, 0);
        while region.running != 0 {
            region = wait(&shared.done, region);
        }
        region.job = None;
        region.serving += 1;
        if region.next != region.serving {
            shared.done.notify_all(); // a broadcaster holds the next ticket
        }
        if let Some(payload) = region.panic.take() {
            drop(region); // unwinding with the guard held would poison the slot
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().exit = true;
        self.shared.start.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn broadcast_runs_on_every_worker() {
        let pool = ThreadPool::new(4);
        let hits = AtomicU64::new(0);
        pool.broadcast(|idx| {
            assert!(idx < 4);
            hits.fetch_add(1 << (idx * 8), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0x0101_0101);
    }

    #[test]
    fn broadcast_waits_for_completion() {
        let pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        pool.broadcast(|_| {
            for _ in 0..1000 {
                sum.fetch_add(1, Ordering::Relaxed);
            }
        });
        // all increments must be visible after broadcast returns
        assert_eq!(sum.load(Ordering::Relaxed), 3000);
    }

    #[test]
    fn sequential_regions_reuse_workers() {
        let pool = ThreadPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicU64::new(0);
        pool.broadcast(|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_count_regions_and_export_schema() {
        let pool = ThreadPool::new(3);
        for _ in 0..5 {
            pool.broadcast(|w| pool.stats().record_chunk(w));
        }
        assert_eq!(pool.stats().regions(), 5);
        assert_eq!(pool.stats().total_chunks(), 15);
        let mut sink: std::collections::BTreeMap<String, graphbig_telemetry::MetricValue> =
            Default::default();
        pool.export_metrics(&mut sink);
        use graphbig_telemetry::MetricValue;
        assert_eq!(sink["runtime.pool.regions"], MetricValue::Counter(5));
        assert_eq!(sink["runtime.pool.chunks"], MetricValue::Counter(15));
        assert_eq!(sink["runtime.pool.threads"], MetricValue::Gauge(3.0));
        match &sink["runtime.pool.chunks_per_worker"] {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 15);
                // every worker ran 5 chunks -> all in the [4, 8) bucket
                assert_eq!(h.buckets, vec![(8, 3)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let util = match sink["runtime.pool.utilization"] {
            MetricValue::Gauge(u) => u,
            _ => unreachable!(),
        };
        assert!((0.0..=1.0).contains(&util));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(3);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(|idx| {
                if idx == 1 {
                    std::panic::panic_any("region job exploded");
                }
            });
        }))
        .expect_err("broadcast must re-throw the worker panic");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "region job exploded");
        assert_eq!(pool.stats().worker_panics(), 1);
        // Workers survived: the next region runs on all of them.
        let hits = AtomicU64::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn every_share_panicking_still_ends_the_region() {
        let pool = ThreadPool::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(|_| panic!("all down"));
        }));
        assert!(caught.is_err());
        assert_eq!(pool.stats().worker_panics(), 4);
        let hits = AtomicU64::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn borrows_stack_state() {
        // the whole point of the erased job: closures may borrow locals
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.broadcast(|idx| {
            let chunk = data.len() / 4;
            let lo = idx * chunk;
            let hi = if idx == 3 { data.len() } else { lo + chunk };
            let local: u64 = data[lo..hi].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn caller_panic_is_rethrown_after_every_other_share_finished() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let done = AtomicU64::new(0);
        let raised = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(|idx| {
                if idx == 0 {
                    raised.store(true, Ordering::Release);
                    std::panic::panic_any("share 0 exploded");
                }
                // Read the borrowed Vec only once the caller's share panicked.
                while !raised.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                assert_eq!(data.iter().sum::<u64>(), 999 * 1000 / 2);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let err = caught.expect_err("broadcast must re-throw the caller's panic");
        assert_eq!(done.load(Ordering::Relaxed), 3);
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "share 0 exploded");
        assert_eq!(pool.stats().worker_panics(), 1);
        let hits = AtomicU64::new(0);
        pool.broadcast(|idx| {
            hits.fetch_add(1 << (idx * 8), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0x0101_0101);
    }

    #[test]
    fn concurrent_broadcasters_take_regions_in_ticket_order() {
        let pool = ThreadPool::new(2);
        let a_regions = AtomicU64::new(0);
        let release = AtomicBool::new(false);
        let b_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            // A opens region after region; its first one holds the slot
            // until B has taken a ticket.
            s.spawn(|| {
                while !b_done.load(Ordering::Acquire) {
                    pool.broadcast(|idx| {
                        if idx == 0 {
                            a_regions.fetch_add(1, Ordering::Relaxed);
                            while !release.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
            while pool.shared.lock().running == 0 {
                std::thread::yield_now();
            }
            let b = s.spawn(|| {
                let seen = AtomicU64::new(u64::MAX);
                pool.broadcast(|idx| {
                    if idx == 0 {
                        seen.store(a_regions.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                });
                b_done.store(true, Ordering::Release);
                seen.into_inner()
            });
            // B holds ticket 1 once two tickets are out; A is still parked
            // in region 0, so its counter is stable here.
            while pool.shared.lock().next < 2 {
                std::thread::yield_now();
            }
            let at_ticket = a_regions.load(Ordering::Relaxed);
            release.store(true, Ordering::Release);
            let seen = b.join().unwrap();
            assert!(
                seen <= at_ticket + 1,
                "B ran after {seen} of A's regions, {at_ticket} were out when it took its ticket"
            );
        });
    }
}
