//! A persistent SPMD thread pool.
//!
//! Workers are spawned once and parked on their channel; each parallel
//! region broadcasts one job to every worker and waits on a latch. This
//! keeps per-region overhead at two atomic operations per worker — cheap
//! enough to call inside iterative graph algorithms (level-synchronous BFS
//! runs one region per frontier level).

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use graphbig_telemetry::metrics::{HistogramSnapshot, MetricSink};

/// Completion latch: counts worker finishes and wakes the submitting thread.
/// A panic inside a region job is caught by the worker, parked in `payload`,
/// and re-thrown on the broadcasting thread after the region completes — a
/// worker panic must never hang the latch or kill the pool.
struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    condvar: Condvar,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
            payload: Mutex::new(None),
        }
    }

    /// Park the first panic payload for the waiter; later ones are dropped.
    fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }

    fn take_poison(&self) -> Option<Box<dyn Any + Send>> {
        self.payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    fn count_down(&self) {
        // Release pairs with the Acquire in `wait`: everything the worker
        // wrote is visible to the waiter once it observes zero.
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.condvar.notify_all();
        }
    }

    fn wait(&self) {
        let mut guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.condvar.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

type Job = Arc<dyn Fn(usize) + Send + Sync>;

enum Msg {
    Run(Job, Arc<Latch>),
    Exit,
}

/// Always-on lightweight pool accounting: broadcast regions, per-worker
/// dynamic-scheduler chunk grabs, and per-worker busy time. A few relaxed
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

    /// Panics caught inside region jobs (each is re-thrown on the
    /// broadcasting thread; the worker itself survives).
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

/// A fixed-size pool of long-lived workers executing SPMD regions.
pub struct ThreadPool {
    senders: Vec<Sender<Msg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<PoolStats>,
}

impl ThreadPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let stats = Arc::new(PoolStats::new(threads));
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker_idx in 0..threads {
            let (tx, rx) = channel::<Msg>();
            senders.push(tx);
            let stats = Arc::clone(&stats);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("graphbig-worker-{worker_idx}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Run(job, latch) => {
                                    let t0 = Instant::now();
                                    // A panicking job must not kill the
                                    // worker or strand the latch: catch,
                                    // park the payload, and let `broadcast`
                                    // re-throw it on the caller's thread.
                                    let result = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| {
                                            job(worker_idx);
                                        }),
                                    );
                                    if let Err(payload) = result {
                                        stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                                        latch.poison(payload);
                                    }
                                    stats.busy_us[worker_idx].fetch_add(
                                        t0.elapsed().as_micros() as u64,
                                        Ordering::Relaxed,
                                    );
                                    latch.count_down();
                                }
                                Msg::Exit => break,
                            }
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        ThreadPool {
            senders,
            handles,
            stats,
        }
    }

    /// The pool's always-on accounting (regions, chunks, busy time).
    #[inline]
    pub fn stats(&self) -> &PoolStats {
        &self.stats
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

    /// Number of workers.
    #[inline]
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Run `f(worker_index)` on every worker simultaneously and wait for all
    /// of them to finish (an SPMD region).
    ///
    /// If any worker's job panics, the first panic payload is re-thrown here
    /// on the broadcasting thread *after* the region has fully completed —
    /// the workers themselves survive and the pool stays usable.
    ///
    /// # Panics
    /// Re-throws the first panic raised inside `f`, and panics under the
    /// chaos `runtime.pool.region` failpoint when a `Panic` fault fires.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if let Some(fault) = graphbig_chaos::failpoint!("runtime.pool.region") {
            if fault.is_panic() {
                panic!("{} at runtime.pool.region", graphbig_chaos::PANIC_MSG);
            }
        }
        // The channel's job type is 'static, but callers want to borrow
        // stack state. Erase the closure's lifetime and rely on the latch:
        // `broadcast` does not return until every worker has finished, so
        // the borrow is live for every dereference.
        struct SendRef(&'static (dyn Fn(usize) + Sync));
        unsafe impl Send for SendRef {}
        unsafe impl Sync for SendRef {}

        self.stats.regions.fetch_add(1, Ordering::Relaxed);
        let latch = Arc::new(Latch::new(self.senders.len()));
        // SAFETY: lifetime erasure justified by the latch wait below.
        let f_erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(&f as &(dyn Fn(usize) + Sync)) };
        let shared = Arc::new(SendRef(f_erased));
        for tx in &self.senders {
            let shared = Arc::clone(&shared);
            let job: Job = Arc::new(move |idx| (shared.0)(idx));
            tx.send(Msg::Run(job, Arc::clone(&latch)))
                .expect("worker channel open");
        }
        latch.wait();
        if let Some(payload) = latch.take_poison() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn every_worker_panicking_still_releases_the_latch() {
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
        // the whole point of the latch design: closures may borrow locals
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
}
