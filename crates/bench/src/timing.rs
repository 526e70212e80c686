//! The in-tree wall-clock measurement loop: warmup, then `samples` timed
//! batches, summarized as **median ± MAD** (median absolute deviation).
//! The four `harness = false` benches under `benches/` measure themselves
//! with it — zero external crates.
//!
//! The model is deliberately small:
//!
//! * [`Runner::bench`] auto-calibrates a batch size so each timed sample
//!   runs for at least [`TARGET_SAMPLE`] (nanosecond-scale primitives get
//!   thousands of iterations per sample; multi-millisecond workloads get
//!   one), runs one untimed warmup batch, then records per-iteration times
//!   for `samples` batches;
//! * [`Runner::bench_with_setup`] rebuilds fresh input before every timed
//!   call (the `iter_batched` pattern) with setup time excluded;
//! * [`Runner::bench_interleaved`] times several benches as interleaved
//!   rounds, rotating which goes first, so all of them see the same process
//!   state and a row cannot depend on what ran before it;
//! * median/MAD are robust to the occasional scheduler hiccup that would
//!   drag a mean — the same reason criterion reports medians.
//!
//! A finished run is a [`RunManifest`](graphbig::telemetry::RunManifest)
//! like every other binary's: each bench is one gauge family
//! `bench.<suite>/<bench>.{median_ns, mad_ns, min_ns, samples, iters}`,
//! `params` carry the box (`nproc`, `threads`) and whatever the bench
//! states about its input (dataset, vertices, seed), and `graphbig-report`
//! shows, checks and diffs it.
//!
//! CLI (everything `cargo bench -- <args>` forwards):
//!
//! * `--filter <substr>` (or a bare argument) — run matching benches only;
//! * `--samples <n>` — override every bench's sample count;
//! * `--emit <path>` / `--trace <path>` / `--quiet` — the common
//!   [`Reporter`] flags (`results/BENCH_*.json` are `--emit` outputs);
//! * `--bench` — accepted and ignored (cargo passes it).

use crate::harness::{arg_value_in, positionals, Reporter};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Minimum wall-clock time one timed sample should cover; batches are
/// sized so timer resolution is noise even for nanosecond operations.
pub const TARGET_SAMPLE: Duration = Duration::from_millis(5);

/// Default number of timed samples per bench.
pub const DEFAULT_SAMPLES: usize = 15;

/// Cap on the calibrated batch size.
const MAX_ITERS: u64 = 10_000_000;

/// Summary statistics of one bench, all in nanoseconds per iteration.
struct Stats {
    /// Full bench name (`suite/bench`).
    name: String,
    median_ns: f64,
    /// Median absolute deviation around the median.
    mad_ns: f64,
    /// Fastest sample.
    min_ns: f64,
    /// Number of timed samples.
    samples: usize,
    /// Iterations per sample (1 for setup-per-call benches).
    iters: u64,
}

/// Time one call of `f`, its result dropped inside the timed region.
pub fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    drop(black_box(f()));
    t.elapsed()
}

/// Which memory a bench's large, short-lived `Vec`s land in. A 1k-edge
/// fold at LDBC-64k reads 10 ms or 35 ms, and the batched BFS storm 220 ms
/// or 400 ms, depending on it — and under glibc's defaults *which* one a
/// process gets is decided by the sizes of the blocks it happened to free
/// earlier (each such `free` raises the mmap and trim thresholds, which is
/// how a `--filter` used to change a figure). So every bench pins the
/// thresholds first, and a row measured in both regimes carries the
/// regime's [`name`](AllocRegime::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocRegime {
    /// Every block of 128 KiB or more is its own `mmap`, unmapped on free:
    /// each iteration faults its output in from the kernel. What arrays
    /// beyond glibc's 32 MiB mmap ceiling always pay. Only a process that
    /// has never been warm is reliably cold (free blocks a warm heap holds
    /// below its top are reused, not unmapped): pin it first thing in
    /// `main` and measure the cold rows before any other.
    Cold,
    /// Blocks up to 32 MiB come from the retained heap, which is never
    /// trimmed: after a warmup an iteration writes into pages the process
    /// already has. What a long-lived process pays at these scales, and
    /// the regime of every row that does not say otherwise.
    Warm,
    /// No glibc to pin: the platform allocator's own policy.
    Unpinned,
}

impl AllocRegime {
    /// The regimes this target can measure, coldest first.
    pub const MEASURABLE: &'static [AllocRegime] =
        if cfg!(all(target_os = "linux", target_env = "gnu")) {
            &[AllocRegime::Cold, AllocRegime::Warm]
        } else {
            &[AllocRegime::Unpinned]
        };

    /// Row-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            AllocRegime::Cold => "cold",
            AllocRegime::Warm => "warm",
            AllocRegime::Unpinned => "unpinned",
        }
    }

    /// Pin the allocator to this regime (a no-op where there is no glibc).
    pub fn pin(self) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_MMAP_THRESHOLD: i32 = -3;
            let (mmap, trim) = match self {
                AllocRegime::Cold => (128 << 10, 128 << 10),
                // 32 MiB is the largest mmap threshold glibc accepts
                AllocRegime::Warm => (32 << 20, i32::MAX),
                AllocRegime::Unpinned => return,
            };
            // SAFETY: a plain glibc entry point taking two integers by value;
            // setting a threshold also switches its dynamic adjustment off.
            let ok = unsafe {
                mallopt(M_MMAP_THRESHOLD, mmap) == 1 && mallopt(M_TRIM_THRESHOLD, trim) == 1
            };
            assert!(ok, "glibc refused the {} thresholds", self.name());
        }
    }
}

/// One bench target's runner: collects results, prints a line per bench,
/// and reports them as a run manifest on [`finish`](Runner::finish).
pub struct Runner {
    suite: String,
    filter: Option<String>,
    samples: usize,
    reporter: Reporter,
    results: Vec<Stats>,
}

impl Runner {
    /// Parse the bench CLI from argv and start a suite.
    pub fn new(suite: &str) -> Runner {
        Runner::from_args(suite, &std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// [`Runner::new`] over an explicit argument list.
    pub fn from_args(suite: &str, args: &[String]) -> Runner {
        let bare = positionals(args, &["--filter", "--samples", "--emit", "--trace"]);
        let samples = arg_value_in(args, "--samples").and_then(|v| v.parse().ok());
        let mut reporter = Reporter::from_args(suite, args);
        let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
        reporter.param("nproc", nproc);
        Runner {
            suite: suite.to_string(),
            filter: arg_value_in(args, "--filter").or_else(|| bare.last().map(|s| s.to_string())),
            samples: samples.unwrap_or(DEFAULT_SAMPLES).max(3),
            reporter,
            results: Vec::new(),
        }
    }

    /// State the worker-pool width the suite runs its kernels on.
    pub fn threads(&mut self, n: usize) {
        self.reporter.threads(n);
        self.reporter.param("threads", n);
    }

    /// State a fact about the run's input (`dataset`, `vertices`, `seed`).
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.reporter.param(key, value);
    }

    /// Record a non-timing figure next to the bench gauges.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.reporter.gauge(name, value);
    }

    fn full_name(&self, name: &str) -> String {
        format!("{}/{}", self.suite, name)
    }

    fn skipped(&self, full: &str) -> bool {
        self.filter.as_deref().is_some_and(|f| !full.contains(f))
    }

    /// Measure `f` with auto-calibrated batching: suitable for anything
    /// from nanosecond primitives to multi-millisecond workloads.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) {
        let full = self.full_name(name);
        if self.skipped(&full) {
            return;
        }
        // calibration pass doubles as the first warmup iteration
        let t = Instant::now();
        f();
        let once = t.elapsed();
        let iters = if once >= TARGET_SAMPLE {
            1
        } else {
            (TARGET_SAMPLE.as_nanos() as u64 / (once.as_nanos() as u64).max(1) + 1).min(MAX_ITERS)
        };
        // one untimed warmup batch
        for _ in 0..iters {
            f();
        }
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.record(full, per_iter, iters);
    }

    /// Measure `f` on a fresh `setup()` output each sample; setup time is
    /// excluded (the `iter_batched` pattern for consuming/mutating benches).
    pub fn bench_with_setup<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) {
        let full = self.full_name(name);
        if self.skipped(&full) {
            return;
        }
        // warmup: one untimed run
        black_box(f(setup()));
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            black_box(f(input));
            per_iter.push(t.elapsed().as_nanos() as f64);
        }
        self.record(full, per_iter, 1);
    }

    /// Measure several benches as interleaved rounds: every round runs each
    /// bench once, and the bench that goes first rotates, so all of them are
    /// timed in the same process state and none inherits a fixed
    /// predecessor. Each closure returns the duration of the part of its
    /// call that counts (see [`timed`]). One untimed warmup round.
    pub fn bench_interleaved(&mut self, benches: &mut [(&str, &mut dyn FnMut() -> Duration)]) {
        let mut live: Vec<_> = benches
            .iter_mut()
            .map(|(name, f)| (self.full_name(name), f, Vec::with_capacity(self.samples)))
            .filter(|(full, ..)| !self.skipped(full))
            .collect();
        let k = live.len();
        for (_, f, _) in live.iter_mut() {
            f();
        }
        for round in 0..self.samples {
            for p in 0..k {
                let (_, f, per_iter) = &mut live[(round + p) % k];
                per_iter.push(f().as_nanos() as f64);
            }
        }
        for (full, _, per_iter) in live {
            self.record(full, per_iter, 1);
        }
    }

    fn record(&mut self, name: String, per_iter: Vec<f64>, iters: u64) {
        let median_ns = median(per_iter.clone());
        let result = Stats {
            mad_ns: median(per_iter.iter().map(|x| (x - median_ns).abs()).collect()),
            median_ns,
            min_ns: per_iter.iter().copied().fold(f64::MAX, f64::min),
            samples: per_iter.len(),
            iters,
            name,
        };
        println!(
            "{:<44} median {:>10} \u{b1} {:>8} (MAD)  min {:>10}  [{} samples \u{d7} {} iters]",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mad_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters,
        );
        self.results.push(result);
    }

    /// Median of the bench whose full name ends with `name`; `None` when it
    /// was filtered out.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|b| b.name.ends_with(name))
            .map(|b| b.median_ns)
    }

    /// Print the footer, then hand every bench's gauges to the reporter,
    /// which writes the `--emit` / `--trace` outputs.
    pub fn finish(mut self) {
        println!("{}: {} benches measured", self.suite, self.results.len());
        for b in &self.results {
            for (field, value) in [
                ("median_ns", b.median_ns),
                ("mad_ns", b.mad_ns),
                ("min_ns", b.min_ns),
                ("samples", b.samples as f64),
                ("iters", b.iters as f64),
            ] {
                self.reporter
                    .gauge(&format!("bench.{}.{field}", b.name), value);
            }
        }
        self.reporter.finish();
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Human-readable nanoseconds: `687 ns`, `12.4 µs`, `3.21 ms`, `1.08 s`.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} \u{b5}s", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbig::telemetry::{diff_metrics, RunManifest};

    fn runner(args: &[&str]) -> Runner {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Runner::from_args("t", &args)
    }

    #[test]
    fn median_and_mad_are_robust_to_outliers() {
        let mut r = runner(&[]);
        r.record("t/x".into(), vec![10.0, 11.0, 12.0, 11.0, 500.0], 1);
        let got = &r.results[0];
        assert_eq!(got.median_ns, 11.0);
        assert_eq!(got.mad_ns, 1.0);
        assert_eq!(got.min_ns, 10.0);
        assert_eq!(got.samples, 5);
        assert_eq!(r.median_ns("x"), Some(11.0));
        assert_eq!(r.median_ns("y"), None);
    }

    #[test]
    fn bench_collects_requested_samples() {
        let mut r = runner(&["--bench", "--samples", "4"]);
        let mut calls = 0u64;
        r.bench("count", || calls += 1);
        assert_eq!(r.results.len(), 1);
        assert_eq!(r.results[0].samples, 4);
        // calibration + warmup batch + 4 timed batches all ran the closure
        assert!(calls > 5 * r.results[0].iters);
    }

    #[test]
    fn setup_variant_passes_fresh_input() {
        let mut r = runner(&["--samples", "3"]);
        let mut next = 0u64;
        r.bench_with_setup(
            "fresh",
            || {
                next += 1;
                next
            },
            |v| assert!(v > 0),
        );
        assert_eq!(next, 4); // warmup + 3 samples
        assert_eq!(r.results[0].iters, 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        // `--filter <s>` and a bare argument are the same filter; a flag's
        // value is never mistaken for one
        for args in [
            &["--filter", "bfs", "--samples", "3"][..],
            &["--bench", "--samples", "3", "bfs"][..],
        ] {
            let mut r = runner(args);
            r.bench("tc", || {});
            r.bench("bfs_dir_opt", || {});
            assert_eq!(r.results.len(), 1, "{args:?}");
            assert_eq!(r.results[0].name, "t/bfs_dir_opt");
            assert_eq!(r.results[0].samples, 3);
        }
    }

    #[test]
    fn interleaved_rounds_rotate_who_goes_first() {
        let mut r = runner(&["--samples", "6", "--filter", "keep"]);
        let order = std::cell::RefCell::new(String::new());
        let mark = |c: char, ns: u64| {
            order.borrow_mut().push(c);
            Duration::from_nanos(ns)
        };
        let (mut a, mut b, mut c) = (|| mark('a', 100), || mark('b', 300), || mark('c', 1));
        r.bench_interleaved(&mut [("keep/a", &mut a), ("keep/b", &mut b), ("dropped", &mut c)]);
        // warmup round, then six rounds alternating the leader
        assert_eq!(*order.borrow(), "ab".to_string() + &"abba".repeat(3));
        assert_eq!(r.results.len(), 2);
        assert_eq!(r.median_ns("keep/a"), Some(100.0));
        assert_eq!(r.results[1].samples, 6);
    }

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(687.0), "687 ns");
        assert_eq!(fmt_ns(12_400.0), "12.40 \u{b5}s");
        assert_eq!(fmt_ns(3_210_000.0), "3.21 ms");
        assert_eq!(fmt_ns(1_080_000_000.0), "1.08 s");
    }

    #[test]
    fn finish_emits_a_run_manifest_that_diffs_gauge_by_gauge() {
        let dir = std::env::temp_dir();
        let emit = |tag: &str, ns: u64| {
            let path = dir.join(format!("graphbig_timing_{}_{tag}.json", std::process::id()));
            let mut r = runner(&[
                "--emit",
                path.to_str().unwrap(),
                "--quiet",
                "--samples",
                "3",
            ]);
            r.threads(2);
            r.param("dataset", "LDBC");
            r.bench_with_setup("x", || (), |_| std::thread::sleep(Duration::from_nanos(ns)));
            r.bench("y", || {});
            r.gauge("t.extra", 7.0);
            r.finish();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            RunManifest::from_json_str(&text).expect("a bench run is a run manifest")
        };
        let (before, after) = (emit("before", 1_000), emit("after", 2_000));
        assert_eq!(before.bin, "t");
        assert_eq!(before.threads, 2);
        assert_eq!(before.params["threads"], "2");
        assert!(before.params["nproc"].parse::<usize>().is_ok());
        assert_eq!(before.params["dataset"], "LDBC");
        let gauge = |m: &RunManifest, name: &str| m.metrics[name].scalar();
        for bench in ["t/x", "t/y"] {
            for field in ["median_ns", "mad_ns", "min_ns", "samples", "iters"] {
                assert!(before
                    .metrics
                    .contains_key(&format!("bench.{bench}.{field}")));
            }
        }
        assert_eq!(gauge(&before, "bench.t/x.samples"), 3.0);
        assert_eq!(gauge(&before, "bench.t/x.iters"), 1.0);
        assert_eq!(gauge(&before, "t.extra"), 7.0);
        // one diff row per gauge: two benches x five, plus the extra
        let rows: Vec<_> = diff_metrics(&before, &after)
            .into_iter()
            .filter(|row| row.name.starts_with("bench.") || row.name == "t.extra")
            .collect();
        assert_eq!(rows.len(), 11);
        assert!(rows.iter().all(|r| r.before.is_some() && r.after.is_some()));
    }
}
