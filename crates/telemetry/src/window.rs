//! Sliding-window latency estimators for live SLO stats.
//!
//! End-of-run aggregates answer "how did the run go"; a serving loop needs
//! "how are the last ten seconds going". Two estimators cover that:
//!
//! * [`WindowedHistogram`] — a ring of [`Histogram`] slices covering a
//!   fixed wall-clock window. Recording lands in the current slice;
//!   advancing time resets expired slices, so a snapshot is always the
//!   merge of only the last `slices × slice_ms` milliseconds of
//!   observations. Quantiles come from the merged
//!   [`HistogramSnapshot`](crate::metrics::HistogramSnapshot) with the
//!   interpolated estimator.
//! * [`Ewma`] — an exponentially weighted moving average over a lock-free
//!   `f64`-bits CAS loop, for a smooth "current latency" signal between
//!   histogram rotations.
//!
//! Both are written for concurrent hot-path use: `record`/`observe` take
//! no locks in the common case (rotation grabs a mutex, but only on the
//! first recording after a slice boundary). Rotation racing a concurrent
//! `record` can misplace that one observation by one slice — a benign
//! error for a sliding window, documented rather than locked away.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{Histogram, HistogramSnapshot};

/// A sliding-window histogram: `slices` log₂ histograms, each covering
/// `slice_ms` of wall-clock time, recycled in a ring.
#[derive(Debug)]
pub struct WindowedHistogram {
    slices: Vec<Histogram>,
    slice_ms: u64,
    start: Instant,
    /// Sequence number of the slice currently receiving observations.
    current: AtomicU64,
    /// Serializes slice resets during rotation.
    rotate: Mutex<()>,
}

impl WindowedHistogram {
    /// A window of `slices` slices, `slice_ms` milliseconds each (total
    /// span = `slices × slice_ms`). Panics if either is zero.
    pub fn new(slices: usize, slice_ms: u64) -> WindowedHistogram {
        assert!(slices > 0 && slice_ms > 0);
        WindowedHistogram {
            slices: (0..slices).map(|_| Histogram::default()).collect(),
            slice_ms,
            start: Instant::now(),
            current: AtomicU64::new(0),
            rotate: Mutex::new(()),
        }
    }

    /// The wall-clock span the window covers, in milliseconds.
    pub fn span_ms(&self) -> u64 {
        self.slices.len() as u64 * self.slice_ms
    }

    /// Advance to the slice for "now", resetting any slices whose time has
    /// expired. Returns the current slice sequence number.
    fn advance(&self) -> u64 {
        let seq = self.start.elapsed().as_millis() as u64 / self.slice_ms;
        let cur = self.current.load(Ordering::Acquire);
        if seq <= cur {
            return cur;
        }
        let _guard = self.rotate.lock().unwrap();
        let cur = self.current.load(Ordering::Acquire);
        if seq <= cur {
            return cur; // another thread rotated while we waited
        }
        // Reset every slice between the old and new positions; after a
        // long quiet period that is at most one full lap.
        let lap = (self.slices.len() as u64).min(seq - cur);
        for s in cur + 1..=cur + lap {
            self.slices[(s % self.slices.len() as u64) as usize].reset();
        }
        self.current.store(seq, Ordering::Release);
        seq
    }

    /// Record one observation into the current slice.
    pub fn record(&self, value: u64) {
        let seq = self.advance();
        self.slices[(seq % self.slices.len() as u64) as usize].record(value);
    }

    /// Merge the live slices into one snapshot of the last
    /// [`span_ms`](Self::span_ms) milliseconds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.advance();
        let mut merged = HistogramSnapshot::default();
        for slice in &self.slices {
            merged.merge(&slice.snapshot());
        }
        merged
    }
}

/// An exponentially weighted moving average of `u64` observations,
/// updatable from any thread without locks.
#[derive(Debug)]
pub struct Ewma {
    /// Current average as `f64` bits; `NAN` until the first observation.
    bits: AtomicU64,
    alpha: f64,
    count: AtomicU64,
}

impl Ewma {
    /// A fresh average with smoothing factor `alpha` in `(0, 1]` (higher =
    /// faster to follow recent observations).
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ewma {
            bits: AtomicU64::new(f64::NAN.to_bits()),
            alpha,
            count: AtomicU64::new(0),
        }
    }

    /// Fold in one observation.
    pub fn observe(&self, value: u64) {
        self.observe_f64(value as f64);
    }

    /// Fold in one observation as `f64`.
    ///
    /// Non-finite samples are rejected outright: NaN is the estimator's
    /// "unset" sentinel, so folding in a genuinely non-finite observation
    /// (a poisoned sample) would silently reset the average instead of
    /// perturbing it. Rejected samples do not count.
    fn observe_f64(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let next = if old.is_nan() {
                v
            } else {
                old + self.alpha * (v - old)
            };
            match self.bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The current average (0.0 before any observation).
    pub fn value(&self) -> f64 {
        let v = f64::from_bits(self.bits.load(Ordering::Relaxed));
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// Total observations folded in.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_a_level_shift() {
        let e = Ewma::new(0.5);
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.count(), 0);
        e.observe(100);
        assert_eq!(e.value(), 100.0, "first observation sets the level");
        for _ in 0..20 {
            e.observe(200);
        }
        assert!((e.value() - 200.0).abs() < 1.0, "{}", e.value());
        assert_eq!(e.count(), 21);
    }

    #[test]
    fn ewma_rejects_non_finite_samples() {
        let e = Ewma::new(0.5);
        e.observe_f64(f64::NAN);
        e.observe_f64(f64::INFINITY);
        e.observe_f64(f64::NEG_INFINITY);
        assert_eq!(e.count(), 0, "rejected samples do not count");
        assert_eq!(e.value(), 0.0, "estimator still unset");
        e.observe(100);
        assert_eq!(e.value(), 100.0);
        // Regression: a NaN after real observations must not reset the
        // level back to "unset" (NaN is the internal sentinel).
        e.observe_f64(f64::NAN);
        assert_eq!(e.value(), 100.0, "level survives a poisoned sample");
        assert_eq!(e.count(), 1);
        e.observe_f64(0.5);
        assert!((e.value() - 50.25).abs() < 1e-9, "{}", e.value());
    }

    #[test]
    fn ewma_is_safe_under_concurrent_observers() {
        let e = std::sync::Arc::new(Ewma::new(0.1));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = std::sync::Arc::clone(&e);
                s.spawn(move || {
                    for _ in 0..1000 {
                        e.observe(50);
                    }
                });
            }
        });
        assert_eq!(e.count(), 4000);
        assert!((e.value() - 50.0).abs() < 1e-9, "{}", e.value());
    }

    #[test]
    fn window_covers_recent_observations() {
        let w = WindowedHistogram::new(4, 1000);
        assert_eq!(w.span_ms(), 4000);
        for _ in 0..10 {
            w.record(100);
        }
        let s = w.snapshot();
        assert_eq!(s.count, 10);
        assert!(s.quantile(0.5) >= 64 && s.quantile(0.5) <= 128);
    }

    #[test]
    fn expired_slices_are_forgotten() {
        // 2 slices x 25ms: observations older than ~50ms fall out.
        let w = WindowedHistogram::new(2, 25);
        w.record(7);
        w.record(7);
        assert_eq!(w.snapshot().count, 2);
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert_eq!(w.snapshot().count, 0, "window expired");
        w.record(9);
        assert_eq!(w.snapshot().count, 1, "fresh slice records again");
    }

    #[test]
    fn rotation_after_long_idle_resets_at_most_one_lap() {
        let w = WindowedHistogram::new(3, 1);
        w.record(5);
        std::thread::sleep(std::time::Duration::from_millis(30));
        // seq jumped by ~30 slices; advance must not scan 30 resets into
        // out-of-range indices and the old observation must be gone.
        assert_eq!(w.snapshot().count, 0);
    }
}
