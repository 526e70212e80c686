//! Runtime metrics: counters, gauges, and log₂-bucket histograms behind a
//! name-keyed registry, plus the [`MetricSink`] trait that lets wall-clock
//! metrics and the machine model's simulated counters land in one schema.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc`s over atomics:
//! look a metric up once outside a loop, then `inc`/`record` from any
//! thread without touching the registry lock again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{Json, ObjBuilder};

/// Number of log₂ buckets: values up to `2^63` are representable.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram with log₂ buckets: bucket `0` counts zeros, bucket `i`
/// (`i ≥ 1`) counts values in `[2^(i-1), 2^i)`.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Which log₂ bucket a value falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Snapshot the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let buckets = inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                // bucket upper bound (exclusive): 1 for the zero bucket,
                // else 2^i
                (c > 0).then(|| (if i == 0 { 1 } else { 1u64 << i.min(63) }, c))
            })
            .collect();
        HistogramSnapshot {
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram contents: `(exclusive upper bound, count)` per
/// non-empty log₂ bucket.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`), linearly interpolated within the
    /// log₂ bucket holding the rank-`⌈q·count⌉` observation: the rank's
    /// fractional position inside the bucket is mapped across `(lower, le]`
    /// (rounding up), so a rank at the very end of a bucket still reports
    /// the old conservative bound `le`. Returns 0 when the histogram is
    /// empty, and 0 for ranks inside the zero bucket (which holds only
    /// zeros).
    ///
    /// Interpolation halves the systematic upper-bound bias of plain
    /// bucket-bound reporting; the estimate can now land on either side of
    /// the true quantile, but stays within the log₂ resolution in both
    /// directions — strictly above `lower = le/2` and at most `le`, while
    /// the true value lies in `[lower, le)`, so estimate and truth are
    /// always within 2× of each other. The engine additionally publishes
    /// exact percentiles computed from raw latency samples for its
    /// committed benchmarks.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(le, c) in &self.buckets {
            if seen + c >= rank {
                if le <= 1 {
                    // The zero bucket holds only zeros.
                    return 0;
                }
                let lower = le / 2;
                let into = rank - seen; // 1..=c
                return lower + ((le - lower) as f64 * into as f64 / c as f64).ceil() as u64;
            }
            seen += c;
        }
        self.buckets.last().map(|&(le, _)| le).unwrap_or(0)
    }

    /// The observations recorded after `earlier`, an older snapshot of the
    /// same cumulative histogram: count, sum and every bucket minus
    /// `earlier`'s. Two cumulative snapshots give the window between them
    /// (the way a Prometheus-style scraper computes a rate).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let before = |le| match earlier.buckets.binary_search_by_key(&le, |&(b, _)| b) {
            Ok(i) => earlier.buckets[i].1,
            Err(_) => 0,
        };
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c.saturating_sub(before(le))))
                .filter(|&(_, c)| c > 0)
                .collect(),
        }
    }
}

/// A point-in-time metric value, the unit of the manifest schema.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-written measurement.
    Gauge(f64),
    /// Distribution snapshot.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// A scalar view for diffing: counters/gauges as themselves, histograms
    /// as their mean.
    pub fn scalar(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.mean(),
        }
    }

    /// Encode into the manifest JSON schema.
    pub fn to_json(&self) -> Json {
        match self {
            MetricValue::Counter(v) => ObjBuilder::new()
                .push("type", Json::Str("counter".into()))
                .push("value", Json::Num(*v as f64))
                .build(),
            MetricValue::Gauge(v) => ObjBuilder::new()
                .push("type", Json::Str("gauge".into()))
                .push("value", Json::Num(*v))
                .build(),
            MetricValue::Histogram(h) => ObjBuilder::new()
                .push("type", Json::Str("histogram".into()))
                .push("count", Json::Num(h.count as f64))
                .push("sum", Json::Num(h.sum as f64))
                .push(
                    "buckets",
                    Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(le, c)| {
                                Json::Arr(vec![Json::Num(le as f64), Json::Num(c as f64)])
                            })
                            .collect(),
                    ),
                )
                .build(),
        }
    }

    /// Decode from the manifest JSON schema.
    pub fn from_json(v: &Json) -> Option<MetricValue> {
        match v.get("type")?.as_str()? {
            "counter" => Some(MetricValue::Counter(v.get("value")?.as_u64()?)),
            "gauge" => Some(MetricValue::Gauge(v.get("value")?.as_f64()?)),
            "histogram" => {
                let buckets = v
                    .get("buckets")?
                    .as_arr()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(MetricValue::Histogram(HistogramSnapshot {
                    count: v.get("count")?.as_u64()?,
                    sum: v.get("sum")?.as_u64()?,
                    buckets,
                }))
            }
            _ => None,
        }
    }
}

/// Anything that can receive metrics under the shared naming schema
/// (`subsystem.component.metric`, e.g. `machine.l1d.misses`,
/// `runtime.pool.chunks`, `bfs.switches.to_bottom_up`).
///
/// Both the live [`Registry`] and a [`RunManifest`](crate::manifest::RunManifest)'s
/// metric map implement this, which is how simulated machine counters and
/// wall-clock runtime metrics end up in one schema.
pub trait MetricSink {
    /// Record a monotonic count.
    fn counter(&mut self, name: &str, value: u64);
    /// Record a point measurement.
    fn gauge(&mut self, name: &str, value: f64);
    /// Record a distribution snapshot.
    fn histogram(&mut self, name: &str, snapshot: HistogramSnapshot);
}

impl MetricSink for BTreeMap<String, MetricValue> {
    fn counter(&mut self, name: &str, value: u64) {
        self.insert(name.to_string(), MetricValue::Counter(value));
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.insert(name.to_string(), MetricValue::Gauge(value));
    }
    fn histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        self.insert(name.to_string(), MetricValue::Histogram(snapshot));
    }
}

enum Slot {
    Counter(Counter),
    Gauge(f64),
    Histogram(Histogram),
}

/// A name-keyed metric registry. One process-wide instance lives behind
/// [`global`]; tests and tools can build private ones.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name` (handle is lock-free afterwards).
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Counter::default()))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with another type"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::default()))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with another type"),
        }
    }

    /// Set the gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.slots
            .lock()
            .unwrap()
            .insert(name.to_string(), Slot::Gauge(value));
    }

    /// Snapshot every metric into plain values.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|(name, slot)| {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(*g),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Drop every metric (mainly for tests and between harness runs).
    pub fn clear(&self) {
        self.slots.lock().unwrap().clear();
    }
}

impl MetricSink for &Registry {
    fn counter(&mut self, name: &str, value: u64) {
        Registry::counter(self, name).add(value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.set_gauge(name, value);
    }
    fn histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        // Replay the snapshot shape: counts per bucket at a representative
        // value (the bound's lower edge), preserving count and total shape.
        let h = Registry::histogram(self, name);
        for &(le, c) in &snapshot.buckets {
            let representative = if le <= 1 { 0 } else { le / 2 };
            for _ in 0..c {
                h.record(representative);
            }
        }
    }
}

/// The process-wide registry the runtime and workloads populate.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.snapshot()["x"], MetricValue::Counter(5));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 900, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1930);
        assert_eq!(
            s.buckets,
            vec![(1, 1), (2, 1), (4, 2), (1024, 1), (2048, 1)]
        );
        assert!((s.mean() - 1930.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_pins_p50_p99_for_uniform_1_to_100() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Cumulative bucket counts: le2:1, le4:3, le8:7, le16:15, le32:31,
        // le64:63, le128:100. The true p50 (50) is rank 50, the 19th of 32
        // observations in (32, 64] -> 32 + ceil(32*19/32) = 51; p99 (rank
        // 99) is the 36th of 37 in (64, 128] -> 64 + ceil(64*36/37) = 127.
        assert_eq!(s.quantile(0.5), 51);
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(0.999), 128);
        assert_eq!(s.quantile(1.0), 128);
        // q=0 clamps to rank 1 -> interpolates inside the minimum's bucket.
        assert_eq!(s.quantile(0.0), 2);
        // Interpolation keeps the estimate within log2 resolution of the
        // truth, in both directions.
        for (q, exact) in [(0.5, 50u64), (0.9, 90), (0.99, 99)] {
            assert!(s.quantile(q) > exact / 2, "q={q}: {}", s.quantile(q));
            assert!(
                s.quantile(q) <= 2 * exact.max(1),
                "q={q}: {}",
                s.quantile(q)
            );
        }
        // For this uniform distribution interpolation is much tighter than
        // the 2x bound: within 50% of the truth at every checked quantile
        // (the old bucket-bound estimate missed p50 by 28%).
        for (q, exact) in [(0.5, 50u64), (0.9, 90), (0.99, 99)] {
            let est = s.quantile(q);
            assert!(est.abs_diff(exact) * 2 <= exact, "q={q}: {est} vs {exact}");
        }
    }

    #[test]
    fn quantile_degenerate_distributions() {
        // All observations equal (100 x 7, bucket (4, 8]): quantiles sweep
        // the bucket interior with rank, staying within log2 resolution of
        // the true value 7, and q=1.0 still reports the full bound.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(7);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let est = s.quantile(q);
            assert!((5..=8).contains(&est), "q={q}: {est}");
        }
        assert_eq!(s.quantile(0.5), 6);
        assert_eq!(s.quantile(1.0), 8);
        // All zeros -> 0 (the zero bucket holds only zeros; the old
        // bucket-bound estimate reported 1 here).
        let hz = Histogram::default();
        for _ in 0..10 {
            hz.record(0);
        }
        assert_eq!(hz.snapshot().quantile(0.99), 0);
        // Empty histogram -> 0.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        // Single observation -> the full interpolation step lands on the
        // bucket bound at every q.
        let h1 = Histogram::default();
        h1.record(1000);
        assert_eq!(h1.snapshot().quantile(0.5), 1024);
        assert_eq!(h1.snapshot().quantile(0.001), 1024);
    }

    #[test]
    fn quantile_skewed_tail() {
        // 990 fast observations (value 3) and 10 slow ones (value 5000):
        // p50/p99 stay in the fast bucket, p999 lands in the tail bucket.
        let h = Histogram::default();
        for _ in 0..990 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 4);
        assert_eq!(s.quantile(0.99), 4);
        // p999 (rank 999) is the 9th of 10 tail observations in
        // (4096, 8192] -> 4096 + ceil(4096*9/10) = 7783, much closer to the
        // true 5000 than the old bucket bound of 8192.
        assert_eq!(s.quantile(0.999), 7783);
    }

    /// `(a + later).since(a)` is exactly the later stream: count, sum,
    /// buckets and quantiles of a histogram that only saw it, within the
    /// documented 2x of its true sample p99; `x.since(x)` is empty.
    #[test]
    fn snapshot_since_subtracts_an_earlier_snapshot() {
        // Three "lanes" with different latency shapes recorded first, then
        // a heavy-tailed later stream with zeros in it.
        let early: Vec<u64> = (1..=400)
            .map(|i| i % 97 + 1)
            .chain((1..=300).map(|i| (i * i) % 1500 + 10))
            .collect();
        let later: Vec<u64> = (1..=200).map(|i| i * 40).chain([0; 50]).collect();
        let cumulative = Histogram::default();
        let alone = Histogram::default();
        for &v in &early {
            cumulative.record(v);
        }
        let a = cumulative.snapshot();
        for &v in &later {
            cumulative.record(v);
            alone.record(v);
        }
        let window = cumulative.snapshot().since(&a);
        let reference = alone.snapshot();
        assert_eq!(window.count, 250);
        assert_eq!(window.sum, later.iter().sum::<u64>());
        assert_eq!(window, reference, "since must be bucket-lossless");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(window.quantile(q), reference.quantile(q), "q={q}");
        }
        assert_eq!(window.mean(), reference.mean());
        let mut samples = later.clone();
        samples.sort_unstable();
        let rank = ((0.99 * samples.len() as f64).ceil() as usize).max(1);
        let true_p99 = samples[rank - 1];
        let est = window.quantile(0.99);
        assert!(
            est >= true_p99 / 2 && est <= true_p99 * 2,
            "windowed p99 {est} outside 2x of true sample p99 {true_p99}"
        );
        // Nothing recorded in between: the difference is empty.
        let x = cumulative.snapshot();
        assert_eq!(x.since(&x), HistogramSnapshot::default());
        assert_eq!(x.since(&HistogramSnapshot::default()), x);
    }

    #[test]
    fn metric_values_round_trip_json() {
        let values = [
            MetricValue::Counter(42),
            MetricValue::Gauge(0.375),
            MetricValue::Histogram(HistogramSnapshot {
                count: 3,
                sum: 9,
                buckets: vec![(2, 1), (8, 2)],
            }),
        ];
        for v in values {
            let j = v.to_json();
            let text = j.to_pretty();
            let back = MetricValue::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn registry_snapshot_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("runtime.chunks").add(7);
        reg.set_gauge("runtime.pool.utilization", 0.5);
        reg.histogram("bfs.frontier.occupancy").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap["runtime.chunks"], MetricValue::Counter(7));
        assert_eq!(snap["runtime.pool.utilization"], MetricValue::Gauge(0.5));
        assert!(matches!(
            &snap["bfs.frontier.occupancy"],
            MetricValue::Histogram(h) if h.count == 1
        ));
        reg.clear();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn sinks_share_one_schema() {
        fn fill(sink: &mut dyn MetricSink) {
            sink.counter("machine.instructions", 1000);
            sink.gauge("machine.ipc", 0.33);
            sink.histogram(
                "runtime.chunks_per_worker",
                HistogramSnapshot {
                    count: 2,
                    sum: 6,
                    buckets: vec![(4, 2)],
                },
            );
        }
        let mut map: BTreeMap<String, MetricValue> = BTreeMap::new();
        fill(&mut map);
        assert_eq!(map.len(), 3);
        let reg = Registry::new();
        fill(&mut &reg);
        let snap = reg.snapshot();
        assert_eq!(snap["machine.instructions"], MetricValue::Counter(1000));
        assert_eq!(snap["machine.ipc"], MetricValue::Gauge(0.33));
        assert!(matches!(
            &snap["runtime.chunks_per_worker"],
            MetricValue::Histogram(h) if h.count == 2
        ));
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_confusion_panics() {
        let reg = Registry::new();
        reg.counter("m");
        reg.histogram("m");
    }
}
