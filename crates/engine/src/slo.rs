//! Live SLO stats: sliding-window latency over the serving path.
//!
//! End-of-run percentiles tell you how a mix went; an operator needs the
//! *current* latency picture. The [`SloTracker`] keeps cumulative
//! histograms only (per lane the engine's `engine.latency_us.<class>`, per
//! workload key one more), and a read takes the last ~10 seconds as the
//! difference from an older snapshot ([`HistogramSnapshot::since`]), the
//! way a Prometheus-style scraper does, so writers do no window work. It
//! is for reporting only: admission charges the static `Query::cost`
//! estimate and never reads it. Three consumers read it:
//!
//! * [`SloTracker::publish`] — `engine.window.*` gauges in the metric
//!   registry, with a **fixed key set** (every lane and every servable
//!   workload key is pre-registered) so the manifest's golden structural
//!   check stays stable whether or not a key saw traffic;
//! * [`Engine::stats_snapshot`](crate::engine::Engine::stats_snapshot) —
//!   a [`StatsSnapshot`] combining queue depth, in-flight cost, and the
//!   per-lane window stats, rendered by
//!   [`StatsSnapshot::to_json_line`] as the structured line
//!   `graphbig-serve --stats-interval` prints;
//! * tests/benches via [`SloTracker::lane_stats`].
//!
//! This module also defines the [`SloSpec`] / [`ClassSlo`] JSON types: the
//! per-class p99/p999 latency targets a mix file declares, surfaced in
//! stats lines and enforced end-of-run by `graphbig-report --check`.

use std::collections::VecDeque;
use std::iter::zip;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphbig_json::json_struct;
use graphbig_telemetry::metrics::{Histogram, HistogramSnapshot, Registry};
use graphbig_telemetry::recorder;
use graphbig_workloads::{service, CostClass, Workload};

use crate::engine::Query;
use crate::lifecycle::lock;

/// Schema identifier of the periodic stats snapshot line.
pub const STATS_SCHEMA: &str = "graphbig.stats/v1";

/// Window geometry: a read subtracts the newest baseline at least
/// `WINDOW_SLICES × SLICE_MS` = 10 s old and takes a new baseline at most
/// once per `SLICE_MS`, so reads a slice apart see 10 s to 10 s + a slice.
const WINDOW_SLICES: u32 = 8;
const SLICE_MS: u64 = 1250;
/// Per-key metric names by histogram slot: `degree`, `khop`, then one per
/// workload in [`Workload::ALL`] order.
const KEYS: [&str; 2 + Workload::ALL.len()] = [
    "degree", "khop", "bfs", "dfs", "gcons", "gup", "tmorph", "spath", "kcore", "ccomp", "gcolor",
    "tc", "gibbs", "dcentr", "bcentr",
];

/// Stable lowercase key for a workload in `engine.window.*` metric names.
pub fn workload_key(w: Workload) -> &'static str {
    KEYS[2 + w as usize]
}

/// The per-key histogram slot of a query shape.
fn key_slot(q: &Query) -> usize {
    match q {
        Query::Degree { .. } => 0,
        Query::KHop { .. } => 1,
        Query::Run { workload, .. } => 2 + *workload as usize,
    }
}

struct Inner {
    /// Cumulative: the four lane histograms, then one per key slot.
    hists: Vec<Histogram>,
    /// Snapshots of `hists` taken by reads, oldest first, starting with
    /// the one taken at construction. Only reads take this lock.
    baselines: Mutex<VecDeque<(Instant, Vec<HistogramSnapshot>)>>,
}

/// Sliding-window latency stats for the serving engine, shared between the
/// request path (writers) and stats consumers (readers) via a cheap clone.
#[derive(Clone)]
pub struct SloTracker {
    inner: Arc<Inner>,
}

impl SloTracker {
    /// A tracker over the four lane latency histograms (point, traversal,
    /// analytics, write), which the caller records into, plus its own
    /// per-key histograms. Windows count what they gain after construction.
    pub fn new(lanes: [Histogram; 4]) -> SloTracker {
        let hists: Vec<Histogram> = lanes
            .into_iter()
            .chain(KEYS.map(|_| Histogram::default()))
            .collect();
        let start = hists.iter().map(Histogram::snapshot).collect();
        SloTracker {
            inner: Arc::new(Inner {
                hists,
                baselines: Mutex::new(VecDeque::from([(Instant::now(), start)])),
            }),
        }
    }

    /// The cumulative histogram a completed query of shape `q` records its
    /// end-to-end latency (queue + exec) into.
    pub(crate) fn key_histogram(&self, q: &Query) -> &Histogram {
        &self.inner.hists[4 + key_slot(q)]
    }

    /// Every histogram's window at `now`: its cumulative snapshot minus the
    /// newest baseline at least one span older, or the construction
    /// baseline when none is that old. Older baselines are pruned, and the
    /// snapshot becomes a baseline when the newest one is a slice old.
    fn window_at(&self, now: Instant) -> Vec<HistogramSnapshot> {
        let age = |at: Instant| now.saturating_duration_since(at);
        let span = Duration::from_millis(SLICE_MS) * WINDOW_SLICES;
        let mut ring = lock(&self.inner.baselines);
        let current: Vec<HistogramSnapshot> =
            self.inner.hists.iter().map(Histogram::snapshot).collect();
        if let Some(aged) = ring.iter().rposition(|&(at, _)| age(at) >= span) {
            ring.drain(..aged);
        }
        let window = zip(&current, &ring[0].1).map(|(c, b)| c.since(b)).collect();
        if age(ring[ring.len() - 1].0) >= Duration::from_millis(SLICE_MS) {
            ring.push_back((now, current));
        }
        window
    }

    /// The current window stats of the four lanes, in lane order.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        lane_summaries(&self.window_at(Instant::now()))
    }

    /// Publish the fixed `engine.window.*` gauge set into `reg`: per lane
    /// `count` / `p50_us` / `p99_us` / `p999_us` / `ewma_us`, and per
    /// workload key `p99_us` / `ewma_us` (`ewma_us` is the window mean).
    pub fn publish(&self, reg: &Registry) {
        let window = self.window_at(Instant::now());
        for s in lane_summaries(&window) {
            let base = format!("engine.window.{}", s.class.name());
            reg.set_gauge(&format!("{base}.count"), s.count as f64);
            reg.set_gauge(&format!("{base}.p50_us"), s.p50_us as f64);
            reg.set_gauge(&format!("{base}.p99_us"), s.p99_us as f64);
            reg.set_gauge(&format!("{base}.p999_us"), s.p999_us as f64);
            reg.set_gauge(&format!("{base}.ewma_us"), s.ewma_us);
        }
        for (slot, (key, s)) in KEYS.iter().zip(&window[4..]).enumerate() {
            // A workload the engine cannot serve publishes nothing.
            let run = slot.checked_sub(2).map(|i| Workload::ALL[i]);
            if run.is_some_and(|w| !service::servable(w)) {
                continue;
            }
            let class = run.map_or(CostClass::Point, Workload::cost_class);
            let base = format!("engine.window.{}.{key}", class.name());
            reg.set_gauge(&format!("{base}.p99_us"), s.quantile(0.99) as f64);
            reg.set_gauge(&format!("{base}.ewma_us"), s.mean());
        }
    }
}

/// The four lanes' summaries from a window (lanes come first in it).
fn lane_summaries(window: &[HistogramSnapshot]) -> Vec<LaneStats> {
    CostClass::ALL
        .into_iter()
        .zip(window)
        .map(|(class, s)| LaneStats {
            class,
            count: s.count,
            p50_us: s.quantile(0.5),
            p99_us: s.quantile(0.99),
            p999_us: s.quantile(0.999),
            ewma_us: s.mean(),
            p99_target_us: 0,
            p999_target_us: 0,
        })
        .collect()
}

/// One lane's sliding-window latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneStats {
    /// The lane's cost class.
    pub class: CostClass,
    /// Observations currently inside the window.
    pub count: u64,
    /// Interpolated window p50 in microseconds.
    pub p50_us: u64,
    /// Interpolated window p99 in microseconds.
    pub p99_us: u64,
    /// Interpolated window p99.9 in microseconds.
    pub p999_us: u64,
    /// Mean latency over the window in microseconds (the name is kept for
    /// the `graphbig.stats/v1` schema).
    pub ewma_us: f64,
    /// Declared p99 target in microseconds (0 = no target declared).
    pub p99_target_us: u64,
    /// Declared p99.9 target in microseconds (0 = no target declared).
    pub p999_target_us: u64,
}

/// Per-class latency targets declared in a mix file's `slo` member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSlo {
    /// p99 end-to-end latency target in microseconds (0 = unchecked).
    pub p99_us: u64,
    /// p99.9 end-to-end latency target in microseconds (0 = unchecked).
    pub p999_us: u64,
}
json_struct!(ClassSlo { p99_us, p999_us });

/// The full SLO declaration: optional targets per cost class. Absent
/// classes are unchecked, so old mix files (no `slo` member at all) keep
/// parsing and checking nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloSpec {
    /// Targets for the Point lane.
    pub point: Option<ClassSlo>,
    /// Targets for the Traversal lane.
    pub traversal: Option<ClassSlo>,
    /// Targets for the Analytics lane.
    pub analytics: Option<ClassSlo>,
    /// Targets for the Write lane (mutation batches).
    pub write: Option<ClassSlo>,
}

impl graphbig_json::ToJson for SloSpec {
    fn to_json(&self) -> graphbig_json::Json {
        graphbig_json::Json::Obj(vec![
            ("point".to_string(), self.point.to_json()),
            ("traversal".to_string(), self.traversal.to_json()),
            ("analytics".to_string(), self.analytics.to_json()),
            ("write".to_string(), self.write.to_json()),
        ])
    }
}

impl graphbig_json::FromJson for SloSpec {
    fn from_json(v: &graphbig_json::Json) -> Result<Self, graphbig_json::DecodeError> {
        // Each class is optional *and* omissible: `field_or_default` keeps
        // hand-written specs that mention only one class valid.
        Ok(SloSpec {
            point: graphbig_json::codec::field_or_default(v, "point")?,
            traversal: graphbig_json::codec::field_or_default(v, "traversal")?,
            analytics: graphbig_json::codec::field_or_default(v, "analytics")?,
            write: graphbig_json::codec::field_or_default(v, "write")?,
        })
    }
}

impl SloSpec {
    /// The targets for a lane index (0 point, 1 traversal, 2 analytics,
    /// 3 write).
    pub fn for_lane(&self, lane: usize) -> Option<ClassSlo> {
        match lane {
            0 => self.point,
            1 => self.traversal,
            2 => self.analytics,
            _ => self.write,
        }
    }

    /// True when at least one class declares a target.
    pub fn any(&self) -> bool {
        self.point.is_some()
            || self.traversal.is_some()
            || self.analytics.is_some()
            || self.write.is_some()
    }
}

/// A point-in-time serving snapshot: live queue/cost counters plus the
/// per-lane window stats. Rendered by [`StatsSnapshot::to_json_line`] for
/// the `--stats-interval` output.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Milliseconds since the process epoch.
    pub t_ms: u64,
    /// Queries currently queued across all lanes.
    pub queue_depth: u64,
    /// Cost units currently admitted and not yet finished.
    pub in_flight_cost: u64,
    /// Window stats per lane, in lane order (point, traversal, analytics,
    /// write).
    pub lanes: Vec<LaneStats>,
}

impl StatsSnapshot {
    /// Stamp each lane's declared SLO targets onto the snapshot so the
    /// stats line shows live latency *against its target* (0 stays "no
    /// target" for absent classes or fields).
    pub fn apply_slo(&mut self, spec: &SloSpec) {
        for (lane, stats) in self.lanes.iter_mut().enumerate() {
            if let Some(slo) = spec.for_lane(lane) {
                stats.p99_target_us = slo.p99_us;
                stats.p999_target_us = slo.p999_us;
            }
        }
    }

    /// One compact JSON line (no trailing newline) under
    /// [`STATS_SCHEMA`].
    pub fn to_json_line(&self) -> String {
        use graphbig_telemetry::json::{Json, ObjBuilder};
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                ObjBuilder::new()
                    .push("class", Json::Str(l.class.name().into()))
                    .push("count", Json::Num(l.count as f64))
                    .push("p50_us", Json::Num(l.p50_us as f64))
                    .push("p99_us", Json::Num(l.p99_us as f64))
                    .push("p999_us", Json::Num(l.p999_us as f64))
                    .push("ewma_us", Json::Num(l.ewma_us))
                    .push("p99_target_us", Json::Num(l.p99_target_us as f64))
                    .push("p999_target_us", Json::Num(l.p999_target_us as f64))
                    .build()
            })
            .collect();
        ObjBuilder::new()
            .push("schema", Json::Str(STATS_SCHEMA.into()))
            .push("t_ms", Json::Num(self.t_ms as f64))
            .push("queue_depth", Json::Num(self.queue_depth as f64))
            .push("in_flight_cost", Json::Num(self.in_flight_cost as f64))
            .push("lanes", Json::Arr(lanes))
            .build()
            .to_compact()
    }
}

/// Milliseconds since the process epoch, for snapshot timestamps.
pub(crate) fn now_ms() -> u64 {
    recorder::now_us() / 1000
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker over fresh lane histograms, the handles to record into,
    /// and the instant of its construction baseline.
    fn tracker() -> (SloTracker, [Histogram; 4], Instant) {
        let lanes: [Histogram; 4] = std::array::from_fn(|_| Histogram::default());
        let t = SloTracker::new(lanes.clone());
        let start = t.inner.baselines.lock().unwrap()[0].0;
        (t, lanes, start)
    }

    const SLICE: Duration = Duration::from_millis(SLICE_MS);

    #[test]
    fn keys_cover_every_query_shape() {
        assert_eq!(key_slot(&Query::Degree { vertex: 0 }), 0);
        assert_eq!(key_slot(&Query::KHop { source: 0, hops: 2 }), 1);
        // Every workload has its own lowercase key and slot.
        for w in Workload::ALL {
            assert_eq!(workload_key(w), format!("{w:?}").to_lowercase());
        }
        let slots: std::collections::BTreeSet<_> = Workload::ALL
            .into_iter()
            .map(|workload| {
                key_slot(&Query::Run {
                    workload,
                    source: 0,
                })
            })
            .chain([0, 1])
            .collect();
        assert_eq!(slots, (0..KEYS.len()).collect());
    }

    #[test]
    fn tracker_records_into_lane_and_workload_windows() {
        let (t, lanes, _) = tracker();
        let bfs = Query::Run {
            workload: Workload::Bfs,
            source: 0,
        };
        for _ in 0..50 {
            lanes[1].record(1000);
            t.key_histogram(&bfs).record(1000);
        }
        let stats = t.lane_stats();
        let s = &stats[1];
        assert_eq!(s.class, CostClass::Traversal);
        assert_eq!(s.count, 50);
        assert!(s.p50_us >= 512 && s.p50_us <= 1024, "{}", s.p50_us);
        assert!(s.p999_us >= s.p50_us);
        assert!((s.ewma_us - 1000.0).abs() < 1e-9);
        // Other lanes and keys unaffected.
        assert_eq!(stats[0].count, 0);
        assert_eq!(stats[0].ewma_us, 0.0);
        let window = t.window_at(Instant::now());
        assert_eq!(window[4 + key_slot(&bfs)].count, 50);
        assert_eq!(window[4 + key_slot(&Query::Degree { vertex: 0 })].count, 0);
    }

    #[test]
    fn observations_older_than_the_span_fall_out() {
        let (t, lanes, start) = tracker();
        for _ in 0..50 {
            lanes[0].record(7);
        }
        // A slice after construction, so this read's snapshot becomes a
        // baseline.
        let t0 = start + SLICE;
        assert_eq!(t.window_at(t0)[0].count, 50);
        let later = t0 + Duration::from_secs(11);
        assert_eq!(t.window_at(later)[0].count, 0, "window expired");
        lanes[0].record(9);
        let fresh = t.window_at(later + Duration::from_secs(1));
        assert_eq!(fresh[0].count, 1, "a fresh observation counts");
    }

    #[test]
    fn a_read_without_an_old_enough_baseline_covers_all_history() {
        let (t, lanes, start) = tracker();
        lanes[2].record(100);
        assert_eq!(t.window_at(start + Duration::from_secs(5))[2].count, 1);
        lanes[2].record(200);
        // The baseline taken at 5 s is too young: subtract construction's.
        let w = t.window_at(start + Duration::from_millis(9_900));
        assert_eq!((w[2].count, w[2].sum), (2, 300));
    }

    #[test]
    fn the_baseline_ring_stays_bounded_however_often_it_is_read() {
        let (t, lanes, start) = tracker();
        // One observation and one read every 100 ms for a minute.
        for ms in (0..60_000).step_by(100) {
            lanes[0].record(1);
            let count = t.window_at(start + Duration::from_millis(ms))[0].count;
            let len = t.inner.baselines.lock().unwrap().len();
            assert!(
                len <= WINDOW_SLICES as usize + 1,
                "{len} baselines at {ms} ms"
            );
            // Past the first span a window covers 10 s to 10 s + a slice
            // (plus the 100 ms read spacing).
            if ms >= 11_300 {
                assert!((100..=113).contains(&count), "{count} at {ms} ms");
            }
        }
    }

    #[test]
    fn window_quantiles_match_a_histogram_of_only_the_windowed_observations() {
        let (t, lanes, start) = tracker();
        for v in 1..=500 {
            lanes[1].record(v * 3);
        }
        let t0 = start + SLICE;
        t.window_at(t0); // the baseline the later read subtracts
        let alone = Histogram::default();
        for v in 1..=300u64 {
            lanes[1].record(v * v % 5000 + 20);
            alone.record(v * v % 5000 + 20);
        }
        let window = t.window_at(t0 + Duration::from_secs(10));
        let want = alone.snapshot();
        assert_eq!(window[1], want);
        let s = &lane_summaries(&window)[1];
        assert_eq!(s.count, 300);
        assert_eq!(s.p50_us, want.quantile(0.5));
        assert_eq!(s.p99_us, want.quantile(0.99));
        assert_eq!(s.p999_us, want.quantile(0.999));
        assert_eq!(s.ewma_us, want.mean());
    }

    #[test]
    fn published_gauge_set_is_fixed_and_traffic_independent() {
        let quiet = Registry::new();
        tracker().0.publish(&quiet);
        let (busy_tracker, lanes, _) = tracker();
        lanes[0].record(10);
        busy_tracker
            .key_histogram(&Query::Degree { vertex: 0 })
            .record(10);
        lanes[2].record(90_000);
        busy_tracker
            .key_histogram(&Query::Run {
                workload: Workload::CComp,
                source: 0,
            })
            .record(90_000);
        let busy = Registry::new();
        busy_tracker.publish(&busy);
        let quiet_keys: Vec<String> = quiet.snapshot().into_keys().collect();
        let busy_keys: Vec<String> = busy.snapshot().into_keys().collect();
        assert_eq!(
            quiet_keys, busy_keys,
            "metric name set must not depend on traffic"
        );
        assert!(quiet_keys.contains(&"engine.window.point.p50_us".to_string()));
        assert!(quiet_keys.contains(&"engine.window.traversal.ewma_us".to_string()));
        assert!(quiet_keys.contains(&"engine.window.analytics.ccomp.p99_us".to_string()));
        assert!(quiet_keys.contains(&"engine.window.point.degree.ewma_us".to_string()));
        assert!(quiet_keys.contains(&"engine.window.write.p99_us".to_string()));
        assert_eq!(
            busy.snapshot()["engine.window.analytics.ccomp.ewma_us"],
            graphbig_telemetry::MetricValue::Gauge(90_000.0)
        );
    }

    #[test]
    fn stats_line_is_compact_json_with_the_schema() {
        let (t, lanes, _) = tracker();
        lanes[0].record(42);
        let snap = StatsSnapshot {
            t_ms: now_ms(),
            queue_depth: 3,
            in_flight_cost: 17,
            lanes: t.lane_stats(),
        };
        let line = snap.to_json_line();
        assert!(!line.contains('\n'));
        let doc = graphbig_telemetry::json::parse(&line).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(doc.get("queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("in_flight_cost").unwrap().as_u64(), Some(17));
        let lanes = doc.get("lanes").unwrap().as_arr().unwrap();
        assert_eq!(lanes.len(), 4);
        assert_eq!(lanes[3].get("class").unwrap().as_str(), Some("write"));
        assert_eq!(lanes[0].get("class").unwrap().as_str(), Some("point"));
        assert_eq!(lanes[0].get("count").unwrap().as_u64(), Some(1));
        for field in [
            "p50_us",
            "p99_us",
            "p999_us",
            "ewma_us",
            "p99_target_us",
            "p999_target_us",
        ] {
            assert!(lanes[0].get(field).is_some(), "{field}");
        }
    }

    #[test]
    fn slo_spec_parses_with_missing_and_null_classes() {
        let spec: SloSpec = graphbig_json::from_str(
            r#"{"point": {"p99_us": 500, "p999_us": 2000}, "traversal": null}"#,
        )
        .unwrap();
        assert_eq!(
            spec.point,
            Some(ClassSlo {
                p99_us: 500,
                p999_us: 2000
            })
        );
        assert_eq!(spec.traversal, None);
        assert_eq!(spec.analytics, None, "omitted class defaults to None");
        assert!(spec.any());
        assert!(!SloSpec::default().any());
        // Round trip.
        let back: SloSpec = graphbig_json::from_str(&graphbig_json::to_pretty(&spec)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn stats_snapshot_carries_slo_targets() {
        let mut snap = StatsSnapshot {
            t_ms: 0,
            queue_depth: 0,
            in_flight_cost: 0,
            lanes: tracker().0.lane_stats(),
        };
        snap.apply_slo(&SloSpec {
            point: Some(ClassSlo {
                p99_us: 700,
                p999_us: 3000,
            }),
            traversal: None,
            analytics: None,
            write: Some(ClassSlo {
                p99_us: 900,
                p999_us: 0,
            }),
        });
        let doc = graphbig_telemetry::json::parse(&snap.to_json_line()).unwrap();
        let lanes = doc.get("lanes").unwrap().as_arr().unwrap();
        assert_eq!(lanes[0].get("p99_target_us").unwrap().as_u64(), Some(700));
        assert_eq!(lanes[0].get("p999_target_us").unwrap().as_u64(), Some(3000));
        assert_eq!(
            lanes[1].get("p99_target_us").unwrap().as_u64(),
            Some(0),
            "undeclared class renders target 0"
        );
        assert_eq!(lanes[3].get("p99_target_us").unwrap().as_u64(), Some(900));
    }
}
