//! Live SLO stats: sliding-window latency estimators over the serving path.
//!
//! End-of-run percentiles tell you how a mix went; an operator (and the
//! ROADMAP's adaptive admission loop) needs the *current* latency picture.
//! The [`SloTracker`] keeps, per priority lane and per workload key, a
//! 10-second [`WindowedHistogram`] plus an [`Ewma`], fed by the executors
//! on every completed query. Three consumers read it:
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
//! * tests/benches via [`SloTracker::lane_stats`];
//! * the **feedback cost model** — [`SloTracker::observe_cost`] folds each
//!   completed query's `exec_us / static_cost` ratio into a global
//!   calibration EWMA and a per-key EWMA, and
//!   [`SloTracker::correction`] turns the pair into a bounded factor the
//!   engine multiplies into the static `cost_estimate` at admission. A key
//!   that consistently runs hotter than the global calibration predicts is
//!   charged more budget; one that runs cooler (e.g. because the result
//!   cache absorbs it) is charged less, down to the clamp floor.
//!
//! This module also defines the [`SloSpec`] / [`ClassSlo`] JSON types: the
//! per-class p99/p999 latency targets a mix file declares, surfaced in
//! stats lines and enforced end-of-run by `graphbig-report --check`.

use std::collections::BTreeMap;
use std::sync::Arc;

use graphbig_json::json_struct;
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::{recorder, Ewma, WindowedHistogram};
use graphbig_workloads::{CostClass, Workload};

use crate::engine::Query;

/// Schema identifier of the periodic stats snapshot line.
pub const STATS_SCHEMA: &str = "graphbig.stats/v1";

/// Window geometry: 8 slices of 1250 ms = a 10-second sliding window.
const WINDOW_SLICES: usize = 8;
const SLICE_MS: u64 = 1250;
/// EWMA smoothing: ~5% weight per observation.
const EWMA_ALPHA: f64 = 0.05;
/// Feedback-model smoothing: faster than the latency EWMAs so admission
/// adapts within a few dozen requests of a regime change.
const FEEDBACK_ALPHA: f64 = 0.1;
/// Lower clamp on the cost-correction factor: a key never gets cheaper
/// than a quarter of its static estimate.
pub const CORRECTION_MIN: f64 = 0.25;
/// Upper clamp: a key never gets more than 4x its static estimate.
pub const CORRECTION_MAX: f64 = 4.0;
/// Observations (global and per-key) required before the correction
/// leaves its neutral 1.0 — cold estimators make bad calibrators.
pub const FEEDBACK_WARMUP: u64 = 8;

/// Stable lowercase key for a workload in `engine.window.*` metric names.
pub fn workload_key(w: Workload) -> &'static str {
    match w {
        Workload::Bfs => "bfs",
        Workload::Dfs => "dfs",
        Workload::GCons => "gcons",
        Workload::GUp => "gup",
        Workload::TMorph => "tmorph",
        Workload::SPath => "spath",
        Workload::KCore => "kcore",
        Workload::CComp => "ccomp",
        Workload::GColor => "gcolor",
        Workload::Tc => "tc",
        Workload::Gibbs => "gibbs",
        Workload::DCentr => "dcentr",
        Workload::BCentr => "bcentr",
    }
}

/// Stable lowercase key for any query shape.
pub fn query_key(q: &Query) -> &'static str {
    match q {
        Query::Degree { .. } => "degree",
        Query::KHop { .. } => "khop",
        Query::Run { workload, .. } => workload_key(*workload),
    }
}

/// One lane's (or workload key's) estimator pair.
struct LaneWindow {
    hist: WindowedHistogram,
    ewma: Ewma,
}

impl LaneWindow {
    fn new() -> LaneWindow {
        LaneWindow {
            hist: WindowedHistogram::new(WINDOW_SLICES, SLICE_MS),
            ewma: Ewma::new(EWMA_ALPHA),
        }
    }

    fn record(&self, latency_us: u64) {
        self.hist.record(latency_us);
        self.ewma.observe(latency_us);
    }
}

struct Inner {
    lanes: [LaneWindow; 4],
    /// Per-workload-key windows. The key set is fixed at construction —
    /// every query shape the engine can serve — so published metric names
    /// never depend on traffic.
    workloads: BTreeMap<&'static str, (CostClass, LaneWindow)>,
    /// Global calibration: EWMA of `exec_us / static_cost` across every
    /// completed query — "how many microseconds one cost unit buys on this
    /// graph/hardware".
    unit: Ewma,
    /// Per-key `exec_us / static_cost` EWMAs (same fixed key set as
    /// `workloads`). The ratio of a key's EWMA to the global one is its
    /// cost-correction factor.
    costs: BTreeMap<&'static str, Ewma>,
}

/// Sliding-window latency stats for the serving engine, shared between the
/// executors (writers) and stats consumers (readers) via a cheap clone.
#[derive(Clone)]
pub struct SloTracker {
    inner: Arc<Inner>,
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SloTracker {
    /// A fresh tracker with empty windows and the fixed key set.
    pub fn new() -> SloTracker {
        let mut workloads: BTreeMap<&'static str, (CostClass, LaneWindow)> = BTreeMap::new();
        workloads.insert("degree", (CostClass::Point, LaneWindow::new()));
        workloads.insert("khop", (CostClass::Point, LaneWindow::new()));
        for w in Workload::ALL {
            if graphbig_workloads::service::servable(w) {
                workloads.insert(workload_key(w), (w.cost_class(), LaneWindow::new()));
            }
        }
        let costs = workloads
            .keys()
            .map(|&k| (k, Ewma::new(FEEDBACK_ALPHA)))
            .collect();
        SloTracker {
            inner: Arc::new(Inner {
                lanes: [
                    LaneWindow::new(),
                    LaneWindow::new(),
                    LaneWindow::new(),
                    LaneWindow::new(),
                ],
                workloads,
                unit: Ewma::new(FEEDBACK_ALPHA),
                costs,
            }),
        }
    }

    /// Record one completed query's end-to-end latency (queue + exec) into
    /// its lane window and, when the key is a known query shape, into the
    /// per-workload window.
    pub fn record(&self, lane: usize, key: &str, latency_us: u64) {
        self.inner.lanes[lane].record(latency_us);
        if let Some((_, w)) = self.inner.workloads.get(key) {
            w.record(latency_us);
        }
    }

    /// Feed one completed query into the feedback cost model: fold its
    /// `exec_us / static_cost` ratio into the global calibration EWMA and
    /// the key's own EWMA. Zero static costs are skipped (no ratio exists);
    /// unknown keys calibrate the global unit only.
    pub fn observe_cost(&self, key: &str, static_cost: u64, exec_us: u64) {
        if static_cost == 0 {
            return;
        }
        let ratio = exec_us as f64 / static_cost as f64;
        self.inner.unit.observe_f64(ratio);
        if let Some(e) = self.inner.costs.get(key) {
            e.observe_f64(ratio);
        }
    }

    /// The bounded cost-correction factor for `key`: the ratio of the
    /// key's observed µs-per-cost-unit to the global calibration, clamped
    /// to [[`CORRECTION_MIN`], [`CORRECTION_MAX`]]. Neutral (1.0) until
    /// both estimators have [`FEEDBACK_WARMUP`] observations, for unknown
    /// keys, and whenever the calibration is degenerate.
    pub fn correction(&self, key: &str) -> f64 {
        let unit = &self.inner.unit;
        let Some(observed) = self.inner.costs.get(key) else {
            return 1.0;
        };
        if unit.count() < FEEDBACK_WARMUP || observed.count() < FEEDBACK_WARMUP {
            return 1.0;
        }
        let (u, o) = (unit.value(), observed.value());
        if !u.is_finite() || u <= 0.0 || !o.is_finite() {
            return 1.0;
        }
        (o / u).clamp(CORRECTION_MIN, CORRECTION_MAX)
    }

    /// The budget cost to charge for a query of `static_cost` under `key`:
    /// the static estimate scaled by [`SloTracker::correction`], never
    /// below 1.
    pub fn adaptive_cost(&self, key: &str, static_cost: u64) -> u64 {
        ((static_cost as f64 * self.correction(key)).round() as u64).max(1)
    }

    /// The current window stats for one lane.
    pub fn lane_stats(&self, lane: usize) -> LaneStats {
        let lw = &self.inner.lanes[lane];
        let snap = lw.hist.snapshot();
        LaneStats {
            class: CostClass::ALL[lane],
            count: snap.count,
            p50_us: snap.quantile(0.5),
            p99_us: snap.quantile(0.99),
            p999_us: snap.quantile(0.999),
            ewma_us: lw.ewma.value(),
            p99_target_us: 0,
            p999_target_us: 0,
        }
    }

    /// Publish the fixed `engine.window.*` gauge set into `reg`: per lane
    /// `count` / `p50_us` / `p99_us` / `p999_us` / `ewma_us`, and per
    /// workload key `p99_us` / `ewma_us`.
    pub fn publish(&self, reg: &Registry) {
        for lane in 0..4 {
            let s = self.lane_stats(lane);
            let base = format!("engine.window.{}", s.class.name());
            reg.set_gauge(&format!("{base}.count"), s.count as f64);
            reg.set_gauge(&format!("{base}.p50_us"), s.p50_us as f64);
            reg.set_gauge(&format!("{base}.p99_us"), s.p99_us as f64);
            reg.set_gauge(&format!("{base}.p999_us"), s.p999_us as f64);
            reg.set_gauge(&format!("{base}.ewma_us"), s.ewma_us);
        }
        for (key, (class, w)) in &self.inner.workloads {
            let base = format!("engine.window.{}.{key}", class.name());
            reg.set_gauge(
                &format!("{base}.p99_us"),
                w.hist.snapshot().quantile(0.99) as f64,
            );
            reg.set_gauge(&format!("{base}.ewma_us"), w.ewma.value());
            reg.set_gauge(&format!("{base}.correction"), self.correction(key));
        }
        reg.set_gauge("engine.feedback.unit_ratio", self.inner.unit.value());
    }
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
    /// EWMA latency in microseconds.
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

    #[test]
    fn keys_cover_every_query_shape() {
        assert_eq!(query_key(&Query::Degree { vertex: 0 }), "degree");
        assert_eq!(query_key(&Query::KHop { source: 0, hops: 2 }), "khop");
        assert_eq!(
            query_key(&Query::Run {
                workload: Workload::Bfs,
                source: 0
            }),
            "bfs"
        );
        // Every workload has a distinct key.
        let keys: std::collections::BTreeSet<_> =
            Workload::ALL.iter().map(|&w| workload_key(w)).collect();
        assert_eq!(keys.len(), 13);
    }

    #[test]
    fn tracker_records_into_lane_and_workload_windows() {
        let t = SloTracker::new();
        for _ in 0..50 {
            t.record(1, "bfs", 1000);
        }
        let s = t.lane_stats(1);
        assert_eq!(s.class, CostClass::Traversal);
        assert_eq!(s.count, 50);
        assert!(s.p50_us >= 512 && s.p50_us <= 1024, "{}", s.p50_us);
        assert!(s.p999_us >= s.p50_us);
        assert!((s.ewma_us - 1000.0).abs() < 1e-9);
        // Other lanes unaffected.
        assert_eq!(t.lane_stats(0).count, 0);
        assert_eq!(t.lane_stats(0).ewma_us, 0.0);
        // Unknown keys still land in the lane window.
        t.record(0, "not-a-workload", 5);
        assert_eq!(t.lane_stats(0).count, 1);
    }

    #[test]
    fn published_gauge_set_is_fixed_and_traffic_independent() {
        let quiet = Registry::new();
        SloTracker::new().publish(&quiet);
        let busy_tracker = SloTracker::new();
        busy_tracker.record(0, "degree", 10);
        busy_tracker.record(2, "ccomp", 90_000);
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
    }

    #[test]
    fn stats_line_is_compact_json_with_the_schema() {
        let t = SloTracker::new();
        t.record(0, "degree", 42);
        let snap = StatsSnapshot {
            t_ms: now_ms(),
            queue_depth: 3,
            in_flight_cost: 17,
            lanes: (0..4).map(|l| t.lane_stats(l)).collect(),
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
    fn correction_is_neutral_until_warmed_up_and_then_clamped() {
        let t = SloTracker::new();
        assert_eq!(t.correction("degree"), 1.0, "cold model is neutral");
        assert_eq!(t.adaptive_cost("degree", 100), 100);
        // Calibrate: khop runs at exactly 1 µs per cost unit.
        for _ in 0..FEEDBACK_WARMUP {
            t.observe_cost("khop", 100, 100);
        }
        assert_eq!(
            t.correction("degree"),
            1.0,
            "a key with no observations of its own stays neutral"
        );
        // degree consistently runs 2x hotter than its static estimate.
        for _ in 0..FEEDBACK_WARMUP {
            t.observe_cost("degree", 100, 200);
        }
        let c = t.correction("degree");
        assert!(c > 1.0 && c <= CORRECTION_MAX, "hot key costs more: {c}");
        assert!(t.adaptive_cost("degree", 100) > 100);
        // An absurdly hot key pins at the upper clamp, never beyond. The
        // unit calibration sees every sample too, so keep baseline
        // ratio-1 traffic flowing — as real mixed traffic would — or the
        // "unit" would chase the outlier and neutralize the correction.
        for _ in 0..8 {
            t.observe_cost("degree", 1, 1_000_000);
            for _ in 0..99 {
                t.observe_cost("khop", 100, 100);
            }
        }
        assert_eq!(t.correction("degree"), CORRECTION_MAX);
        assert_eq!(t.adaptive_cost("degree", 100), 400);
        // An absurdly cool key pins at the floor, and costs stay >= 1.
        for _ in 0..8 {
            t.observe_cost("bfs", 1_000_000, 1);
            for _ in 0..99 {
                t.observe_cost("khop", 100, 100);
            }
        }
        assert_eq!(t.correction("bfs"), CORRECTION_MIN);
        assert_eq!(t.adaptive_cost("bfs", 100), 25);
        assert_eq!(t.adaptive_cost("bfs", 1), 1, "adaptive cost floors at 1");
        // Unknown keys and zero static costs are inert.
        assert_eq!(t.correction("not-a-key"), 1.0);
        t.observe_cost("degree", 0, 5_000);
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
        let t = SloTracker::new();
        let mut snap = StatsSnapshot {
            t_ms: 0,
            queue_depth: 0,
            in_flight_cost: 0,
            lanes: (0..4).map(|l| t.lane_stats(l)).collect(),
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
