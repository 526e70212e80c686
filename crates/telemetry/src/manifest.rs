//! The run manifest: one self-describing JSON object per benchmark run.
//!
//! A [`RunManifest`] captures everything needed to interpret or regression-
//! diff a run — what executed (binary, workload, dataset, parameters, git
//! revision, thread count, feature flags), what was measured (the metrics
//! registry snapshot in the shared [`MetricValue`] schema), how time was
//! spent ([`SpanSummary`] per span name), and the rendered result tables.
//! `graphbig-report` diffs two manifests; CI checks a fresh manifest's
//! *structure* against a committed golden one.

use std::collections::BTreeMap;

use crate::chrome::Trace;
use crate::json::{parse, Json, ObjBuilder, ParseError};
use crate::metrics::{HistogramSnapshot, MetricSink, MetricValue};

/// Current manifest schema identifier.
pub const SCHEMA: &str = "graphbig.run_manifest/v1";

/// A rendered result table (mirrors `graphbig_profile::Table` without the
/// dependency; `Table::to_data`/`from_data` convert).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableData {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name (`engine.exec`, `kernel.step`, `harness.kernel`, ...).
    pub name: String,
    /// How many spans were recorded.
    pub count: u64,
    /// Total duration in microseconds.
    pub total_us: u64,
}

/// One run, fully described.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Emitting binary (e.g. `fig05_breakdown`).
    pub bin: String,
    /// Workload name when the run is single-workload.
    pub workload: Option<String>,
    /// Dataset name when the run is single-dataset.
    pub dataset: Option<String>,
    /// Git revision of the tree that produced the run.
    pub git_rev: String,
    /// Worker thread count (0 = not applicable / sequential).
    pub threads: u64,
    /// Active cargo feature flags relevant to the run.
    pub features: Vec<String>,
    /// Free-form run parameters (`scale`, `seed`, ...).
    pub params: BTreeMap<String, String>,
    /// Human-readable remarks the binary used to print to stdout.
    pub notes: Vec<String>,
    /// Metrics snapshot in the shared schema.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Per-name span aggregates.
    pub spans: Vec<SpanSummary>,
    /// Rendered result tables.
    pub tables: Vec<TableData>,
}

impl MetricSink for RunManifest {
    fn counter(&mut self, name: &str, value: u64) {
        self.metrics.counter(name, value);
    }
    fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.gauge(name, value);
    }
    fn histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        self.metrics.histogram(name, snapshot);
    }
}

impl RunManifest {
    /// Fresh manifest for `bin` with the git revision auto-detected.
    pub fn new(bin: &str) -> Self {
        RunManifest {
            bin: bin.to_string(),
            git_rev: detect_git_rev(),
            ..Default::default()
        }
    }

    /// Set a string parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Fold a span trace into per-name summaries (appending to any already
    /// present).
    pub fn absorb_trace(&mut self, trace: &Trace) {
        for (name, count, total_us) in trace.summary() {
            if let Some(existing) = self.spans.iter_mut().find(|s| s.name == name) {
                existing.count += count;
                existing.total_us += total_us;
            } else {
                self.spans.push(SpanSummary {
                    name,
                    count,
                    total_us,
                });
            }
        }
    }

    /// Encode as a JSON document.
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .push("schema", Json::Str(SCHEMA.into()))
            .push("bin", Json::Str(self.bin.clone()))
            .push_opt("workload", self.workload.clone().map(Json::Str))
            .push_opt("dataset", self.dataset.clone().map(Json::Str))
            .push("git_rev", Json::Str(self.git_rev.clone()))
            .push("threads", Json::Num(self.threads as f64))
            .push(
                "features",
                Json::Arr(self.features.iter().cloned().map(Json::Str).collect()),
            )
            .push(
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            )
            .push(
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            )
            .push(
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            )
            .push(
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            ObjBuilder::new()
                                .push("name", Json::Str(s.name.clone()))
                                .push("count", Json::Num(s.count as f64))
                                .push("total_us", Json::Num(s.total_us as f64))
                                .build()
                        })
                        .collect(),
                ),
            )
            .push(
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            ObjBuilder::new()
                                .push("title", Json::Str(t.title.clone()))
                                .push(
                                    "headers",
                                    Json::Arr(t.headers.iter().cloned().map(Json::Str).collect()),
                                )
                                .push(
                                    "rows",
                                    Json::Arr(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(
                                                    r.iter().cloned().map(Json::Str).collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                )
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    }

    /// Pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decode from JSON text, validating the schema identifier.
    pub fn from_json_str(text: &str) -> Result<Self, ManifestError> {
        let doc = parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| ManifestError::Invalid("missing 'schema'".into()))?;
        if schema != SCHEMA {
            return Err(ManifestError::Invalid(format!(
                "unsupported schema '{schema}' (expected '{SCHEMA}')"
            )));
        }
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_default()
        };
        let str_list = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut m = RunManifest {
            bin: str_field("bin"),
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_string),
            dataset: doc
                .get("dataset")
                .and_then(Json::as_str)
                .map(str::to_string),
            git_rev: str_field("git_rev"),
            threads: doc.get("threads").and_then(Json::as_u64).unwrap_or(0),
            features: str_list("features"),
            notes: str_list("notes"),
            ..Default::default()
        };
        if let Some(params) = doc.get("params").and_then(Json::as_obj) {
            for (k, v) in params {
                if let Some(s) = v.as_str() {
                    m.params.insert(k.clone(), s.to_string());
                }
            }
        }
        if let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) {
            for (k, v) in metrics {
                let value = MetricValue::from_json(v)
                    .ok_or_else(|| ManifestError::Invalid(format!("metric '{k}' malformed")))?;
                m.metrics.insert(k.clone(), value);
            }
        }
        if let Some(spans) = doc.get("spans").and_then(Json::as_arr) {
            for s in spans {
                m.spans.push(SpanSummary {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    count: s.get("count").and_then(Json::as_u64).unwrap_or(0),
                    total_us: s.get("total_us").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        if let Some(tables) = doc.get("tables").and_then(Json::as_arr) {
            for t in tables {
                let headers = t
                    .get("headers")
                    .and_then(Json::as_arr)
                    .map(|hs| {
                        hs.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let rows = t
                    .get("rows")
                    .and_then(Json::as_arr)
                    .map(|rs| {
                        rs.iter()
                            .filter_map(Json::as_arr)
                            .map(|r| {
                                r.iter()
                                    .filter_map(Json::as_str)
                                    .map(str::to_string)
                                    .collect()
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                m.tables.push(TableData {
                    title: t
                        .get("title")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    headers,
                    rows,
                });
            }
        }
        Ok(m)
    }

    /// Write pretty JSON to `path`.
    pub fn write_to(&self, path: &str) -> Result<(), ManifestError> {
        std::fs::write(path, self.to_json_string()).map_err(ManifestError::Io)
    }

    /// Read and decode a manifest file.
    pub fn read_from(path: &str) -> Result<Self, ManifestError> {
        let text = std::fs::read_to_string(path).map_err(ManifestError::Io)?;
        Self::from_json_str(&text)
    }
}

/// Anything that can go wrong loading or storing a manifest.
#[derive(Debug)]
pub enum ManifestError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The JSON text did not parse.
    Parse(ParseError),
    /// Parsed, but not a valid manifest.
    Invalid(String),
}

impl From<ParseError> for ManifestError {
    fn from(e: ParseError) -> Self {
        ManifestError::Parse(e)
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "manifest I/O: {e}"),
            ManifestError::Parse(e) => write!(f, "manifest JSON: {e}"),
            ManifestError::Invalid(msg) => write!(f, "invalid manifest: {msg}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One metric compared across two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric name.
    pub name: String,
    /// Scalar value in the baseline manifest (`None` = absent).
    pub before: Option<f64>,
    /// Scalar value in the candidate manifest (`None` = absent).
    pub after: Option<f64>,
}

impl DiffRow {
    /// Relative change `(after - before) / before`; `None` when undefined.
    pub fn relative_change(&self) -> Option<f64> {
        match (self.before, self.after) {
            (Some(b), Some(a)) if b != 0.0 => Some((a - b) / b),
            _ => None,
        }
    }
}

/// Compare every metric (union of names) of two manifests, scalarized:
/// counters/gauges as-is, histograms by mean.
pub fn diff_metrics(before: &RunManifest, after: &RunManifest) -> Vec<DiffRow> {
    let mut names: Vec<&String> = before.metrics.keys().chain(after.metrics.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| DiffRow {
            name: name.clone(),
            before: before.metrics.get(name).map(MetricValue::scalar),
            after: after.metrics.get(name).map(MetricValue::scalar),
        })
        .collect()
}

/// Structure-only comparison for CI golden checks: schema-level shape must
/// match (same bin, same metric names and kinds, same table titles and
/// headers); values, timings, row contents, and span counts may differ.
/// Returns a list of human-readable mismatches (empty = structurally equal).
pub fn structural_mismatches(golden: &RunManifest, candidate: &RunManifest) -> Vec<String> {
    let mut problems = Vec::new();
    if golden.bin != candidate.bin {
        problems.push(format!(
            "bin mismatch: golden '{}' vs candidate '{}'",
            golden.bin, candidate.bin
        ));
    }
    let kind = |v: &MetricValue| match v {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    };
    for (name, v) in &golden.metrics {
        match candidate.metrics.get(name) {
            None => problems.push(format!("metric missing from candidate: {name}")),
            Some(c) if kind(c) != kind(v) => problems.push(format!(
                "metric kind changed: {name} ({} -> {})",
                kind(v),
                kind(c)
            )),
            Some(_) => {}
        }
    }
    for name in candidate.metrics.keys() {
        if !golden.metrics.contains_key(name) {
            problems.push(format!("metric not in golden: {name}"));
        }
    }
    if golden.tables.len() != candidate.tables.len() {
        problems.push(format!(
            "table count mismatch: golden {} vs candidate {}",
            golden.tables.len(),
            candidate.tables.len()
        ));
    }
    for (g, c) in golden.tables.iter().zip(&candidate.tables) {
        if g.headers != c.headers {
            problems.push(format!(
                "table '{}' headers changed: {:?} -> {:?}",
                g.title, g.headers, c.headers
            ));
        }
    }
    problems
}

fn detect_git_rev() -> String {
    if let Ok(rev) = std::env::var("GRAPHBIG_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    fn sample() -> RunManifest {
        let mut m = RunManifest {
            bin: "fig05_breakdown".into(),
            workload: Some("BFS".into()),
            dataset: Some("LDBC".into()),
            git_rev: "abc123def456".into(),
            threads: 16,
            features: vec!["chaos".into()],
            ..Default::default()
        };
        m.param("scale", 0.03);
        m.param("seed", "0x6b1f");
        m.notes.push("paper: average in-framework time 76%".into());
        m.counter("machine.instructions", 123_456);
        m.gauge("machine.ipc", 0.42);
        m.histogram(
            "bfs.frontier.occupancy",
            HistogramSnapshot {
                count: 4,
                sum: 130,
                buckets: vec![(2, 1), (64, 3)],
            },
        );
        m.spans.push(SpanSummary {
            name: "kernel.step".into(),
            count: 9,
            total_us: 1234,
        });
        m.tables.push(TableData {
            title: "Figure 5".into(),
            headers: vec!["workload".into(), "backend".into()],
            rows: vec![vec!["BFS".into(), "91.0%".into()]],
        });
        m
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let text = m.to_json_string();
        let back = RunManifest::from_json_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample()
            .to_json_string()
            .replace("run_manifest/v1", "run_manifest/v999");
        assert!(matches!(
            RunManifest::from_json_str(&text),
            Err(ManifestError::Invalid(_))
        ));
        assert!(RunManifest::from_json_str("not json").is_err());
    }

    #[test]
    fn diff_covers_union_of_metrics() {
        let mut a = sample();
        let mut b = sample();
        a.counter("only.in.a", 5);
        b.counter("machine.instructions", 150_000); // overwrite
        let rows = diff_metrics(&a, &b);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        let instr = by_name("machine.instructions");
        assert_eq!(instr.before, Some(123_456.0));
        assert_eq!(instr.after, Some(150_000.0));
        let change = instr.relative_change().unwrap();
        assert!((change - (150_000.0 - 123_456.0) / 123_456.0).abs() < 1e-12);
        let only_a = by_name("only.in.a");
        assert_eq!(only_a.after, None);
        assert_eq!(only_a.relative_change(), None);
    }

    #[test]
    fn structural_check_ignores_values_but_catches_shape_drift() {
        let golden = sample();
        let mut same_shape = sample();
        same_shape.counter("machine.instructions", 999);
        same_shape.tables[0].rows.clear(); // row contents are values
        same_shape.spans.clear(); // span counts are timing-dependent
        assert!(structural_mismatches(&golden, &same_shape).is_empty());

        let mut drifted = sample();
        drifted.metrics.remove("machine.ipc");
        drifted.counter("new.metric", 1);
        drifted.tables[0].headers.push("extra".into());
        let problems = structural_mismatches(&golden, &drifted);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn absorb_trace_merges_by_name() {
        use crate::chrome::{Event, Trace};
        let mut m = RunManifest::new("t");
        let t = Trace {
            events: vec![Event {
                name: "kernel.step".into(),
                ts_us: 0,
                dur_us: Some(10),
                tid: 0,
                args: vec![],
            }],
            threads: vec![],
        };
        m.absorb_trace(&t);
        m.absorb_trace(&t);
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].count, 2);
        assert_eq!(m.spans[0].total_us, 20);
    }

    #[test]
    fn git_rev_env_override() {
        std::env::set_var("GRAPHBIG_GIT_REV", "feedface");
        assert_eq!(RunManifest::new("x").git_rev, "feedface");
        std::env::remove_var("GRAPHBIG_GIT_REV");
    }
}
