//! # graphbig-telemetry
//!
//! The workspace-wide observability layer: every run of the suite can be
//! self-describing, machine-readable, and regression-diffable.
//!
//! Two pieces, one schema, and one place an event is ever recorded:
//!
//! * [`recorder`] — the **always-on flight recorder** (no cargo feature):
//!   lock-free per-thread rings of compact events. Request-lifecycle
//!   stages, kernel superstep polls and harness phases all land here, in
//!   one ordered stream keyed by request id; it is dumped as JSON on
//!   failure, and [`recorder::to_trace`] reconstructs spans from it for
//!   [`chrome`], which writes Chrome `trace_event` JSON that loads in
//!   `chrome://tracing` / Perfetto with one track per thread.
//! * [`metrics`] — counters, gauges, and log₂-bucket histograms in a
//!   name-keyed [`Registry`](metrics::Registry), with the
//!   [`MetricSink`](metrics::MetricSink) trait as the common funnel: the
//!   runtime's wall-clock metrics and the machine model's simulated
//!   `PerfCounters` serialize into the same `subsystem.component.metric`
//!   namespace.
//!
//! [`manifest`] ties them together — the
//! [`RunManifest`](manifest::RunManifest): one JSON object per run carrying
//! workload, dataset, params, git revision, thread count, feature flags,
//! the metrics snapshot, span summaries, and result tables.
//! `graphbig-report` diffs two manifests and CI checks structure against a
//! committed golden file. [`window`] holds the sliding-window latency
//! estimators ([`WindowedHistogram`](window::WindowedHistogram) +
//! [`Ewma`](window::Ewma)) behind the engine's live `engine.window.*` SLO
//! stats.
//!
//! The crate pulls in nothing outside the workspace; [`json`] re-exports
//! the in-tree `graphbig-json` crate (which grew out of this crate's
//! hand-rolled writer) so emission works identically in every build
//! environment.

#![warn(missing_docs)]

pub use graphbig_json as json;

pub mod chrome;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod window;

pub use manifest::{diff_metrics, structural_mismatches, RunManifest, SpanSummary, TableData};
pub use metrics::{Counter, Histogram, MetricSink, MetricValue, Registry};
pub use window::{Ewma, WindowedHistogram};
