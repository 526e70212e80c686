//! A sharded, admission-controlled graph query engine.
//!
//! GraphBIG frames graph *serving* — many concurrent queries of wildly
//! different cost hitting one graph — as a first-class industrial use case
//! alongside offline analytics. This crate reproduces that setting on the
//! GraphBIG-RS stack:
//!
//! - [`shard`]: degree-balanced partitioning of a CSR snapshot into
//!   contiguous [`CsrShard`]s with per-shard stats, plus the point queries
//!   (degree, k-hop) that run against a single shard window.
//! - [`store`]: the epoch-versioned [`GraphStore`] — queries pin an
//!   immutable `Arc<EpochSnapshot>` while a writer publishes new epochs.
//! - [`admission`]: bounded queue + in-flight cost budget with typed,
//!   synchronous [`RejectReason`]s. Budget charges run through the
//!   feedback cost model ([`SloTracker::correction`](slo::SloTracker)),
//!   which scales static estimates by observed per-key latency.
//! - [`cache`]: the `(epoch, delta-seq)`-keyed [`ResultCache`] — repeated
//!   hot requests are served bit-identically without re-running the
//!   kernel, and both a publish and a mutation make every stale entry
//!   unreachable by construction.
//! - [`delta`]: the live write path — a concurrent [`MutationBuffer`]
//!   folding batches into copy-on-write [`DeltaOverlay`]s that every query
//!   reads alongside the base CSR (point queries directly, every kernel
//!   through the live graph, an [`OverlayView`]), plus the incremental
//!   connected-components kernel and the fold background compaction
//!   publishes as a new epoch.
//! - [`engine`]: the [`Engine`] itself — priority lanes (point queries
//!   never queue behind analytics), executor threads over one shared
//!   kernel pool, cooperative deadlines/cancellation, per-class latency
//!   metrics in the telemetry registry. Behind it, one request path:
//!   `lifecycle` (admit, dequeue, finish — each stage written once),
//!   `exec` (executor loop, BFS group formation, the guarded run; a solo
//!   job is a group of one) and `compact` (folding the overlay).
//! - [`traffic`]: seeded multi-tenant request mixes, the closed-loop
//!   driver behind the `graphbig-serve` binary and `benches/engine.rs`,
//!   and the sequential oracle that cross-checks every concurrent result.
//! - [`invariants`]: the post-chaos sweep proving the engine state and
//!   metrics are exactly consistent after a fault-injected mix
//!   (`run_chaos_mix` + a `FaultPlan` from `graphbig-chaos`). A failed
//!   sweep auto-dumps the always-on flight recorder.
//! - [`slo`]: live sliding-window latency stats ([`SloTracker`]) behind
//!   the `engine.window.*` gauges and the `--stats-interval` snapshot
//!   line — the observed-latency feed for SLO-aware adaptive serving.
//!
//! Every request carries a process-unique id minted at admission and
//! threaded through admission → enqueue → dequeue → run → resolve; each
//! stage drops a compact event into the telemetry crate's always-on
//! flight recorder, so failures come with the full per-request story.

#![warn(missing_docs)]

// The reference fold in `tests/common/mod.rs` serves the unit tests too; it
// names this crate the way an integration test must.
#[cfg(test)]
extern crate self as graphbig_engine;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

pub mod admission;
pub mod cache;
mod compact;
pub mod delta;
pub mod engine;
mod exec;
pub mod invariants;
mod lifecycle;
pub mod shard;
pub mod slo;
pub mod store;
pub mod traffic;

pub use admission::{AdmissionController, RejectReason};
pub use cache::ResultCache;
pub use delta::{
    structural_digest, DeltaOverlay, FoldStats, IncrementalCComp, Mutation, MutationBuffer,
    MutationReceipt, OverlayView,
};
pub use engine::{Engine, EngineConfig, Query, QueryOutput, QueryResponse, QueryStatus, Ticket};
pub use invariants::{check_chaos_invariants, InvariantCheck, InvariantReport};
pub use shard::{CsrShard, ShardedGraph};
pub use slo::{ClassSlo, LaneStats, SloSpec, SloTracker, StatsSnapshot, STATS_SCHEMA};
pub use store::{EpochSnapshot, GraphStore};
pub use traffic::{MixSpec, TrafficReport};
