//! Seeded multi-tenant traffic mixes and the closed-loop driver.
//!
//! A [`MixSpec`] describes a reproducible request stream: a seed, a request
//! count, a client count, and per-class weights. [`generate_requests`]
//! expands it into a concrete query list (one deterministic PRNG stream,
//! independent of how many clients later replay it), and [`run_mix`]
//! replays that list closed-loop — each client thread submits its share in
//! order and waits for every response before sending the next — collecting
//! exact per-class p50/p99/p999 latencies into a [`TrafficReport`].
//!
//! Correctness is never sampled away: [`sequential_digests`] runs the same
//! query list one at a time (no concurrency, no deadlines) and
//! [`verify_against_oracle`] demands every concurrently *completed* result
//! be bit-identical to its sequential twin.
//!
//! Mixes may also carry *writes* (`write_weight > 0`): the generator draws
//! symbolic [`WriteOp`]s that [`resolve_write`] turns into concrete edge
//! mutations against the drive-start base snapshot. Resolved targets are
//! disjoint-or-idempotent, so the final edge set is independent of client
//! interleaving and of when the compactor folds — which is exactly what
//! [`mutation_oracle_digest`] checks: a sequential single-threaded replay
//! of the same writes must digest-identical to the engine's live state
//! ([`live_engine_digest`]), mid-overlay or post-compaction alike.

use std::time::{Duration, Instant};

use graphbig_chaos::{self as chaos, FaultAction, FaultPlan};
use graphbig_datagen::rng::Rng;
use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_telemetry::{MetricSink, RunManifest};
use graphbig_workloads::service::{self, ServiceError};
use graphbig_workloads::{CostClass, Workload};

use crate::engine::{Engine, Query, QueryOutput, QueryResponse, QueryStatus};
use crate::lifecycle::{lane, WRITE_LANE};
use crate::shard::ShardedGraph;
use crate::slo::SloSpec;

/// A reproducible multi-tenant request mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSpec {
    /// PRNG seed; the request list is a pure function of `(seed, requests,
    /// weights, n)`.
    pub seed: u64,
    /// Total requests across all clients.
    pub requests: usize,
    /// Closed-loop client threads replaying the stream.
    pub clients: usize,
    /// Relative weight of point queries (degree, k-hop).
    pub point_weight: u32,
    /// Relative weight of traversal queries (BFS).
    pub traversal_weight: u32,
    /// Relative weight of analytics queries (ccomp, kcore, spath).
    pub analytics_weight: u32,
    /// Relative weight of write ops (edge insert/delete). Defaults to 0 —
    /// a pure-read mix whose request stream is byte-identical to what the
    /// pre-write generator produced, so every old mix file is unchanged.
    pub write_weight: u32,
    /// Of the write ops, the percentage that delete a base edge instead of
    /// inserting a new one (default 25).
    pub write_delete_percent: u32,
    /// Per-request deadline in milliseconds (`null` = none).
    pub deadline_ms: Option<u64>,
    /// Draw every source/vertex from a pool of this many hot vertices
    /// instead of uniformly over the graph (`null` = uniform). Small pools
    /// model the repeated-hot-request traffic internet services see — and
    /// are what makes the result cache earn its keep.
    pub hot_sources: Option<u32>,
    /// Hop bound for generated k-hop point queries (default 2).
    pub khop_hops: u32,
    /// Per-class latency targets checked end-of-run (`null` = unchecked).
    pub slo: Option<SloSpec>,
}

// Hand-written codec instead of `json_struct!`: the newest members
// (`write_weight`, `write_delete_percent`, `hot_sources`, `khop_hops`,
// `slo`) must default when absent so every pre-existing mix file keeps
// parsing — and keeps generating the exact same request stream.
impl graphbig_json::ToJson for MixSpec {
    fn to_json(&self) -> graphbig_json::Json {
        graphbig_json::Json::Obj(vec![
            ("seed".to_string(), self.seed.to_json()),
            ("requests".to_string(), self.requests.to_json()),
            ("clients".to_string(), self.clients.to_json()),
            ("point_weight".to_string(), self.point_weight.to_json()),
            (
                "traversal_weight".to_string(),
                self.traversal_weight.to_json(),
            ),
            (
                "analytics_weight".to_string(),
                self.analytics_weight.to_json(),
            ),
            ("write_weight".to_string(), self.write_weight.to_json()),
            (
                "write_delete_percent".to_string(),
                self.write_delete_percent.to_json(),
            ),
            ("deadline_ms".to_string(), self.deadline_ms.to_json()),
            ("hot_sources".to_string(), self.hot_sources.to_json()),
            ("khop_hops".to_string(), self.khop_hops.to_json()),
            ("slo".to_string(), self.slo.to_json()),
        ])
    }
}

impl graphbig_json::FromJson for MixSpec {
    fn from_json(v: &graphbig_json::Json) -> Result<Self, graphbig_json::DecodeError> {
        use graphbig_json::codec::{field, field_or_default};
        Ok(MixSpec {
            seed: field(v, "seed")?,
            requests: field(v, "requests")?,
            clients: field(v, "clients")?,
            point_weight: field(v, "point_weight")?,
            traversal_weight: field(v, "traversal_weight")?,
            analytics_weight: field(v, "analytics_weight")?,
            write_weight: field_or_default(v, "write_weight")?,
            write_delete_percent: field_or_default::<Option<u32>>(v, "write_delete_percent")?
                .unwrap_or(25),
            deadline_ms: field_or_default(v, "deadline_ms")?,
            hot_sources: field_or_default(v, "hot_sources")?,
            khop_hops: field_or_default::<Option<u32>>(v, "khop_hops")?.unwrap_or(2),
            slo: field_or_default(v, "slo")?,
        })
    }
}

impl Default for MixSpec {
    fn default() -> Self {
        MixSpec {
            seed: 42,
            requests: 200,
            clients: 2,
            point_weight: 60,
            traversal_weight: 25,
            analytics_weight: 15,
            write_weight: 0,
            write_delete_percent: 25,
            deadline_ms: None,
            hot_sources: None,
            khop_hops: 2,
            slo: None,
        }
    }
}

/// A seeded write drawn by the generator. Targets are *symbolic* — a
/// source vertex plus a salt — and only become a concrete mutation batch
/// when [`resolve_write`] pins them against the drive-start base
/// snapshot. That makes the resolved batch a pure function of `(op,
/// base)`: it does not depend on client interleaving, on how many writes
/// landed first, or on where the compactor folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert an out-edge of `u`; the destination is probed from `salt`
    /// over non-base, non-self pairs.
    Insert {
        /// Source vertex (folded modulo `n` at resolve time).
        u: u32,
        /// Seeded draw that picks the probe start for the destination.
        salt: u64,
    },
    /// Delete the `salt % out_degree(u)`-th base out-edge of `u` (no-op
    /// batch when `u` has no base out-edges).
    Delete {
        /// Source vertex (folded modulo `n` at resolve time).
        u: u32,
        /// Seeded draw that picks which base out-edge dies.
        salt: u64,
    },
}

/// One generated request: a read query or a write op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixOp {
    /// A point/traversal/analytics query, checked per-request against the
    /// sequential oracle in read-only mixes.
    Read(Query),
    /// An edge mutation, checked end-of-run against
    /// [`mutation_oracle_digest`].
    Write(WriteOp),
}

/// Expand a mix into its concrete op list for a graph with `n` vertices.
/// One PRNG stream, consumed in request order — the list does not depend
/// on `spec.clients`, so the same mix replayed at different concurrency
/// levels issues identical ops. A `hot_sources` pool folds every source
/// into `[0, pool)` *after* the uniform draw, so the draw sequence (and
/// therefore every other request in the stream) is unchanged by the pool
/// size. Write ops draw *extra* PRNG values (a salt and the delete/insert
/// split), but only on rolls that land in the write band — a
/// `write_weight` of 0 consumes exactly the historical draw sequence.
pub fn generate_ops(spec: &MixSpec, n: u32) -> Vec<MixOp> {
    let mut rng = Rng::seed_from_u64(spec.seed);
    let read_total = spec.point_weight + spec.traversal_weight + spec.analytics_weight;
    let total = (read_total + spec.write_weight).max(1) as u64;
    let n = n.max(1);
    let pool = spec.hot_sources.map(|h| h.clamp(1, n));
    let hops = spec.khop_hops.max(1);
    (0..spec.requests)
        .map(|_| {
            let roll = rng.u64_below(total) as u32;
            let mut source = rng.u64_below(n as u64) as u32;
            if let Some(pool) = pool {
                source %= pool;
            }
            if roll < spec.point_weight {
                MixOp::Read(if rng.gen_bool(0.5) {
                    Query::Degree { vertex: source }
                } else {
                    Query::KHop { source, hops }
                })
            } else if roll < spec.point_weight + spec.traversal_weight {
                MixOp::Read(Query::Run {
                    workload: Workload::Bfs,
                    source,
                })
            } else if roll < read_total {
                let workload = match rng.u64_below(3) {
                    0 => Workload::CComp,
                    1 => Workload::KCore,
                    _ => Workload::SPath,
                };
                MixOp::Read(Query::Run { workload, source })
            } else {
                let salt = rng.next_u64();
                MixOp::Write(
                    if rng.u64_below(100) < spec.write_delete_percent.min(100) as u64 {
                        WriteOp::Delete { u: source, salt }
                    } else {
                        WriteOp::Insert { u: source, salt }
                    },
                )
            }
        })
        .collect()
}

/// The read-only view of [`generate_ops`]: write ops are dropped. For a
/// mix with `write_weight == 0` this is the full stream and is
/// byte-identical to what the pre-write generator produced.
pub fn generate_requests(spec: &MixSpec, n: u32) -> Vec<Query> {
    generate_ops(spec, n)
        .into_iter()
        .filter_map(|op| match op {
            MixOp::Read(q) => Some(q),
            MixOp::Write(_) => None,
        })
        .collect()
}

/// Pin a symbolic write against `base` into a concrete mutation batch.
///
/// Deletes target only base edges; inserts probe (linearly from
/// `salt % n`) for the first non-self pair *not* in the base, with a
/// weight that is a pure hash of the pair. Base pairs and probed pairs
/// are therefore disjoint, and two ops resolving to the same pair carry
/// identical mutations — so every resolved stream is commutative and
/// idempotent over the overlay's set semantics: any interleaving, with
/// compaction folding at any point, reaches the same final edge set.
pub fn resolve_write(base: &ShardedGraph, op: WriteOp) -> Vec<crate::delta::Mutation> {
    use crate::delta::Mutation;
    let n = base.num_vertices() as u32;
    if n == 0 {
        return Vec::new();
    }
    match op {
        WriteOp::Delete { u, salt } => {
            let u = u % n;
            let row = base.service().out().neighbors(u);
            if row.is_empty() {
                return Vec::new();
            }
            let v = row[(salt % row.len() as u64) as usize];
            vec![Mutation::RemoveEdge { u, v }]
        }
        WriteOp::Insert { u, salt } => {
            let u = u % n;
            let row = base.service().out().neighbors(u);
            let mut v = (salt % n as u64) as u32;
            for _ in 0..n {
                if v != u && !row.contains(&v) {
                    return vec![Mutation::AddEdge {
                        u,
                        v,
                        w: synthetic_weight(u, v),
                    }];
                }
                v = (v + 1) % n;
            }
            Vec::new()
        }
    }
}

/// Deterministic weight for a generated insert: a pure hash of the edge
/// pair, so re-resolving (or re-applying) the same pair always writes the
/// same weight.
fn synthetic_weight(u: u32, v: u32) -> f32 {
    let h = (((u as u64) << 32) | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    1.0 + (h >> 40) as f32 / 65_536.0
}

/// The write-path oracle: replay every write in `ops` sequentially,
/// single-threaded, through a fresh [`MutationBuffer`] over `base`, and
/// digest the result. Because resolved writes commute, this must equal
/// [`live_engine_digest`] after any concurrent replay of the same mix —
/// whether the engine is still mid-overlay or the compactor already
/// folded.
pub fn mutation_oracle_digest(base: &ShardedGraph, ops: &[MixOp]) -> u64 {
    let replay = crate::delta::MutationBuffer::new(1, base.num_vertices() as u32);
    for op in ops {
        if let MixOp::Write(w) = op {
            replay.apply(base, &resolve_write(base, *w));
        }
    }
    replay.current().live_digest(base)
}

/// Structural digest of the engine's *current* graph state, the published
/// base read through its overlay. Comparable with
/// [`mutation_oracle_digest`] and with [`crate::delta::structural_digest`]
/// of any rebuilt-from-scratch graph.
pub fn live_engine_digest(engine: &Engine) -> u64 {
    let snap = engine.store().snapshot();
    snap.overlay().live_digest(snap.graph())
}

/// Per-latency-class results of one mix replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The class these stats cover.
    pub class: CostClass,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries cancelled by their deadline.
    pub deadline_missed: u64,
    /// Queries cancelled explicitly or shed at shutdown.
    pub cancelled: u64,
    /// Queries whose kernel panicked (caught at the executor boundary).
    pub failed: u64,
    /// Median end-to-end latency (queue + exec) in microseconds.
    pub p50_us: u64,
    /// 99th percentile latency in microseconds.
    pub p99_us: u64,
    /// 99.9th percentile latency in microseconds.
    pub p999_us: u64,
    /// Worst observed latency in microseconds.
    pub max_us: u64,
}

/// Outcome of replaying one [`MixSpec`] against an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Requests in the mix (admitted + rejected).
    pub total_requests: usize,
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Rejections due to a full submission queue.
    pub rejected_queue_full: u64,
    /// Rejections due to the in-flight cost budget.
    pub rejected_cost_budget: u64,
    /// Admitted queries whose workload has no serving entry point.
    pub unsupported: u64,
    /// Resubmissions after a rejection (0 unless a [`FaultPlan`] enables
    /// retry). Rejection counts above are *final* outcomes only; the
    /// engine-side `engine.rejected.*` counters see finals + retries.
    pub retries: u64,
    /// Wall-clock time of the whole replay in microseconds.
    pub wall_us: u64,
    /// Completed queries per second of wall time.
    pub throughput_rps: f64,
    /// Stats for every class, in `CostClass::ALL` order.
    pub classes: Vec<ClassStats>,
    /// `(request index, digest)` for every completed *read*, ascending by
    /// index — the concurrent side of the per-request oracle comparison.
    /// Writes carry no digest; their check is [`mutation_oracle_digest`].
    pub completed_digests: Vec<(usize, u64)>,
    /// Fired-fault counts (`<site>.<action>`, count) captured before the
    /// plan was disarmed. Empty for plain [`run_mix`] replays.
    pub fault_fired: Vec<(String, u64)>,
}

impl TrafficReport {
    /// Stats for one class (always present).
    pub fn class(&self, c: CostClass) -> &ClassStats {
        self.classes
            .iter()
            .find(|s| s.class == c)
            .expect("report covers every class")
    }
}

/// One latency target a finished mix failed to meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloViolation {
    /// The latency class the target applied to.
    pub class: CostClass,
    /// Which quantile missed (`"p99"` or `"p999"`).
    pub quantile: &'static str,
    /// The observed latency in microseconds.
    pub observed_us: u64,
    /// The target it had to stay under.
    pub target_us: u64,
}

/// The end-of-run verdict of a [`SloSpec`] against a [`TrafficReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SloReport {
    /// Number of `(class, quantile)` targets checked.
    pub checked: u64,
    /// Every target that was missed.
    pub violations: Vec<SloViolation>,
}

impl SloReport {
    /// True when every checked target was met.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Publish the `slo.*` section: a `checked`/`violations` counter pair
    /// (the latter is what `graphbig-report --check` gates on), one
    /// target gauge per checked quantile, and a note per violation.
    pub fn write_to_manifest(&self, spec: &SloSpec, manifest: &mut RunManifest) {
        manifest.counter("slo.checked", self.checked);
        manifest.counter("slo.violations", self.violations.len() as u64);
        for (lane, class) in CostClass::ALL.iter().enumerate() {
            if let Some(target) = spec.for_lane(lane) {
                let key = class.name();
                manifest.gauge(&format!("slo.target.p99_us.{key}"), target.p99_us as f64);
                manifest.gauge(&format!("slo.target.p999_us.{key}"), target.p999_us as f64);
            }
        }
        for v in &self.violations {
            manifest.notes.push(format!(
                "slo violated: {} {} observed {}us > target {}us",
                v.class.name(),
                v.quantile,
                v.observed_us,
                v.target_us
            ));
        }
    }

    /// One line per violation, for terminal output.
    pub fn render(&self) -> String {
        if self.ok() {
            return format!("  ok  all {} SLO targets met", self.checked);
        }
        self.violations
            .iter()
            .map(|v| {
                format!(
                    "  MISS {} {} — observed {}us > target {}us",
                    v.class.name(),
                    v.quantile,
                    v.observed_us,
                    v.target_us
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Check every target in `spec` against the exact end-to-end latencies in
/// `report`. A class with no completed queries trivially meets its
/// targets (its percentiles are 0); a zero target is "no target" and is
/// not counted as checked.
pub fn evaluate_slo(report: &TrafficReport, spec: &SloSpec) -> SloReport {
    let mut out = SloReport::default();
    for (lane, class) in CostClass::ALL.iter().enumerate() {
        let Some(target) = spec.for_lane(lane) else {
            continue;
        };
        let stats = report.class(*class);
        for (quantile, observed, target_us) in [
            ("p99", stats.p99_us, target.p99_us),
            ("p999", stats.p999_us, target.p999_us),
        ] {
            if target_us == 0 {
                continue;
            }
            out.checked += 1;
            if observed > target_us {
                out.violations.push(SloViolation {
                    class: *class,
                    quantile,
                    observed_us: observed,
                    target_us,
                });
            }
        }
    }
    out
}

/// Exact percentile from a sorted latency sample, linearly interpolated
/// between the two order statistics straddling rank `q·(n-1)` and rounded
/// to the nearest microsecond.
///
/// This is the raw-sample analogue of
/// [`HistogramSnapshot::quantile`](graphbig_telemetry::HistogramSnapshot::quantile)'s
/// within-bucket interpolation: both estimators move smoothly with `q`
/// instead of jumping between elements, so the exact report and the
/// sliding-window gauges agree in definition. The old nearest-rank rule
/// could make p999 snap to the same element as p99 on small samples (and
/// its `ceil` ranking was one rounding error away from indexing past the
/// end); interpolation keeps quantiles monotone in `q`, always in range,
/// and distinct whenever the straddled order statistics differ.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let h = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = (h.floor() as usize).min(sorted.len() - 1);
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = h - lo as f64;
    (sorted[lo] as f64 + frac * (sorted[hi] as f64 - sorted[lo] as f64)).round() as u64
}

enum Outcome {
    Rejected(crate::admission::RejectReason),
    Response(QueryResponse, Option<u64>),
    /// A write batch applied synchronously, with its end-to-end latency.
    Applied(u64),
}

/// Replay `spec` against `engine` closed-loop and collect the report.
///
/// Client `c` of `spec.clients` submits requests `i` with
/// `i % clients == c`, in order, waiting for each response before the
/// next submission — the standard closed-loop model, so offered load
/// scales with the client count and rejected requests are *not* retried.
pub fn run_mix(engine: &Engine, spec: &MixSpec) -> TrafficReport {
    drive_mix(engine, spec, &FaultPlan::none())
}

/// Disarms the process-wide fault plan even if the drive panics.
struct DisarmGuard;

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        chaos::disarm();
    }
}

/// Replay `spec` under an armed [`FaultPlan`]: every failpoint decision is
/// keyed by `attempt << 32 | request_idx`, and a rejected submission is
/// retried up to `plan.max_retries` times with capped exponential backoff
/// plus seeded jitter. The plan is disarmed before returning — chaos runs
/// are process-serial — so the sequential oracle always runs injection-free.
pub fn run_chaos_mix(engine: &Engine, spec: &MixSpec, plan: &FaultPlan) -> TrafficReport {
    let _guard = if plan.is_empty() {
        None
    } else {
        chaos::arm(plan);
        Some(DisarmGuard)
    };
    let mut report = drive_mix(engine, spec, plan);
    report.fault_fired = chaos::fired_counts();
    report
}

fn drive_mix(engine: &Engine, spec: &MixSpec, plan: &FaultPlan) -> TrafficReport {
    // The base snapshot every write in this drive resolves against. Held
    // for the whole replay so compaction mid-mix cannot change what a
    // later op means.
    let base = engine.store().snapshot();
    let ops = generate_ops(spec, base.graph().num_vertices() as u32);
    // A client past the request count would get no request: start at most
    // one thread per request. Request `i` keeps its client and RNG seed.
    let clients = spec.clients.clamp(1, spec.requests.max(1));
    let deadline = spec.deadline_ms.map(Duration::from_millis);
    let start = Instant::now();
    let per_client: Vec<(Vec<(usize, Outcome)>, u64)> = std::thread::scope(|scope| {
        let ops = &ops;
        let base = &base;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::seed_from_u64(
                        plan.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut retries = 0u64;
                    let mut out = Vec::new();
                    for (i, op) in ops.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        let batch = match op {
                            MixOp::Write(w) => resolve_write(base.graph(), *w),
                            MixOp::Read(_) => Vec::new(),
                        };
                        let mut attempt = 0u64;
                        let outcome = loop {
                            let tag = (attempt << 32) | i as u64;
                            // Failpoint `traffic.republish`: bump the epoch
                            // from the driver mid-mix before submitting.
                            if let Some(fault) = chaos::failpoint!("traffic.republish", tag) {
                                if fault.action == FaultAction::Republish {
                                    engine.republish();
                                }
                            }
                            let submitted = match op {
                                MixOp::Read(q) => {
                                    engine.submit_tagged(*q, deadline, tag).map(|ticket| {
                                        let response = ticket.wait();
                                        let digest = match &response.status {
                                            QueryStatus::Completed(o) => Some(o.digest()),
                                            _ => None,
                                        };
                                        Outcome::Response(response, digest)
                                    })
                                }
                                MixOp::Write(_) => {
                                    let t0 = Instant::now();
                                    engine.mutate_tagged(&batch, tag).map(|_receipt| {
                                        Outcome::Applied(t0.elapsed().as_micros().max(1) as u64)
                                    })
                                }
                            };
                            match submitted {
                                Ok(outcome) => break outcome,
                                Err(reason) => {
                                    if attempt >= plan.max_retries {
                                        break Outcome::Rejected(reason);
                                    }
                                    retries += 1;
                                    // Flight-record the resubmission, keyed
                                    // by the failed attempt's chaos tag.
                                    graphbig_telemetry::recorder::record(
                                        graphbig_telemetry::recorder::EventKind::Retry,
                                        tag,
                                        attempt,
                                    );
                                    let exp = plan
                                        .backoff_base_us
                                        .saturating_mul(1u64 << attempt.min(20))
                                        .min(plan.backoff_cap_us.max(plan.backoff_base_us));
                                    let jitter = rng.u64_below(exp / 2 + 1);
                                    std::thread::sleep(Duration::from_micros(exp + jitter));
                                    attempt += 1;
                                }
                            }
                        };
                        out.push((i, outcome));
                    }
                    (out, retries)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_us = start.elapsed().as_micros().max(1) as u64;
    let mut retries = 0u64;
    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(ops.len());
    for (client_outcomes, client_retries) in per_client {
        retries += client_retries;
        outcomes.extend(client_outcomes);
    }
    outcomes.sort_by_key(|(i, _)| *i);

    let mut admitted = 0u64;
    let mut rejected_queue_full = 0u64;
    let mut rejected_cost_budget = 0u64;
    let mut unsupported = 0u64;
    let mut completed_digests = Vec::new();
    let mut latencies: [Vec<u64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut completed = [0u64; 4];
    let mut missed = [0u64; 4];
    let mut cancelled = [0u64; 4];
    let mut failed = [0u64; 4];
    for (i, outcome) in &outcomes {
        match outcome {
            Outcome::Rejected(crate::admission::RejectReason::QueueFull { .. }) => {
                rejected_queue_full += 1;
            }
            Outcome::Rejected(crate::admission::RejectReason::CostBudget { .. }) => {
                rejected_cost_budget += 1;
            }
            Outcome::Applied(us) => {
                admitted += 1;
                completed[WRITE_LANE] += 1;
                latencies[WRITE_LANE].push(*us);
            }
            Outcome::Response(r, digest) => {
                admitted += 1;
                let lane = lane(r.class);
                match &r.status {
                    QueryStatus::Completed(_) => {
                        completed[lane] += 1;
                        latencies[lane].push(r.queue_us + r.exec_us);
                        completed_digests.push((*i, digest.expect("completed has digest")));
                    }
                    QueryStatus::DeadlineExceeded => missed[lane] += 1,
                    QueryStatus::Cancelled => cancelled[lane] += 1,
                    QueryStatus::Unsupported(_) => unsupported += 1,
                    QueryStatus::Failed(_) => failed[lane] += 1,
                }
            }
        }
    }
    let classes = CostClass::ALL
        .iter()
        .enumerate()
        .map(|(lane, &class)| {
            latencies[lane].sort_unstable();
            let s = &latencies[lane];
            ClassStats {
                class,
                completed: completed[lane],
                deadline_missed: missed[lane],
                cancelled: cancelled[lane],
                failed: failed[lane],
                p50_us: percentile(s, 0.50),
                p99_us: percentile(s, 0.99),
                p999_us: percentile(s, 0.999),
                max_us: s.last().copied().unwrap_or(0),
            }
        })
        .collect();
    let total_completed: u64 = completed.iter().sum();
    TrafficReport {
        total_requests: ops.len(),
        admitted,
        rejected_queue_full,
        rejected_cost_budget,
        unsupported,
        retries,
        wall_us,
        throughput_rps: total_completed as f64 * 1_000_000.0 / wall_us as f64,
        classes,
        completed_digests,
        fault_fired: Vec::new(),
    }
}

/// Run every query sequentially (one at a time, no deadline) against
/// `graph` and return its digest — `None` where the workload is not
/// servable. This is the oracle the concurrent replay is checked against.
pub fn sequential_digests(
    graph: &ShardedGraph,
    pool: &ThreadPool,
    queries: &[Query],
) -> Vec<Option<u64>> {
    let never = CancelToken::never();
    queries
        .iter()
        .map(|q| match *q {
            Query::Degree { vertex } => {
                let (out, inc) = graph.degree(vertex).unwrap_or((0, 0));
                Some(QueryOutput::Degree { out, inc }.digest())
            }
            Query::KHop { source, hops } => {
                Some(QueryOutput::KHop(graph.k_hop(source, hops)).digest())
            }
            Query::Run { workload, source } => {
                match service::run_service(workload, pool, graph.service(), source, &never) {
                    Ok(o) => Some(QueryOutput::Workload(o).digest()),
                    Err(ServiceError::Unsupported(_)) => None,
                    Err(ServiceError::Cancelled) => {
                        unreachable!("never token cannot cancel")
                    }
                }
            }
        })
        .collect()
}

/// Check every completed concurrent result against the sequential oracle.
/// Returns the number of results verified, or a description of the first
/// mismatch.
pub fn verify_against_oracle(
    report: &TrafficReport,
    oracle: &[Option<u64>],
) -> Result<u64, String> {
    let mut checked = 0u64;
    for &(idx, digest) in &report.completed_digests {
        match oracle.get(idx) {
            Some(Some(expected)) if *expected == digest => checked += 1,
            Some(Some(expected)) => {
                return Err(format!(
                    "request {idx}: concurrent digest {digest:#018x} != sequential {expected:#018x}"
                ));
            }
            Some(None) => {
                return Err(format!(
                    "request {idx}: completed concurrently but oracle deems it unsupported"
                ));
            }
            None => return Err(format!("request {idx}: outside oracle range")),
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use graphbig_datagen::Dataset;
    use graphbig_framework::csr::Csr;
    use graphbig_telemetry::metrics::Registry;

    fn csr(n: usize) -> Csr {
        Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n))
    }

    #[test]
    fn mix_spec_round_trips_through_json() {
        let spec = MixSpec {
            seed: 7,
            requests: 50,
            clients: 3,
            point_weight: 10,
            traversal_weight: 5,
            analytics_weight: 1,
            write_weight: 4,
            write_delete_percent: 40,
            deadline_ms: Some(250),
            hot_sources: Some(16),
            khop_hops: 3,
            slo: Some(crate::slo::SloSpec {
                point: Some(crate::slo::ClassSlo {
                    p99_us: 700,
                    p999_us: 3_000,
                }),
                traversal: None,
                analytics: None,
                write: Some(crate::slo::ClassSlo {
                    p99_us: 900,
                    p999_us: 0,
                }),
            }),
        };
        let text = graphbig_json::to_pretty(&spec);
        let back: MixSpec = graphbig_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
        // `null` deadline parses as None.
        let none: MixSpec = graphbig_json::from_str(
            r#"{"seed":1,"requests":2,"clients":1,"point_weight":1,
                "traversal_weight":1,"analytics_weight":1,"deadline_ms":null}"#,
        )
        .unwrap();
        assert_eq!(none.deadline_ms, None);
    }

    #[test]
    fn old_mix_files_parse_with_defaulted_new_fields() {
        // Exactly the seven fields every pre-existing mix file carries —
        // must still parse, with the new knobs at their defaults.
        let old: MixSpec = graphbig_json::from_str(
            r#"{"seed":9,"requests":30,"clients":2,"point_weight":60,
                "traversal_weight":25,"analytics_weight":15,"deadline_ms":100}"#,
        )
        .unwrap();
        assert_eq!(old.hot_sources, None);
        assert_eq!(old.khop_hops, 2);
        assert_eq!(old.slo, None);
        assert_eq!(old.write_weight, 0, "old files stay pure-read");
        assert_eq!(old.write_delete_percent, 25);
        // And the defaulted spec generates the exact same stream as the
        // pre-extension generator did (hops hardcoded to 2, uniform
        // sources, no write band): pin it against a spec that spells the
        // defaults out.
        let explicit = MixSpec {
            hot_sources: None,
            khop_hops: 2,
            write_weight: 0,
            write_delete_percent: 25,
            slo: Some(crate::slo::SloSpec::default()),
            ..old.clone()
        };
        assert_eq!(
            generate_requests(&old, 500),
            generate_requests(&explicit, 500)
        );
        // With write_weight 0 the op stream is all reads — the read view
        // *is* the stream, position for position.
        let ops = generate_ops(&old, 500);
        assert_eq!(ops.len(), old.requests);
        assert!(ops.iter().all(|op| matches!(op, MixOp::Read(_))));
    }

    #[test]
    fn hot_sources_folds_without_changing_the_draw_sequence() {
        let uniform = MixSpec {
            requests: 200,
            ..MixSpec::default()
        };
        let hot = MixSpec {
            hot_sources: Some(8),
            ..uniform.clone()
        };
        let a = generate_requests(&uniform, 1000);
        let b = generate_requests(&hot, 1000);
        assert_eq!(a.len(), b.len());
        for (qa, qb) in a.iter().zip(&b) {
            // Same class and workload at every position — only the source
            // vertex is folded into the hot pool.
            assert_eq!(qa.class(), qb.class());
            let source = |q: &Query| match q {
                Query::Degree { vertex } => *vertex,
                Query::KHop { source, .. } => *source,
                Query::Run { source, .. } => *source,
            };
            assert!(source(qb) < 8, "folded into the pool");
            assert_eq!(source(qa) % 8, source(qb));
        }
        // khop_hops is threaded into generated k-hop queries.
        let deep = generate_requests(
            &MixSpec {
                khop_hops: 4,
                ..uniform.clone()
            },
            1000,
        );
        assert!(deep
            .iter()
            .all(|q| !matches!(q, Query::KHop { hops, .. } if *hops != 4)));
    }

    #[test]
    fn slo_evaluation_checks_targets_and_reports_misses() {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                pool_threads: 2,
                ..EngineConfig::default()
            },
            csr(300),
            &reg,
        );
        let spec = MixSpec {
            requests: 40,
            ..MixSpec::default()
        };
        let report = run_mix(&engine, &spec);

        // Generous targets: everything passes.
        let loose = crate::slo::SloSpec {
            point: Some(crate::slo::ClassSlo {
                p99_us: u64::MAX,
                p999_us: u64::MAX,
            }),
            traversal: None,
            analytics: None,
            write: None,
        };
        let verdict = evaluate_slo(&report, &loose);
        assert_eq!(verdict.checked, 2);
        assert!(verdict.ok(), "{}", verdict.render());

        // 1us targets: any class that completed work must miss.
        let tight = crate::slo::SloSpec {
            point: Some(crate::slo::ClassSlo {
                p99_us: 1,
                p999_us: 1,
            }),
            traversal: None,
            analytics: None,
            write: None,
        };
        let verdict = evaluate_slo(&report, &tight);
        assert_eq!(verdict.checked, 2);
        assert!(!verdict.ok());
        assert_eq!(verdict.violations.len(), 2);
        assert_eq!(verdict.violations[0].quantile, "p99");
        assert!(verdict.render().contains("MISS point p999"));

        // Manifest section: counters, target gauges, one note per miss.
        let mut manifest = RunManifest::new("test");
        verdict.write_to_manifest(&tight, &mut manifest);
        assert_eq!(
            manifest.metrics["slo.checked"],
            graphbig_telemetry::metrics::MetricValue::Counter(2)
        );
        assert_eq!(
            manifest.metrics["slo.violations"],
            graphbig_telemetry::metrics::MetricValue::Counter(2)
        );
        assert_eq!(
            manifest.metrics["slo.target.p99_us.point"],
            graphbig_telemetry::metrics::MetricValue::Gauge(1.0)
        );
        assert!(!manifest.metrics.contains_key("slo.target.p99_us.traversal"));
        assert_eq!(manifest.notes.len(), 2);
        assert!(manifest.notes[0].contains("slo violated: point p99"));

        // A zero target is "no target": nothing checked, nothing missed.
        let empty = evaluate_slo(&report, &crate::slo::SloSpec::default());
        assert_eq!(empty.checked, 0);
        assert!(empty.ok());
    }

    #[test]
    fn request_generation_is_seeded_and_weighted() {
        let spec = MixSpec {
            requests: 400,
            ..MixSpec::default()
        };
        let a = generate_requests(&spec, 1000);
        let b = generate_requests(&spec, 1000);
        assert_eq!(a, b, "same seed, same stream");
        let other = generate_requests(
            &MixSpec {
                seed: 43,
                ..spec.clone()
            },
            1000,
        );
        assert_ne!(a, other, "different seed, different stream");
        let classes: Vec<usize> = CostClass::ALL
            .iter()
            .map(|c| a.iter().filter(|q| q.class() == *c).count())
            .collect();
        // 60/25/15/0 weights over 400 requests: every read class is
        // represented, no writes are drawn, and point queries dominate.
        assert!(classes[..3].iter().all(|&c| c > 0), "{classes:?}");
        assert_eq!(classes[3], 0, "write_weight 0 draws no writes");
        assert!(
            classes[0] > classes[1] && classes[0] > classes[2],
            "{classes:?}"
        );
    }

    #[test]
    fn closed_loop_mix_matches_sequential_oracle() {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                pool_threads: 2,
                ..EngineConfig::default()
            },
            csr(400),
            &reg,
        );
        let spec = MixSpec {
            requests: 60,
            clients: 3,
            ..MixSpec::default()
        };
        let report = run_mix(&engine, &spec);
        assert_eq!(report.total_requests, 60);
        assert_eq!(
            report.admitted, 60,
            "closed-loop at 3 clients cannot overflow a 64-deep queue"
        );
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        let checked = verify_against_oracle(&report, &oracle).expect("no mismatches");
        assert_eq!(checked, report.completed_digests.len() as u64);
        assert_eq!(checked, 60, "no deadline set: everything completes");
    }

    #[test]
    fn more_clients_than_requests_start_one_thread_per_request() {
        let engine = Engine::with_registry(EngineConfig::default(), csr(256), &Registry::new());
        let spec = MixSpec {
            requests: 8,
            clients: 1_000_000,
            ..MixSpec::default()
        };
        let report = run_mix(&engine, &spec);
        assert_eq!(report.admitted, 8);
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        assert_eq!(verify_against_oracle(&report, &oracle), Ok(8));
    }

    #[test]
    fn percentiles_are_interpolated_and_pinned() {
        // 10-sample vector: small enough that nearest-rank used to collapse
        // p99 and p999 onto max ambiguously; interpolation pins them.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 0.50), 6); // 5.5 rounds half-up
        assert_eq!(percentile(&ten, 0.99), 10); // 9.91 -> 10
        assert_eq!(percentile(&ten, 0.999), 10);
        // 100-sample vector.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.50), 51);
        assert_eq!(percentile(&hundred, 0.99), 99); // 99.01 -> 99
        assert_eq!(percentile(&hundred, 0.999), 100); // 99.901 -> 100
                                                      // 1000-sample vector: p99 and p999 are now distinct interior
                                                      // points, not snapped bucket ends.
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.50), 501);
        assert_eq!(percentile(&thousand, 0.99), 990);
        assert_eq!(percentile(&thousand, 0.999), 999);
        assert_eq!(percentile(&thousand, 1.0), 1000);
        // Degenerate inputs stay in range.
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile(&[3, 9], 0.999), 9);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let sample: Vec<u64> = (0..137).map(|i| i * i % 1000).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let mut last = 0;
        for i in 0..=1000 {
            let v = percentile(&sorted, i as f64 / 1000.0);
            assert!(v >= last, "quantile dipped at q={}", i as f64 / 1000.0);
            last = v;
        }
        assert!(percentile(&sorted, 0.999) >= percentile(&sorted, 0.99));
    }

    #[test]
    fn report_counts_balance() {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                pool_threads: 2,
                queue_capacity: 2,
                cost_budget: 5_000,
                ..EngineConfig::default()
            },
            csr(600),
            &reg,
        );
        let spec = MixSpec {
            requests: 80,
            clients: 4,
            deadline_ms: Some(2_000),
            ..MixSpec::default()
        };
        let report = run_mix(&engine, &spec);
        let outcomes: u64 = report
            .classes
            .iter()
            .map(|c| c.completed + c.deadline_missed + c.cancelled + c.failed)
            .sum::<u64>()
            + report.unsupported;
        assert_eq!(outcomes, report.admitted);
        assert_eq!(
            report.admitted + report.rejected_queue_full + report.rejected_cost_budget,
            report.total_requests as u64
        );
        // Whatever did complete must match the oracle even under shedding.
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        verify_against_oracle(&report, &oracle).expect("no mismatches");
    }

    #[test]
    fn resolved_writes_are_deterministic_and_order_independent() {
        let g = crate::shard::ShardedGraph::build(csr(200), 4);
        let spec = MixSpec {
            requests: 300,
            write_weight: 50,
            point_weight: 30,
            traversal_weight: 15,
            analytics_weight: 5,
            ..MixSpec::default()
        };
        let ops = generate_ops(&spec, 200);
        let writes: Vec<WriteOp> = ops
            .iter()
            .filter_map(|op| match op {
                MixOp::Write(w) => Some(*w),
                MixOp::Read(_) => None,
            })
            .collect();
        assert!(writes.len() > 50, "write band drew {} ops", writes.len());
        assert!(
            writes.iter().any(|w| matches!(w, WriteOp::Delete { .. }))
                && writes.iter().any(|w| matches!(w, WriteOp::Insert { .. })),
            "both delete and insert ops are drawn"
        );
        for w in &writes {
            assert_eq!(resolve_write(&g, *w), resolve_write(&g, *w));
        }
        // Forward and reverse application orders converge on one digest —
        // the property the concurrent driver leans on.
        let forward = crate::delta::MutationBuffer::new(1, g.num_vertices() as u32);
        let reverse = crate::delta::MutationBuffer::new(1, g.num_vertices() as u32);
        for w in &writes {
            forward.apply(&g, &resolve_write(&g, *w));
        }
        for w in writes.iter().rev() {
            reverse.apply(&g, &resolve_write(&g, *w));
        }
        let fwd = forward.current().live_digest(&g);
        assert_eq!(fwd, reverse.current().live_digest(&g));
        assert_eq!(fwd, mutation_oracle_digest(&g, &ops));
        assert_ne!(
            fwd,
            crate::delta::structural_digest(&g),
            "the write stream actually changed the graph"
        );
    }

    #[test]
    fn mixed_mix_converges_on_the_mutation_oracle() {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                pool_threads: 2,
                ..EngineConfig::default()
            },
            csr(300),
            &reg,
        );
        let base = engine.store().snapshot();
        let spec = MixSpec {
            requests: 120,
            clients: 4,
            write_weight: 30,
            ..MixSpec::default()
        };
        let ops = generate_ops(&spec, base.graph().num_vertices() as u32);
        let expected = mutation_oracle_digest(base.graph(), &ops);
        let report = run_mix(&engine, &spec);
        // Every op resolves: reads and writes both count toward admission.
        assert_eq!(report.admitted, 120);
        let writes = report.class(CostClass::Write);
        assert!(writes.completed > 0, "the mix applied writes");
        assert!(writes.p50_us > 0, "write latencies are recorded");
        // Mid-overlay state matches the sequential oracle...
        assert_eq!(live_engine_digest(&engine), expected);
        // ...and so does the post-compaction epoch.
        engine.compact();
        assert_eq!(live_engine_digest(&engine), expected);
        assert_eq!(
            crate::delta::structural_digest(engine.store().snapshot().graph()),
            expected
        );
    }
}
