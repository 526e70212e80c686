//! Post-chaos invariant checking.
//!
//! After a chaotic mix ([`run_chaos_mix`](crate::traffic::run_chaos_mix))
//! the engine must look *exactly* as if nothing unusual had happened:
//! every ticket resolved exactly once, every completed result bit-identical
//! to the sequential oracle, no executor thread lost, admission counters
//! drained to zero, and the `engine.*` metrics in perfect agreement with
//! the driver's outcome tally. [`check_chaos_invariants`] verifies all of
//! that and [`InvariantReport::write_to_manifest`] publishes the verdict as
//! the machine-checkable `chaos.invariants` section a run manifest carries
//! (and `graphbig-report --check` gates on).
//!
//! The metric-consistency checks assume the registry was fresh for this
//! engine + mix pair (a per-test `Registry`, or the process-global registry
//! in a binary that runs one mix) — cumulative counters from an earlier mix
//! on the same registry would legitimately disagree with one report.

use graphbig_telemetry::metrics::{MetricValue, Registry};
use graphbig_telemetry::{MetricSink, RunManifest};

use crate::engine::Engine;
use crate::traffic::{verify_against_oracle, TrafficReport};

/// One named invariant: held or violated (with detail).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantCheck {
    /// Short stable name (becomes `chaos.invariants.<name>` in manifests).
    pub name: &'static str,
    /// True when the invariant held.
    pub held: bool,
    /// Human-readable evidence (counts compared, first mismatch, ...).
    pub detail: String,
}

/// The verdict of one post-chaos sweep over all invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantReport {
    /// Every check performed, in a fixed order.
    pub checks: Vec<InvariantCheck>,
}

impl InvariantReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.held)
    }

    /// Number of violated invariants.
    pub fn violations(&self) -> u64 {
        self.checks.iter().filter(|c| !c.held).count() as u64
    }

    /// Publish the `chaos.invariants` section: a `checked`/`violations`
    /// counter pair, one 0/1 gauge per named check, and a note per
    /// violation. The counter `chaos.invariants.violations` is what
    /// `graphbig-report --check` gates on.
    pub fn write_to_manifest(&self, manifest: &mut RunManifest) {
        manifest.counter("chaos.invariants.checked", self.checks.len() as u64);
        manifest.counter("chaos.invariants.violations", self.violations());
        for check in &self.checks {
            manifest.gauge(
                &format!("chaos.invariants.{}", check.name),
                if check.held { 1.0 } else { 0.0 },
            );
            if !check.held {
                manifest.notes.push(format!(
                    "chaos invariant violated: {}: {}",
                    check.name, check.detail
                ));
            }
        }
    }

    /// One line per check, for terminal output.
    pub fn render(&self) -> String {
        self.checks
            .iter()
            .map(|c| {
                format!(
                    "  {} {} — {}",
                    if c.held { "ok " } else { "FAIL" },
                    c.name,
                    c.detail
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn counter(snap: &std::collections::BTreeMap<String, MetricValue>, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Run the full invariant sweep for one finished mix.
///
/// `oracle` is the sequential digest list from
/// [`sequential_digests`](crate::traffic::sequential_digests) (pass `None`
/// to skip the digest comparison, e.g. when the caller already gated on
/// it). `reg` must be the registry the engine's metrics live in.
pub fn check_chaos_invariants(
    engine: &Engine,
    report: &TrafficReport,
    oracle: Option<&[Option<u64>]>,
    reg: &Registry,
) -> InvariantReport {
    let snap = reg.snapshot();
    let mut checks = Vec::new();

    // 1. Every ticket resolved exactly once: each admission produced one
    //    response and the one-shot CAS never saw a second resolver.
    let submitted = counter(&snap, "engine.submitted");
    let resolved = counter(&snap, "engine.resolved");
    let double = counter(&snap, "engine.double_resolve");
    checks.push(InvariantCheck {
        name: "resolved_once",
        held: submitted == resolved && double == 0,
        detail: format!("submitted {submitted}, resolved {resolved}, double-resolved {double}"),
    });

    // 2. Completed results digest-equal to the sequential oracle.
    if let Some(oracle) = oracle {
        let (held, detail) = match verify_against_oracle(report, oracle) {
            Ok(checked) => (true, format!("{checked} completed digests verified")),
            Err(e) => (false, e),
        };
        checks.push(InvariantCheck {
            name: "oracle_digests",
            held,
            detail,
        });
    }

    // 3. No executor thread lost to a panic.
    let alive = engine.alive_executors();
    let configured = engine.executor_count();
    checks.push(InvariantCheck {
        name: "executors_alive",
        held: alive == configured,
        detail: format!("{alive}/{configured} executor threads alive"),
    });

    // 4. Admission counters balance: drained to zero, and every request is
    //    accounted for exactly once in the outcome tally.
    let queued = engine.admission().queued();
    let in_flight = engine.admission().in_flight_cost();
    let outcomes: u64 = report
        .classes
        .iter()
        .map(|c| c.completed + c.deadline_missed + c.cancelled + c.failed)
        .sum::<u64>()
        + report.unsupported;
    let finals = report.admitted + report.rejected_queue_full + report.rejected_cost_budget;
    let balanced = queued == 0
        && in_flight == 0
        && outcomes == report.admitted
        && finals == report.total_requests as u64;
    checks.push(InvariantCheck {
        name: "admission_balanced",
        held: balanced,
        detail: format!(
            "queued {queued}, in-flight cost {in_flight}; outcomes {outcomes} vs admitted {}; \
             finals {finals} vs requests {}",
            report.admitted, report.total_requests
        ),
    });

    // 5. engine.* metrics consistent with the outcome tally.
    let m_completed: u64 = ["point", "traversal", "analytics", "write"]
        .iter()
        .map(|c| counter(&snap, &format!("engine.completed.{c}")))
        .sum();
    let r_completed: u64 = report.classes.iter().map(|c| c.completed).sum();
    let m_rejected = counter(&snap, "engine.rejected.queue_full")
        + counter(&snap, "engine.rejected.cost_budget");
    let r_rejected = report.rejected_queue_full + report.rejected_cost_budget + report.retries;
    let r_missed: u64 = report.classes.iter().map(|c| c.deadline_missed).sum();
    let r_cancelled: u64 = report.classes.iter().map(|c| c.cancelled).sum();
    let r_failed: u64 = report.classes.iter().map(|c| c.failed).sum();
    let pairs = [
        ("completed", m_completed, r_completed),
        ("rejected(+retries)", m_rejected, r_rejected),
        (
            "deadline_missed",
            counter(&snap, "engine.deadline_missed"),
            r_missed,
        ),
        ("cancelled", counter(&snap, "engine.cancelled"), r_cancelled),
        ("failed", counter(&snap, "engine.failed"), r_failed),
        (
            "unsupported",
            counter(&snap, "engine.unsupported"),
            report.unsupported,
        ),
        ("submitted", submitted, report.admitted),
    ];
    let mismatches: Vec<String> = pairs
        .iter()
        .filter(|(_, m, r)| m != r)
        .map(|(name, m, r)| format!("{name}: metric {m} != report {r}"))
        .collect();
    checks.push(InvariantCheck {
        name: "metrics_consistent",
        held: mismatches.is_empty(),
        detail: if mismatches.is_empty() {
            format!("completed {m_completed}, rejected+retries {m_rejected}, all tallies agree")
        } else {
            mismatches.join("; ")
        },
    });

    // 6. Cache accounting: every hit is a completed query, so hits can
    //    never exceed completions.
    let hits = counter(&snap, "engine.cache.hit");
    checks.push(InvariantCheck {
        name: "cache_consistent",
        held: hits <= m_completed,
        detail: format!("{hits} cache hits vs {m_completed} completions"),
    });

    // 7. Write-path accounting: the delta sequence number advances exactly
    //    once per applied batch, so the mutation counter and the buffer's
    //    sequence must agree (both survive compaction untouched).
    let mutations = counter(&snap, "engine.mutations");
    let seq = engine.delta_seq();
    checks.push(InvariantCheck {
        name: "mutations_sequenced",
        held: mutations == seq,
        detail: format!("{mutations} mutation batches vs delta-seq {seq}"),
    });

    // 8. Compaction lifecycle: every started fold finished (published or
    //    yielded) — a mismatch means the compactor died mid-fold.
    let c_started = counter(&snap, "engine.compact.started");
    let c_completed = counter(&snap, "engine.compact.completed");
    checks.push(InvariantCheck {
        name: "compaction_balanced",
        held: c_started == c_completed,
        detail: format!("{c_started} compactions started, {c_completed} completed"),
    });

    let report = InvariantReport { checks };
    if !report.ok() {
        // A violated invariant is exactly the moment the last-N-events
        // story matters: dump the always-on flight recorder so the failure
        // ships with every request's per-stage lifecycle attached.
        match graphbig_telemetry::recorder::auto_dump("invariant-violation") {
            Some(path) => eprintln!("invariant violation: flight recorder dumped to {path}"),
            None => eprintln!("invariant violation: flight recorder dump failed"),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::traffic::{generate_requests, run_mix, sequential_digests, MixSpec};
    use graphbig_datagen::Dataset;
    use graphbig_framework::csr::Csr;

    #[test]
    fn clean_mix_passes_every_invariant() {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                pool_threads: 2,
                ..EngineConfig::default()
            },
            Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(300)),
            &reg,
        );
        let spec = MixSpec {
            requests: 40,
            ..MixSpec::default()
        };
        let report = run_mix(&engine, &spec);
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        let inv = check_chaos_invariants(&engine, &report, Some(&oracle), &reg);
        assert!(inv.ok(), "{}", inv.render());
        assert_eq!(inv.violations(), 0);
        assert_eq!(inv.checks.len(), 8);

        let mut manifest = RunManifest::new("test");
        inv.write_to_manifest(&mut manifest);
        assert_eq!(
            manifest.metrics["chaos.invariants.checked"],
            MetricValue::Counter(8)
        );
        assert_eq!(
            manifest.metrics["chaos.invariants.violations"],
            MetricValue::Counter(0)
        );
        assert_eq!(
            manifest.metrics["chaos.invariants.resolved_once"],
            MetricValue::Gauge(1.0)
        );
        assert!(manifest.notes.is_empty(), "no violations, no notes");
    }

    #[test]
    fn violations_are_reported_with_notes() {
        let report = InvariantReport {
            checks: vec![
                InvariantCheck {
                    name: "resolved_once",
                    held: true,
                    detail: "fine".into(),
                },
                InvariantCheck {
                    name: "executors_alive",
                    held: false,
                    detail: "1/2 executor threads alive".into(),
                },
            ],
        };
        assert!(!report.ok());
        assert_eq!(report.violations(), 1);
        let mut manifest = RunManifest::new("test");
        report.write_to_manifest(&mut manifest);
        assert_eq!(
            manifest.metrics["chaos.invariants.violations"],
            MetricValue::Counter(1)
        );
        assert_eq!(
            manifest.metrics["chaos.invariants.executors_alive"],
            MetricValue::Gauge(0.0)
        );
        assert_eq!(manifest.notes.len(), 1);
        assert!(manifest.notes[0].contains("executors_alive"));
        assert!(report.render().contains("FAIL executors_alive"));
    }
}
