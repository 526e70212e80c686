//! Result-cache coherence, against the sequential oracle:
//!
//! * a full mix with the epoch-keyed result cache on and hot sources stays
//!   digest-identical to the oracle, and a publish makes the cache agree
//!   with the *new* graph;
//! * cache-on and cache-off answers are bit-identical;
//! * under chaos, a poisoned cache insert is caught by the oracle, and a
//!   cached mix with reject storms and republishes holds every invariant.

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{
    generate_requests, run_mix, sequential_digests, verify_against_oracle, MixSpec,
};
use graphbig_engine::{check_chaos_invariants, Engine, EngineConfig};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::{MetricValue, Registry};

fn csr(n: usize) -> Csr {
    Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(n))
}

/// Chaos arming is process-global: every test that runs an engine takes
/// this gate, so a fault plan armed by a `chaos_paths` test cannot poison a
/// mix running beside it on another test thread.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn cached_hot_mixes_stay_bit_identical_to_the_oracle() {
    let _g = gate();
    prop::check(
        "cache_oracle",
        Config::with_cases(5),
        |rng| {
            (
                rng.next_u64(),          // mix seed
                rng.gen_range(1u64..=8), // hot-source pool
                rng.gen_range(2u64..=4), // clients
            )
        },
        |&(seed, hot, clients)| {
            let spec = MixSpec {
                seed,
                requests: 80,
                clients: clients as usize,
                hot_sources: Some(hot as u32),
                ..MixSpec::default()
            };
            let reg = Registry::new();
            let engine = Engine::with_registry(
                EngineConfig {
                    executors: 3,
                    pool_threads: 2,
                    ..EngineConfig::default()
                },
                csr(200),
                &reg,
            );
            let report = run_mix(&engine, &spec);
            let snapshot = engine.store().snapshot();
            let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
            let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
            let inv = check_chaos_invariants(&engine, &report, Some(&oracle), &reg);
            assert!(inv.ok(), "invariants violated:\n{}", inv.render());
            // A hot pool over 80 point-heavy requests must actually
            // exercise the cache, or this test proves nothing.
            let snap = reg.snapshot();
            assert!(
                matches!(snap["engine.cache.hit"], MetricValue::Counter(h) if h > 0),
                "hot pool of {hot} produced no cache hits"
            );
        },
    );
}

#[test]
fn publish_invalidates_the_cache_for_correctness_not_just_memory() {
    let _g = gate();
    // Warm the cache on one graph, publish a different one, and demand
    // the same queries now match the *new* graph's sequential oracle —
    // a stale-cache bug would serve old-epoch answers bit-identically
    // (and pass any response-equality check), so compare against the
    // oracle, not against the previous responses.
    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 2,
            pool_threads: 2,
            ..EngineConfig::default()
        },
        csr(200),
        &reg,
    );
    let spec = MixSpec {
        requests: 40,
        hot_sources: Some(4),
        ..MixSpec::default()
    };
    let first = run_mix(&engine, &spec);
    assert!(!first.completed_digests.is_empty());

    engine.publish(csr(450));
    assert_eq!(engine.cache_len(), 0, "publish empties the cache");

    let second = run_mix(&engine, &spec);
    let snapshot = engine.store().snapshot();
    assert_eq!(snapshot.graph().num_vertices(), 450);
    let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
    let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
    verify_against_oracle(&second, &oracle)
        .expect("post-publish responses must match the new graph");
}

#[test]
fn cache_on_and_cache_off_answers_are_bit_identical() {
    let _g = gate();
    // The acceptance bar for the cache: responses with caching enabled
    // are indistinguishable from responses without it.
    let spec = MixSpec {
        requests: 60,
        clients: 2,
        hot_sources: Some(3),
        ..MixSpec::default()
    };
    let digests = |capacity: usize| {
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                executors: 2,
                pool_threads: 2,
                cache_capacity: capacity,
                ..EngineConfig::default()
            },
            csr(200),
            &reg,
        );
        let report = run_mix(&engine, &spec);
        let hits = match reg.snapshot()["engine.cache.hit"] {
            MetricValue::Counter(h) => h,
            _ => 0,
        };
        (report.completed_digests.clone(), hits)
    };
    let (on, hits_on) = digests(1024);
    let (off, hits_off) = digests(0);
    assert_eq!(on, off, "cache must be invisible in the responses");
    assert!(hits_on > 0, "enabled cache must hit on a 3-vertex hot pool");
    assert_eq!(hits_off, 0, "disabled cache must never hit");
}

mod chaos_paths {
    use super::*;
    use graphbig_chaos::{self as chaos, FaultAction, FaultPlan, FaultSpec, Trigger};
    use graphbig_engine::traffic::run_chaos_mix;
    use std::sync::{MutexGuard, Once};

    static QUIET: Once = Once::new();

    fn serial() -> MutexGuard<'static, ()> {
        QUIET.call_once(chaos::install_quiet_panic_hook);
        gate()
    }

    fn fault(site: &str, trigger: Trigger, action: FaultAction) -> FaultSpec {
        FaultSpec {
            site: site.to_string(),
            trigger,
            action,
            p: 0.0,
            n: 0,
            schedule: Vec::new(),
            delay_us: 0,
        }
    }

    fn plan(seed: u64, faults: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            seed,
            max_retries: 3,
            backoff_base_us: 50,
            backoff_cap_us: 400,
            faults,
        }
    }

    #[test]
    fn poisoned_cache_inserts_are_caught_by_the_oracle() {
        let _g = serial();
        // Corrupt every cache insert: the first requester still gets the
        // right answer (the poison only lands in the *stored* copy), but
        // any later hit serves a wrong result — which the oracle must
        // flag. This is the detection path for cache-poisoning bugs.
        let mut poison = fault(
            "engine.cache.insert",
            Trigger::Always,
            FaultAction::CorruptCache,
        );
        poison.p = 1.0;
        let plan = plan(41, vec![poison]);
        let spec = MixSpec {
            requests: 60,
            clients: 2,
            hot_sources: Some(2),
            point_weight: 100,
            traversal_weight: 0,
            analytics_weight: 0,
            ..MixSpec::default()
        };
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                executors: 2,
                pool_threads: 2,
                ..EngineConfig::default()
            },
            csr(200),
            &reg,
        );
        let report = run_chaos_mix(&engine, &spec, &plan);
        let snap = reg.snapshot();
        assert!(
            matches!(snap["engine.cache.hit"], MetricValue::Counter(h) if h > 0),
            "2 hot sources over 60 point queries must produce hits"
        );
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        assert!(
            verify_against_oracle(&report, &oracle).is_err(),
            "poisoned cache hits must not pass the oracle"
        );
    }

    #[test]
    fn chaotic_cached_mix_holds_every_invariant() {
        let _g = serial();
        // The full gauntlet with the cache on: reject storms, mid-mix
        // republishes (which invalidate the cache), and dequeue delays —
        // still bit-identical to the sequential oracle.
        let mut reject = fault(
            "engine.admit",
            Trigger::Probability,
            FaultAction::RejectQueueFull,
        );
        reject.p = 0.2;
        let mut bump = fault(
            "traffic.republish",
            Trigger::EveryNth,
            FaultAction::Republish,
        );
        bump.n = 9;
        let mut slow = fault("engine.dequeue", Trigger::Probability, FaultAction::Delay);
        slow.p = 0.15;
        slow.delay_us = 200;
        let plan = plan(43, vec![reject, bump, slow]);
        let spec = MixSpec {
            requests: 48,
            clients: 3,
            hot_sources: Some(5),
            ..MixSpec::default()
        };
        let reg = Registry::new();
        let engine = Engine::with_registry(
            EngineConfig {
                executors: 2,
                pool_threads: 2,
                ..EngineConfig::default()
            },
            csr(250),
            &reg,
        );
        let report = run_chaos_mix(&engine, &spec, &plan);
        let snapshot = engine.store().snapshot();
        let queries = generate_requests(&spec, snapshot.graph().num_vertices() as u32);
        let oracle = sequential_digests(snapshot.graph(), engine.pool(), &queries);
        let inv = check_chaos_invariants(&engine, &report, Some(&oracle), &reg);
        assert!(inv.ok(), "invariants violated:\n{}", inv.render());
        assert!(
            engine.store().epoch() > 1,
            "mid-mix republishes must bump the epoch"
        );
    }
}
