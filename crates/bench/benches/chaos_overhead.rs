//! Failpoint overhead benchmark: the zero-cost claim for fault injection.
//!
//! Measures two levels, each in two states:
//!
//! * `raw_site/*` — one `failpoint!` evaluation in a tight loop:
//!   `disarmed` is the gate everyone pays when the `chaos` feature is on
//!   but no plan is armed (one relaxed atomic load); `armed_inert` is the
//!   worst case while a plan is armed — the site matches a spec whose
//!   probability is 0, so every hit takes the registry lock and decides
//!   "no fire".
//! * `degree_roundtrip/*` — a full point-query round trip through the
//!   engine (submit → executor → resolve), which crosses four failpoint
//!   sites; the armed-inert delta shows what a running chaos mix adds to
//!   queries the plan never touches.
//!
//! Building with `--no-default-features` compiles every failpoint out
//! (`failpoint!` becomes an inlined `None`) — compare that run against a
//! default build to verify the compile-time claim. Baseline numbers live
//! in `results/BENCH_chaos_overhead.json`.

use graphbig::chaos::{self, FaultAction, FaultPlan, FaultSpec, Trigger};
use graphbig::engine::{Engine, EngineConfig, Query};
use graphbig::framework::csr::Csr;
use graphbig::prelude::*;
use graphbig::telemetry::metrics::Registry;
use graphbig_bench::timing::{black_box, AllocRegime, Runner};

fn inert(site: &str) -> FaultSpec {
    FaultSpec {
        site: site.to_string(),
        trigger: Trigger::Probability,
        action: FaultAction::Delay,
        p: 0.0,
        n: 0,
        schedule: Vec::new(),
        delay_us: 0,
    }
}

fn main() {
    AllocRegime::Warm.pin();
    let mut r = Runner::new("chaos_overhead_ldbc_4k");
    r.threads(2);
    r.param("dataset", "LDBC");
    r.param("vertices", 1usize << 12);
    r.param("seed", "datagen default");
    if !chaos::compiled() {
        eprintln!("failpoints compiled out: both states measure the bare loop");
    }

    chaos::disarm();
    let mut key = 0u64;
    r.bench("raw_site/disarmed", || {
        key = key.wrapping_add(1);
        black_box(chaos::fire("bench.site", black_box(key)));
    });

    chaos::arm(&FaultPlan {
        seed: 1,
        max_retries: 0,
        backoff_base_us: 0,
        backoff_cap_us: 0,
        faults: vec![inert("bench.site")],
    });
    r.bench("raw_site/armed_inert", || {
        key = key.wrapping_add(1);
        black_box(chaos::fire("bench.site", black_box(key)));
    });
    chaos::disarm();

    let reg = Registry::new();
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 2,
            ..EngineConfig::default()
        },
        Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(1usize << 12)),
        &reg,
    );
    let n = 1u64 << 12;
    let mut v = 0u64;
    r.bench("degree_roundtrip/disarmed", || {
        v = (v + 1) % n;
        let ticket = engine.submit(Query::Degree { vertex: v as u32 }).unwrap();
        black_box(ticket.wait());
    });

    chaos::arm(&FaultPlan {
        seed: 1,
        max_retries: 0,
        backoff_base_us: 0,
        backoff_cap_us: 0,
        faults: vec![
            inert("engine.admit"),
            inert("engine.dequeue"),
            inert("engine.run.pre"),
            inert("engine.run.post"),
        ],
    });
    r.bench("degree_roundtrip/armed_inert", || {
        v = (v + 1) % n;
        let ticket = engine.submit(Query::Degree { vertex: v as u32 }).unwrap();
        black_box(ticket.wait());
    });
    chaos::disarm();

    r.finish();
}
