//! What admission charges, property-tested and end to end:
//!
//! * a *busy* admission controller never exceeds its budget under any
//!   stream of static costs (the idle escape hatch is the only exception,
//!   and it admits exactly one query), and it drains to zero;
//! * the engine charges a query exactly `Query::cost(n, m)` — a function of
//!   the query and the graph alone, whatever ran before it.

use graphbig_datagen::prop::{self, Config};
use graphbig_datagen::Dataset;
use graphbig_engine::{
    AdmissionController, Engine, EngineConfig, Query, QueryStatus, RejectReason,
};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::metrics::Registry;
use graphbig_workloads::Workload;

#[test]
fn random_cost_streams_never_overcommit_a_busy_controller() {
    prop::check(
        "admission_budget",
        Config::with_cases(24),
        |rng| {
            let budget = rng.gen_range(4u64..=200);
            let costs = (0..rng.gen_range(1u64..=80) as usize)
                .map(|_| rng.gen_range(1u64..=240))
                .collect::<Vec<_>>();
            (budget, costs)
        },
        |(budget, costs)| {
            let ctl = AdmissionController::new(usize::MAX >> 1, *budget);
            let mut in_flight: Vec<u64> = Vec::new();
            for (i, &cost) in costs.iter().enumerate() {
                let was_idle = ctl.in_flight_cost() == 0;
                if ctl.try_admit(cost).is_ok() {
                    ctl.on_start();
                    in_flight.push(cost);
                    assert!(
                        ctl.in_flight_cost() <= *budget || was_idle,
                        "busy controller exceeded budget: {} > {budget}",
                        ctl.in_flight_cost()
                    );
                }
                // Drain one in-flight query every other step so the
                // controller cycles between idle and busy.
                if i % 2 == 1 {
                    if let Some(done) = in_flight.pop() {
                        ctl.on_finish(done);
                    }
                }
            }
            for done in in_flight {
                ctl.on_finish(done);
            }
            assert_eq!(ctl.in_flight_cost(), 0, "controller drains to zero");
        },
    );
}

/// History must not move a charge: after 64 completed Degree / KHop reads,
/// a Degree and a KHop submitted while a GColor stall fills the budget are
/// refused with exactly their static estimates requested against exactly
/// the stall's in flight. Once the stall drains, both are admitted and
/// complete, and nothing stays in flight.
#[test]
fn a_charge_depends_on_the_query_and_the_graph_alone() {
    const N: u32 = 20_000;
    let csr = Csr::from_graph(&Dataset::Ldbc.generate_with_vertices(N as usize));
    let (n, m) = (csr.num_vertices() as u64, csr.num_edges() as u64);
    let stall = Query::Run {
        workload: Workload::GColor,
        source: 0,
    };
    let reads = [
        Query::Degree { vertex: 17 },
        Query::KHop {
            source: 23,
            hops: 2,
        },
    ];
    let engine = Engine::with_registry(
        EngineConfig {
            executors: 1,
            pool_threads: 1,
            // The stall alone fills the budget, so any read is refused
            // while it runs.
            cost_budget: stall.cost(n, m),
            ..EngineConfig::default()
        },
        csr,
        &Registry::new(),
    );
    for i in 0..64u32 {
        let q = if i % 2 == 0 {
            Query::Degree {
                vertex: i * 311 % N,
            }
        } else {
            Query::KHop {
                source: i * 311 % N,
                hops: 2,
            }
        };
        let response = engine.submit(q).expect("admitted").wait();
        assert!(matches!(response.status, QueryStatus::Completed(_)));
    }
    assert_eq!(engine.stats_snapshot().in_flight_cost, 0);

    // GColor takes ~95 ms at this scale: park the one executor on it.
    let stall_ticket = engine.submit(stall).expect("stall admitted");
    while engine.admission().queued() > 0 {
        std::thread::yield_now();
    }
    for q in reads {
        match engine.submit(q) {
            Err(RejectReason::CostBudget {
                requested,
                in_flight,
                ..
            }) => {
                assert_eq!(requested, q.cost(n, m), "{q:?} is charged its estimate");
                assert_eq!(in_flight, stall.cost(n, m), "only the stall is in flight");
            }
            other => panic!("{q:?} must be refused under a full budget, got {other:?}"),
        }
    }
    assert!(matches!(
        stall_ticket.wait().status,
        QueryStatus::Completed(_)
    ));
    for q in reads {
        let response = engine.submit(q).expect("admitted once drained").wait();
        assert!(matches!(response.status, QueryStatus::Completed(_)));
    }
    assert_eq!(engine.stats_snapshot().in_flight_cost, 0);
}
