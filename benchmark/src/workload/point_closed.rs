//! `point_closed`: one closed-loop client of point reads.
//!
//! The kernels are nanoseconds to microseconds, so admit / queue / resolve /
//! recorder / cache fixed costs are the whole answer. Half the reads are
//! `Degree`, a quarter `KHop` from uniform sources (cache misses) and a
//! quarter `KHop` from a 64-vertex hot pool (cache hits). Kernel changes
//! must not move it.

use graphbig_engine::{Engine, Query, QueryOutput};
use graphbig_telemetry::metrics::Registry;

use super::{check_digest, completed, round_trip, Bench};
use crate::score::PassTimes;
use crate::script::{self, Op};
use crate::trace::Tracer;

pub struct PointClosed {
    engine: Engine,
    registry: Registry,
    ops: Vec<Op>,
    expect: Vec<u64>,
}

impl PointClosed {
    pub fn new(engine: Engine, registry: Registry, seed: u64) -> Self {
        let out_degrees: Vec<u32> = {
            let snapshot = engine.store().snapshot();
            let out = snapshot.graph().service().out();
            (0..out.num_vertices() as u32)
                .map(|v| out.degree(v))
                .collect()
        };
        let ops = script::point_closed(seed, &out_degrees);
        PointClosed {
            expect: vec![0; ops.len()],
            engine,
            registry,
            ops,
        }
    }

    /// `(hits, misses)` of the result cache so far; exact with one client.
    pub fn cache_counts(&self) -> (u64, u64) {
        (
            self.registry.counter("engine.cache.hit").get(),
            self.registry.counter("engine.cache.miss").get(),
        )
    }
}

impl Bench for PointClosed {
    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn warm_up(&mut self) -> PassTimes {
        let mut pass = PassTimes::new(self.ops.len());
        let mut off = Tracer::new();
        let snapshot = self.engine.store().snapshot();
        let graph = snapshot.graph();
        for (i, op) in self.ops.iter().enumerate() {
            let q = op.query();
            let (response, ns) = round_trip(&self.engine, q, i, &mut off);
            pass.ns[i] = ns;
            // The same read made directly on the snapshot's shards.
            let direct = match q {
                Query::Degree { vertex } => {
                    let (out, inc) = graph.degree(vertex).unwrap_or((0, 0));
                    QueryOutput::Degree { out, inc }
                }
                Query::KHop { source, hops } => QueryOutput::KHop(graph.k_hop(source, hops)),
                Query::Run { .. } => unreachable!("point_closed scripts only point reads"),
            };
            match completed(response) {
                Ok(output) if output == direct => self.expect[i] = output.digest(),
                Ok(output) => {
                    pass.fail(i, format!("{q:?}: {output:?}, direct call says {direct:?}"))
                }
                Err(e) => pass.fail(i, format!("{q:?}: {e}")),
            }
        }
        pass
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassTimes {
        let mut pass = PassTimes::new(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let (response, ns) = round_trip(&self.engine, op.query(), i, tr);
            pass.ns[i] = ns;
            check_digest(
                &mut pass,
                i,
                completed(response).map(|o| o.digest()),
                self.expect[i],
            );
        }
        pass
    }
}
