//! `bfs_storm`: bursts of traversals against a backlog.
//!
//! 256 requests are submitted back-to-back, then drained; the next burst
//! starts when the last ticket has resolved. A backlog is the only place
//! lanes, batch formation and MS-BFS do the work, and per-request fixed cost
//! is negligible beside a shared 64-lane traversal: the same engine as
//! `point_closed` in the opposite regime.
//!
//! Tickets are waited in submit order, so what the client observes per
//! ticket is biased by that order; a request's time is its sojourn, the
//! response's own `queue_us + exec_us`. The pass time is the burst makespan,
//! first `submit` to last ticket resolved.

use std::time::Instant;

use graphbig_engine::traffic::sequential_digests;
use graphbig_engine::{Engine, EngineConfig, Query, QueryOutput};
use graphbig_telemetry::metrics::Registry;
use graphbig_workloads::service::ServiceOutput;

use super::{check_digest, completed, engine_config, histogram, Bench};
use crate::dataset::EdgeList;
use crate::score::PassTimes;
use crate::script::{self, Op};
use crate::trace::{SpanName, Tracer};
use crate::verify;

/// Cache off so every BFS runs; room for the whole burst; a 500 us window,
/// twice what the client needs to submit the burst, so that a batch leader
/// collects the lanes still being submitted and every burst forms the same
/// five batches (64 + 64 + 64 + 36 lanes and the points). Without a window the
/// batches depend on when the executor first wakes, and an op's best sojourn
/// is then picked from whichever burst happened to favour it. The two partly
/// filled batches sit out their window: 1 ms of a 7.4 ms burst is idle (a 2 ms
/// window would idle 4 ms of 11).
pub fn config() -> EngineConfig {
    EngineConfig {
        cache_capacity: 0,
        queue_capacity: 1024,
        batch_window_us: 500,
        ..engine_config()
    }
}

pub struct BfsStorm<'a> {
    engine: Engine,
    registry: Registry,
    list: &'a EdgeList,
    offsets: Vec<u32>,
    ops: Vec<Op>,
    expect: Vec<u64>,
    best_submit_ns: u64,
}

impl<'a> BfsStorm<'a> {
    pub fn new(engine: Engine, registry: Registry, list: &'a EdgeList, seed: u64) -> Self {
        let offsets = list.row_offsets();
        let ops = script::bfs_storm(seed, list.n, &script::eligible_sources(list, &offsets));
        BfsStorm {
            expect: vec![0; ops.len()],
            engine,
            registry,
            list,
            offsets,
            ops,
            best_submit_ns: u64::MAX,
        }
    }

    /// Mean time of one `submit` call in the burst that submitted fastest.
    pub fn submit_us(&self) -> f64 {
        self.best_submit_ns as f64 / self.ops.len() as f64 / 1e3
    }

    /// `(batches, lanes, coalesce_us)` summed over every burst so far, from
    /// the engine's `engine.batch.*` histograms.
    pub fn batch_counts(&self) -> (u64, u64, u64) {
        let (batches, lanes) = histogram(&self.registry, "engine.batch.size");
        let (_, coalesce_us) = histogram(&self.registry, "engine.batch.coalesce_us");
        (batches, lanes, coalesce_us)
    }

    /// One burst: its sojourns and makespan, and the per-ticket outputs
    /// still to be checked.
    fn burst(&mut self, tr: &mut Tracer) -> (PassTimes, Vec<Result<QueryOutput, String>>) {
        let mut pass = PassTimes::new(self.ops.len());
        let mut tickets = Vec::with_capacity(self.ops.len());
        tr.begin(SpanName::Op, 0);
        let started = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            tr.begin(SpanName::EngineSubmit, i);
            tickets.push(self.engine.submit(op.query()));
            tr.end();
        }
        self.best_submit_ns = self.best_submit_ns.min(started.elapsed().as_nanos() as u64);
        let mut outputs = Vec::with_capacity(tickets.len());
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = match ticket {
                Ok(ticket) => {
                    tr.begin(SpanName::EngineWait, i);
                    let response = ticket.wait();
                    tr.queue_exec(i, response.queue_us, response.exec_us);
                    tr.end();
                    Ok(response)
                }
                Err(reason) => Err(format!("rejected: {reason:?}")),
            };
            pass.ns[i] = response
                .as_ref()
                .map_or(0, |r| (r.queue_us + r.exec_us) * 1_000);
            outputs.push(completed(response));
        }
        pass.makespan_ns = Some(started.elapsed().as_nanos() as u64);
        tr.end();
        (pass, outputs)
    }
}

impl Bench for BfsStorm<'_> {
    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn warm_up(&mut self) -> PassTimes {
        let (mut pass, outputs) = self.burst(&mut Tracer::new());
        let snapshot = self.engine.store().snapshot();
        let graph = snapshot.graph();
        // Fan-out: every ticket got the answer the same request gets alone.
        let queries: Vec<Query> = self.ops.iter().map(Op::query).collect();
        let alone = sequential_digests(graph, self.engine.pool(), &queries);
        for (i, output) in outputs.into_iter().enumerate() {
            let q = queries[i];
            let verified = output.and_then(|o| {
                if Some(o.digest()) != alone[i] {
                    return Err("differs from the same request run alone".to_string());
                }
                match (&o, q) {
                    (
                        QueryOutput::Workload(ServiceOutput::Levels(levels)),
                        Query::Run { source, .. },
                    ) => {
                        let want = verify::bfs_levels(self.list, &self.offsets, None, source);
                        verify::check_levels(levels, &want)?;
                    }
                    (QueryOutput::KHop(count), Query::KHop { source, hops }) => {
                        if *count != graph.k_hop(source, hops) {
                            return Err(format!("{count} vertices, direct call disagrees"));
                        }
                    }
                    _ => return Err(format!("unexpected output shape {o:?}")),
                }
                Ok(o.digest())
            });
            match verified {
                Ok(digest) => self.expect[i] = digest,
                Err(e) => pass.fail(i, format!("{q:?}: {e}")),
            }
        }
        pass
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassTimes {
        let (mut pass, outputs) = self.burst(tr);
        for (i, output) in outputs.into_iter().enumerate() {
            check_digest(&mut pass, i, output.map(|o| o.digest()), self.expect[i]);
        }
        pass
    }
}
