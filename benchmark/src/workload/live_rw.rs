//! `live_rw`: the same store and engine as the read workloads, written to.
//!
//! Single-mutation `Engine::mutate` calls (copy-on-write overlay), point
//! reads through the growing overlay, a BFS that has to see the overlay, an
//! explicit `Engine::compact()` so its cost is a timed op and not a
//! background race, and a BFS on the clean epoch. The backward phase then
//! applies the exact inverse mutations and compacts again, so every pass
//! ends — and the next one starts — on the base graph: the pass must end
//! with `live_engine_digest == structural_digest(base)`, which is both the
//! correctness check and the guarantee that every pass sees the same state.

use std::time::Instant;

use graphbig_engine::traffic::live_engine_digest;
use graphbig_engine::{
    structural_digest, Engine, EngineConfig, Mutation, MutationBuffer, Query, QueryOutput,
};
use graphbig_telemetry::metrics::Registry;
use graphbig_workloads::service::ServiceOutput;

use super::{check_digest, completed, engine_config, histogram, round_trip, Bench};
use crate::dataset::EdgeList;
use crate::score::PassTimes;
use crate::script::{self, Op};
use crate::trace::{SpanName, Tracer};
use crate::verify::{self, EdgeDelta};

/// No compactor thread: compaction happens only where the script says.
pub fn config() -> EngineConfig {
    EngineConfig {
        compact_threshold: 0,
        ..engine_config()
    }
}

pub struct LiveRw<'a> {
    engine: Engine,
    registry: Registry,
    list: &'a EdgeList,
    offsets: Vec<u32>,
    ops: Vec<Op>,
    expect: Vec<u64>,
    base_digest: u64,
}

impl<'a> LiveRw<'a> {
    pub fn new(engine: Engine, registry: Registry, list: &'a EdgeList, seed: u64) -> Self {
        let offsets = list.row_offsets();
        let sources = script::eligible_sources(list, &offsets);
        let ops = script::live_rw(seed, list, &offsets, &sources);
        let base_digest = structural_digest(engine.store().snapshot().graph());
        LiveRw {
            expect: vec![0; ops.len()],
            engine,
            registry,
            list,
            offsets,
            ops,
            base_digest,
        }
    }

    /// Mean publish pause of the compactions so far, in microseconds.
    pub fn compact_pause_us(&self) -> f64 {
        let (count, sum) = histogram(&self.registry, "engine.compact.pause_us");
        sum as f64 / count.max(1) as f64
    }

    /// Run op `i`; the output digest of a read, 0 for writes and compaction.
    fn run(&self, i: usize, tr: &mut Tracer) -> (Result<Option<QueryOutput>, String>, u64) {
        match self.ops[i] {
            Op::Read(q) => {
                let (response, ns) = round_trip(&self.engine, q, i, tr);
                (completed(response).map(Some), ns)
            }
            Op::Write(m) => {
                tr.begin(SpanName::Op, i);
                let started = Instant::now();
                tr.begin(SpanName::EngineMutate, i);
                let receipt = self.engine.mutate(&[m]);
                tr.end();
                let ns = started.elapsed().as_nanos() as u64;
                tr.end();
                let outcome = match receipt {
                    Ok(r) if r.applied == 1 => Ok(None),
                    Ok(_) => Err(format!("{m:?} changed nothing")),
                    Err(reason) => Err(format!("{m:?} rejected: {reason:?}")),
                };
                (outcome, ns)
            }
            Op::Compact => {
                tr.begin(SpanName::Op, i);
                let started = Instant::now();
                tr.begin(SpanName::EngineCompact, i);
                self.engine.compact();
                tr.end();
                let ns = started.elapsed().as_nanos() as u64;
                tr.end();
                let outcome = if self.engine.overlay().is_empty() {
                    Ok(None)
                } else {
                    Err("overlay not empty after compact()".to_string())
                };
                (outcome, ns)
            }
            Op::Kernel { .. } => unreachable!("live_rw scripts no raw kernel ops"),
        }
    }

    fn check_back_on_base(&self, pass: &mut PassTimes) {
        let digest = live_engine_digest(&self.engine);
        if digest != self.base_digest {
            pass.fail(
                self.ops.len() - 1,
                format!(
                    "pass ended on digest {digest:#x}, base is {:#x}",
                    self.base_digest
                ),
            );
        }
    }

    /// The read made directly on the snapshot and overlay the engine holds.
    fn direct(&self, q: Query, delta: &EdgeDelta) -> Result<QueryOutput, String> {
        let snapshot = self.engine.store().snapshot();
        let overlay = self.engine.overlay();
        Ok(match q {
            Query::Degree { vertex } => {
                let (out, inc) = overlay.degree(snapshot.graph(), vertex).unwrap_or((0, 0));
                QueryOutput::Degree { out, inc }
            }
            Query::KHop { source, hops } => {
                QueryOutput::KHop(overlay.k_hop(snapshot.graph(), source, hops))
            }
            // Traversals are checked against the benchmark's own BFS over
            // the raw edge list and its own model of the mutations so far.
            Query::Run { source, .. } => QueryOutput::Workload(ServiceOutput::Levels(
                verify::bfs_levels(self.list, &self.offsets, Some(delta), source),
            )),
        })
    }
}

fn apply_to_model(delta: &mut EdgeDelta, m: &Mutation) {
    match *m {
        Mutation::AddEdge { u, v, .. } => {
            // Re-adding a pair the forward phase removed restores the base edge.
            if !delta.removed.remove(&(u, v)) {
                delta.added.entry(u).or_default().push(v);
            }
        }
        Mutation::RemoveEdge { u, v } => {
            let row = delta.added.entry(u).or_default();
            match row.iter().position(|&t| t == v) {
                Some(at) => {
                    row.swap_remove(at);
                }
                None => {
                    delta.removed.insert((u, v));
                }
            }
        }
        _ => unreachable!("live_rw only adds and removes edges"),
    }
}

impl Bench for LiveRw<'_> {
    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn warm_up(&mut self) -> PassTimes {
        let mut pass = PassTimes::new(self.ops.len());
        let mut off = Tracer::new();
        let mut delta = EdgeDelta::default();
        let mut forward: Vec<Mutation> = Vec::new();
        let mut compactions = 0;
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            if op == Op::Compact {
                if compactions == 0 {
                    // End of the forward phase: the engine's live state must
                    // equal the same mutations replayed through a fresh buffer.
                    let base = self.engine.store().snapshot();
                    let replay = MutationBuffer::new(base.epoch(), self.list.n as u32);
                    replay.apply(base.graph(), &forward);
                    if live_engine_digest(&self.engine)
                        != replay.current().live_digest(base.graph())
                    {
                        pass.fail(
                            i,
                            "live digest differs from a fresh replay of the forward phase",
                        );
                    }
                }
                compactions += 1;
            }
            let (outcome, ns) = self.run(i, &mut off);
            pass.ns[i] = ns;
            if let Op::Write(m) = op {
                apply_to_model(&mut delta, &m);
                if compactions == 0 {
                    forward.push(m);
                }
            }
            let verified = outcome.and_then(|output| match (op, output) {
                (Op::Read(q), Some(output)) => {
                    let direct = self.direct(q, &delta)?;
                    if output == direct {
                        Ok(output.digest())
                    } else if let Query::Run { .. } = q {
                        Err("levels differ from the reference BFS over base + mutations"
                            .to_string())
                    } else {
                        Err(format!("{output:?}, direct call says {direct:?}"))
                    }
                }
                _ => Ok(0),
            });
            match verified {
                Ok(digest) => self.expect[i] = digest,
                Err(e) => pass.fail(i, format!("{op:?}: {e}")),
            }
        }
        self.check_back_on_base(&mut pass);
        pass
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassTimes {
        let mut pass = PassTimes::new(self.ops.len());
        for i in 0..self.ops.len() {
            let (outcome, ns) = self.run(i, tr);
            pass.ns[i] = ns;
            let digest = outcome.map(|o| o.map_or(0, |o| o.digest()));
            check_digest(&mut pass, i, digest, self.expect[i]);
        }
        self.check_back_on_base(&mut pass);
        pass
    }
}
