//! `kernel_sweep`: raw kernel time-to-solution, engine bypassed.
//!
//! `run_service` straight on a `ServiceGraph`, on two topologies. LDBC BFS
//! is edge-bound (`workloads`); road BFS is hundreds of tiny levels, so it
//! is bound by the per-level hand-off to the pool (`runtime`). Nothing in
//! `engine` runs: an engine change that moves these numbers is a bug.

use std::time::Instant;

use graphbig_runtime::{CancelToken, ThreadPool};
use graphbig_workloads::service::{run_service, ServiceGraph, ServiceOutput};

use super::{check_digest, Bench};
use crate::dataset::{EdgeList, Kind};
use crate::score::PassTimes;
use crate::script::{self, Op};
use crate::trace::{SpanName, Tracer};
use crate::verify;

/// Everything the verifiers need that is costly in memory, computed from
/// the raw edge lists before the serving state exists so it never shares
/// the peak resident set with it.
pub struct Prepared<'a> {
    ldbc: &'a EdgeList,
    road: &'a EdgeList,
    ldbc_offsets: Vec<u32>,
    road_offsets: Vec<u32>,
    ldbc_cores: Vec<u32>,
    road_cores: Vec<u32>,
    ops: Vec<Op>,
}

impl<'a> Prepared<'a> {
    pub fn new(ldbc: &'a EdgeList, road: &'a EdgeList, seed: u64) -> Self {
        let ldbc_offsets = ldbc.row_offsets();
        let road_offsets = road.row_offsets();
        let ops = script::kernel_sweep(
            seed,
            &script::eligible_sources(ldbc, &ldbc_offsets),
            &script::eligible_sources(road, &road_offsets),
        );
        Prepared {
            ldbc_cores: verify::core_numbers(ldbc),
            road_cores: verify::core_numbers(road),
            ldbc,
            road,
            ldbc_offsets,
            road_offsets,
            ops,
        }
    }

    pub fn into_bench(self, ldbc_graph: ServiceGraph) -> KernelSweep<'a> {
        KernelSweep {
            pool: ThreadPool::new(1),
            road_graph: ServiceGraph::build(self.road.csr()),
            ldbc_graph,
            never: CancelToken::never(),
            expect: vec![0; self.ops.len()],
            prepared: self,
        }
    }
}

pub struct KernelSweep<'a> {
    pool: ThreadPool,
    ldbc_graph: ServiceGraph,
    road_graph: ServiceGraph,
    never: CancelToken,
    expect: Vec<u64>,
    prepared: Prepared<'a>,
}

impl KernelSweep<'_> {
    fn run(&self, op: &Op, i: usize, tr: &mut Tracer) -> (Result<ServiceOutput, String>, u64) {
        let Op::Kernel {
            graph,
            workload,
            source,
        } = *op
        else {
            unreachable!("kernel_sweep scripts only kernel ops")
        };
        let g = match graph {
            Kind::Ldbc => &self.ldbc_graph,
            Kind::Road => &self.road_graph,
        };
        tr.begin(SpanName::Op, i);
        let started = Instant::now();
        tr.begin(SpanName::RunService, i);
        let output = run_service(workload, &self.pool, g, source, &self.never);
        tr.end();
        let ns = started.elapsed().as_nanos() as u64;
        tr.end();
        (output.map_err(|e| e.to_string()), ns)
    }

    fn verify(&self, op: &Op, output: &ServiceOutput) -> Result<(), String> {
        let Op::Kernel { graph, source, .. } = *op else {
            unreachable!()
        };
        let p = &self.prepared;
        let (list, offsets, cores) = match graph {
            Kind::Ldbc => (p.ldbc, &p.ldbc_offsets, &p.ldbc_cores),
            Kind::Road => (p.road, &p.road_offsets, &p.road_cores),
        };
        match output {
            ServiceOutput::Levels(levels) => {
                verify::check_levels(levels, &verify::bfs_levels(list, offsets, None, source))
            }
            ServiceOutput::Distances(dist) => {
                let reach = verify::bfs_levels(list, offsets, None, source);
                verify::check_distances(list, source, dist, &reach)
            }
            ServiceOutput::Labels(labels) => {
                verify::check_partition(labels, &verify::union_find_roots(list))
            }
            ServiceOutput::Cores(got) if got == cores => Ok(()),
            ServiceOutput::Cores(_) => Err("core numbers differ from the peeling reference".into()),
            other => Err(format!("unexpected output shape {other:?}")),
        }
    }
}

impl Bench for KernelSweep<'_> {
    fn ops(&self) -> &[Op] {
        &self.prepared.ops
    }

    fn warm_up(&mut self) -> PassTimes {
        let mut pass = PassTimes::new(self.prepared.ops.len());
        let mut off = Tracer::new();
        for i in 0..self.prepared.ops.len() {
            let op = self.prepared.ops[i];
            let (output, ns) = self.run(&op, i, &mut off);
            pass.ns[i] = ns;
            match output.and_then(|o| self.verify(&op, &o).map(|()| o.digest())) {
                Ok(digest) => self.expect[i] = digest,
                Err(e) => pass.fail(i, format!("{op:?}: {e}")),
            }
        }
        pass
    }

    fn pass(&mut self, tr: &mut Tracer) -> PassTimes {
        let mut pass = PassTimes::new(self.prepared.ops.len());
        for (i, op) in self.prepared.ops.iter().enumerate() {
            let (output, ns) = self.run(op, i, tr);
            pass.ns[i] = ns;
            check_digest(&mut pass, i, output.map(|o| o.digest()), self.expect[i]);
        }
        pass
    }
}
