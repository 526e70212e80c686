//! The layer-probe phase of a traced run: each layer's public function
//! called directly, on the same datasets and seed as the workloads, plus a
//! short replay of every workload's script for the numbers only a replay
//! shows (batch sizes, cache hit ratio, overlay growth). Per-layer numbers
//! explain end-to-end numbers; they are never gated.

use std::hint::black_box;
use std::time::Instant;

use graphbig_datagen::Dataset;
use graphbig_engine::cache::ResultCache;
use graphbig_engine::shard::ShardedGraph;
use graphbig_engine::{
    AdmissionController, Engine, EngineConfig, Mutation, MutationBuffer, Query, QueryOutput,
};
use graphbig_machine::CoreModel;
use graphbig_runtime::ThreadPool;
use graphbig_telemetry::metrics::Registry;
use graphbig_telemetry::recorder::{self, EventKind};
use graphbig_workloads::harness::{run_traced, RunParams};
use graphbig_workloads::msbfs;
use graphbig_workloads::service::ServiceGraph;
use graphbig_workloads::Workload;

use crate::dataset::{EdgeList, Kind};
use crate::report::Metrics;
use crate::score::{Class, PassTimes, Scores};
use crate::script::{self, Op};
use crate::trace::Tracer;
use crate::workload::bfs_storm::{self, BfsStorm};
use crate::workload::kernel_sweep;
use crate::workload::live_rw::{self, LiveRw};
use crate::workload::point_closed::PointClosed;
use crate::workload::{completed, engine_config, round_trip, Bench};

/// Raw calls are timed in blocks of this many.
const BLOCK: usize = 1024;
/// Builds, materializations and shared traversals (milliseconds each) are
/// the best of this many.
const BUILDS: usize = 12;

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Best block of `reps`: seconds per call of `f(rep, i)` over `BLOCK` calls.
fn best_block(reps: usize, mut f: impl FnMut(usize, usize)) -> f64 {
    best_of(reps, {
        let mut rep = 0;
        move || {
            let s = secs(|| (0..BLOCK).for_each(|i| f(rep, i)));
            rep += 1;
            s / BLOCK as f64
        }
    })
}

/// Warm up (verifying) and replay `passes` untraced passes.
pub fn replay(bench: &mut dyn Bench, passes: usize) -> Result<Scores, String> {
    let mut scores = Scores::new(&script::classes(bench.ops()));
    let mut off = Tracer::new();
    scores.fold(&bench.warm_up(), false);
    for _ in 0..passes {
        scores.fold(&bench.pass(&mut off), true);
    }
    match scores.first_failure.take() {
        Some(failure) => Err(failure),
        None => Ok(scores),
    }
}

/// Mean `best_i` in microseconds over the ops `pick` selects.
fn mean_us(scores: &Scores, ops: &[Op], pick: impl Fn(usize, &Op) -> bool) -> f64 {
    let picked: Vec<u64> = ops
        .iter()
        .enumerate()
        .filter(|(i, op)| pick(*i, op))
        .map(|(i, _)| scores.best_ns()[i])
        .collect();
    picked.iter().sum::<u64>() as f64 / picked.len().max(1) as f64 / 1e3
}

pub struct Probe<'a> {
    pub ldbc: &'a EdgeList,
    pub road: &'a EdgeList,
    pub seed: u64,
    /// Passes per replayed script.
    pub passes: usize,
    /// `VmRSS` delta across the first engine build of the process.
    pub first_engine_rss_bytes: f64,
}

impl Probe<'_> {
    /// Every layer metric that does not depend on the workload being traced.
    /// `point_engine` is the first engine the process built.
    pub fn run(
        &self,
        point_engine: Engine,
        point_registry: Registry,
        m: &mut Metrics,
    ) -> Result<(), String> {
        m.set("datagen.ldbc_generate_s", self.ldbc.generate_s);
        m.set("datagen.road_generate_s", self.road.generate_s);
        m.set(
            "engine.snapshot_bytes_per_edge",
            self.first_engine_rss_bytes / self.ldbc.edges.len() as f64,
        );
        self.builds_and_kernels(m)?;
        self.machine(m);
        let shard_degree_ns = self.engine_parts(&point_engine, m);
        self.round_trips(&point_engine, shard_degree_ns, m)?;
        self.delta(&point_engine, m);
        self.point_script(point_engine, point_registry, m)?;
        self.storm(m)?;
        self.live(m)
    }

    /// `framework`, `runtime`, `workloads`: builds and raw kernels.
    fn builds_and_kernels(&self, m: &mut Metrics) -> Result<(), String> {
        m.set(
            "framework.csr_build_s",
            best_of(BUILDS, || secs(|| drop(black_box(self.ldbc.csr())))),
        );
        m.set(
            "engine.shard_build_s",
            best_of(BUILDS, || {
                let csr = self.ldbc.csr();
                secs(|| drop(black_box(ShardedGraph::build(csr, engine_config().shards))))
            }),
        );
        let mut graph = None;
        m.set(
            "workloads.service_build_s",
            best_of(BUILDS, || {
                let csr = self.ldbc.csr();
                secs(|| graph = Some(ServiceGraph::build(csr)))
            }),
        );
        let graph = graph.expect("built at least once");

        let pool = ThreadPool::new(1);
        m.set(
            "runtime.broadcast_us",
            best_block(32, |_, _| pool.broadcast(|_| {})) * 1e6,
        );

        let offsets = self.ldbc.row_offsets();
        let sources = script::eligible_sources(self.ldbc, &offsets);
        let lanes: Vec<u32> = (0..msbfs::MSBFS_LANES)
            .map(|i| sources[i * sources.len() / msbfs::MSBFS_LANES])
            .collect();
        let shared = best_of(BUILDS, || {
            secs(|| drop(black_box(msbfs::msbfs_dir_opt(&pool, graph.bi(), &lanes))))
        });
        m.set(
            "workloads.msbfs64_lane_us",
            shared / lanes.len() as f64 * 1e6,
        );
        drop(pool);

        let mut sweep =
            kernel_sweep::Prepared::new(self.ldbc, self.road, self.seed).into_bench(graph);
        let scores = replay(&mut sweep, self.passes)?;
        let ops = sweep.ops();
        let kernel = |g: Kind, w: Workload| {
            mean_us(
                &scores,
                ops,
                |_, op| matches!(*op, Op::Kernel { graph, workload, .. } if graph == g && workload == w),
            )
        };
        m.set("workloads.bfs_ldbc_us", kernel(Kind::Ldbc, Workload::Bfs));
        m.set("workloads.bfs_road_us", kernel(Kind::Road, Workload::Bfs));
        m.set("workloads.spath_us", kernel(Kind::Ldbc, Workload::SPath));
        m.set("workloads.ccomp_us", kernel(Kind::Ldbc, Workload::CComp));
        m.set("workloads.kcore_us", kernel(Kind::Ldbc, Workload::KCore));
        Ok(())
    }

    /// `machine`: the paper's characterization half, as simulator throughput.
    fn machine(&self, m: &mut Metrics) {
        let mut graph = Dataset::Ldbc.generate_with_vertices(4096);
        let mut core = CoreModel::xeon();
        let s = secs(|| {
            drop(run_traced(
                Workload::Bfs,
                &mut graph,
                &RunParams::default(),
                &mut core,
            ))
        });
        m.set(
            "machine.sim_mevents_per_s",
            core.instructions() as f64 / 1e6 / s,
        );
    }

    /// `engine.shard`, `engine.store`, `engine.admission`, `engine.cache`,
    /// `telemetry`: the parts under a round trip, called alone. Returns the
    /// raw degree read in ns.
    fn engine_parts(&self, engine: &Engine, m: &mut Metrics) -> f64 {
        let snapshot = engine.store().snapshot();
        let graph = snapshot.graph();
        let n = graph.num_vertices();
        let vertex = |rep: usize, i: usize| ((rep * BLOCK + i) * 61 % n) as u32;

        let degree_ns = best_block(64, |r, i| {
            black_box(graph.degree(black_box(vertex(r, i))));
        }) * 1e9;
        m.set("engine.shard.degree_ns", degree_ns);
        m.set(
            "engine.shard.khop_us",
            best_block(16, |r, i| {
                black_box(graph.k_hop(vertex(r, i), 2));
            }) * 1e6,
        );
        m.set(
            "engine.store.snapshot_ns",
            best_block(64, |_, _| drop(black_box(engine.store().snapshot()))) * 1e9,
        );

        let admission = AdmissionController::new(64, u64::MAX);
        m.set(
            "engine.admission.cycle_ns",
            best_block(64, |_, _| {
                let _ = black_box(admission.try_admit(1));
                admission.on_start();
                admission.on_finish(1);
            }) * 1e9,
        );

        let counters = Registry::new();
        let cache = ResultCache::new(
            engine_config().cache_capacity,
            counters.counter("hit"),
            counters.counter("miss"),
            counters.counter("evict"),
        );
        let key = |i: usize| Query::Degree {
            vertex: (i % 512) as u32,
        };
        for i in 0..512 {
            cache.insert(1, 0, key(i), QueryOutput::Degree { out: 1, inc: 1 });
        }
        m.set(
            "engine.cache.get_ns",
            best_block(64, |_, i| drop(black_box(cache.get(1, 0, &key(i))))) * 1e9,
        );

        m.set(
            "telemetry.record_ns",
            best_block(64, |_, i| {
                recorder::record(EventKind::KernelStep, 0, i as u64)
            }) * 1e9,
        );
        degree_ns
    }

    /// `engine.engine`: round trips of single requests, against the raw
    /// read underneath them.
    fn round_trips(
        &self,
        engine: &Engine,
        shard_degree_ns: f64,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let n = engine.store().snapshot().graph().num_vertices();
        let mut off = Tracer::new();
        // A block of fresh keys per repetition (misses), or one key
        // repeated (hits after the first). Best block: mean round trip in
        // us, and the response's own mean queue_us and exec_us.
        let mut block =
            |query: &dyn Fn(u32) -> Query, fresh: bool| -> Result<(f64, f64, f64), String> {
                let mut best = (f64::INFINITY, 0.0, 0.0);
                for rep in 0..16 {
                    let (mut ns, mut queue_us, mut exec_us) = (0u64, 0u64, 0u64);
                    for i in 0..BLOCK {
                        let v = if fresh {
                            ((rep * BLOCK + i) * 67 + 1) % n
                        } else {
                            7 % n
                        };
                        let (response, took) = round_trip(engine, query(v as u32), i, &mut off);
                        let response = response?;
                        ns += took;
                        queue_us += response.queue_us;
                        exec_us += response.exec_us;
                        completed(Ok(response))?;
                    }
                    let per = |total: u64| total as f64 / BLOCK as f64;
                    if per(ns) < best.0 {
                        best = (per(ns), per(queue_us), per(exec_us));
                    }
                }
                Ok((best.0 / 1e3, best.1, best.2))
            };
        let (degree_us, queue_us, exec_us) = block(&|vertex| Query::Degree { vertex }, true)?;
        let (khop_cold_us, _, _) = block(&|source| Query::KHop { source, hops: 2 }, true)?;
        let (khop_hot_us, _, _) = block(&|source| Query::KHop { source, hops: 2 }, false)?;
        m.set("engine.roundtrip.degree_us", degree_us);
        m.set("engine.roundtrip.khop_cold_us", khop_cold_us);
        m.set("engine.roundtrip.khop_hot_us", khop_hot_us);
        m.set(
            "engine.overhead.degree_us",
            degree_us - shard_degree_ns / 1e3,
        );
        m.set("engine.queue_us.point", queue_us);
        m.set("engine.exec_us.point", exec_us);
        Ok(())
    }

    /// `engine.delta`: the overlay called alone, empty and at 1024 edges.
    fn delta(&self, engine: &Engine, m: &mut Metrics) {
        let snapshot = engine.store().snapshot();
        let base = snapshot.graph();
        let n = base.num_vertices();
        let offsets = self.ldbc.row_offsets();
        let adds: Vec<Mutation> = script::live_forward(self.seed, self.ldbc, &offsets)
            .into_iter()
            .filter(|w| matches!(w, Mutation::AddEdge { .. }))
            .collect();
        let one = |i: usize| [adds[i % adds.len()]];

        m.set(
            "engine.delta.apply_us_empty",
            best_of(64, || {
                let buffer = MutationBuffer::new(snapshot.epoch(), n as u32);
                secs(|| {
                    black_box(buffer.apply(base, &one(0)));
                })
            }) * 1e6,
        );
        let buffer = MutationBuffer::new(snapshot.epoch(), n as u32);
        buffer.apply(base, &adds);
        // Fill to 1024 overlay edges with pairs the script does not use.
        let mut filler = 0u32;
        while buffer.current().overlay_edges() < 1024 {
            filler += 1;
            buffer.apply(
                base,
                &[Mutation::AddEdge {
                    u: filler % n as u32,
                    v: (filler * 7919 + 13) % n as u32,
                    w: 1.0,
                }],
            );
        }
        let overlay = buffer.current();
        m.set(
            "engine.delta.bytes_per_edge",
            overlay.byte_size() as f64 / overlay.overlay_edges() as f64,
        );
        // Re-applying a present pair with a new weight changes state but
        // not the overlay's size.
        let mut i = 0usize;
        m.set(
            "engine.delta.apply_us_1k",
            best_of(64, || {
                i += 1;
                let Mutation::AddEdge { u, v, .. } = adds[i % adds.len()] else {
                    unreachable!()
                };
                secs(|| {
                    black_box(buffer.apply(base, &[Mutation::AddEdge { u, v, w: i as f32 }]));
                })
            }) * 1e6,
        );
        let vertex = |rep: usize, i: usize| ((rep * BLOCK + i) * 61 % n) as u32;
        m.set(
            "engine.delta.degree_ns",
            best_block(32, |r, i| {
                black_box(overlay.degree(base, vertex(r, i)));
            }) * 1e9,
        );
        m.set(
            "engine.delta.khop_us",
            best_block(16, |r, i| {
                black_box(overlay.k_hop(base, vertex(r, i), 2));
            }) * 1e6,
        );
        let shards = engine_config().shards;
        m.set(
            "engine.delta.materialize_ms",
            best_of(BUILDS, || {
                secs(|| drop(black_box(overlay.materialize(base, shards))))
            }) * 1e3,
        );
    }

    /// `engine.cache` hit ratio and `telemetry` recorder overhead, from
    /// replaying the point script.
    fn point_script(
        &self,
        engine: Engine,
        registry: Registry,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let mut bench = PointClosed::new(engine, registry, self.seed);
        let mut off = Tracer::new();
        let classes = script::classes(bench.ops());
        let mut warm = Scores::new(&classes);
        warm.fold(&bench.warm_up(), false);
        warm.fold(&bench.pass(&mut off), true); // reach the cache's steady state
        let (hits0, misses0) = bench.cache_counts();
        let (mut recording, mut paused) = (Scores::new(&classes), Scores::new(&classes));
        for _ in 0..self.passes {
            recording.fold(&bench.pass(&mut off), true);
            recorder::pause();
            let pass: PassTimes = bench.pass(&mut off);
            recorder::resume();
            paused.fold(&pass, true);
        }
        let (hits1, misses1) = bench.cache_counts();
        if let Some(failure) = warm
            .first_failure
            .or(recording.first_failure.take())
            .or(paused.first_failure.take())
        {
            return Err(failure);
        }
        let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
        m.set("engine.cache.hit_ratio", hits / (hits + misses));
        m.set(
            "telemetry.recorder_overhead_pct",
            (recording.pass_s() / paused.pass_s() - 1.0) * 100.0,
        );
        Ok(())
    }

    /// `engine.batch`: the storm script, batched and with batching off.
    fn storm(&self, m: &mut Metrics) -> Result<(), String> {
        let storm_on = |cfg: EngineConfig| {
            let registry = Registry::new();
            let engine = Engine::with_registry(cfg, self.ldbc.csr(), &registry);
            BfsStorm::new(engine, registry, self.ldbc, self.seed)
        };
        let mut batched = storm_on(bfs_storm::config());
        let mut scores = Scores::new(&script::classes(batched.ops()));
        scores.fold(&batched.warm_up(), false);
        let before = batched.batch_counts();
        let mut off = Tracer::new();
        for _ in 0..self.passes {
            scores.fold(&batched.pass(&mut off), true);
        }
        if let Some(failure) = scores.first_failure.take() {
            return Err(failure);
        }
        let after = batched.batch_counts();
        let batches = (after.0 - before.0).max(1) as f64;
        m.set("engine.batch.per_burst", batches / self.passes as f64);
        m.set(
            "engine.batch.lanes_mean",
            (after.1 - before.1) as f64 / batches,
        );
        m.set(
            "engine.batch.coalesce_us",
            (after.2 - before.2) as f64 / batches,
        );
        m.set("engine.submit_us", batched.submit_us());
        let (_, point_sojourn_us) = scores
            .class_mean_us(Class::Point)
            .expect("the storm has point reads");
        m.set("engine.storm.point_sojourn_us", point_sojourn_us);
        drop(batched);

        let mut unbatched = storm_on(EngineConfig {
            batch_max: 1,
            ..bfs_storm::config()
        });
        m.set(
            "engine.storm.unbatched_goodput_per_s",
            replay(&mut unbatched, self.passes.min(2))?.goodput_per_s(),
        );
        Ok(())
    }

    /// `engine.delta` through the engine: the live script.
    fn live(&self, m: &mut Metrics) -> Result<(), String> {
        let registry = Registry::new();
        let engine = Engine::with_registry(live_rw::config(), self.ldbc.csr(), &registry);
        let mut live = LiveRw::new(engine, registry, self.ldbc, self.seed);
        let scores = replay(&mut live, self.passes.min(2))?;
        let ops = live.ops();
        let first_compact = ops
            .iter()
            .position(|op| *op == Op::Compact)
            .expect("the script compacts");
        let forward_writes: Vec<usize> = (0..first_compact)
            .filter(|&i| matches!(ops[i], Op::Write(_)))
            .collect();
        let (head, tail) = (
            &forward_writes[..64],
            &forward_writes[forward_writes.len() - 64..],
        );
        m.set(
            "engine.mutate_us_first64",
            mean_us(&scores, ops, |i, _| head.contains(&i)),
        );
        m.set(
            "engine.mutate_us_last64",
            mean_us(&scores, ops, |i, _| tail.contains(&i)),
        );
        let is_bfs = |op: &Op| matches!(op, Op::Read(Query::Run { .. }));
        m.set(
            "engine.bfs_overlay_us",
            mean_us(&scores, ops, |i, op| i < first_compact && is_bfs(op)),
        );
        m.set(
            "engine.bfs_clean_us",
            mean_us(&scores, ops, |i, op| i > first_compact && is_bfs(op)),
        );
        m.set("engine.compact.pause_us", live.compact_pause_us());
        Ok(())
    }
}
