//! One run of one workload: pin, generate, set up, replay, score, print.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use graphbig_engine::{Engine, EngineConfig};
use graphbig_framework::csr::Csr;
use graphbig_json::{Json, ObjBuilder};
use graphbig_telemetry::metrics::Registry;
use graphbig_workloads::service::ServiceGraph;

use crate::dataset::{self, EdgeList, Kind};
use crate::probe::Probe;
use crate::report::{result_object, Declarations, Declared, Metrics};
use crate::score::{Class, Scores};
use crate::script;
use crate::sys;
use crate::trace::{SpanName, Tracer};
use crate::workload::bfs_storm::{self, BfsStorm};
use crate::workload::kernel_sweep;
use crate::workload::live_rw::{self, LiveRw};
use crate::workload::point_closed::PointClosed;
use crate::workload::{engine_config, Bench};

/// The gated scale: LDBC-2048 (54 k edges) and CaRoad-2048. Small on
/// purpose: identical compute-bound work on this shared box runs in a fast
/// state or a 1.55x slower one, in its busy hours the fast state comes in
/// glimpses of under a millisecond, and only the minimum over many hundreds
/// of repetitions of an op that fits such a glimpse repeats from run to run
/// (README, "Noise"). A graph that keeps the longest op (a compaction) near
/// 5 ms buys those repetitions; `--vertices` runs the ROADMAP's larger
/// scales, ungated, and `peak_rss_mb` is read at `RSS_VERTICES`.
const DEFAULT_VERTICES: usize = 1 << 11;
/// The scale `peak_rss_mb` is read at, in a child process with the default
/// allocator: LDBC-65536 (1.87 M edges), where the serving state and not the
/// process's fixed overhead is what is resident.
const RSS_VERTICES: usize = 1 << 16;
const QUICK_PASSES: usize = 2;
/// A run is this many segments, each with its own serving state: build it,
/// warm up and verify, replay an equal share of the passes, drop it. Scores
/// are best-of over all segments, so an op's best is not tied to the luck of
/// one engine instance (instances differ by +-4 %).
const SEGMENTS: usize = 8;
/// Timed serving-state builds per segment (about 5 ms each): the one the
/// segment replays on, then throwaway ones between its passes, so `setup_s`
/// samples the whole run and not eight 150 ms windows of it (a build is too
/// long to meet the machine's fast state in every window).
const SETUP_BUILDS: usize = 32;
const QUICK_SETUP_BUILDS: usize = 2;
/// At most every other pass is followed by a throwaway build, so every op
/// keeps passes whose caches no build has just emptied.
const MIN_BUILD_STRIDE: usize = 2;
/// Passes per replayed script in the layer-probe phase.
const PROBE_PASSES: usize = 8;

/// The fixed pass count `P`, sized so the timed passes with their digest
/// checks take 15 s with the box in its quiet state and about
/// BENCHMARK.json's `run_seconds` in its busy one: one pass then takes about
/// 17 ms, 16 ms, 8 ms and 42 ms. P is large on purpose: simulated on a
/// recorded trace of this box, the best of 70 repetitions of a short op
/// ranges 32 % between 16 s windows, of 320 18 %, of 1700 9 %.
fn default_passes(workload: &str) -> usize {
    match workload {
        "kernel_sweep" => 1100,
        "point_closed" => 1100,
        "bfs_storm" => 2400,
        "live_rw" => 480,
        other => unreachable!("unknown workload {other}"),
    }
}

#[derive(Default)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Option<u64>,
    pub trace: bool,
    pub passes: Option<usize>,
    pub vertices: Option<usize>,
    pub quick: bool,
    pub record: Option<PathBuf>,
}

/// `Csr::from_edges` and serving-state build times, one entry per build.
#[derive(Default)]
struct Setup {
    csr_s: Vec<f64>,
    build_s: Vec<f64>,
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

impl Setup {
    /// Best CSR build plus best serving-state build: interference only adds.
    fn best_s(&self) -> f64 {
        best(&self.csr_s) + best(&self.build_s)
    }

    /// One timed build of a serving state from the edge list. The generator
    /// and the file read are not in it.
    fn timed<S>(&mut self, list: &EdgeList, build: impl FnOnce(Csr) -> S) -> S {
        let started = Instant::now();
        let csr = list.csr();
        self.csr_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let state = build(csr);
        self.build_s.push(started.elapsed().as_secs_f64());
        state
    }
}

struct Data {
    ldbc: EdgeList,
    road: Option<EdgeList>,
}

/// The class means `workload` reports as its own, ISSUE 17's table. On every
/// other class it reports its time per op, `pass_s / ops`: the driver
/// requires every workload to print every end-to-end metric, so a class that
/// is not a workload's own repeats what `goodput_per_s` gates instead of
/// being absent. `bfs_storm`'s 28 `KHop` sojourns are not its own: they only
/// measure where the burst's first batches happen to put them (per-layer
/// `engine.storm.point_sojourn_us`).
fn own_classes(workload: &str) -> &'static [Class] {
    match workload {
        "kernel_sweep" => &[Class::Traversal, Class::Analytics],
        "point_closed" => &[Class::Point],
        "bfs_storm" => &[Class::Traversal],
        "live_rw" => &[Class::Point, Class::Traversal, Class::Write, Class::Compact],
        other => unreachable!("unknown workload {other}"),
    }
}

/// The engine configuration of `workload`; `None` for `kernel_sweep`, whose
/// serving state is a bare `ServiceGraph`.
fn config_of(workload: &str) -> Option<EngineConfig> {
    match workload {
        "kernel_sweep" => None,
        "point_closed" => Some(engine_config()),
        "bfs_storm" => Some(bfs_storm::config()),
        "live_rw" => Some(live_rw::config()),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Set `workload` up over `data` with one timed build of its serving state.
fn make_bench<'a>(
    workload: &str,
    data: &'a Data,
    seed: u64,
    setup: &mut Setup,
) -> Box<dyn Bench + 'a> {
    let ldbc = &data.ldbc;
    let Some(cfg) = config_of(workload) else {
        let road = data
            .road
            .as_ref()
            .expect("kernel_sweep loads the road graph");
        let prepared = kernel_sweep::Prepared::new(ldbc, road, seed);
        return Box::new(prepared.into_bench(setup.timed(ldbc, ServiceGraph::build)));
    };
    let registry = Registry::new();
    let engine = setup.timed(ldbc, |csr| Engine::with_registry(cfg, csr, &registry));
    match workload {
        "point_closed" => Box::new(PointClosed::new(engine, registry, seed)),
        "bfs_storm" => Box::new(BfsStorm::new(engine, registry, ldbc, seed)),
        _ => Box::new(LiveRw::new(engine, registry, ldbc, seed)),
    }
}

/// One more timed build of `workload`'s serving state, dropped at once.
fn throwaway_build(workload: &str, list: &EdgeList, setup: &mut Setup) {
    match config_of(workload) {
        None => drop(setup.timed(list, ServiceGraph::build)),
        Some(cfg) => {
            let registry = Registry::new();
            drop(setup.timed(list, |csr| Engine::with_registry(cfg, csr, &registry)));
        }
    }
}

fn print_scores(scores: &Scores) {
    println!(
        "info ops_per_pass={} passes={} pass_s={:.6} noise_ratio={:.4}",
        scores.ops(),
        scores.passes(),
        scores.pass_s(),
        scores.noise_ratio()
    );
    for class in Class::ALL {
        if let Some((n, us)) = scores.class_mean_us(class) {
            println!("info class {} {us:.4} us over {n} ops", class.metric());
        }
    }
    let passes: Vec<String> = scores
        .pass_seconds()
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!("info raw_pass_s {}", passes.join(" "));
    let raw = scores.raw();
    println!(
        "info raw_p50_us={:.3} raw_p99_us={:.3} samples={}",
        raw.quantile_ns(0.5) / 1e3,
        raw.quantile_ns(0.99) / 1e3,
        raw.count()
    );
}

/// The untraced run: the end-to-end metrics. `make` sets the workload up
/// with one timed build, `rebuild` times one more build and drops it. A
/// failed op ends the run; with no timed pass behind it (the warm-up
/// failed) there is nothing to score and `m` stays empty.
fn end_to_end<'a>(
    passes: usize,
    builds: usize,
    own: &[Class],
    peak_rss_mb: f64,
    mut make: impl FnMut(&mut Setup) -> Box<dyn Bench + 'a>,
    mut rebuild: impl FnMut(&mut Setup),
    m: &mut Metrics,
) -> Scores {
    let segments = SEGMENTS.min(passes);
    let stride = (passes / segments / builds.max(1)).max(MIN_BUILD_STRIDE);
    let mut setup = Setup::default();
    let mut scores: Option<Scores> = None;
    let mut off = Tracer::new();
    'run: for segment in 0..segments {
        let mut bench = make(&mut setup);
        let scores = scores.get_or_insert_with(|| Scores::new(&script::classes(bench.ops())));
        scores.fold(&bench.warm_up(), false);
        let mut built = 1;
        for pass in 0.. {
            if scores.failed > 0 {
                break 'run;
            }
            if scores.passes() >= passes * (segment + 1) / segments {
                break;
            }
            scores.fold(&bench.pass(&mut off), true);
            if built < builds && (pass + 1) % stride == 0 {
                rebuild(&mut setup);
                built += 1;
            }
        }
    }
    let scores = scores.expect("at least one segment");
    if scores.passes() == 0 {
        return scores;
    }
    print_scores(&scores);
    println!(
        "info setup csr_build_s best {:.5} serving_build_s best {:.5} over {} builds",
        best(&setup.csr_s),
        best(&setup.build_s),
        setup.build_s.len()
    );
    let samples: Vec<String> = setup.build_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("info serving_build_s {}", samples.join(" "));
    m.set("setup_s", setup.best_s());
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("goodput_per_s", scores.goodput_per_s());
    for class in Class::ALL {
        let us = match scores.class_mean_us(class) {
            Some((_, us)) if own.contains(&class) => us,
            _ => scores.time_per_op_us(),
        };
        m.set(class.metric(), us);
    }
    scores
}

/// The traced run: interleaved traced and untraced passes of the workload,
/// then the layer probes. End-to-end numbers never come from here.
fn traced(args: &Args, data: &Data, passes: usize, m: &mut Metrics) -> Result<Scores, String> {
    let road = data.road.as_ref().expect("traced runs load the road graph");
    // The first engine of the process: the resident set it adds is the
    // snapshot's footprint.
    let rss_before = sys::rss_bytes().unwrap_or(0.0);
    let point_registry = Registry::new();
    let point_engine = Engine::with_registry(engine_config(), data.ldbc.csr(), &point_registry);
    let first_engine_rss_bytes = sys::rss_bytes().unwrap_or(0.0) - rss_before;

    let mut bench = make_bench(&args.workload, data, args.seed, &mut Setup::default());
    let classes = script::classes(bench.ops());
    let (mut plain, mut with_spans) = (Scores::new(&classes), Scores::new(&classes));
    let mut tracer = Tracer::new();
    plain.fold(&bench.warm_up(), false);
    for _ in 0..passes {
        tracer.set_enabled(true);
        with_spans.fold(&bench.pass(&mut tracer), true);
        tracer.set_enabled(false);
        plain.fold(&bench.pass(&mut tracer), true);
    }
    drop(bench);
    plain.attempted += with_spans.attempted;
    plain.failed += with_spans.failed;
    if plain.first_failure.is_none() {
        plain.first_failure = with_spans.first_failure.take();
    }
    print_scores(&plain);

    m.set(
        "trace.overhead_pct",
        (with_spans.pass_s() / plain.pass_s() - 1.0) * 100.0,
    );
    m.set("trace.spans", tracer.span_count() as f64);
    let self_total = tracer.self_total_ns().max(1) as f64;
    println!("span                     count      total_ms     self_ms      self_%");
    for name in SpanName::ALL {
        let t = tracer.totals(name);
        let pct = t.self_ns as f64 / self_total * 100.0;
        println!(
            "span {:<24} {:<10} {:<12.3} {:<12.3} {pct:.2}",
            name.name(),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        m.set(&format!("trace.self_pct.{}", name.name()), pct);
    }
    let engine_spans: u64 = SpanName::ALL
        .iter()
        .filter(|n| n.is_engine())
        .map(|&n| tracer.totals(n).count)
        .sum();
    println!("info engine_spans={engine_spans}");
    m.set("bench.noise_ratio", plain.noise_ratio());
    m.set("bench.raw_p50_us", plain.raw().quantile_ns(0.5) / 1e3);
    m.set("bench.raw_p99_us", plain.raw().quantile_ns(0.99) / 1e3);
    m.set("bench.raw_samples", plain.raw().count() as f64);

    let trace_path =
        sys::scratch_dir().join(format!("graphbig-benchmark-{}.trace.json", args.workload));
    tracer
        .write_chrome(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "info chrome_trace={} spans_written={}",
        trace_path.display(),
        tracer.kept().len()
    );
    drop(tracer);

    Probe {
        ldbc: &data.ldbc,
        road,
        seed: args.seed,
        passes: passes.min(PROBE_PASSES),
        first_engine_rss_bytes,
    }
    .run(point_engine, point_registry, m)?;

    // Where the ROADMAP's 2.9 us degree read and 258 ms rebuild go.
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let (rt, q, x) = (
        get("engine.roundtrip.degree_us"),
        get("engine.queue_us.point"),
        get("engine.exec_us.point"),
    );
    println!(
        "reconcile engine.roundtrip.degree_us {rt:.3} = engine.queue_us.point {q:.3} + engine.exec_us.point {x:.3} + remainder {:.3} us (raw read {:.4} us)",
        rt - q - x,
        get("engine.shard.degree_ns") / 1e3
    );
    println!(
        "reconcile engine.bfs_overlay_us - engine.bfs_clean_us = {:.3} ms beside engine.delta.materialize_ms {:.3} ms",
        (get("engine.bfs_overlay_us") - get("engine.bfs_clean_us")) / 1e3,
        get("engine.delta.materialize_ms")
    );
    Ok(plain)
}

/// Body of the `rss` subcommand: `workload` set up once on LDBC-`vertices`
/// and warmed up (every answer verified) in a process that does nothing else
/// and leaves the allocator alone. Prints the ops attempted and the
/// process's `VmHWM`.
pub fn rss_child(workload: &str, seed: u64, vertices: usize) -> Result<bool, String> {
    let data = load(workload, false, vertices)?;
    let mut bench = make_bench(workload, &data, seed, &mut Setup::default());
    let pass = bench.warm_up();
    drop(bench);
    if let Some(failure) = &pass.first_failure {
        eprintln!("FAILED at {vertices} vertices: {failure}");
    }
    let peak = sys::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    println!("rss attempted={} peak_rss_mb={peak}", pass.ns.len());
    Ok(pass.failed == 0)
}

/// Run the `rss` subcommand in a child process and wait for it: `(ops it
/// attempted, its peak resident set in MB)`.
fn child_peak_rss(workload: &str, seed: u64, vertices: usize) -> Result<(u64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["rss", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--vertices", &vertices.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn rss child: {e}"))?;
    if !output.status.success() {
        return Err(format!("rss child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| {
        stdout
            .split_whitespace()
            .find_map(|word| word.strip_prefix(key))
            .ok_or_else(|| format!("rss child printed no {key}: {stdout:?}"))
    };
    let attempted = field("attempted=")?.parse::<u64>();
    let peak = field("peak_rss_mb=")?.parse::<f64>();
    match (attempted, peak) {
        (Ok(attempted), Ok(peak)) => Ok((attempted, peak)),
        _ => Err(format!("rss child printed {stdout:?}")),
    }
}

/// The `metric` lines and the result object of a run. A failed warm-up
/// leaves no timed pass and so no metric to print.
fn outcome(
    scores: &Scores,
    metrics: &Metrics,
    declared: &[Declared],
) -> Result<(Vec<String>, Json), String> {
    let (lines, object) = if scores.passes() == 0 {
        (Vec::new(), ObjBuilder::new().build())
    } else {
        metrics.render(declared)?
    };
    let correct = scores.failed == 0;
    let result = result_object(correct, scores.attempted, scores.failed, object);
    Ok((lines, result))
}

/// Generate (in child processes) the datasets `workload` runs on.
fn load(workload: &str, trace: bool, vertices: usize) -> Result<Data, String> {
    let scratch = sys::scratch_dir();
    let ldbc = dataset::generate(Kind::Ldbc, vertices, &scratch)?;
    let road = (trace || workload == "kernel_sweep")
        .then(|| dataset::generate(Kind::Road, vertices, &scratch))
        .transpose()?;
    Ok(Data { ldbc, road })
}

pub fn run(args: Args) -> Result<bool, String> {
    let declared = Declarations::load()?;
    let nproc = sys::nproc();
    // Before any thread exists, so every thread inherits the one CPU.
    let pinned = sys::pin_to_highest_cpu();
    if pinned.is_none() {
        eprintln!("warning: could not pin to one CPU; this run is marked unpinned");
    }
    let heap_retained = sys::retain_freed_memory();
    if !heap_retained {
        eprintln!("warning: could not configure the allocator; freed memory goes back to the OS");
    }
    // `P` is a constant: `--seconds` is what the driver says a run measures
    // for, and any value but BENCHMARK.json's only marks the run.
    let seconds = args.seconds.unwrap_or(declared.run_seconds);
    let non_default = args.quick
        || args.passes.is_some()
        || args.vertices.is_some()
        || seconds != declared.run_seconds;
    let vertices = args.vertices.unwrap_or(DEFAULT_VERTICES);
    let passes = match (args.passes, args.quick, args.trace) {
        (Some(p), _, _) => p.max(1),
        (None, true, _) => QUICK_PASSES,
        // A traced run replays an eighth of P traced and as many untraced.
        (None, false, true) => default_passes(&args.workload) / 8,
        (None, false, false) => default_passes(&args.workload),
    };
    let data = load(&args.workload, args.trace, vertices)?;

    let env = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("vertices", vertices.to_string()),
        ("edges", data.ldbc.edges.len().to_string()),
        ("passes", passes.to_string()),
        ("seconds", seconds.to_string()),
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            pinned.map_or("unpinned".to_string(), |c| c.to_string()),
        ),
        (
            "heap",
            if heap_retained { "retained" } else { "default" }.to_string(),
        ),
        ("git_rev", sys::git_rev()),
        ("rustc", sys::rustc_version().to_string()),
        ("non_default", non_default.to_string()),
    ];
    let env_line: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("env {}", env_line.join(" "));

    let mut metrics = Metrics::default();
    let (scores, declared_set) = if args.trace {
        (
            traced(&args, &data, passes, &mut metrics)?,
            &declared.per_layer,
        )
    } else {
        let rss_vertices = if args.quick {
            vertices
        } else {
            vertices.max(RSS_VERTICES)
        };
        let (rss_ops, peak_rss_mb) = child_peak_rss(&args.workload, args.seed, rss_vertices)?;
        println!("info peak_rss_mb read in a child at {rss_vertices} vertices, {rss_ops} ops verified there");
        let builds = if args.quick {
            QUICK_SETUP_BUILDS
        } else {
            SETUP_BUILDS
        };
        let mut scores = end_to_end(
            passes,
            builds,
            own_classes(&args.workload),
            peak_rss_mb,
            |setup| make_bench(&args.workload, &data, args.seed, setup),
            |setup| throwaway_build(&args.workload, &data.ldbc, setup),
            &mut metrics,
        );
        scores.attempted += rss_ops;
        (scores, &declared.end_to_end)
    };
    let (lines, result) = outcome(&scores, &metrics, declared_set)?;
    lines.iter().for_each(|l| println!("{l}"));
    if let Some(failure) = &scores.first_failure {
        eprintln!(
            "FAILED {} of {} ops; first: {failure}",
            scores.failed, scores.attempted
        );
    }
    if let Some(path) = &args.record {
        let env_json = env
            .iter()
            .fold(ObjBuilder::new(), |o, (k, v)| {
                o.push(k, Json::Str(v.clone()))
            })
            .build();
        let record = ObjBuilder::new()
            .push("workload", Json::Str(args.workload.clone()))
            .push("seed", Json::Num(args.seed as f64))
            .push("env", env_json)
            .push("result", result.clone())
            .build()
            .to_compact()
            + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.to_compact());
    Ok(scores.failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn small_data() -> Data {
        Data {
            ldbc: dataset::generate_here(Kind::Ldbc, 1024),
            road: Some(dataset::generate_here(Kind::Road, 1024)),
        }
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            trace,
            quick: true,
            ..Args::default()
        }
    }

    fn run_end_to_end(
        name: &str,
        data: &Data,
        wrap: impl Fn(Box<dyn Bench + '_>) -> Box<dyn Bench + '_>,
        m: &mut Metrics,
    ) -> Scores {
        end_to_end(
            2,
            QUICK_SETUP_BUILDS,
            own_classes(name),
            12.5,
            |setup| wrap(make_bench(name, data, 3, setup)),
            |setup| throwaway_build(name, &data.ldbc, setup),
            m,
        )
    }

    #[test]
    fn every_workload_verifies_and_prints_exactly_the_declared_end_to_end_metrics() {
        let declared = Declarations::load().unwrap();
        let data = small_data();
        for name in workload::NAMES {
            let mut m = Metrics::default();
            let scores = run_end_to_end(name, &data, |bench| bench, &mut m);
            assert_eq!(scores.first_failure, None, "{name}");
            assert_eq!((scores.failed, scores.passes()), (0, 2), "{name}");
            assert_eq!(
                scores.attempted,
                4 * scores.ops() as u64,
                "{name}: two segments of warm-up + pass"
            );
            let (lines, json) = m.render(&declared.end_to_end).expect(name);
            assert_eq!(lines.len(), declared.end_to_end.len());
            for d in &declared.end_to_end {
                let value = json
                    .get(&d.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap();
                assert!(value > 0.0, "{name}: {} = {value}", d.name);
                let unit = json
                    .get(&d.name)
                    .and_then(|v| v.get("unit"))
                    .and_then(Json::as_str);
                assert_eq!(unit, Some(d.unit.as_str()));
            }
            // A workload's own classes are in its script; any other class
            // repeats the time per op.
            for class in Class::ALL {
                let want = if own_classes(name).contains(&class) {
                    scores.class_mean_us(class).expect(name).1
                } else {
                    1e6 / scores.goodput_per_s()
                };
                let got = m.get(class.metric()).unwrap();
                assert!((got / want - 1.0).abs() < 1e-9, "{name} {class:?}");
            }
        }
    }

    /// A bench whose warm-up reports a verifier failure on its first op.
    struct FailingWarmUp<'a>(Box<dyn Bench + 'a>);

    impl Bench for FailingWarmUp<'_> {
        fn ops(&self) -> &[script::Op] {
            self.0.ops()
        }
        fn warm_up(&mut self) -> crate::score::PassTimes {
            let mut pass = self.0.warm_up();
            pass.fail(0, "injected");
            pass
        }
        fn pass(&mut self, _: &mut Tracer) -> crate::score::PassTimes {
            panic!("no pass may follow a failed warm-up")
        }
    }

    #[test]
    fn a_failed_warm_up_ends_the_run_with_its_reason_and_no_metrics() {
        let data = small_data();
        let mut m = Metrics::default();
        let scores = run_end_to_end(
            "point_closed",
            &data,
            |bench| Box::new(FailingWarmUp(bench)),
            &mut m,
        );
        assert_eq!((scores.failed, scores.passes()), (1, 0));
        assert_eq!(scores.attempted, scores.ops() as u64);
        assert_eq!(scores.first_failure.as_deref(), Some("op 0: injected"));
        assert_eq!(m.get("setup_s"), None, "nothing was scored");
        let declared = Declarations::load().unwrap();
        let (lines, result) = outcome(&scores, &m, &declared.end_to_end).unwrap();
        assert!(lines.is_empty());
        assert_eq!(
            result.to_compact(),
            r#"{"correct":false,"attempted":2048,"failed":1,"metrics":{}}"#
        );
    }

    #[test]
    fn a_traced_run_prints_exactly_the_declared_per_layer_metrics() {
        let declared = Declarations::load().unwrap();
        let data = small_data();
        let mut m = Metrics::default();
        let scores = traced(&args("live_rw", true), &data, 2, &mut m).unwrap();
        assert_eq!(scores.first_failure, None);
        let (lines, _) = m.render(&declared.per_layer).unwrap();
        assert_eq!(lines.len(), declared.per_layer.len());
        // live_rw records engine spans and never calls a raw kernel.
        assert!(m.get("trace.self_pct.engine.mutate").unwrap() > 0.0);
        assert_eq!(m.get("trace.self_pct.workloads.run_service"), Some(0.0));

        let mut m = Metrics::default();
        traced(&args("kernel_sweep", true), &data, 2, &mut m).unwrap();
        m.render(&declared.per_layer).unwrap();
        // kernel_sweep records no engine span at all.
        for span in SpanName::ALL.iter().filter(|s| s.is_engine()) {
            assert_eq!(m.get(&format!("trace.self_pct.{}", span.name())), Some(0.0));
        }
    }
}
