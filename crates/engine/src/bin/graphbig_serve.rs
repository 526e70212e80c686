//! `graphbig-serve`: closed-loop serving benchmark for the query engine.
//!
//! Loads (or generates) a dataset, stands up an [`Engine`], replays a
//! seeded multi-tenant request mix ([`MixSpec`]) closed-loop, and reports
//! throughput plus per-class p50/p99/p999 latency. With `--oracle` every
//! completed concurrent result is cross-checked against the same queries
//! run sequentially; any mismatch exits non-zero.
//!
//! ```text
//! graphbig-serve --vertices 65536 --clients 4 --requests 400 --oracle \
//!     --emit results/engine_run.json
//! graphbig-serve --mix traffic/smoke_200.json --oracle --quiet
//! ```
//!
//! Flags: `--dataset <short-name>` (default `ldbc`), `--vertices N`,
//! `--mix <path>` (a [`MixSpec`] JSON file; overrides the request-shape flags),
//! `--requests`, `--clients`, `--seed`, `--point-weight`, `--traversal-weight`,
//! `--analytics-weight`, `--write-weight` (edge mutations in the mix; 0 =
//! pure-read), `--write-delete-percent`, `--deadline-ms`, `--hot-sources N`
//! (fold every source into a pool of N hot vertices), `--khop-hops N`,
//! `--executors`, `--pool-threads N` (shares per kernel region, the calling
//! executor's included, so N − 1 pool threads), `--queue-capacity`,
//! `--cost-budget` (0 = unlimited), `--shards`, `--compact-threshold N`
//! (buffered overlay edges that wake the background compactor; 0 = manual
//! only), `--oracle`, `--emit <path>`, `--quiet`, `--faults <path>` (a
//! `FaultPlan` JSON file — replay the mix under deterministic fault injection
//! and sweep the chaos invariants).
//!
//! With `--oracle` on a pure-read mix, every completed result is checked
//! bit-identical against a sequential replay. On a mix with writes the
//! per-request check gives way to the final-state check: the engine's
//! live graph (mid-overlay, and again after a forced compaction) must
//! digest-identical to a single-threaded sequential replay of the same
//! write stream over the starting snapshot.
//!
//! Admission charges each query its static `Query::cost` estimate against
//! `--cost-budget`. Serving flags: `--cache-capacity N` (epoch-keyed result
//! cache entries; 0 disables), `--batch-max N` (BFS requests coalesced
//! into one shared multi-source pass; 1 disables) with
//! `--batch-window-us N` (how long a BFS group waits for joiners, counted
//! from its first member's admission; 0 takes only what is queued; the
//! idle time an executor spends waiting is `engine.batch.coalesce_us`).
//! Both are BFS only: point reads never wait for a group.
//! `--slo <path>` names a [`SloSpec`] JSON file with per-class p99/p999
//! targets in microseconds; it overrides the mix file's `slo` member.
//! Targets are stamped onto every stats line and
//! checked against the exact end-of-run latencies — the verdict lands in
//! the manifest as `slo.checked`/`slo.violations`, which
//! `graphbig-report --check` gates on.
//!
//! Observability flags: `--stats-interval <ms>` prints a structured
//! stats snapshot line (schema `graphbig.stats/v1`: queue depth,
//! in-flight cost, per-lane p50/p99/p999 + mean over ~10 s) to stdout
//! at that cadence while the mix runs, plus once before and once after;
//! `--trace <path>` exports the flight recorder's request lifecycles as
//! Chrome `trace_event` JSON; `--flight-dump <path>` overrides where the
//! always-on flight recorder auto-dumps on an invariant violation, a
//! non-injected panic, or an oracle mismatch.
//!
//! An unknown flag, a flag missing its value, or a value its flag cannot
//! parse exits with status 2 before any graph is built.
//!
//! This binary intentionally does not depend on `graphbig-bench` (which
//! depends on the engine through `graphbig`), so it carries its own tiny
//! flag parsing and builds the [`RunManifest`] directly.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use graphbig_chaos::{self as chaos, FaultPlan};
use graphbig_datagen::Dataset;
use graphbig_engine::traffic::{
    evaluate_slo, generate_ops, generate_requests, live_engine_digest, mutation_oracle_digest,
    run_chaos_mix, sequential_digests, verify_against_oracle,
};
use graphbig_engine::{
    check_chaos_invariants, Engine, EngineConfig, MixSpec, SloSpec, TrafficReport,
};
use graphbig_framework::csr::Csr;
use graphbig_telemetry::recorder;
use graphbig_telemetry::{self as telemetry, MetricSink, MetricValue, RunManifest, TableData};

/// The one list of flags this binary knows: switches stand alone, every
/// other flag takes a value.
const SWITCHES: &str = "--oracle --quiet";
const VALUE_FLAGS: &str = "--dataset --vertices --mix --requests --clients --seed \
    --point-weight --traversal-weight --analytics-weight --write-weight \
    --write-delete-percent --deadline-ms --hot-sources --khop-hops --executors \
    --pool-threads --queue-capacity --cost-budget --shards --compact-threshold \
    --cache-capacity --batch-max --batch-window-us --slo --faults \
    --emit --trace --flight-dump --stats-interval";

/// Report a command-line error and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Reject any argument that is not a known flag, and a value flag given
/// last with no value, so a mistyped or retired flag is never ignored.
fn check_args() {
    let known = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if known(SWITCHES, &arg) {
            continue;
        }
        if !known(VALUE_FLAGS, &arg) {
            usage_error(&format!("unknown flag {arg}"));
        }
        if args.next().is_none() {
            usage_error(&format!("{arg} needs a value"));
        }
    }
}

fn arg_value(flag: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != flag).nth(1)
}

/// The value of `flag` parsed as `T`, if given; a value that does not
/// parse is an error, never a silent default.
fn opt_arg<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let v = arg_value(flag)?;
    Some(
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} {v}: bad value"))),
    )
}

fn parsed_arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    opt_arg(flag).unwrap_or(default)
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn load_mix() -> Result<MixSpec, String> {
    let mut spec = if let Some(path) = arg_value("--mix") {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read mix file {path}: {e}"))?;
        graphbig_json::from_str(&text).map_err(|e| format!("cannot parse mix file {path}: {e}"))?
    } else {
        let defaults = MixSpec::default();
        MixSpec {
            seed: parsed_arg("--seed", defaults.seed),
            requests: parsed_arg("--requests", defaults.requests),
            clients: parsed_arg("--clients", defaults.clients),
            point_weight: parsed_arg("--point-weight", defaults.point_weight),
            traversal_weight: parsed_arg("--traversal-weight", defaults.traversal_weight),
            analytics_weight: parsed_arg("--analytics-weight", defaults.analytics_weight),
            write_weight: parsed_arg("--write-weight", defaults.write_weight),
            write_delete_percent: parsed_arg(
                "--write-delete-percent",
                defaults.write_delete_percent,
            ),
            deadline_ms: opt_arg("--deadline-ms"),
            hot_sources: opt_arg("--hot-sources"),
            khop_hops: parsed_arg("--khop-hops", defaults.khop_hops),
            slo: None,
        }
    };
    // An explicit `--slo <path>` beats the mix file's inline `slo` member.
    if let Some(path) = arg_value("--slo") {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read slo spec {path}: {e}"))?;
        spec.slo = Some(
            graphbig_json::from_str::<SloSpec>(&text)
                .map_err(|e| format!("cannot parse slo spec {path}: {e}"))?,
        );
    }
    Ok(spec)
}

fn load_faults() -> Result<FaultPlan, String> {
    let Some(path) = arg_value("--faults") else {
        return Ok(FaultPlan::none());
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
    graphbig_json::from_str(&text).map_err(|e| format!("cannot parse fault plan {path}: {e}"))
}

fn latency_table(report: &TrafficReport) -> TableData {
    TableData {
        title: "Traffic mix latency by class".into(),
        headers: [
            "class",
            "completed",
            "missed",
            "cancelled",
            "failed",
            "p50_us",
            "p99_us",
            "p999_us",
            "max_us",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows: report
            .classes
            .iter()
            .map(|c| {
                vec![
                    c.class.name().to_string(),
                    c.completed.to_string(),
                    c.deadline_missed.to_string(),
                    c.cancelled.to_string(),
                    c.failed.to_string(),
                    c.p50_us.to_string(),
                    c.p99_us.to_string(),
                    c.p999_us.to_string(),
                    c.max_us.to_string(),
                ]
            })
            .collect(),
    }
}

/// Per-stage latency breakdown built from the `engine.stage_us.*`
/// histograms the engine records eagerly (admit and resolve are
/// lane-agnostic; queue and exec split by cost class).
fn stage_table(snap: &BTreeMap<String, MetricValue>) -> TableData {
    let mut rows = Vec::new();
    {
        let mut push = |stage: &str, class: &str, name: String| {
            if let Some(MetricValue::Histogram(h)) = snap.get(&name) {
                rows.push(vec![
                    stage.to_string(),
                    class.to_string(),
                    h.count.to_string(),
                    h.quantile(0.50).to_string(),
                    h.quantile(0.99).to_string(),
                    format!("{:.1}", h.mean()),
                ]);
            }
        };
        push("admit", "all", "engine.stage_us.admit".into());
        for class in ["point", "traversal", "analytics", "write"] {
            push("queue", class, format!("engine.stage_us.queue.{class}"));
        }
        for class in ["point", "traversal", "analytics", "write"] {
            push("exec", class, format!("engine.stage_us.exec.{class}"));
        }
        push("resolve", "all", "engine.stage_us.resolve".into());
    }
    TableData {
        title: "Per-stage latency breakdown (us)".into(),
        headers: ["stage", "class", "count", "p50_us", "p99_us", "mean_us"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
    }
}

/// Dump the flight recorder on any non-injected panic, then delegate to
/// the previous hook. Chaos-injected kernel panics are routine during a
/// fault-plan replay and are left to the quiet hook.
fn install_dump_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with(chaos::PANIC_MSG))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.starts_with(chaos::PANIC_MSG))
            })
            .unwrap_or(false);
        if !injected {
            if let Some(path) = recorder::auto_dump("panic") {
                eprintln!("flight recorder dumped to {path}");
            }
        }
        prev(info);
    }));
}

fn render(table: &TableData) -> String {
    let mut widths: Vec<usize> = table.headers.iter().map(String::len).collect();
    for row in &table.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!("{}\n", table.title);
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(&table.headers));
    out.push('\n');
    for row in &table.rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    check_args();
    if let Some(path) = arg_value("--flight-dump") {
        recorder::set_auto_dump_path(&path);
    }
    install_dump_panic_hook();
    let quiet = has_flag("--quiet");
    let dataset_name = arg_value("--dataset").unwrap_or_else(|| "ldbc".to_string());
    let Some(dataset) = Dataset::ALL
        .iter()
        .copied()
        .find(|d| d.short_name() == dataset_name)
    else {
        eprintln!(
            "error: unknown dataset {dataset_name}; known: {}",
            Dataset::ALL
                .iter()
                .map(|d| d.short_name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };
    let vertices: usize = parsed_arg("--vertices", 1usize << 16);
    let (spec, plan) = match load_mix().and_then(|spec| Ok((spec, load_faults()?))) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !plan.is_empty() {
        chaos::install_quiet_panic_hook();
    }
    let cost_budget: u64 = parsed_arg("--cost-budget", 0u64);
    let stats_interval: u64 = parsed_arg("--stats-interval", 0u64);
    let cfg_defaults = EngineConfig::default();
    let cfg = EngineConfig {
        executors: parsed_arg("--executors", 2usize),
        pool_threads: parsed_arg("--pool-threads", 4usize),
        queue_capacity: parsed_arg("--queue-capacity", 64usize),
        cost_budget: Some(cost_budget).filter(|&b| b > 0).unwrap_or(u64::MAX),
        shards: parsed_arg("--shards", 8usize),
        cache_capacity: parsed_arg("--cache-capacity", cfg_defaults.cache_capacity),
        compact_threshold: parsed_arg("--compact-threshold", cfg_defaults.compact_threshold),
        batch_max: parsed_arg("--batch-max", cfg_defaults.batch_max),
        batch_window_us: parsed_arg("--batch-window-us", cfg_defaults.batch_window_us),
    };

    if !quiet {
        eprintln!("generating {dataset_name} with {vertices} vertices...");
    }
    let csr = Csr::from_graph(&dataset.generate_with_vertices(vertices));
    let engine = Engine::new(cfg.clone(), csr);
    if !quiet {
        eprintln!(
            "serving {} requests from {} clients (weights {}/{}/{}/{}, deadline {:?} ms)...",
            spec.requests,
            spec.clients,
            spec.point_weight,
            spec.traversal_weight,
            spec.analytics_weight,
            spec.write_weight,
            spec.deadline_ms
        );
    }
    // Pinned before any traffic: writes resolve against this snapshot, and
    // the write oracle replays against it after the mix drains.
    let base_snapshot = engine.store().snapshot();
    // Every stats line carries the per-lane SLO targets (0 = none), so a
    // live reader can compare window quantiles against targets in place.
    let slo_spec = spec.slo.unwrap_or_default();
    let stats_line = |engine: &Engine| {
        let mut snap = engine.stats_snapshot();
        snap.apply_slo(&slo_spec);
        snap.to_json_line()
    };
    let report = if stats_interval == 0 {
        run_chaos_mix(&engine, &spec, &plan)
    } else {
        // One snapshot line before traffic, one at each interval while the
        // mix runs, and one after it drains (printed below).
        println!("{}", stats_line(&engine));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let engine = &engine;
            let stop = &stop;
            let stats_line = &stats_line;
            s.spawn(move || {
                let mut since_last_ms = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                    since_last_ms += 20;
                    if since_last_ms >= stats_interval {
                        println!("{}", stats_line(engine));
                        since_last_ms = 0;
                    }
                }
            });
            let report = run_chaos_mix(engine, &spec, &plan);
            stop.store(true, Ordering::Relaxed);
            report
        })
    };
    if stats_interval > 0 {
        println!("{}", stats_line(&engine));
    }
    // Publish the sliding-window SLO gauges the mix just filled, so the
    // manifest (and any later registry reader) sees `engine.window.*`.
    engine.slo().publish(telemetry::metrics::global());

    let mut oracle_digests = None;
    let mut mutation_oracle = "off";
    if has_flag("--oracle") {
        if spec.write_weight == 0 {
            // Pure-read mix: every completed result has a sequential twin.
            let queries = generate_requests(&spec, base_snapshot.graph().num_vertices() as u32);
            oracle_digests = Some(sequential_digests(
                base_snapshot.graph(),
                engine.pool(),
                &queries,
            ));
        } else {
            // Writes in the mix: per-request read digests depend on the
            // interleaving, so the check becomes final-state equivalence —
            // mid-overlay, then again after a forced compaction.
            let ops = generate_ops(&spec, base_snapshot.graph().num_vertices() as u32);
            let expected = mutation_oracle_digest(base_snapshot.graph(), &ops);
            let mid = live_engine_digest(&engine);
            engine.compact();
            let folded = live_engine_digest(&engine);
            if mid != expected || folded != expected {
                eprintln!(
                    "error: mutation oracle mismatch: sequential replay {expected:#018x}, \
                     mid-overlay {mid:#018x}, post-compaction {folded:#018x}"
                );
                if let Some(path) = recorder::auto_dump("oracle-mismatch") {
                    eprintln!("flight recorder dumped to {path}");
                }
                return ExitCode::FAILURE;
            }
            mutation_oracle = "ok";
            if !quiet {
                eprintln!(
                    "oracle: live graph matches sequential write replay \
                     ({expected:#018x}), mid-overlay and post-compaction"
                );
            }
        }
    }
    let mut oracle_checked = None;
    if let Some(oracle) = &oracle_digests {
        match verify_against_oracle(&report, oracle) {
            Ok(checked) => {
                oracle_checked = Some(checked);
                if !quiet {
                    eprintln!("oracle: {checked} completed results verified bit-identical");
                }
            }
            Err(e) => {
                eprintln!("error: oracle mismatch: {e}");
                if let Some(path) = recorder::auto_dump("oracle-mismatch") {
                    eprintln!("flight recorder dumped to {path}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    // Let any in-flight background fold finish its bookkeeping before the
    // metric-balance sweep: the compactor publishes under the write lock
    // but stamps its completion counter just after, so a sweep taken in
    // that window would see started > completed.
    let quiesce_deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = telemetry::metrics::global().snapshot();
        let get = |name: &str| match snap.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        };
        if get("engine.compact.started") == get("engine.compact.completed")
            || std::time::Instant::now() > quiesce_deadline
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // The post-mix invariant sweep. The global registry is fresh for this
    // engine + mix pair (one mix per process), so the metric-balance checks
    // are exact — with or without an armed fault plan.
    let invariants = check_chaos_invariants(
        &engine,
        &report,
        oracle_digests.as_deref(),
        telemetry::metrics::global(),
    );
    if !invariants.ok() {
        eprintln!("error: chaos invariants violated:\n{}", invariants.render());
    } else if !quiet && !plan.is_empty() {
        eprintln!("chaos invariants:\n{}", invariants.render());
    }

    // End-of-run SLO verdict over the *exact* latencies (not the sliding
    // window). A miss does not change this binary's exit code — the gate
    // lives in `graphbig-report --check`, which fails any manifest whose
    // `slo.violations` counter is nonzero.
    let slo_verdict = evaluate_slo(&report, &slo_spec);
    if slo_spec.any() {
        if !slo_verdict.ok() {
            eprintln!("SLO targets missed:\n{}", slo_verdict.render());
        } else if !quiet {
            eprintln!("SLO targets:\n{}", slo_verdict.render());
        }
    }

    let table = latency_table(&report);
    if !quiet {
        println!("{}", render(&table));
        println!(
            "admitted {}/{} (queue-full {}, cost-budget {}, retries {}), \
             {:.0} completed/s over {:.1} ms",
            report.admitted,
            report.total_requests,
            report.rejected_queue_full,
            report.rejected_cost_budget,
            report.retries,
            report.throughput_rps,
            report.wall_us as f64 / 1000.0
        );
        if !report.fault_fired.is_empty() {
            let fired: Vec<String> = report
                .fault_fired
                .iter()
                .map(|(label, count)| format!("{label} x{count}"))
                .collect();
            println!("faults fired: {}", fired.join(", "));
        }
    }

    if let Some(path) = arg_value("--trace") {
        let trace = recorder::to_trace(&recorder::snapshot());
        if let Err(e) = telemetry::chrome::write_chrome_trace(&trace, &path) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("request-lifecycle trace written to {path}");
        }
    }

    if let Some(path) = arg_value("--emit") {
        let mut manifest = RunManifest::new("graphbig-serve");
        manifest.dataset = Some(dataset_name.clone());
        manifest.threads = cfg.pool_threads as u64;
        manifest.param("vertices", vertices);
        manifest.param("seed", spec.seed);
        manifest.param("requests", spec.requests);
        manifest.param("clients", spec.clients);
        manifest.param(
            "weights",
            format!(
                "{}/{}/{}/{}",
                spec.point_weight, spec.traversal_weight, spec.analytics_weight, spec.write_weight
            ),
        );
        manifest.param("write_delete_percent", spec.write_delete_percent);
        manifest.param("compact_threshold", cfg.compact_threshold);
        manifest.param("mutation_oracle", mutation_oracle);
        manifest.param(
            "deadline_ms",
            spec.deadline_ms
                .map(|d| d.to_string())
                .unwrap_or_else(|| "none".into()),
        );
        manifest.param("executors", cfg.executors);
        manifest.param("queue_capacity", cfg.queue_capacity);
        manifest.param("cost_budget", cost_budget);
        manifest.param("shards", cfg.shards);
        manifest.param("cache_capacity", cfg.cache_capacity);
        manifest.param("batch_max", cfg.batch_max);
        manifest.param("batch_window_us", cfg.batch_window_us);
        manifest.param(
            "hot_sources",
            spec.hot_sources
                .map(|h| h.to_string())
                .unwrap_or_else(|| "none".into()),
        );
        manifest.param("khop_hops", spec.khop_hops);
        manifest.param(
            "oracle_checked",
            oracle_checked
                .map(|c| c.to_string())
                .unwrap_or_else(|| "off".into()),
        );
        manifest.param(
            "faults",
            arg_value("--faults").unwrap_or_else(|| "none".into()),
        );
        if !plan.is_empty() {
            manifest.param("fault_seed", plan.seed);
            manifest.param("fault_max_retries", plan.max_retries);
        }
        for (label, count) in &report.fault_fired {
            manifest.counter(&format!("chaos.fired.{label}"), *count);
        }
        invariants.write_to_manifest(&mut manifest);
        slo_verdict.write_to_manifest(&slo_spec, &mut manifest);
        for class in &report.classes {
            let name = class.class.name();
            manifest.gauge(&format!("engine.p50_us.{name}"), class.p50_us as f64);
            manifest.gauge(&format!("engine.p99_us.{name}"), class.p99_us as f64);
            manifest.gauge(&format!("engine.p999_us.{name}"), class.p999_us as f64);
        }
        manifest.gauge("engine.throughput_rps", report.throughput_rps);
        manifest.gauge("engine.wall_us", report.wall_us as f64);
        let flight = recorder::snapshot();
        manifest.counter("recorder.captured", flight.events.len() as u64);
        manifest.counter("recorder.evicted", flight.evicted);
        engine.pool().export_metrics(&mut manifest);
        let global_snap = telemetry::metrics::global().snapshot();
        let stages = stage_table(&global_snap);
        for (name, value) in global_snap {
            manifest.metrics.entry(name).or_insert(value);
        }
        manifest.absorb_trace(&recorder::to_trace(&flight));
        manifest.tables.push(table);
        manifest.tables.push(stages);
        if let Err(e) = manifest.write_to(&path) {
            eprintln!("error: cannot write manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("run manifest written to {path}");
        }
    }
    if invariants.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
