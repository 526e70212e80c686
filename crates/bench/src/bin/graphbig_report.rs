//! `graphbig-report`: inspect and compare [`RunManifest`] files emitted by
//! the `--emit` flag of the figure/table binaries, `graphbig-serve` and the
//! `cargo bench` targets (whose rows are `bench.*` gauges).
//!
//! Three modes:
//!
//! * `graphbig-report <before.json> <after.json>` — metric regression
//!   table: every metric in either manifest, scalarized (histograms by
//!   mean), with the relative change. `--threshold <pct>` makes any change
//!   beyond ±pct% a failure (exit 1) — the CI perf gate.
//! * `graphbig-report --check <golden.json> <candidate.json>` — structure
//!   -only comparison (same bin, metric names/kinds, table count/headers;
//!   values free to differ). Exit 1 listing every mismatch. CI runs this
//!   against a committed golden manifest so schema drift is caught without
//!   pinning timing-dependent numbers. Two values ARE checked: a
//!   candidate whose `chaos.invariants.violations` or `slo.violations`
//!   counter is non-zero fails — schema drift and SLO regressions (a
//!   p999 past its target) are both gate-worthy.
//! * `graphbig-report --show <manifest.json>` — render a manifest back to
//!   human-readable form: header fields, tables, metrics, span summary.
//!
//! Usage: `graphbig-report [--check|--show] <manifest.json> [<manifest.json>] [--threshold <pct>]`

use graphbig::profile::Table;
use graphbig::telemetry::{diff_metrics, structural_mismatches, MetricValue, RunManifest};
use graphbig_bench::harness::{arg_value_in, positionals};

fn load(path: &str) -> RunManifest {
    match RunManifest::read_from(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot load manifest {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn fmt_scalar(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) if x == x.trunc() && x.abs() < 1e15 => format!("{x:.0}"),
        Some(x) => format!("{x:.4}"),
    }
}

fn show(path: &str) {
    let m = load(path);
    println!("manifest: {path}");
    println!("  bin:      {}", m.bin);
    if let Some(w) = &m.workload {
        println!("  workload: {w}");
    }
    if let Some(d) = &m.dataset {
        println!("  dataset:  {d}");
    }
    println!("  git rev:  {}", m.git_rev);
    println!("  threads:  {}", m.threads);
    if !m.features.is_empty() {
        println!("  features: {}", m.features.join(", "));
    }
    for (k, v) in &m.params {
        println!("  param {k} = {v}");
    }
    println!();
    for data in &m.tables {
        println!("{}", Table::from_data(data).render());
    }
    if !m.metrics.is_empty() {
        let mut t = Table::new("Metrics", &["name", "kind", "value"]);
        for (name, v) in &m.metrics {
            let (kind, shown) = match v {
                MetricValue::Counter(c) => ("counter", c.to_string()),
                MetricValue::Gauge(g) => ("gauge", format!("{g:.4}")),
                MetricValue::Histogram(h) => (
                    "histogram",
                    format!(
                        "n={} mean={:.1} le={}",
                        h.count,
                        h.mean(),
                        h.buckets.last().map(|b| b.0).unwrap_or(0)
                    ),
                ),
            };
            t.row(vec![name.clone(), kind.to_string(), shown]);
        }
        println!("{}", t.render());
    }
    if !m.spans.is_empty() {
        let mut t = Table::new("Span summary", &["span", "count", "total ms"]);
        for s in &m.spans {
            t.row(vec![
                s.name.clone(),
                s.count.to_string(),
                format!("{:.3}", s.total_us as f64 / 1e3),
            ]);
        }
        println!("{}", t.render());
    }
    for n in &m.notes {
        println!("{n}");
    }
}

fn check(golden_path: &str, candidate_path: &str) {
    let golden = load(golden_path);
    let candidate = load(candidate_path);
    let mut problems = structural_mismatches(&golden, &candidate);
    // Values are free to differ structurally — except the chaos invariant
    // verdict, which is pass/fail by construction: a candidate carrying
    // violations is broken no matter how its schema looks.
    if let Some(MetricValue::Counter(v)) = candidate.metrics.get("chaos.invariants.violations") {
        if *v > 0 {
            problems.push(format!(
                "candidate reports {v} chaos invariant violation(s)"
            ));
            for note in &candidate.notes {
                if note.starts_with("chaos invariant violated") {
                    problems.push(format!("  {note}"));
                }
            }
        }
    }
    // Likewise the SLO verdict: a candidate that missed a declared p99 or
    // p999 target is a latency regression, not a schema difference.
    if let Some(MetricValue::Counter(v)) = candidate.metrics.get("slo.violations") {
        if *v > 0 {
            problems.push(format!("candidate reports {v} SLO violation(s)"));
            for note in &candidate.notes {
                if note.starts_with("slo violated") {
                    problems.push(format!("  {note}"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!(
            "ok: {candidate_path} is structurally compatible with {golden_path} \
             ({} metrics, {} tables)",
            golden.metrics.len(),
            golden.tables.len()
        );
        return;
    }
    eprintln!("structural mismatch between {golden_path} and {candidate_path}:");
    for p in &problems {
        eprintln!("  - {p}");
    }
    std::process::exit(1);
}

fn diff(before_path: &str, after_path: &str, threshold_pct: Option<f64>) {
    let before = load(before_path);
    let after = load(after_path);
    let rows = diff_metrics(&before, &after);
    let mut table = Table::new(
        &format!("Metric diff: {before_path} -> {after_path}"),
        &["metric", "before", "after", "change"],
    );
    let mut regressions = 0usize;
    for r in &rows {
        let change = match r.relative_change() {
            Some(c) => {
                if let Some(t) = threshold_pct {
                    if c.abs() * 100.0 > t {
                        regressions += 1;
                    }
                }
                format!("{:+.1}%", c * 100.0)
            }
            None if r.before.is_none() => "added".to_string(),
            None if r.after.is_none() => "removed".to_string(),
            None => "-".to_string(),
        };
        table.row(vec![
            r.name.clone(),
            fmt_scalar(r.before),
            fmt_scalar(r.after),
            change,
        ]);
    }
    println!("{}", table.render());
    if before.bin != after.bin {
        println!(
            "note: comparing different binaries ('{}' vs '{}')",
            before.bin, after.bin
        );
    }
    if let Some(t) = threshold_pct {
        if regressions > 0 {
            eprintln!("{regressions} metric(s) changed by more than {t}%");
            std::process::exit(1);
        }
        println!("all {} metrics within ±{t}%", rows.len());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional = positionals(&args, &["--threshold"]);
    let has = |flag: &str| args.iter().any(|a| a == flag);
    match (has("--show"), has("--check"), positional.as_slice()) {
        (true, false, [path]) => show(path),
        (false, true, [golden, candidate]) => check(golden, candidate),
        (false, false, [before, after]) => {
            let threshold = arg_value_in(&args, "--threshold").and_then(|v| v.parse().ok());
            diff(before, after, threshold);
        }
        _ => {
            eprintln!(
                "usage: graphbig-report <before.json> <after.json> [--threshold <pct>]\n\
                 \x20      graphbig-report --check <golden.json> <candidate.json>\n\
                 \x20      graphbig-report --show <manifest.json>"
            );
            std::process::exit(2);
        }
    }
}
