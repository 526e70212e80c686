//! Shared command-line helpers for the figure/table binaries and the
//! bench targets, and the [`Reporter`] all of them funnel output through.

use graphbig::profile::Table;
use graphbig::telemetry::{self, recorder, RunManifest};

/// Parse `--scale <f64>` from argv; `default` otherwise.
///
/// `scale` multiplies each dataset's Table 7 vertex count; 1.0 reproduces
/// the paper's experiment sizes, the defaults in each binary are chosen so
/// the whole suite regenerates in minutes on a laptop.
pub fn scale_arg(default: f64) -> f64 {
    arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `--threads <usize>`; `default` otherwise.
pub fn threads_arg(default: usize) -> usize {
    arg_value("--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Look up the value following a flag in argv.
pub fn arg_value(flag: &str) -> Option<String> {
    arg_value_in(&std::env::args().collect::<Vec<_>>(), flag)
}

/// Look up the value following `flag` in `args`.
pub fn arg_value_in(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The arguments of `args` that are neither a `--flag` nor the value
/// following one of `value_flags`.
pub fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if value_flags.contains(&args[i].as_str()) {
            i += 1; // its value
        } else if !args[i].starts_with("--") {
            out.push(&args[i]);
        }
        i += 1;
    }
    out
}

/// The uniform output funnel of every figure/table binary and bench target.
///
/// Construction parses the common flags all binaries share:
///
/// * `--emit <path>` — write the [`RunManifest`] JSON on [`finish`](Self::finish);
/// * `--trace <path>` — write a Chrome `trace_event` JSON of the flight
///   recorder's events (open in `chrome://tracing` or Perfetto);
/// * `--quiet` — suppress the stdout tables/notes (they still land in the
///   manifest).
///
/// Tables and notes pass through [`table`](Self::table) / [`note`](Self::note)
/// instead of ad-hoc `println!`, so stdout rendering and the manifest stay
/// in sync. `finish` snapshots the global metric registry (populated by the
/// runtime and workloads during the run) and folds the flight recorder's
/// trace into the manifest before writing anything.
pub struct Reporter {
    manifest: RunManifest,
    emit: Option<String>,
    trace: Option<String>,
    quiet: bool,
}

impl Reporter {
    /// Start reporting for binary `bin`, reading the common flags from argv.
    pub fn new(bin: &str) -> Reporter {
        Reporter::from_args(bin, &std::env::args().collect::<Vec<_>>())
    }

    /// [`Reporter::new`] over an explicit argument list.
    pub fn from_args(bin: &str, args: &[String]) -> Reporter {
        Reporter {
            manifest: RunManifest::new(bin),
            emit: arg_value_in(args, "--emit"),
            trace: arg_value_in(args, "--trace"),
            quiet: args.iter().any(|a| a == "--quiet"),
        }
    }

    /// Whether `--quiet` was passed.
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Record a run parameter (`scale`, `seed`, ...).
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.manifest.param(key, value);
    }

    /// Tag the run as single-workload.
    pub fn workload(&mut self, name: &str) {
        self.manifest.workload = Some(name.to_string());
    }

    /// Tag the run as single-dataset.
    pub fn dataset(&mut self, name: &str) {
        self.manifest.dataset = Some(name.to_string());
    }

    /// Record the worker thread count.
    pub fn threads(&mut self, n: usize) {
        self.manifest.threads = n as u64;
    }

    /// Direct access to the manifest — the sink for
    /// `PerfCounters::export_metrics` / `ThreadPool::export_metrics`.
    pub fn manifest_mut(&mut self) -> &mut RunManifest {
        &mut self.manifest
    }

    /// Record a gauge metric straight into the manifest.
    pub fn gauge(&mut self, name: &str, value: f64) {
        use graphbig::telemetry::MetricSink;
        self.manifest.gauge(name, value);
    }

    /// Record a counter metric straight into the manifest.
    pub fn counter(&mut self, name: &str, value: u64) {
        use graphbig::telemetry::MetricSink;
        self.manifest.counter(name, value);
    }

    /// Render `table` to stdout (unless `--quiet`) and add it to the
    /// manifest.
    pub fn table(&mut self, table: &Table) {
        if !self.quiet {
            println!("{}", table.render());
        }
        self.manifest.tables.push(table.to_data());
    }

    /// Print a remark (unless `--quiet`) and add it to the manifest.
    pub fn note(&mut self, text: &str) {
        if !self.quiet {
            println!("{text}");
        }
        self.manifest.notes.push(text.to_string());
    }

    /// Snapshot metrics and spans, then write the `--trace` / `--emit`
    /// outputs. Exits non-zero if a requested file cannot be written.
    pub fn finish(mut self) {
        for (name, value) in telemetry::metrics::global().snapshot() {
            self.manifest.metrics.entry(name).or_insert(value);
        }
        let trace = recorder::to_trace(&recorder::snapshot());
        self.manifest.absorb_trace(&trace);
        if let Some(path) = &self.trace {
            if let Err(e) = telemetry::chrome::write_chrome_trace(&trace, path) {
                eprintln!("error: cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
            if !self.quiet {
                eprintln!("chrome trace written to {path}");
            }
        }
        if let Some(path) = &self.emit {
            if let Err(e) = self.manifest.write_to(path) {
                eprintln!("error: cannot write manifest to {path}: {e}");
                std::process::exit(1);
            }
            if !self.quiet {
                eprintln!("run manifest written to {path}");
            }
        }
    }
}

/// Render one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>w$}  ", w = w));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_is_right_aligned() {
        let r = row(&["ab".into(), "1.5".into()], &[5, 6]);
        assert_eq!(r, "   ab     1.5");
    }

    #[test]
    fn positionals_skip_flags_and_the_values_of_value_flags() {
        let args: Vec<String> = ["--bench", "a.json", "--threshold", "5", "b.json", "--quiet"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(positionals(&args, &["--threshold"]), ["a.json", "b.json"]);
        assert_eq!(positionals(&args, &[]), ["a.json", "5", "b.json"]);
        assert_eq!(arg_value_in(&args, "--threshold").as_deref(), Some("5"));
        assert_eq!(arg_value_in(&args, "--quiet"), None);
    }

    #[test]
    fn missing_flag_yields_default() {
        assert_eq!(scale_arg(0.25), 0.25);
        assert_eq!(threads_arg(4), 4);
    }
}
