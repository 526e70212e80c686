//! `graphbig-benchmark`: the repository's benchmark.
//!
//! Four pinned, fixed-work workloads drive the public APIs of `framework`,
//! `runtime`, `workloads`, `engine` and `telemetry` from outside, verify
//! every answer and score each op by its best time over the passes. A
//! traced run adds spans around every call into a layer and a layer-probe
//! phase. See `README.md` beside this package.

mod compare;
mod dataset;
mod probe;
mod report;
mod run;
mod score;
mod script;
mod sys;
mod trace;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use graphbig_json::Json;

const USAGE: &str = "\
usage:
  graphbig-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
                     [--passes <P>] [--vertices <N>] [--quick] [--record <file>]
  graphbig-benchmark compare [--json <out>] <A.jsonl> [<B.jsonl>...]
  (a run re-executes itself as `gen ...` for its datasets and `rss ...` for peak_rss_mb)
workloads: kernel_sweep point_closed bfs_storm live_rw
The pass count P is a constant of each workload. --seconds is what the driver says a run
measures for: BENCHMARK.json's run_seconds, and any other value only marks the output
non_default, as do --passes, --vertices and --quick (smoke runs and larger scales).
--record appends the run as one JSON line for `compare`.";

fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let mut parsed = run::Args::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => parsed.workload = value(args, &mut i)?.to_string(),
            "--seed" => parsed.seed = number(flag, value(args, &mut i)?)?,
            "--seconds" => parsed.seconds = Some(number(flag, value(args, &mut i)?)?),
            "--trace" => {
                parsed.trace = match value(args, &mut i)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--passes" => parsed.passes = Some(number(flag, value(args, &mut i)?)?),
            "--vertices" => parsed.vertices = Some(number(flag, value(args, &mut i)?)?),
            "--quick" => parsed.quick = true,
            "--record" => parsed.record = Some(PathBuf::from(value(args, &mut i)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    Ok(parsed)
}

/// The `gen` subcommand the parent re-executes itself with.
fn generate(args: &[String]) -> Result<(), String> {
    let (mut kind, mut vertices, mut out) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--dataset" => kind = dataset::Kind::parse(value(args, &mut i)?),
            "--vertices" => vertices = Some(number::<usize>(flag, value(args, &mut i)?)?),
            "--out" => out = Some(PathBuf::from(value(args, &mut i)?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    match (kind, vertices, out) {
        (Some(kind), Some(vertices), Some(out)) => dataset::write_generated(kind, vertices, &out)
            .map_err(|e| format!("{}: {e}", out.display())),
        _ => Err("gen needs --dataset <ldbc|road> --vertices <N> --out <path>".to_string()),
    }
}

fn compare_sets(args: &[String]) -> Result<bool, String> {
    let (json_out, paths) = match args {
        [flag, out, paths @ ..] if flag == "--json" => (Some(out), paths),
        paths => (None, paths),
    };
    if paths.is_empty() {
        return Err("compare needs at least one record file".to_string());
    }
    let sets = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            compare::parse_records(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rows = compare::compare(&sets, &report::Declarations::load()?);
    print!("{}", compare::table(&rows));
    if let Some(out) = json_out {
        // One row per line: readable, diffable and a tenth of the pretty size.
        let lines: Vec<String> = compare::json(&rows)
            .as_arr()
            .into_iter()
            .flatten()
            .map(Json::to_compact)
            .collect();
        let text = format!("[\n{}\n]\n", lines.join(",\n"));
        std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    }
    Ok(rows.iter().all(|r| !r.breach))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("gen") => generate(&args[1..]).map(|()| true),
        Some("compare") => compare_sets(&args[1..]),
        // The child a run reads `peak_rss_mb` from.
        Some("rss") => parse_run(&args[1..]).and_then(|a| match a.vertices {
            Some(vertices) => run::rss_child(&a.workload, a.seed, vertices),
            None => Err("rss needs --vertices <N>".to_string()),
        }),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => parse_run(&args).and_then(run::run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("graphbig-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
