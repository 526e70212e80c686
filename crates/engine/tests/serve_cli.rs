//! `graphbig-serve`'s flag boundary: a flag it does not know, or a value its
//! flag cannot parse, is an error that names it, raised before any graph
//! is built; and `--faults` injects in every build.

use std::process::Command;

/// Run the binary on a tiny graph with `extra` flags; (success, stderr).
fn serve(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_graphbig-serve"))
        .args(["--vertices", "64", "--requests", "4"])
        .args(extra)
        .output()
        .expect("graphbig-serve runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_and_malformed_values_fail_before_any_graph_is_built() {
    for (args, named) in [
        (&["--no-adaptive"][..], "--no-adaptive"),
        (&["--aging-limit", "32"][..], "--aging-limit"),
        (&["--cost-budget", "10k"][..], "10k"),
        (&["--seed"][..], "--seed"),
    ] {
        let (ok, stderr) = serve(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(!stderr.contains("generating"), "{args:?} built a graph");
    }
    let (ok, stderr) = serve(&["--cost-budget", "100"]);
    assert!(ok, "a well-formed run succeeds: {stderr}");
}

#[test]
fn faults_inject_without_a_build_flag() {
    let dump = std::env::temp_dir().join(format!("serve_cli_flight_{}.json", std::process::id()));
    let plan = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../traffic/faults_violation.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_graphbig-serve"))
        .args(["--vertices", "64", "--requests", "8", "--faults", plan])
        .arg("--flight-dump")
        .arg(&dump)
        .output()
        .expect("graphbig-serve runs");
    let text = std::fs::read_to_string(&dump).unwrap_or_default();
    let _ = std::fs::remove_file(&dump);
    assert!(
        !out.status.success(),
        "the plan's double resolve (request 5) must fail the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("\"double_resolve\""),
        "the flight dump must hold the injected double resolve"
    );
}
