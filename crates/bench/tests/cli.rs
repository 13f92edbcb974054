//! The `reproduce` command line: every argument resolves against the
//! experiment table, and anything else exits 2 listing the valid names.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn assert_rejected(args: &[&str], bad: &str) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown argument `{bad}`")),
        "{stderr}"
    );
    assert!(
        stderr.contains("fig1 ")
            && stderr.contains(" b2 b3 b4 b5 b6 ")
            && stderr.contains(" b15 all"),
        "{stderr}"
    );
    assert!(stderr.contains("--smoke --trace"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
}

#[test]
fn unknown_experiment_exits_2_listing_the_names() {
    assert_rejected(&["b99"], "b99");
    assert_rejected(&["b4", "fig7"], "fig7");
}

#[test]
fn mistyped_flag_exits_2_instead_of_running() {
    assert_rejected(&["b4", "--smok"], "--smok");
    assert_rejected(&["--help"], "--help");
}

#[test]
fn smoke_run_writes_its_artifact_under_target() {
    let out = reproduce(&["fig3", "--smoke"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let wrote = stdout
        .lines()
        .find_map(|l| l.strip_prefix("wrote "))
        .expect("the run names its artifact");
    assert!(wrote.ends_with("target/smoke/BENCH_fig3.json"), "{wrote}");
    let json = std::fs::read_to_string(wrote).expect("artifact exists");
    assert!(json.starts_with("{\"experiment\":\"FIG3\","), "{json}");
    assert!(json.contains("\"smoke\":true,\"bcnf\":true"), "{json}");
}
