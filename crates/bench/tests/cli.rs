//! The `reproduce` command line: every argument resolves against the
//! experiment table, and anything else exits 2 listing the valid names;
//! the closing summary counts every engine event of a run. The `sdt`
//! command line runs every dialect end to end, times a live migration on
//! the registry, and refuses the options it does not have.

use std::collections::BTreeMap;
use std::process::{Command, Output};

fn sdt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdt"))
        .args(args)
        .output()
        .expect("run sdt")
}

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
    assert_rejected(&["b9"], "b9");
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

/// Runs `reproduce <exp> --smoke`: its artifact, its rounds (from the
/// artifact's scale, `… median of <n> rounds`) and the closing summary's
/// counter totals.
fn smoke_run(exp: &str) -> (String, u64, BTreeMap<String, u64>) {
    let out = reproduce(&[exp, "--smoke"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let wrote = stdout.lines().find_map(|l| l.strip_prefix("wrote "));
    let json = std::fs::read_to_string(wrote.expect("the run names its artifact")).unwrap();
    let before_rounds = json.split(" rounds\"").next().unwrap();
    let rounds = before_rounds
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("rounds");
    let summary = stdout
        .split("\ncounters:\n")
        .nth(1)
        .expect("a counter summary");
    let counters = summary
        .lines()
        .skip(2)
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_owned(), f.next()?.parse().ok()?))
        })
        .collect();
    (json, rounds, counters)
}

/// The sum of every `"key":<count>` in `json`: one column of a table.
fn column_sum(json: &str, key: &str) -> u64 {
    let cell = format!("\"{key}\":");
    json.split(&cell)
        .skip(1)
        .map(|c| c.split(|ch: char| !ch.is_ascii_digit()).next().unwrap())
        .map(|n| n.parse::<u64>().unwrap())
        .sum()
}

/// Counters only go up, so the summary holds every event of the run,
/// also those of the databases an experiment has dropped: each round of
/// B2 inserts and checks its table's counts, and B7 commits its batches.
#[test]
fn summary_counts_every_engine_event() {
    let (json, rounds, counters) = smoke_run("b2");
    for (counter, column) in [
        ("engine.dml.inserts", "statements"),
        ("engine.check.declarative", "declarative"),
        ("engine.check.procedural", "procedural"),
    ] {
        let want = rounds * column_sum(&json, column);
        assert_eq!(
            counters.get(counter),
            Some(&want),
            "{counter}: {counters:?}"
        );
    }
    let (json, rounds, counters) = smoke_run("b7");
    let want = rounds * column_sum(&json, "batches");
    assert_eq!(
        counters.get("engine.batch.commits"),
        Some(&want),
        "{counters:?}"
    );
}

/// Every dialect merges fig7 under its own profile's advisor and prints
/// its migration SQL, and SQL-92 migrates the live database on its own
/// profile. No run fails or prints an `sdt:` line.
#[test]
fn sdt_runs_every_dialect() {
    let merges = ["db2", "sybase40", "ingres63", "sql92"]
        .map(|d| vec!["--demo", "fig7", "--dialect", d, "--merge", "--migration"]);
    let live = vec!["--demo", "fig7", "--dialect", "sql92", "--migrate"];
    for args in merges.into_iter().chain([live]) {
        let out = sdt(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(
            !stderr.lines().any(|l| l.starts_with("sdt:")),
            "{args:?}: {stderr}"
        );
    }
}

/// `--profile` prints the hot-join ranking of the probe databases' join
/// ledgers, and `--metrics` lists the per-query counters beside it; the
/// JSON form is one hot-join document.
#[test]
fn sdt_profile_prints_the_ranking_and_the_query_counters() {
    let run = |profile: &str| {
        let args = [
            "--demo",
            "fig7",
            "--merge",
            "--profile",
            profile,
            "--metrics",
            "text",
        ];
        let out = sdt(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(
            !stderr.lines().any(|l| l.starts_with("sdt:")),
            "{args:?}: {stderr}"
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = run("text");
    let ranking = text.split("-- hot joins:\n").nth(1).expect("a ranking");
    assert!(ranking.starts_with("#1 "), "{ranking}");
    for name in ["engine.query.ns", "engine.query.index_probes"] {
        assert!(text.lines().any(|l| l.starts_with(name)), "{name}: {text}");
    }
    let json = run("json");
    assert_eq!(json.matches("{\"hot_joins\":[").count(), 1, "{json}");
    assert!(
        json.lines().any(|l| l.starts_with("{\"hot_joins\":[{")),
        "{json}"
    );
}

/// A live migration's wall time is on the registry: `--migrate --metrics`
/// lists one `engine.migrate.ns` sample per migration applied.
#[test]
fn sdt_metrics_time_the_live_migration() {
    let out = sdt(&["--demo", "fig7", "--migrate", "--metrics", "text"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let migrations = stdout
        .lines()
        .filter(|l| l.starts_with("-- live migration: ") && l.contains(" <- "))
        .count();
    assert!(migrations > 0, "{stdout}");
    let timed = stdout
        .lines()
        .find(|l| l.starts_with("engine.migrate.ns "))
        .expect("a migration histogram");
    assert!(timed.contains(&format!(" count={migrations} ")), "{timed}");
}

/// There is no span tracer: `--trace` and the `chrome` profile format are
/// unknown options, refused before anything runs, and `--help` lists
/// neither.
#[test]
fn sdt_refuses_the_deleted_options() {
    for (args, error) in [
        (&["--trace"][..], "sdt: unknown flag `--trace`"),
        (
            &["--profile", "chrome"][..],
            "sdt: unknown profile format `chrome`",
        ),
    ] {
        let out = sdt(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.lines().any(|l| l == error), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing runs: {args:?}");
    }
    let help = sdt(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("--profile <text|json>"), "{usage}");
    assert!(
        !usage.contains("--trace") && !usage.contains("chrome"),
        "{usage}"
    );
}
