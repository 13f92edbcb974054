//! `perfbench --workload <oltp|merged|analytics> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints a run stamp, the settings and a human-readable report, then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an answer
//! check fails and 2 on bad arguments or an aborted run.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::ops::Workload;
use perfbench::run::{self, Config, Outcome};

const USAGE: &str = "usage: perfbench --workload <oltp|merged|analytics> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // The data directory sits in the build directory, inside the checkout.
    let build_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        courses: run::COURSES,
        data_dir: build_dir.join(format!(
            "perfbench-data-{}-{seed}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn stamp(cfg: &Config) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "stamp: workload={} seed={} seconds={} trace={} cores={cores} profile={profile} \
         commit={} courses={} parallelism={} fsync={} snapshot_every={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        git_commit(),
        cfg.courses,
        run::PARALLELISM,
        run::FSYNC.label(),
        relmerge_engine::DEFAULT_SNAPSHOT_EVERY,
    )
}

fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; every metric guards its
            // divisions, so a non-finite value is a bug worth a zero.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // Names and units are ASCII identifiers: no escaping needed.
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(&cfg));
    let outcome = match run::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("digest: {:#018x}", outcome.digest);
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", json_line(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
