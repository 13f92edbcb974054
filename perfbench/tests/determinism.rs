//! The seed argument drives every input, and a traced run's counts repeat:
//! two runs of the benchmark command with one seed, at the scale the
//! benchmark runs, give identical `QueryStats` sums, WAL bytes, allocated
//! bytes (reads within 0.1%) and results digest, and another seed passes
//! every answer check.

use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that are counts, not times: they must repeat exactly.
/// `query.alloc_kb_per_read` is left out: every query also records its wall
/// time in the engine's workload profiler, whose sparse latency histogram
/// allocates a bucket the first time a latency lands in it, so a few bytes
/// per run follow the timings. It must agree within 0.1%.
const COUNTS: &[&str] = &[
    "wal.replayed_records",
    "wal.replayed_kb",
    "wal.disk_mb",
    "migrate.rows",
    "migrate.chunks",
    "migrate.alloc_mb",
    "migrate.wal_kb",
    "query.probes_per_read",
    "query.scanned_per_read",
    "query.joins_per_read",
    "query.rows_out_per_read",
    "query.intermediate_kb_per_read",
    "query.examined_per_row",
    "pushdown.conjuncts",
    "pushdown.pruned_rows",
    "build_cache.hits",
    "build_cache.misses",
    "build_cache.lookups",
    "build_cache.kb",
    "batch.checks_per_write",
    "batch.check_probes_per_write",
    "batch.alloc_kb_per_write",
    "wal.appends",
    "wal.bytes_per_write",
    "wal.snapshots",
];

/// What one traced run printed: the digest line, the result line's
/// top-level fields, and every metric value.
#[derive(Debug)]
struct Run {
    digest: String,
    head: String,
    metrics: BTreeMap<String, String>,
}

fn traced_run(workload: &str, seed: u64) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest: "))
        .expect("a digest line")
        .to_owned();
    let last = stdout.lines().last().expect("a result line");
    let (head, body) = last.split_once("\"metrics\": {").expect("a metrics object");
    assert!(head.starts_with("{\"correct\": true,"), "{last}");
    // Each metric reads `"name": {"value": v, "unit": "u"}`.
    let metrics = body
        .split("}, ")
        .map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ").expect("a metric entry");
            let value = rest.split(',').next().expect("a value");
            (name.trim_matches('"').to_owned(), value.to_owned())
        })
        .collect();
    Run {
        digest,
        head: head.to_owned(),
        metrics,
    }
}

fn alloc_per_read(run: &Run) -> f64 {
    run.metrics["query.alloc_kb_per_read"]
        .parse()
        .expect("a number")
}

#[test]
fn one_seed_repeats_every_count_and_another_passes_the_checks() {
    for workload in ["oltp", "merged", "analytics"] {
        let a = traced_run(workload, 11);
        let b = traced_run(workload, 11);
        assert_eq!(a.digest, b.digest, "{workload}: results digest");
        assert_eq!(a.head, b.head, "{workload}: attempted and failed");
        for name in COUNTS {
            assert_eq!(
                a.metrics.get(*name),
                b.metrics.get(*name),
                "{workload}: {name} differs between two runs of one seed"
            );
        }
        let (x, y) = (alloc_per_read(&a), alloc_per_read(&b));
        assert!(
            (x - y).abs() <= 1e-3 * x.max(y),
            "{workload}: query.alloc_kb_per_read {x} vs {y}"
        );
        let c = traced_run(workload, 12);
        assert_ne!(a.digest, c.digest, "{workload}: the seed drives the inputs");
    }
}
