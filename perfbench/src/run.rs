//! Set-up, the closed loop, the answer checks and the metrics of one run.
//!
//! An untraced run sets the workload up five times (reporting the
//! median set-up time), warms up, then times a closed loop of operations
//! from one client thread and one `Session` for the requested seconds. A
//! traced run times a fixed-length prefix of the stream with every public
//! call wrapped in a span, and the same prefix untraced on a store of its
//! own: its counts repeat for a seed, its spans give each layer's
//! busy and self time, and the two loops give the tracing overhead. Both
//! kinds of run check every answer afterwards.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_core::{Merge, Merged};
use relmerge_engine::{
    BatchOutcome, Database, DbmsProfile, DmlError, DurabilityConfig, EngineConfig, FsyncPolicy,
    QueryStats, Session, Statement, Store, DEFAULT_SNAPSHOT_EVERY,
};
use relmerge_obs as obs;
use relmerge_relational::{Relation, Result as RelResult};
use relmerge_workload::{generate_university, University, UniversitySpec};

use crate::alloc;
use crate::ops::{self, Op, OpStream, Report, Request, Workload};
use crate::trace::{self, Layer, Trace};

/// Courses in the university instance every workload runs on (about 27k
/// tuples with the other generator settings at their defaults).
pub const COURSES: usize = 10_000;
/// Executor workers: one, so a run measures work, not scheduling.
pub const PARALLELISM: usize = 1;
/// The WAL never fsyncs: a flush on the shared disk varies more between
/// runs than the program does. Each flush the default policy would make
/// still shows as a count (`wal.appends`, `wal.snapshots`).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The relations the merged workload folds into [`MERGED_NAME`].
const MERGE_CHAIN: [&str; 4] = ["COURSE", "OFFER", "TEACH", "ASSIST"];
/// The merged relation's name.
const MERGED_NAME: &str = "COURSE_M";
/// Untimed warm-up before the timed loop, as a share of its seconds.
const WARMUP_SHARE: f64 = 0.1;

/// A boxed error: engine, DML and I/O errors all end the run.
pub type BoxResult<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One run's inputs.
#[derive(Debug)]
pub struct Config {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds the instance generator and the operation stream.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Courses in the university instance: [`COURSES`] on the command line.
    pub courses: usize,
    /// The durable store's data directory (emptied and removed by the run).
    pub data_dir: PathBuf,
}

impl Config {
    /// Operations each loop of a traced run executes. Fixed by the
    /// workload, seed and seconds alone, so every count repeats for a seed.
    /// Analytics runs 180 reports per second of `seconds`. The durable
    /// workloads run the stream up to its 100th write per second (the
    /// 1,000th at 10 s, so that the write p99 has ten samples beyond it),
    /// about `seconds` of oltp on a 2-core host.
    fn traced_ops(&self) -> usize {
        let per_second = |n: f64| ((n * self.seconds) as usize).max(10);
        match self.workload {
            Workload::Analytics => per_second(180.0),
            Workload::Oltp | Workload::Merged => {
                let writes = per_second(100.0);
                let mut seen = 0;
                self.stream()
                    .position(|op| {
                        seen += usize::from(op.is_write());
                        seen == writes
                    })
                    .map_or(writes, |i| i + 1)
            }
        }
    }

    fn spec(&self) -> UniversitySpec {
        ops::university_spec(self.courses)
    }

    /// The operation stream of the run's workload and seed.
    fn stream(&self) -> OpStream {
        OpStream::new(self.workload, self.seed, &self.spec())
    }

    /// The university instance of the run's seed.
    fn generate(&self) -> RelResult<University> {
        generate_university(&self.spec(), &mut StdRng::seed_from_u64(self.seed))
    }
}

/// One named metric with its unit.
#[derive(Debug)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The answer checks that failed, described; empty when all passed.
    pub failures: Vec<String>,
    /// Operations attempted in the loop the metrics describe.
    pub attempted: u64,
    /// Operations among them that returned `Err`.
    pub failed: u64,
    /// The results digest of every operation executed, checked against
    /// the replay.
    pub digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines: settings, extra figures, the ledger.
    pub lines: Vec<String>,
}

fn duration_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn ns_since(t: Instant) -> u64 {
    duration_ns(t, Instant::now())
}

fn memory_config() -> EngineConfig {
    EngineConfig::default().parallelism(PARALLELISM)
}

fn durable_config(dir: &Path, snapshot_every: u64) -> EngineConfig {
    memory_config().durability(Some(
        DurabilityConfig::new(dir)
            .snapshot_every(snapshot_every)
            .fsync(FSYNC),
    ))
}

/// A workload ready to serve traffic. It keeps no copy of the generated
/// instance, so that the live heap during the run is the engine's; the
/// answer checks generate it again from the seed.
struct Served {
    store: Store,
    session: Session,
    merged: Option<Merged>,
    stream: OpStream,
}

/// What one set-up measured.
#[derive(Debug, Default)]
struct SetupFigures {
    total_ns: u64,
    gen_ns: u64,
    seed_ns: u64,
    restart_ns: u64,
    replayed_records: u64,
    replayed_bytes: u64,
    plan_ns: u64,
    migrate_ns: u64,
    migrate_rows: u64,
    migrate_chunks: u64,
    migrate_alloc: u64,
    migrate_wal_bytes: u64,
    tuples: usize,
}

/// Reopens the durable store with `Database::recover`.
fn restart(cfg: &Config, trace: &mut Trace, fig: &mut SetupFigures) -> BoxResult<Database> {
    let config = durable_config(&cfg.data_dir, DEFAULT_SNAPSHOT_EVERY);
    let t = Instant::now();
    let (db, report) = trace.span("wal.recover", || Database::recover(config))?;
    fig.restart_ns = ns_since(t);
    fig.replayed_records = report.records_replayed();
    fig.replayed_bytes = report.wal_bytes_replayed;
    Ok(db)
}

/// Generates the instance, builds the store the workload serves from, and
/// opens the client's session.
///
/// Durable workloads seed the store through one logged batch with
/// `snapshot_every(1)`, so the data sits in a snapshot (`load_state` would
/// bypass the WAL), and reopen it with `Database::recover`. The merged
/// workload then plans the merge, migrates the reopened store online, and
/// restarts once more, replaying the migration record.
fn set_up(cfg: &Config, trace: &mut Trace) -> BoxResult<(Served, SetupFigures)> {
    let t0 = Instant::now();
    let mut fig = SetupFigures::default();
    let University { schema, state, .. } = trace.span("workload.generate", || cfg.generate())?;
    fig.gen_ns = ns_since(t0);
    fig.tuples = state.total_tuples();

    let db = if cfg.workload.durable() {
        if cfg.data_dir.exists() {
            std::fs::remove_dir_all(&cfg.data_dir)?;
        }
        let t = Instant::now();
        let schema = &schema;
        trace.span("wal.seed", move || -> BoxResult<()> {
            let batch: Vec<Statement> = state
                .iter()
                .flat_map(|(name, rel)| rel.iter().map(move |t| Statement::insert(name, t.clone())))
                .collect();
            // Gone before the commit, so the set-up heap peak holds only
            // the batch (the engine's input) and the engine's own memory.
            drop(state);
            let mut db = Database::new_with_config(
                schema.clone(),
                DbmsProfile::ideal(),
                durable_config(&cfg.data_dir, 1),
            )?;
            db.apply_batch(&batch)?;
            Ok(())
        })?;
        fig.seed_ns = ns_since(t);
        restart(cfg, trace, &mut fig)?
    } else {
        let mut db =
            Database::new_with_config(schema.clone(), DbmsProfile::ideal(), memory_config())?;
        trace.span("engine.load_state", || db.load_state(&state))?;
        drop(state);
        db
    };
    let mut store = Store::new(db);
    let mut session = store.session();

    let merged = if cfg.workload.merged() {
        let t = Instant::now();
        let plan = trace.span("core.plan", || -> RelResult<Merged> {
            let mut m = Merge::plan(&schema, &MERGE_CHAIN, MERGED_NAME)?;
            m.remove_all_removable()?;
            Ok(m)
        })?;
        fig.plan_ns = ns_since(t);
        let wal_bytes = || obs::global().counter("engine.wal.append_bytes").get();
        let (w0, a0, t) = (wal_bytes(), alloc::allocated(), Instant::now());
        let report = trace.span("session.migrate", || session.migrate(&plan))?;
        fig.migrate_ns = ns_since(t);
        fig.migrate_alloc = alloc::allocated() - a0;
        fig.migrate_wal_bytes = wal_bytes() - w0;
        fig.migrate_rows = report.rows_migrated as u64;
        fig.migrate_chunks = report.chunks_applied as u64;
        drop((report, session, store));
        store = Store::new(restart(cfg, trace, &mut fig)?);
        session = store.session();
        Some(plan)
    } else {
        None
    };
    fig.total_ns = ns_since(t0);
    Ok((
        Served {
            store,
            session,
            merged,
            stream: cfg.stream(),
        },
        fig,
    ))
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many operations.
    Count(usize),
}

/// What one pass of the closed loop measured.
#[derive(Debug, Default)]
struct LoopFigures {
    ops: usize,
    failed: u64,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    /// Sum of operation latencies.
    busy_ns: u64,
    wall_ns: u64,
    digest: u64,
    stats: QueryStats,
    read_alloc: u64,
    write_alloc: u64,
}

impl LoopFigures {
    fn reads(&self) -> u64 {
        self.read_ns.len() as u64
    }

    fn writes(&self) -> u64 {
        self.write_ns.len() as u64
    }
}

/// Folds one answer's digest into the running results digest.
fn fold(digest: u64, answer: u64) -> u64 {
    let mut h = DefaultHasher::new();
    digest.hash(&mut h);
    answer.hash(&mut h);
    h.finish()
}

/// Hashes a read's answer: its header and rows in order, or the error.
fn read_digest(result: &RelResult<(Relation, QueryStats)>) -> u64 {
    let mut h = DefaultHasher::new();
    match result {
        Ok((rel, _)) => {
            0u8.hash(&mut h);
            for a in rel.header() {
                a.name().hash(&mut h);
            }
            for t in rel.iter() {
                t.hash(&mut h);
            }
        }
        Err(e) => {
            1u8.hash(&mut h);
            e.to_string().hash(&mut h);
        }
    }
    h.finish()
}

/// Hashes a commit's answer: whether it committed, and where it failed.
fn write_digest(result: &Result<BatchOutcome, DmlError>) -> u64 {
    let mut h = DefaultHasher::new();
    match result {
        Ok(_) => 0u8.hash(&mut h),
        Err(e) => {
            1u8.hash(&mut h);
            e.statement_index().hash(&mut h);
        }
    }
    h.finish()
}

/// Runs operations from `stream` in a closed loop until `stop`, folding
/// every answer into `digest`. Read latency covers `Session::pin`,
/// `Snapshot::execute`, and dropping the result and the pin; write latency
/// covers `Session::apply_batch`. Lowering an operation to its request and
/// hashing its answer happen outside both.
fn run_loop(
    session: &Session,
    stream: &mut OpStream,
    merged: bool,
    stop: Stop,
    digest: u64,
    trace: &mut Trace,
) -> LoopFigures {
    let mut out = LoopFigures {
        digest,
        ..LoopFigures::default()
    };
    let start = Instant::now();
    loop {
        match stop {
            Stop::After(d) if start.elapsed() >= d => break,
            Stop::Count(n) if out.ops >= n => break,
            _ => {}
        }
        let Some(op) = stream.next() else { break };
        out.ops += 1;
        trace.set_op(out.ops as u64);
        match op.request(merged) {
            Request::Read(plan) => {
                let op_span = trace.open("op.read");
                let (a0, t0) = (alloc::allocated(), Instant::now());
                let pinned = trace.span("session.pin", || session.pin());
                let result = match &pinned {
                    Ok(snapshot) => trace.span("query.execute", || snapshot.execute(&plan)),
                    Err(e) => Err(e.clone()),
                };
                let (a1, t1) = (alloc::allocated(), Instant::now());
                let answer = trace.span("bench.digest", || read_digest(&result));
                match &result {
                    Ok((_, stats)) => out.stats += *stats,
                    Err(_) => out.failed += 1,
                }
                let (a2, t2) = (alloc::allocated(), Instant::now());
                trace.span("query.release", || drop((result, pinned)));
                let (a3, t3) = (alloc::allocated(), Instant::now());
                trace.close(op_span);
                let latency = duration_ns(t0, t1) + duration_ns(t2, t3);
                out.read_ns.push(latency);
                out.busy_ns += latency;
                out.read_alloc += (a1 - a0) + (a3 - a2);
                out.digest = fold(out.digest, answer);
            }
            Request::Write(stmts) => {
                let op_span = trace.open("op.write");
                let (a0, t0) = (alloc::allocated(), Instant::now());
                let result = trace.span("session.apply_batch", || session.apply_batch(&stmts));
                let (a1, t1) = (alloc::allocated(), Instant::now());
                trace.close(op_span);
                let latency = duration_ns(t0, t1);
                out.write_ns.push(latency);
                out.busy_ns += latency;
                out.write_alloc += a1 - a0;
                if result.is_err() {
                    out.failed += 1;
                }
                out.digest = fold(out.digest, write_digest(&result));
            }
        }
    }
    out.wall_ns = ns_since(start);
    out
}

/// The answer checks, run after the loop on the store that served it:
///
/// * `Store::verify_integrity` comes back clean;
/// * replaying the first `executed` operations of the stream, untimed, on
///   a plain in-memory `Database` (migrated first on `merged`) gives the
///   same results digest and the same final `snapshot()`;
/// * on `merged`, `Merged::invert` of the final state equals the final
///   state of the unmerged replay (Prop 4.1 on live data).
///
/// Returns the failures and the integrity audit's time.
fn check(
    cfg: &Config,
    served: &Served,
    executed: usize,
    loop_digest: u64,
    trace: &mut Trace,
) -> BoxResult<(Vec<String>, u64)> {
    let mut failures = Vec::new();
    let t = Instant::now();
    let integrity = trace.span("fault.verify_integrity", || served.store.verify_integrity());
    let verify_ns = ns_since(t);
    if !integrity.is_clean() {
        failures.push(format!("Store::verify_integrity: {integrity}"));
    }

    let university = cfg.generate()?;
    let plain = || -> BoxResult<Database> {
        let mut db = Database::new_with_config(
            university.schema.clone(),
            DbmsProfile::ideal(),
            memory_config(),
        )?;
        db.load_state(&university.state)?;
        Ok(db)
    };
    let replayed = || cfg.stream().take(executed);
    let mut reference = plain()?;
    if let Some(m) = &served.merged {
        reference.migrate(m)?;
    }
    // Reports come only from the read-only analytics stream, so a report's
    // answer never changes during a run: each distinct one runs once.
    let mut reports: HashMap<Report, u64> = HashMap::new();
    let mut digest = 0;
    for op in replayed() {
        let answer = match op {
            Op::Report(r) => *reports
                .entry(r)
                .or_insert_with(|| read_digest(&reference.execute(&ops::report_query(r)))),
            Op::University(_) => match op.request(cfg.workload.merged()) {
                Request::Read(plan) => read_digest(&reference.execute(&plan)),
                Request::Write(stmts) => write_digest(&reference.apply_batch(&stmts)),
            },
        };
        digest = fold(digest, answer);
    }
    if digest != loop_digest {
        failures.push(format!(
            "results digest {loop_digest:#018x} differs from the replay's {digest:#018x}"
        ));
    }
    let final_state = served.store.snapshot()?;
    if final_state != reference.snapshot()? {
        failures.push("final snapshot() differs from the replay's".to_owned());
    }

    if let Some(m) = &served.merged {
        let mut unmerged = plain()?;
        for op in replayed() {
            if let Request::Write(stmts) = op.request(false) {
                if let Err(e) = unmerged.apply_batch(&stmts) {
                    failures.push(format!("unmerged replay rejected a commit: {e}"));
                }
            }
        }
        if m.invert(&final_state)? != unmerged.snapshot()? {
            failures
                .push("Merged::invert(final state) differs from the unmerged replay".to_owned());
        }
    }
    Ok((failures, verify_ns))
}

/// Bytes of every file under `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Removes the data directory when the run ends, however it ends.
struct DataDir<'a>(&'a Path);

impl Drop for DataDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

/// Nearest-rank percentile of `samples` (0 when empty).
fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(sorted.len(), p) - 1] as f64
}

/// The 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

fn median(samples: &[u64]) -> f64 {
    percentile(samples, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Runs one workload as `cfg` asks.
pub fn run(cfg: &Config) -> BoxResult<Outcome> {
    let _cleanup = DataDir(&cfg.data_dir);
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn settings_line(cfg: &Config, fig: &SetupFigures) -> String {
    let spec = cfg.spec();
    format!(
        "settings: courses={} tuples={} departments={} faculty={} client_threads=1 \
         loop=closed parallelism={PARALLELISM} durable={} fsync={} snapshot_every={}",
        spec.courses,
        fig.tuples,
        spec.departments,
        ops::faculty(&spec),
        cfg.workload.durable(),
        FSYNC.label(),
        DEFAULT_SNAPSHOT_EVERY,
    )
}

/// A latency line: median and p99 with the sample count behind them.
fn latency_line(class: &str, samples: &[u64]) -> String {
    let n = samples.len();
    let beyond = if n == 0 { 0 } else { n - rank(n, 0.99) };
    format!(
        "{class}: p50 {:.1} us, p99 {:.1} us over {n} samples ({beyond} beyond p99)",
        median(samples) / 1e3,
        percentile(samples, 0.99) / 1e3,
    )
}

fn run_untraced(cfg: &Config) -> BoxResult<Outcome> {
    alloc::reset_peak();
    let mut off = Trace::new(false, 0);
    let mut figures = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        // The previous store goes first: set-ups must not overlap in the
        // heap, and the data directory is re-seeded.
        drop(served.take());
        let (s, fig) = set_up(cfg, &mut off)?;
        figures.push(fig);
        served = Some(s);
    }
    let mut served = served.expect("SETUPS > 0");
    let setup_peak = alloc::peak();
    alloc::reset_peak();
    let merged = cfg.workload.merged();
    let warmup = Duration::from_secs_f64(cfg.seconds * WARMUP_SHARE);
    let warm = run_loop(
        &served.session,
        &mut served.stream,
        merged,
        Stop::After(warmup),
        0,
        &mut off,
    );
    let timed = run_loop(
        &served.session,
        &mut served.stream,
        merged,
        Stop::After(Duration::from_secs_f64(cfg.seconds)),
        warm.digest,
        &mut off,
    );
    let loop_peak = alloc::peak();
    let disk = dir_bytes(&cfg.data_dir);
    let (failures, _) = check(cfg, &served, warm.ops + timed.ops, timed.digest, &mut off)?;

    let per_setup = |f: fn(&SetupFigures) -> u64| figures.iter().map(f).collect::<Vec<u64>>();
    let setup_s = median(&per_setup(|f| f.total_ns)) / 1e9;
    let metrics = vec![
        metric(
            "ops_per_s",
            ratio(timed.ops as f64, timed.busy_ns as f64 / 1e9),
            "1/s",
        ),
        metric("read_p50_us", median(&timed.read_ns) / 1e3, "us"),
        metric("read_p99_us", percentile(&timed.read_ns, 0.99) / 1e3, "us"),
        metric("heap_mb", setup_peak.max(loop_peak) as f64 / MIB, "MiB"),
        metric("setup_s", setup_s, "s"),
    ];

    let mut lines = vec![
        settings_line(cfg, &figures[0]),
        format!(
            "loop: {} ops in {:.3} s wall, {:.3} s busy in the engine, after {} warm-up ops; \
             {} reads, {} writes, {} failed",
            timed.ops,
            timed.wall_ns as f64 / 1e9,
            timed.busy_ns as f64 / 1e9,
            warm.ops,
            timed.reads(),
            timed.writes(),
            timed.failed,
        ),
        latency_line("reads", &timed.read_ns),
    ];
    if timed.writes() > 0 {
        lines.push(latency_line("writes", &timed.write_ns));
    }
    lines.push(format!(
        "set-up: median {setup_s:.4} s over {SETUPS}; medians: generate {:.1} ms, seed {:.1} ms, \
         restart {:.1} ms, plan {:.1} ms, migrate {:.1} ms",
        median(&per_setup(|f| f.gen_ns)) / 1e6,
        median(&per_setup(|f| f.seed_ns)) / 1e6,
        median(&per_setup(|f| f.restart_ns)) / 1e6,
        median(&per_setup(|f| f.plan_ns)) / 1e6,
        median(&per_setup(|f| f.migrate_ns)) / 1e6,
    ));
    lines.push(format!(
        "heap: peak {:.3} MiB live during set-up, {:.3} MiB during the loops",
        setup_peak as f64 / MIB,
        loop_peak as f64 / MIB
    ));
    if cfg.workload.durable() {
        lines.push(format!(
            "disk: {:.3} MiB in the data directory after the run",
            disk as f64 / MIB
        ));
    }
    Ok(Outcome {
        failures,
        attempted: timed.ops as u64,
        failed: timed.failed,
        digest: timed.digest,
        metrics,
        lines,
    })
}

fn run_traced(cfg: &Config) -> BoxResult<Outcome> {
    let n = cfg.traced_ops();
    let merged = cfg.workload.merged();
    // The untraced loop the overhead is measured against, each time on a
    // store of its own. It runs once before the traced loop only to bring
    // the process to the state the traced loop starts in (heap pages
    // faulted in, caches warm), and is timed after it.
    let untraced_loop = || -> BoxResult<LoopFigures> {
        let mut off = Trace::new(false, 0);
        let (mut plain, _) = set_up(cfg, &mut off)?;
        Ok(run_loop(
            &plain.session,
            &mut plain.stream,
            merged,
            Stop::Count(n),
            0,
            &mut off,
        ))
    };
    untraced_loop()?;

    let mut tr = Trace::new(true, 6 * n + 64);
    let (mut served, fig) = set_up(cfg, &mut tr)?;
    let before = obs::snapshot_all();
    let traced = run_loop(
        &served.session,
        &mut served.stream,
        merged,
        Stop::Count(n),
        0,
        &mut tr,
    );
    let diff = obs::snapshot_all().diff(&before);
    let cache_bytes = served.session.pin()?.build_cache_bytes();
    let disk = dir_bytes(&cfg.data_dir);
    tr.set_op(0);
    let (failures, verify_ns) = check(cfg, &served, traced.ops, traced.digest, &mut tr)?;
    drop(served);
    let untraced = untraced_loop()?;

    let spans_path = cfg.data_dir.with_file_name(format!(
        "perfbench-spans-{}-{}.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    trace::write_tsv(tr.spans(), &spans_path)?;
    let layers = trace::layers(tr.spans());
    let ledger = Ledger::new(&layers, &traced, &untraced);
    let mut lines = vec![
        settings_line(cfg, &fig),
        format!(
            "traced run: {} ops per loop ({} reads, {} writes, {} failed)",
            traced.ops,
            traced.reads(),
            traced.writes(),
            traced.failed,
        ),
        latency_line("traced reads", &traced.read_ns),
        format!(
            "spans: {} written to {}",
            tr.spans().len(),
            spans_path.display()
        ),
    ];
    if traced.writes() > 0 {
        lines.push(latency_line("traced writes", &traced.write_ns));
    }
    lines.extend(ledger.lines(&layers, &diff));

    let pin = layer(&layers, "session.pin");
    let exec = layer(&layers, "query.execute");
    let apply = layer(&layers, "session.apply_batch");
    let reads = traced.reads() as f64;
    let writes = traced.writes() as f64;
    let stats = traced.stats;
    let hits = count(&diff, "engine.query.build_cache.hits");
    let misses = count(&diff, "engine.query.build_cache.misses");
    let ms = |ns: u64| ns as f64 / 1e6;
    let kib = |bytes: u64| bytes as f64 / 1024.0;
    let metrics = vec![
        metric("workload.gen_ms", ms(fig.gen_ns), "ms"),
        metric("wal.seed_ms", ms(fig.seed_ns), "ms"),
        metric("wal.restart_ms", ms(fig.restart_ns), "ms"),
        metric("wal.replayed_records", fig.replayed_records as f64, "count"),
        metric("wal.replayed_kb", kib(fig.replayed_bytes), "KiB"),
        metric("wal.disk_mb", disk as f64 / MIB, "MiB"),
        metric("integrity.verify_ms", ms(verify_ns), "ms"),
        metric("core.plan_ms", ms(fig.plan_ns), "ms"),
        metric("migrate.ms", ms(fig.migrate_ns), "ms"),
        metric("migrate.rows", fig.migrate_rows as f64, "count"),
        metric("migrate.chunks", fig.migrate_chunks as f64, "count"),
        metric("migrate.alloc_mb", fig.migrate_alloc as f64 / MIB, "MiB"),
        metric("migrate.wal_kb", kib(fig.migrate_wal_bytes), "KiB"),
        metric("session.pin_p50_us", median(&pin.durations) / 1e3, "us"),
        metric(
            "session.pin_p99_us",
            percentile(&pin.durations, 0.99) / 1e3,
            "us",
        ),
        metric("session.pin_ms", busy_ms(pin), "ms"),
        metric(
            "session.commit_ms",
            busy_ms(apply) - hist_ms(&diff, BATCH_NS),
            "ms",
        ),
        metric("session.write_p50_us", median(&traced.write_ns) / 1e3, "us"),
        metric(
            "session.write_p99_us",
            percentile(&traced.write_ns, 0.99) / 1e3,
            "us",
        ),
        metric("query.exec_p50_us", median(&exec.durations) / 1e3, "us"),
        metric(
            "query.exec_p99_us",
            percentile(&exec.durations, 0.99) / 1e3,
            "us",
        ),
        metric("query.exec_ms", busy_ms(exec), "ms"),
        metric(
            "query.probes_per_read",
            ratio(stats.index_probes as f64, reads),
            "count/read",
        ),
        metric(
            "query.scanned_per_read",
            ratio(stats.rows_scanned as f64, reads),
            "count/read",
        ),
        metric(
            "query.joins_per_read",
            ratio(stats.joins as f64, reads),
            "count/read",
        ),
        metric(
            "query.rows_out_per_read",
            ratio(stats.rows_output as f64, reads),
            "count/read",
        ),
        metric(
            "query.intermediate_kb_per_read",
            ratio(kib(stats.intermediate_bytes), reads),
            "KiB/read",
        ),
        metric(
            "query.alloc_kb_per_read",
            ratio(kib(traced.read_alloc), reads),
            "KiB/read",
        ),
        metric(
            "query.examined_per_row",
            ratio(
                (stats.rows_scanned + stats.index_probes) as f64,
                stats.rows_output as f64,
            ),
            "count/row",
        ),
        metric(
            "pushdown.conjuncts",
            count(&diff, "engine.query.pushed_conjuncts"),
            "count",
        ),
        metric(
            "pushdown.pruned_rows",
            count(&diff, "engine.query.pushdown_pruned_rows"),
            "count",
        ),
        metric("build_cache.hits", hits, "count"),
        metric("build_cache.misses", misses, "count"),
        metric("build_cache.lookups", hits + misses, "count"),
        metric("build_cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("build_cache.kb", kib(cache_bytes), "KiB"),
        metric("batch.ms", hist_ms(&diff, BATCH_NS), "ms"),
        metric(
            "batch.checks_per_write",
            ratio(
                count(&diff, "engine.check.declarative") + count(&diff, "engine.check.procedural"),
                writes,
            ),
            "count/write",
        ),
        metric(
            "batch.check_probes_per_write",
            ratio(count(&diff, "engine.check.index_probes"), writes),
            "count/write",
        ),
        metric(
            "batch.alloc_kb_per_write",
            ratio(kib(traced.write_alloc), writes),
            "KiB/write",
        ),
        metric("wal.appends", count(&diff, "engine.wal.appends"), "count"),
        metric(
            "wal.bytes_per_write",
            ratio(count(&diff, "engine.wal.append_bytes"), writes),
            "B/write",
        ),
        metric("wal.append_ms", hist_ms(&diff, APPEND_NS), "ms"),
        metric(
            "wal.snapshots",
            count(&diff, "engine.wal.snapshots"),
            "count",
        ),
        metric("wal.snapshot_ms", hist_ms(&diff, SNAPSHOT_NS), "ms"),
        metric("ledger.other_pct", ledger.other_pct(), "%"),
        metric("trace.overhead_pct", ledger.overhead_pct, "%"),
    ];
    Ok(Outcome {
        failures,
        attempted: traced.ops as u64,
        failed: traced.failed,
        digest: traced.digest,
        metrics,
        lines,
    })
}

/// The engine's commit time per batch, WAL append and snapshot included.
const BATCH_NS: &str = "engine.batch.ns";
/// The engine's WAL append time.
const APPEND_NS: &str = "engine.wal.append_ns";
/// The engine's snapshot install time.
const SNAPSHOT_NS: &str = "engine.wal.snapshot_ns";

/// A counter's growth in `diff`, a diff of every `obs` registry.
fn count(diff: &obs::Snapshot, name: &str) -> f64 {
    diff.counters.get(name).copied().unwrap_or(0) as f64
}

/// A nanosecond histogram's growth in `diff`, in milliseconds.
fn hist_ms(diff: &obs::Snapshot, name: &str) -> f64 {
    diff.histograms
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn layer<'a>(layers: &'a BTreeMap<&str, Layer>, name: &str) -> &'a Layer {
    static EMPTY: Layer = Layer {
        calls: 0,
        busy_ns: 0,
        self_ns: 0,
        durations: Vec::new(),
    };
    layers.get(name).unwrap_or(&EMPTY)
}

fn busy_ms(l: &Layer) -> f64 {
    l.busy_ns as f64 / 1e6
}

/// The time ledger of the traced loop: operation time split into layers.
struct Ledger {
    /// Operation span time, answer hashing excluded.
    op_ms: f64,
    /// Operation time no layer span covers.
    other_ms: f64,
    overhead_pct: f64,
}

impl Ledger {
    fn new(layers: &BTreeMap<&str, Layer>, traced: &LoopFigures, untraced: &LoopFigures) -> Ledger {
        let ms = |name: &str| busy_ms(layer(layers, name));
        let op_ms = ms("op.read") + ms("op.write") - ms("bench.digest");
        let covered = [
            "session.pin",
            "query.execute",
            "query.release",
            "session.apply_batch",
        ]
        .iter()
        .map(|name| ms(name))
        .sum::<f64>();
        Ledger {
            op_ms,
            other_ms: op_ms - covered,
            overhead_pct: (ratio(traced.busy_ns as f64, untraced.busy_ns as f64) - 1.0) * 100.0,
        }
    }

    fn other_pct(&self) -> f64 {
        ratio(self.other_ms, self.op_ms) * 100.0
    }

    /// The ledger table: busy and self time per layer, engine-timed layers
    /// nested under the span that calls them.
    fn lines(&self, layers: &BTreeMap<&str, Layer>, diff: &obs::Snapshot) -> Vec<String> {
        let span_row = |depth: usize, name: &'static str| {
            let l = layer(layers, name);
            (depth, name, busy_ms(l), l.self_ns as f64 / 1e6, l.calls)
        };
        let mut rows: Vec<(usize, &str, f64, f64, u64)> = [
            (0, "workload.generate"),
            (0, "wal.seed"),
            (0, "wal.recover"),
            (0, "engine.load_state"),
            (0, "core.plan"),
            (0, "session.migrate"),
            (0, "op.read"),
            (1, "session.pin"),
            (1, "query.execute"),
            (1, "query.release"),
            (1, "bench.digest"),
            (0, "op.write"),
        ]
        .into_iter()
        .map(|(depth, name)| span_row(depth, name))
        .collect();
        let apply = layer(layers, "session.apply_batch");
        let (batch, append, snapshot) = (
            hist_ms(diff, BATCH_NS),
            hist_ms(diff, APPEND_NS),
            hist_ms(diff, SNAPSHOT_NS),
        );
        rows.extend([
            (
                1,
                "session.apply_batch",
                busy_ms(apply),
                busy_ms(apply) - batch,
                apply.calls,
            ),
            (
                2,
                "batch (engine.batch.ns)",
                batch,
                batch - append - snapshot,
                apply.calls,
            ),
            (
                3,
                "wal.append (engine.wal.append_ns)",
                append,
                append,
                count(diff, "engine.wal.appends") as u64,
            ),
            (
                3,
                "wal.snapshot (engine.wal.snapshot_ns)",
                snapshot,
                snapshot,
                count(diff, "engine.wal.snapshots") as u64,
            ),
            span_row(0, "fault.verify_integrity"),
        ]);
        let mut lines = vec![format!(
            "ledger: {:<44} {:>10} {:>10} {:>8}",
            "layer", "busy ms", "self ms", "calls"
        )];
        lines.extend(rows.into_iter().map(|(depth, name, busy, own, calls)| {
            format!(
                "ledger: {:<44} {busy:>10.3} {own:>10.3} {calls:>8}",
                format!("{}{name}", "  ".repeat(depth))
            )
        }));
        lines.push(format!(
            "ledger: other {:.3} ms = {:.2}% of {:.3} ms operation time (answer hashing \
             excluded); tracing overhead {:.2}% against the untraced loop",
            self.other_ms,
            self.other_pct(),
            self.op_ms,
            self.overhead_pct,
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Tuple, Value};

    /// The answer checks fail when the served store diverges from the
    /// replay of the stream it executed.
    #[test]
    fn checks_catch_a_store_that_diverges_from_the_replay() {
        for (workload, relation) in [(Workload::Oltp, "COURSE"), (Workload::Merged, MERGED_NAME)] {
            let cfg = Config {
                workload,
                seed: 3,
                seconds: 1.0,
                trace: false,
                courses: 200,
                data_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
                    "target/perfbench-check-{}-{}",
                    workload.name(),
                    std::process::id()
                )),
            };
            let _cleanup = DataDir(&cfg.data_dir);
            let mut off = Trace::new(false, 0);
            let (mut served, _) = set_up(&cfg, &mut off).unwrap();
            let run = run_loop(
                &served.session,
                &mut served.stream,
                workload.merged(),
                Stop::Count(300),
                0,
                &mut off,
            );
            let (failures, _) = check(&cfg, &served, run.ops, run.digest, &mut off).unwrap();
            assert!(failures.is_empty(), "{failures:?}");

            let mut row = vec![Value::Int(77_777)];
            if workload.merged() {
                row.extend([Value::text("dept0"), Value::Null, Value::Null]);
            }
            let extra = Statement::insert(relation, Tuple::new(row));
            served.session.apply_batch(&[extra]).unwrap();
            let (failures, _) = check(&cfg, &served, run.ops, run.digest, &mut off).unwrap();
            assert!(
                failures.iter().any(|f| f.contains("snapshot()")),
                "{failures:?}"
            );
        }
    }
}
