//! `sdt` — a command-line reimplementation of the paper's Schema
//! Definition and Translation tool \[12\].
//!
//! ```text
//! sdt [--demo <fig1|fig7|fig8i|fig8ii|fig8iii|fig8iv|random[:SEED]>]
//!     [--dialect <db2|sybase40|ingres63|sql92>]
//!     [--merge]            use merging (SDT option ii); default is 1:1
//!     [--migration]        also print data-migration SQL for each merge
//!     [--advise]           deploy the 1:1 schema live, run a probe
//!                          workload, and print the advisor's ranked
//!                          workload-backed merge proposals
//!     [--migrate]          like --advise, then execute the admissible
//!                          proposals online against the live database
//!     [--report]           print merge reports instead of raw schemas
//!     [--metrics <text|json>]  print collected metrics after the run
//!     [--profile <text|json>]  print the hot-join ranking of the
//!                          workload's join ledger
//!     [--data-dir <dir>]   durable engine mode: recover the database in
//!                          <dir> if it holds a snapshot (printing a
//!                          one-line recovery report), otherwise initialize
//!                          <dir> and seed it with the demo's 1:1 schema
//!                          and probe state through the write-ahead log
//!     [--recover]          require recovery: fail instead of initializing
//!                          when --data-dir holds no snapshot
//! ```
//!
//! Example: `sdt --demo fig7 --dialect sybase40 --merge --migration`
//!
//! `--metrics` also runs a small engine *maintenance probe*: the generated
//! schema is deployed to the in-memory engine under the dialect's capability
//! profile and a synthetic state is inserted tuple-by-tuple, so the metric
//! output includes per-mechanism (declarative vs. procedural) constraint
//! check counts and latencies; with `--migrate`, the live database's
//! `engine.migrate.ns` histogram times the migration. `--profile`
//! additionally runs a *query probe* (scans, point lookups, and one join
//! per inclusion dependency) and prints the hot-join ranking the merge
//! advisor consumes; the probe's per-query totals are the
//! `engine.query.*` counters `--metrics` lists.

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_core::{Advisor, MergeReport};
use relmerge_ddl::{backward_migration, forward_migration, generate, Dialect};
use relmerge_eer::{figures, model::EerSchema, translate};
use relmerge_engine::{Database, DurabilityConfig, EngineConfig, JoinStep, QueryPlan};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, RelationalSchema, Tuple};
use relmerge_workload::{consistent_state, random_eer, EerSpec, StateSpec};

#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq)]
enum ProfileFormat {
    Text,
    Json,
}

struct Args {
    demo: String,
    dialect: Dialect,
    merge: bool,
    migration: bool,
    advise: bool,
    migrate: bool,
    report: bool,
    metrics: Option<MetricsFormat>,
    profile: Option<ProfileFormat>,
    data_dir: Option<std::path::PathBuf>,
    recover: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        demo: "fig7".to_owned(),
        dialect: Dialect::Sql92,
        merge: false,
        migration: false,
        advise: false,
        migrate: false,
        report: false,
        metrics: None,
        profile: None,
        data_dir: None,
        recover: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--demo" => {
                args.demo = it.next().ok_or("--demo needs a value")?;
            }
            "--dialect" => {
                let v = it.next().ok_or("--dialect needs a value")?;
                args.dialect = match v.as_str() {
                    "db2" => Dialect::Db2,
                    "sybase40" => Dialect::Sybase40,
                    "ingres63" => Dialect::Ingres63,
                    "sql92" => Dialect::Sql92,
                    other => return Err(format!("unknown dialect `{other}`")),
                };
            }
            "--merge" => args.merge = true,
            "--migration" => args.migration = true,
            "--advise" => args.advise = true,
            "--migrate" => args.migrate = true,
            "--report" => args.report = true,
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a value")?;
                args.metrics = Some(match v.as_str() {
                    "text" => MetricsFormat::Text,
                    "json" => MetricsFormat::Json,
                    other => return Err(format!("unknown metrics format `{other}`")),
                });
            }
            "--profile" => {
                let v = it.next().ok_or("--profile needs a value")?;
                args.profile = Some(match v.as_str() {
                    "text" => ProfileFormat::Text,
                    "json" => ProfileFormat::Json,
                    other => return Err(format!("unknown profile format `{other}`")),
                });
            }
            "--data-dir" => {
                args.data_dir = Some(std::path::PathBuf::from(
                    it.next().ok_or("--data-dir needs a value")?,
                ));
            }
            "--recover" => args.recover = true,
            "--help" | "-h" => {
                println!(
                    "sdt [--demo <fig1|fig7|fig8i|fig8ii|fig8iii|fig8iv|random[:SEED]>] \
                     [--dialect <db2|sybase40|ingres63|sql92>] [--merge] [--migration] \
                     [--advise] [--migrate] [--report] \
                     [--metrics <text|json>] [--profile <text|json>] \
                     [--data-dir <dir>] [--recover]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Deploys `schema` on the in-memory engine and inserts `state` tuple by
/// tuple, retrying rejected tuples until a fixed point (intra-relation
/// references can need a later pass). Returns the database so its metrics
/// shard stays alive until the final snapshot is printed.
fn engine_probe(
    schema: &RelationalSchema,
    state: &DatabaseState,
    dialect: Dialect,
) -> Option<Database> {
    let mut db = Database::new(schema.clone(), dialect.profile()).ok()?;
    let mut pending: Vec<(String, Tuple)> = Vec::new();
    for (name, relation) in state.iter() {
        for t in relation.iter() {
            pending.push((name.to_owned(), t.clone()));
        }
    }
    loop {
        let before = pending.len();
        pending.retain(|(rel, t)| !matches!(db.insert(rel, t.clone()), Ok(true)));
        if pending.is_empty() || pending.len() == before {
            break;
        }
    }
    // Delete probe: try removing the first row of every relation. Rows
    // still referenced by others exercise the RESTRICT check path and
    // stay put; the rest exercise the delete path.
    for s in schema.schemes() {
        let Ok(relation) = state.relation_required(s.name()) else {
            continue;
        };
        let Some(t) = relation.iter().next() else {
            continue;
        };
        let Ok(pk_pos) = relation.positions(&s.primary_key()) else {
            continue;
        };
        let key = Tuple::new(pk_pos.iter().map(|i| t.get(*i).clone()).collect::<Vec<_>>());
        let _ = db.delete_by_key(s.name(), &key);
    }
    Some(db)
}

/// Runs a small read workload against a probed database so `--profile` has
/// something to report: a full scan of every relation, a primary-key point
/// lookup of each relation's first row, and one join per inclusion
/// dependency (the access paths merging is meant to shorten).
fn query_probe(db: &Database, schema: &RelationalSchema, state: &DatabaseState) {
    for s in schema.schemes() {
        let _ = db.execute(&QueryPlan::scan(s.name()));
        let Ok(relation) = state.relation_required(s.name()) else {
            continue;
        };
        let Some(t) = relation.iter().next() else {
            continue;
        };
        let pk = s.primary_key();
        let Ok(pk_pos) = relation.positions(&pk) else {
            continue;
        };
        let key = Tuple::new(pk_pos.iter().map(|i| t.get(*i).clone()).collect::<Vec<_>>());
        let _ = db.execute(&QueryPlan::lookup(s.name(), &pk, key));
    }
    for ind in schema.inds() {
        let left: Vec<&str> = ind.lhs_attrs.iter().map(String::as_str).collect();
        let right: Vec<&str> = ind.rhs_attrs.iter().map(String::as_str).collect();
        let plan = QueryPlan::scan(&ind.lhs_rel).join(JoinStep::inner(&ind.rhs_rel, &left, &right));
        let _ = db.execute(&plan);
    }
}

fn demo_schema(name: &str) -> Result<EerSchema, String> {
    Ok(match name {
        "fig1" => figures::fig1_eer(),
        "fig7" => figures::fig7_eer(),
        "fig8i" => figures::fig8_i(),
        "fig8ii" => figures::fig8_ii(),
        "fig8iii" => figures::fig8_iii(),
        "fig8iv" => figures::fig8_iv(),
        other => {
            if let Some(rest) = other.strip_prefix("random") {
                let seed: u64 = rest
                    .strip_prefix(':')
                    .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
                    .transpose()?
                    .unwrap_or(0);
                let mut rng = StdRng::seed_from_u64(seed);
                random_eer(&EerSpec::default(), &mut rng)
            } else {
                return Err(format!("unknown demo `{other}`"));
            }
        }
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdt: {e}");
            std::process::exit(2);
        }
    };
    let eer = match demo_schema(&args.demo) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("sdt: {e}");
            std::process::exit(2);
        }
    };
    println!("-- SDT: demo `{}`, dialect {}", args.demo, args.dialect);
    println!("-- EER schema:\n{eer}");

    let base = match translate(&eer) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdt: translation failed: {e}");
            std::process::exit(1);
        }
    };

    let (schema, pipeline) = if args.merge {
        match Advisor::new(&args.dialect.profile()).greedy_pipeline(&base) {
            Ok((s, p)) => (s, Some(p)),
            Err(e) => {
                eprintln!("sdt: merging failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        (base.clone(), None)
    };

    if let Some(pipeline) = &pipeline {
        println!(
            "-- option (ii): merging applied; {} -> {} relation-schemes, {} join(s) eliminated",
            base.schemes().len(),
            schema.schemes().len(),
            pipeline.joins_eliminated()
        );
        if args.report {
            for step in pipeline.steps() {
                println!("{}", MergeReport::new(step));
            }
        }
    } else {
        println!(
            "-- option (i): one-to-one, {} relation-schemes",
            schema.schemes().len()
        );
    }

    match generate(&schema, args.dialect) {
        Ok(script) => {
            println!("{}", script.render());
            let unsupported = script.unsupported();
            if !unsupported.is_empty() {
                eprintln!(
                    "sdt: warning: {} constraint(s) not maintainable on {}",
                    unsupported.len(),
                    args.dialect
                );
            }
        }
        Err(e) => {
            eprintln!("sdt: DDL generation failed: {e}");
            std::process::exit(1);
        }
    }

    // Durable engine mode: recover an existing data directory (printing
    // the one-line recovery report) or initialize a fresh one seeded with
    // the demo's 1:1 schema and probe state, every write flowing through
    // the write-ahead log so a later `--recover` run has bytes to replay.
    if args.recover && args.data_dir.is_none() {
        eprintln!("sdt: --recover requires --data-dir");
        std::process::exit(2);
    }
    if let Some(dir) = &args.data_dir {
        let durable = EngineConfig::default().durability(Some(DurabilityConfig::new(dir)));
        if relmerge_engine::wal::is_initialized(dir) {
            match Database::recover(durable) {
                Ok((db, report)) => {
                    println!("-- {report}");
                    let check = db.verify_integrity();
                    println!(
                        "-- durable database at {}: {} relation(s), integrity {}",
                        dir.display(),
                        db.schema().schemes().len(),
                        if check.is_clean() {
                            "clean"
                        } else {
                            "VIOLATED"
                        }
                    );
                }
                Err(e) => {
                    eprintln!("sdt: recovery failed: {e}");
                    std::process::exit(1);
                }
            }
        } else if args.recover {
            eprintln!(
                "sdt: --recover: `{}` holds no snapshot to recover from",
                dir.display()
            );
            std::process::exit(1);
        } else {
            match Database::new_with_config(base.clone(), args.dialect.profile(), durable) {
                Ok(mut db) => {
                    let mut rng = StdRng::seed_from_u64(42);
                    let spec = StateSpec {
                        root_rows: 16,
                        coverage: 0.5,
                    };
                    let mut logged = 0usize;
                    if let Ok(state) = consistent_state(&base, &spec, &mut rng) {
                        let mut pending: Vec<(String, Tuple)> = Vec::new();
                        for (name, relation) in state.iter() {
                            for t in relation.iter() {
                                pending.push((name.to_owned(), t.clone()));
                            }
                        }
                        // Intra-relation references can need a later pass.
                        loop {
                            let before = pending.len();
                            pending.retain(|(rel, t)| {
                                let inserted = matches!(db.insert(rel, t.clone()), Ok(true));
                                logged += usize::from(inserted);
                                !inserted
                            });
                            if pending.is_empty() || pending.len() == before {
                                break;
                            }
                        }
                    }
                    println!(
                        "-- durable database initialized at {}: {} tuple(s) logged",
                        dir.display(),
                        logged
                    );
                }
                Err(e) => {
                    eprintln!("sdt: could not initialize `{}`: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
    }

    if args.migration {
        if let Some(pipeline) = &pipeline {
            for step in pipeline.steps() {
                match forward_migration(step) {
                    Ok(sql) => {
                        println!("-- forward migration for {}:\n{sql}\n", step.merged_name())
                    }
                    Err(e) => eprintln!("sdt: forward migration failed: {e}"),
                }
                match backward_migration(step) {
                    Ok(stmts) => {
                        println!("-- backward migration for {}:", step.merged_name());
                        for s in stmts {
                            println!("{s}\n");
                        }
                    }
                    Err(e) => eprintln!("sdt: backward migration failed: {e}"),
                }
            }
        } else {
            eprintln!("sdt: --migration has no effect without --merge");
        }
    }

    // The live path: deploy the 1:1 schema on the engine, run the probe
    // workload so the profiler accumulates join evidence, and let the
    // advisor rank merges from what the workload actually paid for.
    // `--migrate` then executes the admissible proposals online.
    if args.advise || args.migrate {
        let mut rng = StdRng::seed_from_u64(42);
        let spec = StateSpec {
            root_rows: 16,
            coverage: 0.5,
        };
        match consistent_state(&base, &spec, &mut rng) {
            Ok(state) => match engine_probe(&base, &state, args.dialect) {
                Some(mut db) => {
                    query_probe(&db, &base, &state);
                    let advisor = Advisor::new(db.profile());
                    match advisor.propose_from_profile(&db.profile_snapshot(), &base) {
                        Ok(proposals) => {
                            println!(
                                "-- advisor: {} proposal(s) from the live workload profile",
                                proposals.len()
                            );
                            for (i, p) in proposals.iter().enumerate() {
                                println!(
                                    "--   {}. {:?}: observed cost {}, eliminates {} join(s), \
                                     admissible on {}: {}",
                                    i + 1,
                                    p.members,
                                    p.observed_cost,
                                    p.joins_eliminated,
                                    args.dialect,
                                    p.admissible
                                );
                            }
                        }
                        Err(e) => eprintln!("sdt: advisor failed: {e}"),
                    }
                    if args.migrate {
                        match db.advise_and_migrate() {
                            Ok(applied) if applied.is_empty() => println!(
                                "-- live migration: nothing to do (no admissible \
                                 workload-backed merge)"
                            ),
                            Ok(applied) => {
                                for a in &applied {
                                    println!(
                                        "-- live migration: {} <- {:?} ({} row(s), \
                                         dropped {:?})",
                                        a.report.merged_name,
                                        a.report.members,
                                        a.report.rows_migrated,
                                        a.report.dropped
                                    );
                                }
                                println!(
                                    "-- integrity after migration: {}",
                                    if db.verify_integrity().is_clean() {
                                        "clean"
                                    } else {
                                        "VIOLATIONS"
                                    }
                                );
                                println!("-- post-migration schema:\n{}", db.schema());
                            }
                            Err(e) => eprintln!("sdt: live migration failed: {e}"),
                        }
                    }
                }
                None => eprintln!(
                    "sdt: live probe deployment failed under {} (schema not hostable)",
                    args.dialect
                ),
            },
            Err(e) => eprintln!("sdt: probe state generation failed: {e}"),
        }
    }

    // Engine maintenance probe (drives the per-mechanism check metrics).
    // The returned databases hold their metric shards alive until the
    // snapshot below.
    let mut probes: Vec<Database> = Vec::new();
    if args.metrics.is_some() || args.profile.is_some() {
        let mut rng = StdRng::seed_from_u64(42);
        let spec = StateSpec {
            root_rows: 16,
            coverage: 0.5,
        };
        match consistent_state(&base, &spec, &mut rng) {
            Ok(base_state) => {
                if let Some(db) = engine_probe(&base, &base_state, args.dialect) {
                    if args.profile.is_some() {
                        query_probe(&db, &base, &base_state);
                    }
                    probes.push(db);
                }
                if let Some(pipeline) = &pipeline {
                    match pipeline.apply(&base_state) {
                        Ok(merged_state) => {
                            if let Some(db) = engine_probe(&schema, &merged_state, args.dialect) {
                                if args.profile.is_some() {
                                    query_probe(&db, &schema, &merged_state);
                                }
                                probes.push(db);
                            }
                        }
                        Err(e) => eprintln!("sdt: probe state mapping failed: {e}"),
                    }
                }
            }
            Err(e) => eprintln!("sdt: probe state generation failed: {e}"),
        }
    }

    if let Some(format) = args.metrics {
        let snap = obs::snapshot_all();
        match format {
            MetricsFormat::Text => {
                println!("-- metrics:");
                print!("{}", obs::to_text(&snap));
            }
            MetricsFormat::Json => println!("{}", obs::to_json(&snap)),
        }
    }
    if let Some(format) = args.profile {
        // Probe databases are independent engines with independent
        // profilers; merge their snapshots into one workload view.
        let mut snap = obs::ProfileSnapshot::default();
        for db in &probes {
            snap.merge(&db.profile_snapshot());
        }
        match format {
            ProfileFormat::Text => {
                println!("-- hot joins:");
                print!("{}", obs::report_to_text(&snap.hot_joins));
            }
            ProfileFormat::Json => println!("{}", obs::report_to_json(&snap.hot_joins)),
        }
    }
    drop(probes);
}
