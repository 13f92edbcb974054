//! The measured experiments B1–B15. Each returns a [`Report`] whose cell
//! names are the keys of its `BENCH_<name>.json` artifact.

use std::hint::black_box;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_core::{Merge, Merged};
use relmerge_engine::{
    Database, DbmsProfile, DmlError, JoinStep, Predicate, QueryPlan, Statement, Store,
};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, Error, Result, Tuple, Value};
use relmerge_workload::{generate_university, University, UniversitySpec};

use crate::report::{Cell, Report, Row};

/// The university COURSE-chain merge used by B1/B2/B4: merge
/// {COURSE, OFFER, TEACH, ASSIST} and remove every redundant key.
pub fn university_merge(courses: usize, seed: u64) -> Result<(University, Merged)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut m = Merge::plan(
        &u.schema,
        &["COURSE", "OFFER", "TEACH", "ASSIST"],
        "COURSE_M",
    )?;
    m.remove_all_removable()?;
    Ok((u, m))
}

/// Builds the two engine databases of the comparison: the unmerged Figure 3
/// schema and the merged/removed one, loaded with equivalent states.
pub fn university_databases(u: &University, m: &Merged) -> Result<(Database, Database)> {
    let mut unmerged = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    unmerged.load_state(&u.state)?;
    let merged_state = m.apply(&u.state)?;
    let mut merged = Database::new(m.schema().clone(), DbmsProfile::ideal())?;
    merged.load_state(&merged_state)?;
    Ok((unmerged, merged))
}

/// The unmerged "course detail" point query: course → offer → teach →
/// assist (3 joins, the paper's motivating join chain).
#[must_use]
pub fn unmerged_point_query(nr: i64) -> QueryPlan {
    QueryPlan::lookup("COURSE", &["C.NR"], Tuple::new([Value::Int(nr)]))
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
        .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]))
}

/// The merged equivalent: one index probe.
#[must_use]
pub fn merged_point_query(nr: i64) -> QueryPlan {
    QueryPlan::lookup("COURSE_M", &["C.NR"], Tuple::new([Value::Int(nr)]))
}

/// Reverse lookup — "courses taught by faculty member F" — against the
/// unmerged schema: probe TEACH's secondary index, then walk up the chain.
#[must_use]
pub fn unmerged_by_faculty_query(ssn: i64) -> QueryPlan {
    QueryPlan::lookup("TEACH", &["T.F.SSN"], Tuple::new([Value::Int(ssn)]))
        .join(JoinStep::inner("OFFER", &["T.C.NR"], &["O.C.NR"]))
        .join(JoinStep::inner("COURSE", &["O.C.NR"], &["C.NR"]))
        .select(&["C.NR", "O.D.NAME"])
}

/// The merged equivalent: one secondary-index probe (the index exists
/// because the merged scheme's `T.F.SSN` column is a foreign key).
#[must_use]
pub fn merged_by_faculty_query(ssn: i64) -> QueryPlan {
    QueryPlan::lookup("COURSE_M", &["T.F.SSN"], Tuple::new([Value::Int(ssn)]))
        .select(&["C.NR", "O.D.NAME"])
}

/// The unmerged analytical query: full course listing with department,
/// teacher, and assistant.
#[must_use]
pub fn unmerged_scan_query() -> QueryPlan {
    QueryPlan::scan("COURSE")
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
        .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]))
}

/// The merged equivalent: one scan.
#[must_use]
pub fn merged_scan_query() -> QueryPlan {
    QueryPlan::scan("COURSE_M")
}

/// B1: merged-vs-unmerged retrieval cost across instance scales.
pub fn query_speedup(scales: &[usize], queries_per_scale: usize) -> Result<Report> {
    let mut rows = Vec::new();
    for &courses in scales {
        let _scale_span = obs::span("bench.b1.scale").field("courses", courses);
        let (u, m) = university_merge(courses, 42)?;
        let (unmerged, merged) = university_databases(&u, &m)?;
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<i64> = (0..queries_per_scale)
            .map(|_| *u.offered_courses.choose(&mut rng).expect("offers exist"))
            .collect();

        // Warm-up + correctness cross-check on one key.
        let probe_key = keys[0];
        let (r1, s1) = unmerged.execute(&unmerged_point_query(probe_key))?;
        let (r2, s2) = merged.execute(&merged_point_query(probe_key))?;
        assert_eq!(r1.len(), r2.len(), "result cardinality must agree");

        let t = obs::timer("bench.b1.point.unmerged").field("queries", keys.len());
        for &k in &keys {
            let _ = unmerged.execute(&unmerged_point_query(k))?;
        }
        let unmerged_ns = t.stop() as f64 / keys.len() as f64;
        let t = obs::timer("bench.b1.point.merged").field("queries", keys.len());
        for &k in &keys {
            let _ = merged.execute(&merged_point_query(k))?;
        }
        let merged_ns = t.stop() as f64 / keys.len() as f64;

        // Scans: warm up once, then average several iterations (a single
        // cold measurement is dominated by first-touch page faults).
        let (scan1, _) = unmerged.execute(&unmerged_scan_query())?;
        let (scan2, _) = merged.execute(&merged_scan_query())?;
        assert_eq!(scan1.len(), scan2.len(), "scan cardinality must agree");
        const SCAN_ITERS: u32 = 5;
        let t = obs::timer("bench.b1.scan.unmerged");
        for _ in 0..SCAN_ITERS {
            let _ = unmerged.execute(&unmerged_scan_query())?;
        }
        let scan_unmerged_ns = t.stop() as f64 / f64::from(SCAN_ITERS);
        let t = obs::timer("bench.b1.scan.merged");
        for _ in 0..SCAN_ITERS {
            let _ = merged.execute(&merged_scan_query())?;
        }
        let scan_merged_ns = t.stop() as f64 / f64::from(SCAN_ITERS);

        // Reverse lookups ("courses taught by faculty F"): a walk up the
        // chain against one probe of the merged relation's secondary index.
        let ssns: Vec<i64> = (0..queries_per_scale)
            .map(|_| 10_000 + rng.gen_range(0..200))
            .collect();
        let (r1, _) = unmerged.execute(&unmerged_by_faculty_query(ssns[0]))?;
        let (r2, _) = merged.execute(&merged_by_faculty_query(ssns[0]))?;
        assert!(r1.set_eq_unordered(&r2), "reverse lookups must agree");
        let t = obs::timer("bench.b1.reverse.unmerged").field("queries", ssns.len());
        for &ssn in &ssns {
            let _ = unmerged.execute(&unmerged_by_faculty_query(ssn))?;
        }
        let reverse_unmerged_ns = t.stop() as f64 / ssns.len() as f64;
        let t = obs::timer("bench.b1.reverse.merged").field("queries", ssns.len());
        for &ssn in &ssns {
            let _ = merged.execute(&merged_by_faculty_query(ssn))?;
        }
        let reverse_merged_ns = t.stop() as f64 / ssns.len() as f64;

        rows.push(
            Row::new()
                .cell("courses", courses)
                .cell("unmerged_probes", s1.index_probes)
                .cell("merged_probes", s2.index_probes)
                .cell("unmerged_ns", Cell::Num(unmerged_ns, 0))
                .cell("merged_ns", Cell::Num(merged_ns, 0))
                .cell("point_speedup", Cell::Num(unmerged_ns / merged_ns, 2))
                .cell("scan_unmerged_ns", Cell::Num(scan_unmerged_ns, 0))
                .cell("scan_merged_ns", Cell::Num(scan_merged_ns, 0))
                .cell(
                    "scan_speedup",
                    Cell::Num(scan_unmerged_ns / scan_merged_ns, 2),
                )
                .cell("reverse_unmerged_ns", Cell::Num(reverse_unmerged_ns, 0))
                .cell("reverse_merged_ns", Cell::Num(reverse_merged_ns, 0)),
        );
    }
    let mut report = Report::new("B1: query speedup (merged vs unmerged), university workload");
    report.scale = format!("{scales:?} courses, {queries_per_scale} point queries");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// B2: constraint-maintenance cost of inserting course bundles into the
/// unmerged schema (fully declarative on DB2) versus the merged schema,
/// whose general null constraints run as SYBASE-style triggers or, on the
/// ideal profile, natively: the same one-statement insert with no trigger
/// tier.
pub fn maintenance_cost(entities: usize) -> Result<Report> {
    let (u, m) = university_merge(10, 1)?;
    let mut rows = Vec::new();

    // Unmerged: DB2 profile — every constraint is declarative.
    {
        let mut db = Database::new(u.schema.clone(), DbmsProfile::db2())?;
        db.load_state(&u.state)?;
        // Seed references.
        let dept = Value::text("dept0");
        let faculty = Value::Int(10_000);
        let student = Value::Int(10_400);
        let _ = db.take_stats(); // discard the load phase
        let t = obs::timer("bench.b2.insert").field("scenario", "unmerged");
        for i in 0..entities {
            let nr = Value::Int(1_000_000 + i as i64);
            db.insert("COURSE", Tuple::new([nr.clone()]))
                .expect("course insert");
            db.insert("OFFER", Tuple::new([nr.clone(), dept.clone()]))
                .expect("offer insert");
            db.insert("TEACH", Tuple::new([nr.clone(), faculty.clone()]))
                .expect("teach insert");
            db.insert("ASSIST", Tuple::new([nr, student.clone()]))
                .expect("assist insert");
        }
        rows.push(maintenance_row(
            "unmerged (DB2, declarative)",
            entities,
            &db.take_stats(),
            t.stop(),
        ));
    }

    // Merged: a course bundle is a single statement. SYBASE checks the
    // NS/NE constraints through triggers; the ideal profile natively.
    let merged_state = m.apply(&u.state)?;
    for (scenario, profile) in [
        ("merged (SYBASE 4.0, triggers)", DbmsProfile::sybase40()),
        ("merged (ideal, native)", DbmsProfile::ideal()),
    ] {
        let mut db = Database::new(m.schema().clone(), profile)?;
        db.load_state(&merged_state)?;
        let dept = Value::text("dept0");
        let faculty = Value::Int(10_000);
        let student = Value::Int(10_400);
        let _ = db.take_stats(); // discard the load phase
        let t = obs::timer("bench.b2.insert").field("scenario", scenario);
        for i in 0..entities {
            let nr = Value::Int(1_000_000 + i as i64);
            db.insert(
                "COURSE_M",
                Tuple::new([nr, dept.clone(), faculty.clone(), student.clone()]),
            )
            .expect("merged insert");
        }
        rows.push(maintenance_row(
            scenario,
            entities,
            &db.take_stats(),
            t.stop(),
        ));
    }
    let mut report = Report::new("B2: maintenance cost per inserted course bundle");
    report.scale = format!("{entities} course bundles");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// One B2 row: statements and checks of `entities` bundle inserts that
/// took `elapsed_ns`.
fn maintenance_row(
    scenario: &str,
    entities: usize,
    stats: &relmerge_engine::MaintenanceStats,
    elapsed_ns: u64,
) -> Row {
    Row::new()
        .cell("scenario", scenario)
        .cell("entities", entities)
        .cell("statements", stats.inserts)
        .cell("declarative", stats.declarative_checks)
        .cell("procedural", stats.procedural_checks)
        .cell(
            "ns_per_entity",
            Cell::Num(elapsed_ns as f64 / entities as f64, 0),
        )
}

/// B3: the cost of the schema-design procedures as the merge set grows,
/// and of the state mappings as the data grows.
///
/// Each star of `satellites` satellites has one non-key attribute per
/// satellite, referencing one of two external schemes. With one such
/// attribute, [`relmerge_core::AdvisorConfig::declarative_only`] admits
/// the merge; with two, general null constraints remain (Proposition
/// 5.2) and the advisor applies nothing. Timed per star: `Merge::plan`
/// of the whole star, `remove_all_removable` of a fresh plan (planned
/// untimed), the advisor's `propose_static` and `greedy`, and the query
/// planner on a query spanning the root and the last satellite. Timed
/// per `root_rows`: η (`Merged::apply`) and η′ (`Merged::invert`) of a
/// 3-satellite star.
///
/// Asserted: every merged scheme is BCNF (Proposition 4.1), `greedy`
/// applies at least one merge, and η′(η(r)) = r at every size.
pub fn merge_scaling(satellites: &[usize], root_rows: &[usize]) -> Result<Report> {
    use relmerge_core::{Advisor, AdvisorConfig};
    use relmerge_engine::LogicalQuery;
    use relmerge_workload::{consistent_state, star_merge_set, star_schema, StarSpec, StateSpec};

    let _span = obs::span("bench.b3.merge_scaling");
    let advisor = Advisor::new(AdvisorConfig::declarative_only());
    let mut procedures = Vec::new();
    for &n in satellites {
        let spec = StarSpec {
            satellites: n,
            non_key_attrs: 1,
            externals: 2,
        };
        let schema = star_schema(&spec);
        let set = star_merge_set(&spec);
        let refs: Vec<&str> = set.iter().map(String::as_str).collect();
        let plan = || Merge::plan(&schema, &refs, "MERGED");
        let mut merged = plan()?;
        let arity_before = merged.merged_scheme().attr_names().len();
        let planned_bcnf = merged.schema().is_bcnf();
        merged.remove_all_removable()?;
        assert!(
            planned_bcnf && merged.schema().is_bcnf(),
            "every merged scheme must be BCNF ({n} satellites)"
        );
        let (_, applied) = advisor.greedy(&schema)?;
        assert!(!applied.is_empty(), "greedy must merge ({n} satellites)");
        let last = format!("S{}.V0", n - 1);
        let query = LogicalQuery::select(&["ROOT.K", &last]);
        let remove = |mut m: Merged| m.remove_all_removable().map(|_| m);
        procedures.push(
            Row::new()
                .cell("satellites", n)
                .cell("arity_before", arity_before)
                .cell("arity_after", merged.merged_scheme().attr_names().len())
                .cell("greedy_merges", applied.len())
                .cell("plan_us", median_us(plan)?)
                .cell("remove_us", median_us_with(plan, remove)?)
                .cell("propose_us", median_us(|| advisor.propose_static(&schema))?)
                .cell("greedy_us", median_us(|| advisor.greedy(&schema))?)
                .cell(
                    "query_plan_us",
                    median_us(|| relmerge_engine::plan(&schema, &query))?,
                ),
        );
    }

    let spec = StarSpec {
        satellites: 3,
        non_key_attrs: 2,
        externals: 0,
    };
    let schema = star_schema(&spec);
    let set = star_merge_set(&spec);
    let refs: Vec<&str> = set.iter().map(String::as_str).collect();
    let merged = Merge::plan(&schema, &refs, "MERGED")?;
    let mut mappings = Vec::new();
    for &rows in root_rows {
        let mut rng = StdRng::seed_from_u64(13);
        let spec = StateSpec {
            root_rows: rows,
            coverage: 0.7,
        };
        let state = consistent_state(&schema, &spec, &mut rng)?;
        let image = merged.apply(&state)?;
        assert_eq!(
            merged.invert(&image)?,
            state,
            "η′(η(r)) must equal r ({rows} root rows)"
        );
        mappings.push(
            Row::new()
                .cell("root_rows", rows)
                .cell("tuples", state.total_tuples())
                .cell("merged_tuples", image.total_tuples())
                .cell("apply_us", median_us(|| merged.apply(&state))?)
                .cell("invert_us", median_us(|| merged.invert(&image))?),
        );
    }
    let mut report =
        Report::new("B3: cost of the procedures (Merge, Remove, advisor, planner, η/η′)");
    report.scale =
        format!("{satellites:?} star satellites, {root_rows:?} root rows, median of {RUNS} runs");
    report.tables.push(("procedures", procedures));
    report.tables.push(("mappings", mappings));
    Ok(report)
}

/// B6: the same read-mostly operation stream executed against the
/// unmerged and merged databases at each scale — the whole-workload view
/// of the §1 trade-off (reads get cheaper, writes bundle up).
pub fn mixed_workload(scales: &[usize], n_ops: usize) -> Result<Report> {
    use relmerge_workload::{university_ops, MixSpec, UniversityOp};

    let mut rows = Vec::new();
    for &courses in scales {
        let (u, m) = university_merge(courses, 21)?;
        let mut rng = StdRng::seed_from_u64(77);
        // Defaults: 20 departments, 200 faculty (persons 500 × 2/5).
        let ops = university_ops(&MixSpec::default(), n_ops, courses, 20, 200, &mut rng);
        let reads = ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    UniversityOp::CourseDetail { .. } | UniversityOp::ByFaculty { .. }
                )
            })
            .count();
        let row = |scenario: &str, total_ns: u64| {
            Row::new()
                .cell("courses", courses)
                .cell("scenario", scenario)
                .cell("ops", n_ops)
                .cell("reads", reads)
                .cell("writes", n_ops - reads)
                .cell("total_ns", total_ns)
                .cell("ns_per_op", Cell::Num(total_ns as f64 / n_ops as f64, 0))
        };

        // Unmerged execution.
        let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
        db.load_state(&u.state)?;
        let t = obs::timer("bench.b6.run").field("scenario", "unmerged");
        for op in &ops {
            match op {
                UniversityOp::CourseDetail { nr } => {
                    let _ = db.execute(&unmerged_point_query(*nr))?;
                }
                UniversityOp::ByFaculty { ssn } => {
                    let _ = db.execute(&unmerged_by_faculty_query(*ssn))?;
                }
                UniversityOp::AddCourse { nr, dept, teacher } => {
                    db.insert("COURSE", Tuple::new([Value::Int(*nr)]))
                        .expect("fresh course");
                    db.insert(
                        "OFFER",
                        Tuple::new([Value::Int(*nr), Value::text(format!("dept{dept}"))]),
                    )
                    .expect("valid offer");
                    if let Some(t) = teacher {
                        db.insert("TEACH", Tuple::new([Value::Int(*nr), Value::Int(*t)]))
                            .expect("valid teach");
                    }
                }
                UniversityOp::DropCourse { nr } => {
                    let key = Tuple::new([Value::Int(*nr)]);
                    let _ = db.delete_by_key("TEACH", &key).expect("restrict-free");
                    let _ = db.delete_by_key("ASSIST", &key).expect("restrict-free");
                    let _ = db.delete_by_key("OFFER", &key).expect("restrict-free");
                    let _ = db.delete_by_key("COURSE", &key).expect("restrict-free");
                }
            }
        }
        let unmerged_ns = t.stop();
        rows.push(row("unmerged (4 relations)", unmerged_ns));

        // Merged execution.
        let merged_state = m.apply(&u.state)?;
        let mut db = Database::new(m.schema().clone(), DbmsProfile::ideal())?;
        db.load_state(&merged_state)?;
        let t = obs::timer("bench.b6.run").field("scenario", "merged");
        for op in &ops {
            match op {
                UniversityOp::CourseDetail { nr } => {
                    let _ = db.execute(&merged_point_query(*nr))?;
                }
                UniversityOp::ByFaculty { ssn } => {
                    let _ = db.execute(&merged_by_faculty_query(*ssn))?;
                }
                UniversityOp::AddCourse { nr, dept, teacher } => {
                    db.insert(
                        "COURSE_M",
                        Tuple::new([
                            Value::Int(*nr),
                            Value::text(format!("dept{dept}")),
                            teacher.map_or(Value::Null, Value::Int),
                            Value::Null,
                        ]),
                    )
                    .expect("valid merged insert");
                }
                UniversityOp::DropCourse { nr } => {
                    let _ = db
                        .delete_by_key("COURSE_M", &Tuple::new([Value::Int(*nr)]))
                        .expect("restrict-free");
                }
            }
        }
        let merged_ns = t.stop();
        rows.push(row("merged (COURSE_M)", merged_ns).cell(
            "merged_speedup",
            Cell::Num(unmerged_ns as f64 / merged_ns as f64, 2),
        ));
    }
    let mut report =
        Report::new("B6: mixed workload (80% point reads, 10% reverse reads, 10% DML)");
    report.scale = format!("{scales:?} courses, {n_ops} operations");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// Applies one statement through the immediate per-statement API — the
/// baseline the batch path is measured against.
fn apply_single(db: &mut Database, stmt: &Statement) -> Result<()> {
    match stmt {
        Statement::Insert { rel, tuple } => {
            db.insert(rel, tuple.clone())?;
        }
        Statement::Delete { rel, key } => {
            db.delete_by_key(rel, key)?;
        }
        Statement::Update { rel, key, tuple } => {
            db.update_by_key(rel, key, tuple.clone())?;
        }
    }
    Ok(())
}

/// B7: batched DML with deferred group validation versus per-statement
/// application of the identical write stream, at each scale. Both runs
/// must end in the same [`relmerge_relational::DatabaseState`]; the
/// batched run performs strictly fewer constraint checks and index probes
/// because commit-time validation checks each constraint once over the
/// touched rows of a relation instead of once per statement.
pub fn batch_dml(scales: &[usize], n_ops: usize, batch_size: usize) -> Result<Report> {
    use relmerge_workload::{university_ops, write_batches, MixSpec};

    let _span = obs::span("bench.b7.batch_dml")
        .field("ops", n_ops)
        .field("batch_size", batch_size);
    let mut rows = Vec::new();
    for &courses in scales {
        let (u, m) = university_merge(courses, 21)?;
        let mut rng = StdRng::seed_from_u64(77);
        // A write-only mix: reads lower to no statements anyway.
        let spec = MixSpec {
            point_reads: 0.0,
            reverse_reads: 0.0,
            inserts: 0.7,
            deletes: 0.3,
        };
        let ops = university_ops(&spec, n_ops, courses, 20, 200, &mut rng);
        let merged_state = m.apply(&u.state)?;

        for (scenario, merged) in [("unmerged (Figure 3)", false), ("merged (COURSE_M)", true)] {
            let batches = write_batches(&ops, merged, batch_size);
            let build = || -> Result<Database> {
                let mut db = if merged {
                    Database::new(m.schema().clone(), DbmsProfile::ideal())?
                } else {
                    Database::new(u.schema.clone(), DbmsProfile::ideal())?
                };
                db.load_state(if merged { &merged_state } else { &u.state })?;
                Ok(db)
            };

            // Per-statement baseline: every statement validated on its own.
            let mut eager_db = build()?;
            let _ = eager_db.take_stats(); // discard the load phase
            let t = obs::timer("bench.b7.eager").field("scenario", scenario);
            for stmt in batches.iter().flatten() {
                apply_single(&mut eager_db, stmt)?;
            }
            let eager_ns = t.stop();
            let eager = eager_db.take_stats();

            // Batched: all-or-nothing batches with deferred group validation.
            let mut batched_db = build()?;
            let _ = batched_db.take_stats();
            let mut deferred_checks = 0u64;
            let t = obs::timer("bench.b7.batched").field("scenario", scenario);
            for batch in &batches {
                deferred_checks += batched_db.apply_batch(batch)?.deferred_checks;
            }
            let batched_ns = t.stop();
            let batched = batched_db.take_stats();

            // The two application orders must be indistinguishable afterwards.
            assert_eq!(
                eager_db.snapshot()?,
                batched_db.snapshot()?,
                "batched and per-statement runs must converge on one state"
            );

            rows.push(
                Row::new()
                    .cell("courses", courses)
                    .cell("scenario", scenario)
                    .cell("statements", batches.iter().map(Vec::len).sum::<usize>())
                    .cell("batches", batches.len())
                    .cell("eager_checks", eager.total_checks())
                    .cell("batched_checks", batched.total_checks())
                    .cell("eager_probes", eager.index_probes)
                    .cell("batched_probes", batched.index_probes)
                    .cell("deferred_checks", deferred_checks)
                    .cell("eager_ns", eager_ns)
                    .cell("batched_ns", batched_ns)
                    .cell("speedup", Cell::Num(eager_ns as f64 / batched_ns as f64, 2)),
            );
        }
    }
    let mut report = Report::new("B7: batched DML (deferred group validation) vs per-statement");
    report.scale = format!("{scales:?} courses, {n_ops} writes in batches of {batch_size}");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// B4: the effect of `Remove` on relation size and constraint count
/// (paper §4.2: removing redundant attributes "simplifies the set of null
/// constraints … as well as reduces the size of the relations"), and on
/// the time to materialize the merged relation (η) and to scan it.
pub fn remove_effect(scales: &[usize]) -> Result<Report> {
    let mut rows = Vec::new();
    for &courses in scales {
        let mut rng = StdRng::seed_from_u64(5);
        let u = generate_university(
            &UniversitySpec {
                courses,
                ..UniversitySpec::default()
            },
            &mut rng,
        )?;
        // The merged relation of `m`, with the median η and scan times.
        let measure = |m: &Merged| -> Result<(relmerge_relational::Relation, Cell, Cell)> {
            let state = m.apply(&u.state)?;
            let eta_us = median_us(|| m.apply(&u.state))?;
            let mut db = Database::new(m.schema().clone(), DbmsProfile::ideal())?;
            db.load_state(&state)?;
            let scan_us = median_us(|| db.execute(&merged_scan_query()))?;
            let merged = state.relation("COURSE_M").expect("merged relation");
            Ok((merged.clone(), eta_us, scan_us))
        };
        let mut m = Merge::plan(
            &u.schema,
            &["COURSE", "OFFER", "TEACH", "ASSIST"],
            "COURSE_M",
        )?;
        let (before, eta_before_us, scan_before_us) = measure(&m)?;
        let before_constraints = m.generated_null_constraints().len();
        m.remove_all_removable()?;
        let (after, eta_after_us, scan_after_us) = measure(&m)?;
        rows.push(
            Row::new()
                .cell("courses", courses)
                .cell("arity_before", before.arity())
                .cell("arity_after", after.arity())
                .cell("values_before", before.value_count())
                .cell("values_after", after.value_count())
                .cell("nulls_before", before.null_count())
                .cell("nulls_after", after.null_count())
                .cell("constraints_before", before_constraints)
                .cell("constraints_after", m.generated_null_constraints().len())
                .cell("eta_before_us", eta_before_us)
                .cell("eta_after_us", eta_after_us)
                .cell("scan_before_us", scan_before_us)
                .cell("scan_after_us", scan_after_us),
        );
    }
    let mut report = Report::new("B4: effect of Remove on the merged relation");
    report.scale = format!("{scales:?} courses");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// B5: the relational substrate the technique is built on — the §2
/// outer-equi-join and the total projection that reverses it, the five
/// §3 null-constraint kinds, and the FD and null-existence closures
/// behind the BCNF test and `Remove`.
///
/// Per size `n` in `sizes`: a join of two 3-column relations of `n` rows
/// each, whose keys step by 2 and by 4 so that half of each side matches,
/// and the total projection of the result on the left header. The
/// constraints are checked over a relation of the largest size whose odd
/// rows are null in their last two columns. The closures walk chains of
/// 8 and 32 attributes.
///
/// Asserted: the join has `n + n/2` rows (both sides are padded), the
/// total projection recovers the left operand, every constraint holds,
/// both closures reach the whole chain, and the FD chain is not BCNF.
pub fn substrate(sizes: &[usize]) -> Result<Report> {
    use relmerge_relational::nullcon::ne_closure;
    use relmerge_relational::{
        algebra, Attribute, Domain, Fd, FdSet, NullConstraint, Relation, RelationScheme,
    };

    let _span = obs::span("bench.b5.substrate");
    let header = |prefix: &str, width: usize| -> Vec<Attribute> {
        (0..width)
            .map(|c| Attribute::new(format!("{prefix}.A{c}"), Domain::Int))
            .collect()
    };
    // Row r of an `n`-row relation holds r·stride + c in column c.
    let int_relation = |prefix: &str, n: usize, stride: i64| {
        Relation::with_rows(
            header(prefix, 3),
            (0..n as i64).map(|r| Tuple::new([0, 1, 2].map(|c| Value::Int(r * stride + c)))),
        )
    };
    let mut joins = Vec::new();
    for &n in sizes {
        let left = int_relation("L", n, 2)?;
        let right = int_relation("R", n, 4)?;
        let on = [("L.A0", "R.A0")];
        let left_attrs = ["L.A0", "L.A1", "L.A2"];
        let joined = algebra::outer_equi_join(&left, &right, &on)?;
        assert_eq!(joined.len(), n + n / 2, "both sides of the join are padded");
        assert_eq!(
            algebra::total_project(&joined, &left_attrs)?,
            left,
            "the total projection must recover the left operand"
        );
        joins.push(
            Row::new()
                .cell("rows", n)
                .cell("joined_rows", joined.len())
                .cell(
                    "join_us",
                    median_us(|| algebra::outer_equi_join(&left, &right, &on))?,
                )
                .cell(
                    "project_us",
                    median_us(|| algebra::total_project(&joined, &left_attrs))?,
                ),
        );
    }

    let n = sizes.iter().copied().max().unwrap_or(0);
    let half_null = Relation::with_rows(
        header("M", 4),
        (0..n as i64).map(|r| {
            let tail = |v: i64| {
                if r % 2 == 0 {
                    Value::Int(v)
                } else {
                    Value::Null
                }
            };
            Tuple::new([Value::Int(r), Value::Int(r), tail(r + 1), tail(r + 2)])
        }),
    )?;
    let constraints = [
        ("nna", NullConstraint::nna("M", &["M.A0"])),
        ("null_sync", NullConstraint::ns("M", &["M.A2", "M.A3"])),
        (
            "null_existence",
            NullConstraint::ne("M", &["M.A2"], &["M.A3"]),
        ),
        (
            "total_equality",
            NullConstraint::te("M", &["M.A0"], &["M.A1"]),
        ),
        (
            "part_null",
            NullConstraint::pn("M", &[&["M.A0", "M.A1"], &["M.A2", "M.A3"]]),
        ),
    ];
    let mut checks = Vec::new();
    for (kind, constraint) in &constraints {
        assert!(constraint.satisfied_by(&half_null)?, "{kind} must hold");
        checks.push(Row::new().cell("constraint", *kind).cell("rows", n).cell(
            "check_us",
            median_us(|| constraint.satisfied_by(&half_null))?,
        ));
    }

    let mut chains = Vec::new();
    for width in [8, 32] {
        let attrs = header("R", width);
        let names: Vec<String> = attrs.iter().map(|a| a.name().to_owned()).collect();
        let scheme = RelationScheme::new("R", attrs, &[&names[0]])?;
        // A0 → A1 → … → A(width−1), and the same chain of null-existence
        // constraints.
        let mut fds = FdSet::new();
        let mut nes = Vec::new();
        for pair in names.windows(2) {
            fds.push(Fd::new("R", &[&pair[0]], &[&pair[1]]));
            nes.push(NullConstraint::ne("R", &[&pair[0]], &[&pair[1]]));
        }
        let start = [names[0].as_str()];
        let closure = fds.closure("R", &start);
        let ne = ne_closure(&nes, "R", &start);
        assert!(
            closure.len() == width && ne.len() == width,
            "the closures must reach the whole {width}-attribute chain"
        );
        let bcnf = fds.is_bcnf(&scheme);
        assert!(!bcnf, "a non-key FD chain is not BCNF");
        chains.push(
            Row::new()
                .cell("attrs", width)
                .cell("closure_attrs", closure.len())
                .cell("ne_closure_attrs", ne.len())
                .cell("bcnf", bcnf)
                .cell("closure_us", median_us(|| Ok(fds.closure("R", &start)))?)
                .cell("bcnf_us", median_us(|| Ok(fds.is_bcnf(&scheme)))?)
                .cell(
                    "ne_closure_us",
                    median_us(|| Ok(ne_closure(&nes, "R", &start)))?,
                ),
        );
    }
    let mut report =
        Report::new("B5: the relational substrate (outer-equi-join, null constraints, closures)");
    report.scale = format!("{sizes:?} rows, median of {RUNS} runs");
    report.tables.push(("joins", joins));
    report.tables.push(("null_constraints", checks));
    report.tables.push(("chains", chains));
    Ok(report)
}

/// The B8 composite-key join: ASSIST ⋈ TEACH on `(C.NR, SSN)`. No index
/// covers TEACH's composite `[T.C.NR, T.F.SSN]` (its key is `[T.C.NR]`
/// alone), so the planner builds one transient hash table from a single
/// scan of TEACH.
/// The result is legitimately empty — faculty and student SSNs are
/// disjoint — which keeps the query a pure measure of join work.
#[must_use]
pub fn composite_no_index_query() -> QueryPlan {
    QueryPlan::scan("ASSIST").join(JoinStep::inner(
        "TEACH",
        &["A.C.NR", "A.S.SSN"],
        &["T.C.NR", "T.F.SSN"],
    ))
}

/// The worker counts every sweep-style experiment measures: 1, 2, 4, and
/// the machine's available parallelism, deduplicated and sorted. Counts
/// above the physical core count are kept on purpose — the determinism
/// guarantee says they must still produce byte-identical results, and on
/// a single-core host they are the only multi-worker data points.
#[must_use]
pub fn worker_sweep(cores: usize) -> Vec<usize> {
    let mut sweep = vec![1, 2, 4, cores.max(1)];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// B8: the morsel-parallel executor on the unmerged university schema,
/// swept over every [`worker_sweep`] worker count.
///
/// Two queries are measured: the B1 chain scan (covering indexes exist,
/// so every join probes its index once per left row) and
/// [`composite_no_index_query`] (no covering index, so the join scans
/// TEACH once to build a transient hash table). Each row's `speedup`
/// compares its worker count with workers = 1: the median of per-pair
/// `serial / parallel` ratios from an interleaved loop (host speed drifts
/// by up to 2× between runs on shared machines, and pairing cancels the
/// drift). On a single-core host the honest value is ≈ 1.0×.
///
/// Every run is asserted byte-identical, with identical
/// [`relmerge_engine::QueryStats`], to its serial counterpart. The build
/// cache is disabled throughout — B8 measures workers;
/// [`build_cache_speedup`] (B10) measures the cache.
pub fn parallel_query(courses: usize, iters: u32) -> Result<Report> {
    let _span = obs::span("bench.b8.parallel_query").field("courses", courses);
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    db.load_state(&u.state)?;
    let cores = db.parallelism();
    db.configure(db.config().build_cache_capacity(0));

    let queries = [
        ("chain scan (COURSE + 3 outer joins)", unmerged_scan_query()),
        (
            "composite join (ASSIST x TEACH)",
            composite_no_index_query(),
        ),
    ];
    let mut rows = Vec::new();
    for (label, plan) in queries {
        db.configure(db.config().parallelism(1));
        let (serial_rel, serial_stats) = db.execute(&plan)?; // warm-up
        let t = obs::timer("bench.b8.serial").field("query", label);
        for _ in 0..iters {
            let _ = db.execute(&plan)?;
        }
        let serial_ns = t.stop() as f64 / f64::from(iters);

        for &workers in &worker_sweep(cores) {
            db.configure(db.config().parallelism(workers));
            let (par_rel, par_stats) = db.execute(&plan)?; // warm-up
            assert_eq!(
                par_rel, serial_rel,
                "parallel result must be byte-identical"
            );
            assert_eq!(par_stats, serial_stats, "parallel stats must be identical");
            let _t = obs::timer("bench.b8.parallel")
                .field("query", label)
                .field("workers", workers);
            let mut treat = Vec::with_capacity(iters as usize);
            let mut ratios = Vec::with_capacity(iters as usize);
            for _ in 0..iters {
                db.configure(db.config().parallelism(1));
                let s_ns = timed(&db, &plan)?;
                db.configure(db.config().parallelism(workers));
                let t_ns = timed(&db, &plan)?;
                treat.push(t_ns);
                ratios.push(s_ns / t_ns);
            }
            let parallel_ns = quantile(&mut treat, 0.5);
            rows.push(
                Row::new()
                    .cell("query", label)
                    .cell("courses", courses)
                    .cell("workers", workers)
                    .cell("rows_out", serial_rel.len())
                    .cell("serial_ns", Cell::Num(serial_ns, 0))
                    .cell("parallel_ns", Cell::Num(parallel_ns, 0))
                    .cell("speedup", Cell::Num(quantile(&mut ratios, 0.5), 4))
                    .cell(
                        "rows_per_sec",
                        Cell::Num(serial_rel.len() as f64 * 1e9 / parallel_ns, 0),
                    )
                    .cell("morsels", serial_stats.morsels)
                    .cell("hash_builds", serial_stats.hash_builds)
                    .cell("rows_scanned", serial_stats.rows_scanned)
                    .cell("index_probes", serial_stats.index_probes),
            );
        }
    }
    let mut report = Report::new("B8: morsel-parallel executor, each worker count vs workers = 1");
    report.scale = format!("{courses} courses, {iters} timed runs");
    report.tables.push(("b8", rows));
    Ok(report)
}

/// Wall time (ns) of one execution of `plan`.
fn timed(db: &Database, plan: &QueryPlan) -> Result<f64> {
    let t0 = std::time::Instant::now();
    let _ = db.execute(plan)?;
    Ok(obs::elapsed_ns(t0) as f64)
}

/// The `q`-quantile of `xs`, interpolating between the closest ranks
/// (sorts in place; 0 for an empty sample), so `q = 0.5` is the median.
/// Benchmarks on shared hosts see multi-× interference spikes; the median
/// discards them where a mean would absorb them.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = (xs.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Timed runs behind each median of [`median_us`].
const RUNS: usize = 11;

/// The median wall time of [`RUNS`] runs of `f`, after one untimed
/// warm-up run: a report cell in µs.
fn median_us<T>(mut f: impl FnMut() -> Result<T>) -> Result<Cell> {
    median_us_with(|| Ok(()), |()| f())
}

/// [`median_us`] of `run`, each run on a fresh input from `setup`, which
/// is not timed. Each result is dropped after its clock stops.
fn median_us_with<S, T>(
    mut setup: impl FnMut() -> Result<S>,
    mut run: impl FnMut(S) -> Result<T>,
) -> Result<Cell> {
    drop(run(setup()?)?);
    let mut xs = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let input = setup()?;
        let t0 = Instant::now();
        let out = black_box(run(black_box(input))?);
        xs.push(obs::elapsed_ns(t0) as f64 / 1e3);
        drop(out);
    }
    Ok(Cell::Num(quantile(&mut xs, 0.5), 3))
}

/// The reference a pushed-down filter must match: `plan` run without its
/// filter, keeping the answer rows the filter matches, in order, with the
/// unfiltered run's stats and trace. For unprojected plans: the filter
/// compiles against the answer's header.
fn filter_at_top(
    db: &Database,
    plan: &QueryPlan,
) -> Result<(
    relmerge_relational::Relation,
    relmerge_engine::QueryStats,
    relmerge_engine::QueryTrace,
)> {
    let unfiltered = QueryPlan {
        filter: None,
        ..plan.clone()
    };
    let (all, stats, trace) = db.execute_traced(&unfiltered)?;
    let Some(filter) = &plan.filter else {
        return Ok((all, stats, trace));
    };
    let cp = filter.compile(all.header())?;
    let kept = all.iter().filter(|t| cp.matches(t.values())).cloned();
    let answer = relmerge_relational::Relation::with_rows(all.header().to_vec(), kept)?;
    Ok((answer, stats, trace))
}

/// B15: optimizer-driven predicate pushdown versus the filter evaluated
/// at the top of the unfiltered plan (`filter_at_top`), on the unmerged
/// university schema.
///
/// Two queries are measured. The *selective chain* scans COURSE,
/// inner-joins TEACH (where the pushed `Eq(T.F.SSN, ssn)` keeps roughly
/// one faculty member's courses out of ~200), then inner-joins ASSIST on
/// the composite non-indexed `[T.C.NR, T.F.SSN]`. Both sides scan the
/// same rows — the root and one ASSIST build — so the pushdown's effect is
/// the stream entering the ASSIST join, which must shrink at least 10×.
/// Like B8's composite query the result is legitimately empty (faculty
/// and student SSNs are disjoint), keeping the query a pure measure of
/// filter placement. The *root Eq upgrade* filters a two-relation outer
/// chain on the root key; the optimizer converts the full scan into an
/// index point lookup, so `rows_scanned` drops to zero.
///
/// Both sides are asserted byte-identical per query. Latency pairs are
/// interleaved off/on with the median-of-ratios estimator (B8's
/// drift-cancelling idiom). The build cache is disabled so every
/// execution pays its own access work.
pub fn predicate_pushdown(courses: usize, iters: u32) -> Result<Report> {
    let _span = obs::span("bench.b15.predicate_pushdown").field("courses", courses);
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    db.load_state(&u.state)?;
    db.configure(db.config().build_cache_capacity(0));

    // The first faculty SSN: teaches ~1/200th of the offered courses.
    let ssn = 10_000_i64;
    let chain = QueryPlan::scan("COURSE")
        .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
        .join(JoinStep::inner(
            "ASSIST",
            &["T.C.NR", "T.F.SSN"],
            &["A.C.NR", "A.S.SSN"],
        ))
        .filter(Predicate::eq("T.F.SSN", ssn));
    let offered = *u.offered_courses.first().expect("offered course");
    let root_eq = QueryPlan::scan("COURSE")
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .filter(Predicate::eq("C.NR", offered));

    let queries = [
        ("selective chain (Eq pushed to TEACH)", &chain, true),
        ("root Eq upgrade (scan -> lookup)", &root_eq, false),
    ];
    let mut report = Report::new("B15: predicate pushdown (evaluate filters where the data lives)");
    let mut rows = Vec::new();
    for (label, plan, is_chain) in queries {
        let (off_rel, off_stats, off_trace) = filter_at_top(&db, plan)?;
        let before = db.metrics_registry().snapshot();
        let (on_rel, on_stats, on_trace) = db.execute_traced(plan)?;
        let after = db.metrics_registry().snapshot();
        assert_eq!(
            on_rel, off_rel,
            "pushdown must return the filter at the top's answer ({label})"
        );
        let counter = |name: &str| after.counters[name] - before.counters[name];
        if is_chain {
            let assist_rows_in = |trace: &relmerge_engine::QueryTrace| {
                trace
                    .ops
                    .iter()
                    .find(|op| op.label.contains(" ASSIST ON "))
                    .expect("the chain joins ASSIST")
                    .stats
                    .rows_in
            };
            let (off_in, on_in) = (assist_rows_in(&off_trace), assist_rows_in(&on_trace));
            assert!(
                on_in * 10 <= off_in,
                "pushdown must cut the rows entering the ASSIST join >= 10x: on={on_in} off={off_in}"
            );
            report.text.push(format!(
                "rows entering the ASSIST join: {off_in} -> {on_in}"
            ));
        } else {
            assert_eq!(
                on_stats.rows_scanned, 0,
                "the pushed root Eq must upgrade the scan to a lookup"
            );
            assert!(
                off_stats.rows_scanned >= courses as u64,
                "the filter at the top must pay the full root scan"
            );
        }

        // Interleaved off/on timing pairs; the median of per-pair ratios
        // cancels host-speed drift (see `parallel_query`).
        let mut offs = Vec::with_capacity(iters as usize);
        let mut ons = Vec::with_capacity(iters as usize);
        let mut ratios = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            let _ = filter_at_top(&db, plan)?;
            let off_ns = obs::elapsed_ns(t0) as f64;
            let on_ns = timed(&db, plan)?;
            offs.push(off_ns);
            ons.push(on_ns);
            ratios.push(off_ns / on_ns);
        }
        rows.push(
            Row::new()
                .cell("query", label)
                .cell("courses", courses)
                .cell("rows_out", on_rel.len())
                .cell("off_scanned", off_stats.rows_scanned)
                .cell("on_scanned", on_stats.rows_scanned)
                .cell("off_probes", off_stats.index_probes)
                .cell("on_probes", on_stats.index_probes)
                .cell(
                    "scan_reduction",
                    Cell::Num(
                        off_stats.rows_scanned as f64 / on_stats.rows_scanned.max(1) as f64,
                        2,
                    ),
                )
                .cell("off_ns", Cell::Num(quantile(&mut offs, 0.5), 0))
                .cell("on_ns", Cell::Num(quantile(&mut ons, 0.5), 0))
                .cell("speedup", Cell::Num(quantile(&mut ratios, 0.5), 4))
                .cell("pushed_conjuncts", counter("engine.query.pushed_conjuncts"))
                .cell("pruned_rows", counter("engine.query.pushdown_pruned_rows")),
        );
    }
    report.scale = format!("{courses} courses, {iters} timed pairs");
    report.tables.push(("b15", rows));
    Ok(report)
}

/// B10: the versioned build-side cache on the build-heavy composite join,
/// swept over every [`worker_sweep`] worker count.
///
/// Each worker count is measured cold (cache cleared before every
/// execution, so each one rebuilds TEACH's transient hash table) and warm
/// (the first execution populates the cache, every timed one hits it).
/// The headline `speedup` compares each warm run against the *serial*
/// cold baseline — the end-to-end win of the cache, with the morsel
/// probes spread over the row's workers. Like B8's composite row, the query's result
/// is legitimately empty (faculty and student SSNs are disjoint), keeping
/// it a pure measure of build-side work.
///
/// Every run — cold or warm, at any worker count — is asserted
/// byte-identical, with identical [`relmerge_engine::QueryStats`], to a
/// cache-off serial reference.
pub fn build_cache_speedup(courses: usize, iters: u32) -> Result<Report> {
    let _span = obs::span("bench.b10.build_cache").field("courses", courses);
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    db.load_state(&u.state)?;
    let cores = db.parallelism();
    let plan = composite_no_index_query();

    // Cache-off serial reference: every cached run must be byte-identical
    // to it, with identical stats.
    db.configure(db.config().build_cache_capacity(0));
    db.configure(db.config().parallelism(1));
    let (reference, ref_stats) = db.execute(&plan)?;
    db.configure(
        db.config()
            .build_cache_capacity(relmerge_engine::DEFAULT_BUILD_CACHE_BYTES),
    );

    let registry = std::sync::Arc::clone(db.metrics_registry());
    let hits = registry.counter("engine.query.build_cache.hits");
    let misses = registry.counter("engine.query.build_cache.misses");
    let saved = registry.counter("engine.query.probe_key.saved_allocs");

    let mut serial_cold_ns = 0.0;
    let mut rows = Vec::new();
    for &workers in &worker_sweep(cores) {
        db.configure(db.config().parallelism(workers));

        // Cold: every execution rebuilds.
        db.clear_build_cache();
        let (cold_rel, cold_stats) = db.execute(&plan)?;
        assert_eq!(cold_rel, reference, "cold result must be byte-identical");
        assert_eq!(cold_stats, ref_stats, "cold stats must be identical");
        let m0 = misses.get();
        let t = obs::timer("bench.b10.cold").field("workers", workers);
        for _ in 0..iters {
            db.clear_build_cache();
            let _ = db.execute(&plan)?;
        }
        let cold_ns = t.stop() as f64 / f64::from(iters);
        let cache_misses = misses.get() - m0;
        if workers == 1 {
            serial_cold_ns = cold_ns;
        }

        // Warm: populate once, then every execution reuses the build.
        db.clear_build_cache();
        let _ = db.execute(&plan)?;
        let build_bytes = db.build_cache_bytes();
        let (warm_rel, warm_stats) = db.execute(&plan)?;
        assert_eq!(warm_rel, reference, "warm result must be byte-identical");
        assert_eq!(warm_stats, ref_stats, "warm stats must be identical");
        let h0 = hits.get();
        let s0 = saved.get();
        let t = obs::timer("bench.b10.warm").field("workers", workers);
        for _ in 0..iters {
            let _ = db.execute(&plan)?;
        }
        let warm_ns = t.stop() as f64 / f64::from(iters);
        let cache_hits = hits.get() - h0;
        assert!(cache_hits >= 1, "the warm loop must hit the cache");

        rows.push(
            Row::new()
                .cell("courses", courses)
                .cell("workers", workers)
                .cell("rows_out", reference.len())
                .cell("cold_ns", Cell::Num(cold_ns, 0))
                .cell("warm_ns", Cell::Num(warm_ns, 0))
                .cell("speedup", Cell::Num(serial_cold_ns / warm_ns, 4))
                .cell("cache_hits", cache_hits)
                .cell("cache_misses", cache_misses)
                .cell("build_bytes", build_bytes)
                .cell("saved_allocs", (saved.get() - s0) / u64::from(iters.max(1))),
        );
    }
    let mut report = Report::new("B10: versioned build-side cache (cold rebuild vs warm hit)");
    report.scale = format!("{courses} courses, {iters} timed runs");
    report.tables.push(("b10", rows));
    Ok(report)
}

/// One B14 run: load the unmerged university instance, execute the
/// skewed read mix, and return the database alongside the manually summed
/// per-query [`QueryStats`] — the ground truth its profiler must match
/// exactly — and the mix's wall time (ns).
fn profile_run(
    courses: usize,
    ops: &[relmerge_workload::UniversityOp],
) -> Result<(Database, relmerge_engine::QueryStats, u64)> {
    use relmerge_workload::UniversityOp;

    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    db.load_state(&u.state)?;
    let mut manual = relmerge_engine::QueryStats::default();
    let t0 = Instant::now();
    for op in ops {
        let (_, stats) = match op {
            UniversityOp::CourseDetail { nr } => db.execute(&unmerged_point_query(*nr))?,
            UniversityOp::ByFaculty { ssn } => db.execute(&unmerged_by_faculty_query(*ssn))?,
            other => panic!("write op in B14 read stream: {other:?}"),
        };
        manual += stats;
    }
    let elapsed_ns = obs::elapsed_ns(t0);
    Ok((db, manual, elapsed_ns))
}

/// B14: the workload profiler on a Zipf-skewed read mix against the
/// unmerged Figure 3 schema — the hot-join report this produces is the
/// evidence stream the merge advisor would consume.
///
/// Two invariants are asserted, not just reported:
///
/// * **Exactness** — the profiler's per-fingerprint totals, summed, equal
///   the manual sum of every execution's [`relmerge_engine::QueryStats`]
///   field for field (peak maxed), and the per-shape split matches the
///   per-operation split.
/// * **Determinism** — a second run over the same operation stream on a
///   fresh database yields a byte-identical hot-join report (wall time is
///   excluded from the report by construction), ranked by cumulative
///   cost.
pub fn workload_profile(courses: usize, n_ops: usize, top_k: usize) -> Result<Report> {
    use relmerge_workload::{skewed_reads, SkewSpec, UniversityOp};

    let _span = obs::span("bench.b14.workload_profile").field("courses", courses);
    // Defaults: 200 faculty (persons 500 × 2/5).
    let mut rng = StdRng::seed_from_u64(14);
    let ops = skewed_reads(&SkewSpec::default(), n_ops, courses, 200, &mut rng);

    let (db, manual, mix_ns) = profile_run(courses, &ops)?;
    let snap = db.profile_snapshot();

    // Exactness: profiler totals == manual per-query sums, field for field.
    let sum = |f: fn(&obs::QueryCost) -> u64| -> u64 {
        snap.queries.values().map(|p| f(&p.totals)).sum()
    };
    assert_eq!(
        snap.executions(),
        ops.len() as u64,
        "every execution folded"
    );
    assert_eq!(sum(|t| t.rows_scanned), manual.rows_scanned);
    assert_eq!(sum(|t| t.index_probes), manual.index_probes);
    assert_eq!(sum(|t| t.hash_builds), manual.hash_builds);
    assert_eq!(sum(|t| t.rows_out), manual.rows_output);
    assert_eq!(sum(|t| t.morsels), manual.morsels);
    assert_eq!(sum(|t| t.intermediate_bytes), manual.intermediate_bytes);
    assert_eq!(
        snap.queries
            .values()
            .map(|p| p.totals.peak_intermediate_bytes)
            .max()
            .unwrap_or(0),
        manual.peak_intermediate_bytes,
        "peak is maxed, not summed"
    );
    // The skewed mix has exactly two shapes — fingerprints hash the plan,
    // not the key constants — and the per-shape execution split matches.
    assert_eq!(snap.queries.len(), 2, "two query shapes, two fingerprints");
    let point_ops = ops
        .iter()
        .filter(|o| matches!(o, UniversityOp::CourseDetail { .. }))
        .count() as u64;
    for p in snap.queries.values() {
        let expected = if p.shape.root == "COURSE" {
            point_ops
        } else {
            ops.len() as u64 - point_ops
        };
        assert_eq!(p.executions, expected, "shape {}", p.shape.label);
    }

    // Determinism: a fresh database + the same stream reproduce the
    // report byte for byte.
    let ranking = obs::report(&snap);
    let (db2, _, _) = profile_run(courses, &ops)?;
    assert_eq!(
        obs::report_to_json(&ranking),
        obs::report_to_json(&obs::report(&db2.profile_snapshot())),
        "hot-join report must be deterministic"
    );
    let snapshot_us = median_us(|| Ok(db.profile_snapshot()))?;
    let report_us = median_us(|| Ok(obs::report(&snap)))?;

    let hot = &ranking[..ranking.len().min(top_k)];
    assert!(!hot.is_empty(), "the read mix exercises joins");
    assert!(
        hot.iter().any(|h| h.intermediate_bytes > 0),
        "allocation tracking must attribute bytes to hot edges"
    );
    assert!(
        hot.windows(2)
            .all(|w| w[0].cumulative_cost >= w[1].cumulative_cost),
        "ranking must be sorted by cumulative cost"
    );
    let hot_joins = hot
        .iter()
        .enumerate()
        .map(|(i, h)| {
            Row::new()
                .cell("rank", i + 1)
                .cell("edge", h.edge.label())
                .cell("cumulative_cost", h.cumulative_cost)
                .cell("index_probes", h.index_probes)
                .cell("rows_scanned", h.rows_scanned)
                .cell("executions", h.executions)
                .cell("intermediate_bytes", h.intermediate_bytes)
        })
        .collect();

    let mut report = Report::new("B14: workload profiler (skewed read mix, hot-join ranking)");
    report.scale = format!("{courses} courses, {n_ops} skewed reads");
    report.fields = Row::new()
        .cell("courses", courses)
        .cell("ops", n_ops)
        .cell("fingerprints", snap.queries.len())
        .cell("executions", snap.executions())
        .cell("index_probes", sum(|t| t.index_probes))
        .cell("rows_scanned", sum(|t| t.rows_scanned))
        .cell("intermediate_bytes", sum(|t| t.intermediate_bytes))
        .cell("peak_intermediate_bytes", manual.peak_intermediate_bytes)
        .cell("ns_per_op", Cell::Num(mix_ns as f64 / n_ops as f64, 0))
        .cell("snapshot_us", snapshot_us)
        .cell("report_us", report_us);
    report.tables.push(("hot_joins", hot_joins));
    Ok(report)
}

/// One row of a fault-torture matrix (B9, B11, B13): all cells for one
/// `(injection site, fault mode)` pair, aggregated.
#[derive(Debug, Clone)]
struct TortureRow {
    /// Injection site name (see `relmerge_engine::fault::site`).
    site: &'static str,
    /// Fault mode.
    mode: relmerge_engine::FaultMode,
    /// Matrix cells run for this pair (one per arrival index).
    cells: u64,
    /// Cells whose fault actually fired.
    injections: u64,
    /// Fired cells that surfaced a typed injected/panic error (never a
    /// process abort). For the contained `engine.snapshot.write` site this
    /// instead counts fired cells whose containment was verified — the
    /// site's acceptance criterion is containment, not a surfaced error.
    typed_errors: u64,
    /// Fired cells whose post-abort [`Database::verify_integrity`] report
    /// was clean.
    clean_reports: u64,
    /// Fired cells whose post-abort state byte-equalled the pre-fault
    /// snapshot.
    snapshot_matches: u64,
    /// Cells whose arm never fired (the operation must then succeed).
    no_fire: u64,
}

impl TortureRow {
    fn new(site: &'static str, mode: relmerge_engine::FaultMode) -> TortureRow {
        TortureRow {
            site,
            mode,
            cells: 0,
            injections: 0,
            typed_errors: 0,
            clean_reports: 0,
            snapshot_matches: 0,
            no_fire: 0,
        }
    }

    /// Every cell fired, surfaced typed (or was contained), verified
    /// clean and rolled back byte-identically.
    fn recovered(&self) -> bool {
        self.no_fire == 0
            && self.injections == self.cells
            && self.typed_errors == self.injections
            && self.clean_reports == self.injections
            && self.snapshot_matches == self.injections
    }

    fn row(&self) -> Row {
        Row::new()
            .cell("site", self.site)
            .cell("mode", self.mode.label())
            .cell("cells", self.cells)
            .cell("injections", self.injections)
            .cell("typed_errors", self.typed_errors)
            .cell("clean_reports", self.clean_reports)
            .cell("snapshot_matches", self.snapshot_matches)
            .cell("no_fire", self.no_fire)
    }
}

/// A fault matrix as a report table, asserting that every row recovered.
fn torture_table(rows: &[TortureRow]) -> Vec<Row> {
    for r in rows {
        assert!(r.recovered(), "every torture cell must recover: {r:?}");
    }
    rows.iter().map(TortureRow::row).collect()
}

/// B9: the fault-torture matrix. One merged-schema write batch is applied
/// repeatedly; each run arms exactly one injection site at one arrival
/// index, in error mode and in panic mode. Every fired cell must (a)
/// surface a typed error to the caller, (b) leave
/// [`Database::verify_integrity`] clean, and (c) roll the state back to
/// the pre-batch snapshot, byte-identical. A second leg tortures the
/// query path the same way — the transient hash build, the build-cache
/// insert and filter placement (`engine.query.pushdown`) — additionally
/// requiring that a failed query never leaves an entry in the cache.
///
/// Callers that arm panic-mode cells outside the test harness should
/// install a quiet panic hook around the call — the injected panics are
/// caught and converted, but the default hook still prints each one.
pub fn fault_torture(courses: usize, batch_size: usize, seed: u64) -> Result<Report> {
    use relmerge_engine::fault::site;
    use relmerge_engine::{FaultMode, FaultPlan};
    use relmerge_workload::{university_ops, write_batches, MixSpec};

    let _span = obs::span("bench.b9.fault_torture")
        .field("courses", courses)
        .field("batch_size", batch_size);
    let (u, m) = university_merge(courses, seed)?;
    let merged_state = m.apply(&u.state)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // A write-only stream so every statement slot in the batch is a
    // mutation; take the first full batch as the torture subject.
    let ops = university_ops(
        &MixSpec::write_only(),
        batch_size * 3,
        courses,
        20,
        200,
        &mut rng,
    );
    let batches = write_batches(&ops, true, batch_size);
    let batch = batches.first().cloned().unwrap_or_default();

    let build = || -> Result<Database> {
        let mut db = Database::new(m.schema().clone(), DbmsProfile::ideal())?;
        db.load_state(&merged_state)?;
        Ok(db)
    };

    // Dry run with never-firing arms to count per-site arrivals; the
    // arrival count is the matrix width for that site.
    let mut dry = build()?;
    let mut probe = FaultPlan::new();
    for &s in site::BATCH {
        probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
    }
    let probe = dry.set_fault_plan(probe);
    dry.apply_batch(&batch)?;
    let arrivals: Vec<(&'static str, u64)> =
        site::BATCH.iter().map(|&s| (s, probe.hits(s))).collect();

    let mut rows = Vec::new();
    for mode in [FaultMode::Error, FaultMode::Panic] {
        for &(s, hits) in &arrivals {
            let mut row = TortureRow::new(s, mode);
            for nth in 0..hits {
                row.cells += 1;
                let mut db = build()?;
                let pre = db.snapshot()?;
                let plan = db.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                let outcome = db.apply_batch(&batch);
                if plan.total_fired() == 0 {
                    row.no_fire += 1;
                    outcome?;
                    continue;
                }
                row.injections += 1;
                if let Err(e) = outcome {
                    if matches!(
                        e.root_cause(),
                        DmlError::Schema(Error::Injected { .. })
                            | DmlError::Schema(Error::ExecutionPanic { .. })
                    ) {
                        row.typed_errors += 1;
                    }
                }
                db.clear_fault_plan();
                if db.verify_integrity().is_clean() {
                    row.clean_reports += 1;
                }
                if db.snapshot()? == pre {
                    row.snapshot_matches += 1;
                }
            }
            rows.push(row);
        }
    }

    // The query-path leg: the composite join's transient hash build, its
    // cache insert and filter placement, against the unmerged schema. The
    // filter is root-only, so the build is the join's unfiltered one. A
    // query never mutates state, so the snapshot comparison is about *not*
    // corrupting anything; the sharper invariants are the typed error, the
    // clean integrity report, and the build cache staying empty — a failed
    // query must never leave a poisoned entry behind.
    let qplan = composite_no_index_query().filter(Predicate::not_null("A.S.SSN"));
    let qbuild = || -> Result<Database> {
        let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
        db.load_state(&u.state)?;
        Ok(db)
    };
    let build_sites = [site::HASH_BUILD, site::BUILD_CACHE_INSERT];
    let mut dry = qbuild()?;
    let mut probe = FaultPlan::new();
    for &s in build_sites.iter().chain(&[site::PUSHDOWN]) {
        probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
    }
    let probe = dry.set_fault_plan(probe);
    let _ = dry.execute(&qplan)?;

    // Both modes of the build sites, then both of filter placement.
    for sites in [&build_sites[..], &[site::PUSHDOWN]] {
        for mode in [FaultMode::Error, FaultMode::Panic] {
            for &s in sites {
                let mut row = TortureRow::new(s, mode);
                for nth in 0..probe.hits(s) {
                    row.cells += 1;
                    let mut db = qbuild()?;
                    let pre = db.snapshot()?;
                    let plan = db.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                    let outcome = db.execute(&qplan);
                    if plan.total_fired() == 0 {
                        row.no_fire += 1;
                        outcome?;
                        continue;
                    }
                    row.injections += 1;
                    if let Err(Error::Injected { .. } | Error::ExecutionPanic { .. }) = outcome {
                        row.typed_errors += 1;
                    }
                    assert_eq!(
                        db.build_cache_len(),
                        0,
                        "a failed query must never cache a build ({s}, {mode:?}, nth {nth})"
                    );
                    db.clear_fault_plan();
                    if db.verify_integrity().is_clean() {
                        row.clean_reports += 1;
                    }
                    if db.snapshot()? == pre {
                        row.snapshot_matches += 1;
                    }
                }
                rows.push(row);
            }
        }
    }

    // The multi-session leg: `engine.session.snapshot` must be contained
    // to the failing pin attempt, and `engine.writer.commit` must fail
    // the commit typed while the master — and every concurrently-pinned
    // reader — stays byte-identical. Either way the store remains fully
    // serviceable afterwards.
    let sbuild = || -> Result<Store> {
        let mut db = Database::new(m.schema().clone(), DbmsProfile::ideal())?;
        db.load_state(&merged_state)?;
        Ok(Store::new(db))
    };
    let st = sbuild()?;
    let mut probe = FaultPlan::new();
    for &s in site::SESSION {
        probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
    }
    let probe = st.set_fault_plan(probe);
    let dry_session = st.session();
    let _ = dry_session.pin()?;
    dry_session.apply_batch(&batch)?;
    let s_arrivals: Vec<(&'static str, u64)> =
        site::SESSION.iter().map(|&s| (s, probe.hits(s))).collect();

    for mode in [FaultMode::Error, FaultMode::Panic] {
        for &(s, hits) in &s_arrivals {
            let mut row = TortureRow::new(s, mode);
            for nth in 0..hits {
                row.cells += 1;
                let store = sbuild()?;
                let session = store.session();
                let pre = store.snapshot()?;
                // Pinned *before* the fault arms: the reader the failed
                // commit must not poison.
                let pinned = session.pin()?;
                let plan = store.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                let typed = match s {
                    site::SESSION_SNAPSHOT => match session.pin() {
                        Ok(_) => None,
                        Err(e) => Some(matches!(
                            e,
                            Error::Injected { .. } | Error::ExecutionPanic { .. }
                        )),
                    },
                    _ => match session.apply_batch(&batch) {
                        Ok(_) => None,
                        Err(e) => Some(matches!(
                            e.root_cause(),
                            DmlError::Schema(Error::Injected { .. })
                                | DmlError::Schema(Error::ExecutionPanic { .. })
                        )),
                    },
                };
                if plan.total_fired() == 0 {
                    row.no_fire += 1;
                    assert!(typed.is_none(), "unfired arm must not abort ({s})");
                    continue;
                }
                row.injections += 1;
                if typed == Some(true) {
                    row.typed_errors += 1;
                }
                store.clear_fault_plan();
                if store.verify_integrity().is_clean() {
                    row.clean_reports += 1;
                }
                if store.snapshot()? == pre {
                    row.snapshot_matches += 1;
                }
                // The concurrently-pinned reader is unpoisoned: it still
                // serves its frozen pre-fault view.
                assert_eq!(
                    pinned.snapshot()?,
                    pre,
                    "a failed {s} must not disturb pinned readers ({mode:?}, nth {nth})"
                );
                // And the store stays fully serviceable.
                let _ = session.pin()?;
                session.apply_batch(&batch)?;
            }
            rows.push(row);
        }
    }
    let mut report = Report::new("B9: fault-torture matrix (typed abort + integrity + rollback)");
    report.scale = format!("{courses} courses, batch of {batch_size} statements");
    report.tables.push(("torture", torture_table(&rows)));
    Ok(report)
}

/// B13: the online merge advisor end to end — run a Zipf-skewed read mix
/// against the live unmerged university database, let the profiler's
/// hot-join evidence drive [`relmerge_core::Advisor::propose_from_profile`],
/// migrate the live database with [`Database::migrate`], and replay the
/// identical stream against the merged schema.
///
/// Asserted, not just reported:
///
/// * the advisor's top workload-backed proposal is the paper's COURSE
///   chain, with nonzero observed cost;
/// * Proposition 4.1 holds on the pre-state and `check_both` (4.1 + 4.2)
///   holds across the migration;
/// * the replayed workload's index probes strictly drop;
/// * every arrival of both `engine.migrate.*` fault sites, in error and
///   panic mode, aborts with a typed error, verifies clean, and rolls the
///   state back byte-identical to the pre-migration snapshot;
/// * the post-merge replay is byte-identical at every worker count.
pub fn online_merge(courses: usize, n_ops: usize, seed: u64) -> Result<Report> {
    use relmerge_core::{check_both, check_proposition_4_1, Advisor, AdvisorConfig};
    use relmerge_engine::fault::site;
    use relmerge_engine::{FaultMode, FaultPlan};
    use relmerge_workload::{skewed_reads, SkewSpec, UniversityOp};

    let _span = obs::span("bench.b13.online_merge").field("courses", courses);
    let mut rng = StdRng::seed_from_u64(seed);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    // Defaults: 200 faculty (persons 500 × 2/5), as in B14.
    let mut ops_rng = StdRng::seed_from_u64(seed ^ 0xB13);
    let ops = skewed_reads(&SkewSpec::default(), n_ops, courses, 200, &mut ops_rng);
    let plan_for = |merged: bool, op: &UniversityOp| -> QueryPlan {
        match (merged, op) {
            (false, UniversityOp::CourseDetail { nr }) => unmerged_point_query(*nr),
            (false, UniversityOp::ByFaculty { ssn }) => unmerged_by_faculty_query(*ssn),
            (true, UniversityOp::CourseDetail { nr }) => merged_point_query(*nr),
            (true, UniversityOp::ByFaculty { ssn }) => merged_by_faculty_query(*ssn),
            (_, other) => panic!("write op in B13 read stream: {other:?}"),
        }
    };

    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    db.load_state(&u.state)?;

    // Phase A: the hot read mix against the unmerged schema. Every
    // execution folds into the live profiler — the evidence stream the
    // advisor consumes.
    let mut pre_stats = relmerge_engine::QueryStats::default();
    let mut pre_lat = Vec::with_capacity(ops.len());
    for op in &ops {
        let t = Instant::now();
        let (_, stats) = db.execute(&plan_for(false, op))?;
        pre_lat.push(t.elapsed().as_secs_f64() * 1e6);
        pre_stats += stats;
    }

    // The advisor, fed the live profile, ranks the COURSE chain first —
    // the only candidate the observed workload pays for.
    let advisor = Advisor::new(AdvisorConfig::permissive());
    let profile = db.profile_snapshot();
    let proposals = advisor.propose_from_profile(&profile, db.schema())?;
    let propose_us = median_us(|| advisor.propose_from_profile(&profile, db.schema()))?;
    let top = proposals
        .iter()
        .find(|p| p.admissible && p.observed_cost > 0)
        .expect("the skewed mix must surface an admissible workload-backed merge");
    assert_eq!(
        top.members[0], "COURSE",
        "hot set rooted at the key relation"
    );
    for m in ["OFFER", "TEACH", "ASSIST"] {
        assert!(
            top.members.iter().any(|x| x == m),
            "{m} must be in the hot merge set: {:?}",
            top.members
        );
    }

    // Plan the chosen merge and check the capacity oracle up front
    // (`migrate` re-checks forward capacity itself before touching state).
    let refs: Vec<&str> = top.members.iter().map(String::as_str).collect();
    let mut plan = relmerge_core::Merge::plan(db.schema(), &refs, "COURSE_M")?;
    plan.remove_all_removable()?;
    let pre_state = db.snapshot()?;
    let capacity_4_1 = check_proposition_4_1(&plan, &pre_state)?;
    assert!(capacity_4_1, "Proposition 4.1 must hold pre-migration");

    // The live migration, then the 4.1 + 4.2 oracle across it.
    let t0 = Instant::now();
    let report = db.migrate(&plan)?;
    let migrate_ms = obs::elapsed_ns(t0) as f64 / 1e6;
    let post_state = db.snapshot()?;
    let capacity_both = check_both(&plan, &pre_state, &post_state)?.holds();
    assert!(
        capacity_both,
        "Propositions 4.1/4.2 must hold post-migration"
    );
    assert!(
        !report.pre_profile.queries.is_empty(),
        "the pre-merge profile must be archived with the report"
    );

    // Phase B: replay the identical stream against the live, now-merged
    // database. The probe count must strictly drop — that is the payoff
    // the advisor promised.
    let mut post_stats = relmerge_engine::QueryStats::default();
    let mut post_lat = Vec::with_capacity(ops.len());
    for op in &ops {
        let t = Instant::now();
        let (_, stats) = db.execute(&plan_for(true, op))?;
        post_lat.push(t.elapsed().as_secs_f64() * 1e6);
        post_stats += stats;
    }
    assert!(
        post_stats.index_probes < pre_stats.index_probes,
        "merging must strictly cut workload probes: {} -> {}",
        pre_stats.index_probes,
        post_stats.index_probes
    );

    // The post-merge worker sweep: byte-identical results at every level
    // of parallelism, on the migrated (not freshly built) database.
    let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let workers = worker_sweep(cores);
    let mut baseline: Option<Vec<relmerge_relational::Relation>> = None;
    for &w in &workers {
        db.configure(db.config().parallelism(w));
        let mut results = Vec::with_capacity(ops.len());
        for op in &ops {
            results.push(db.execute(&plan_for(true, op))?.0);
        }
        match &baseline {
            None => baseline = Some(results),
            Some(b) => assert_eq!(*b, results, "worker count {w} changed replay results"),
        }
    }

    // The migration fault matrix: every arrival of both migration sites,
    // in both modes, against a fresh unmerged twin. Same protocol as B9:
    // a dry run with never-firing arms counts arrivals per site, then one
    // cell per (site, mode, arrival index).
    let fresh = || -> Result<Database> {
        let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
        db.load_state(&u.state)?;
        Ok(db)
    };
    let mut dry = fresh()?;
    let mut probe = FaultPlan::new();
    for &s in site::MIGRATION {
        probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
    }
    let probe = dry.set_fault_plan(probe);
    dry.migrate(&plan)?;
    let arrivals: Vec<(&'static str, u64)> = site::MIGRATION
        .iter()
        .map(|&s| (s, probe.hits(s)))
        .collect();

    let mut torture = Vec::new();
    for mode in [FaultMode::Error, FaultMode::Panic] {
        for &(s, hits) in &arrivals {
            assert!(hits > 0, "site {s} must arrive during a real migration");
            let mut row = TortureRow::new(s, mode);
            for nth in 0..hits {
                row.cells += 1;
                let mut db = fresh()?;
                let pre = db.snapshot()?;
                let fp = db.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                let outcome = db.migrate(&plan);
                if fp.total_fired() == 0 {
                    row.no_fire += 1;
                    outcome?;
                    continue;
                }
                row.injections += 1;
                if let Err(Error::Injected { .. } | Error::ExecutionPanic { .. }) = outcome {
                    row.typed_errors += 1;
                }
                db.clear_fault_plan();
                if db.verify_integrity().is_clean() {
                    row.clean_reports += 1;
                }
                if db.snapshot()? == pre {
                    row.snapshot_matches += 1;
                }
            }
            torture.push(row);
        }
    }

    let mut out =
        Report::new("B13: online merge (profiler -> advisor -> live migration -> replay)");
    out.scale = format!("{courses} courses, {n_ops} skewed reads");
    out.fields = Row::new()
        .cell("courses", courses)
        .cell("ops", ops.len())
        .cell("merged_name", &report.merged_name)
        .cell("members", Cell::list(&top.members))
        .cell("observed_cost", top.observed_cost)
        .cell("propose_us", propose_us)
        .cell("rows_migrated", report.rows_migrated)
        .cell("chunks_applied", report.chunks_applied)
        .cell("migrate_ms", Cell::Num(migrate_ms, 3))
        .cell("pre_probes", pre_stats.index_probes)
        .cell("post_probes", post_stats.index_probes)
        .cell("pre_rows_scanned", pre_stats.rows_scanned)
        .cell("post_rows_scanned", post_stats.rows_scanned)
        .cell("pre_median_us", Cell::Num(quantile(&mut pre_lat, 0.5), 3))
        .cell("post_median_us", Cell::Num(quantile(&mut post_lat, 0.5), 3))
        .cell("capacity_4_1", capacity_4_1)
        .cell("capacity_both", capacity_both)
        .cell("workers", Cell::list(workers));
    out.tables.push(("torture", torture_table(&torture)));
    Ok(out)
}

/// B11: durability torture. Commits a write workload through the
/// write-ahead log (timing the append overhead against an in-memory
/// twin), then attacks the result three ways: literal truncation of the
/// log at every durably-acked boundary plus random mid-record offsets
/// (every cut must recover verify-clean, byte-identical to the last
/// acked prefix); the three durability fault sites in error and panic
/// mode ([`site::WAL_APPEND`] must abort the batch on disk and in
/// memory, [`site::SNAPSHOT_WRITE`] must be contained, and
/// [`site::RECOVERY_REPLAY`] must fail the recovery typed while leaving
/// the directory retry-clean); and a recovery-time-vs-log-length sweep
/// over literal log prefixes. Every crash point must recover and every
/// torture cell must pass (asserted).
///
/// For `engine.wal.append` a cell passes `snapshot_matches` only if the
/// rollback holds in memory, at the log position, AND through a fresh
/// recovery; for the contained `engine.snapshot.write` site
/// `typed_errors` counts verified containment (batch committed,
/// generation unchanged), as with B9's pushdown site; for
/// `engine.recovery.replay` the row verifies fail-typed-then-retry.
///
/// Callers that arm panic-mode cells should install a quiet panic hook
/// around the call, as with [`fault_torture`].
///
/// [`site::WAL_APPEND`]: relmerge_engine::fault::site::WAL_APPEND
/// [`site::SNAPSHOT_WRITE`]: relmerge_engine::fault::site::SNAPSHOT_WRITE
/// [`site::RECOVERY_REPLAY`]: relmerge_engine::fault::site::RECOVERY_REPLAY
pub fn wal_torture(
    courses: usize,
    n_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Result<Report> {
    use relmerge_engine::fault::site;
    use relmerge_engine::{DurabilityConfig, EngineConfig, FaultMode, FaultPlan, FsyncPolicy};
    use relmerge_workload::{university_ops, write_batches, MixSpec};

    let _span = obs::span("bench.b11.wal_torture")
        .field("courses", courses)
        .field("batches", n_batches);
    let io = |context: &str, e: std::io::Error| Error::Durability {
        detail: format!("{context}: {e}"),
    };
    let dir = std::env::temp_dir().join(format!("relmerge-b11-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |snapshot_every: u64| {
        EngineConfig::default().durability(Some(
            DurabilityConfig::new(&dir)
                .snapshot_every(snapshot_every)
                // The measured overhead is serialization plus page-cache
                // write; the crash torture cuts the *file*, which fsync
                // cannot widen or narrow.
                .fsync(FsyncPolicy::Never),
        ))
    };
    let cfg = durable(0); // one generation: the whole history stays replayable

    let mut rng = StdRng::seed_from_u64(seed);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;

    // Seed through the logged DML path, so the seed is the log's first
    // record (`load_state` would commit it as a snapshot instead). One
    // deferred-validation batch is order-free and costs a single record.
    let mut db = Database::new_with_config(u.schema.clone(), DbmsProfile::ideal(), cfg.clone())?;
    let mut memory = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    memory.load_state(&u.state)?;
    let seed_batch: Vec<Statement> = u
        .state
        .iter()
        .flat_map(|(name, rel)| rel.iter().map(move |t| Statement::insert(name, t.clone())))
        .collect();
    db.apply_batch(&seed_batch)?;

    // Leg 1 — append overhead: the same workload against the durable
    // database and its in-memory twin, recording every durably-acked
    // `(offset, state)` prefix point for the crash legs.
    let mut ops_rng = StdRng::seed_from_u64(seed ^ 0xB11);
    let ops = university_ops(
        &MixSpec::write_only(),
        n_batches * batch_size,
        courses,
        20,
        200,
        &mut ops_rng,
    );
    let batches = write_batches(&ops, false, batch_size);
    let (_, seed_off) = db.wal_position().expect("durable database");
    let mut prefixes: Vec<(u64, DatabaseState, usize)> = vec![(seed_off, db.snapshot()?, 0)];
    let mut durable_ns = 0u64;
    let mut memory_ns = 0u64;
    let mut committed = 0usize;
    for batch in &batches {
        let t0 = Instant::now();
        let r = db.apply_batch(batch);
        durable_ns += obs::elapsed_ns(t0);
        let t0 = Instant::now();
        let m = memory.apply_batch(batch);
        memory_ns += obs::elapsed_ns(t0);
        if r.is_ok() != m.is_ok() {
            return Err(Error::Durability {
                detail: "durable and in-memory twins diverged".to_owned(),
            });
        }
        if r.is_ok() {
            committed += 1;
            let (_, off) = db.wal_position().expect("durable database");
            prefixes.push((off, db.snapshot()?, committed));
        }
    }
    let per_batch = batches.len().max(1) as f64;
    let durable_batch_us = durable_ns as f64 / 1e3 / per_batch;
    let memory_batch_us = memory_ns as f64 / 1e3 / per_batch;
    let append_overhead = if memory_ns > 0 {
        durable_ns as f64 / memory_ns as f64 - 1.0
    } else {
        0.0
    };
    let (generation, end) = db.wal_position().expect("durable database");
    let expected_final = db.snapshot()?;
    drop(db);

    // Leg 2 — literal crash torture: cut the log at every durably-acked
    // boundary and at random mid-record offsets; every cut must recover
    // verify-clean and byte-identical to the last acked prefix.
    let log = dir.join(format!("wal-{generation}.log"));
    let pristine = std::fs::read(&log).map_err(|e| io("read log", e))?;
    let base = prefixes[0].0;
    let mut kills: Vec<u64> = prefixes.iter().map(|(off, _, _)| *off).collect();
    for _ in 0..8 {
        kills.push(rng.gen_range(base..=end));
    }
    let mut truncation_cells = 0usize;
    let mut truncation_clean = 0usize;
    for kill in kills {
        std::fs::write(&log, &pristine[..kill as usize]).map_err(|e| io("cut log", e))?;
        truncation_cells += 1;
        let (rec, _) = Database::recover(cfg.clone())?;
        let expected = prefixes
            .iter()
            .rev()
            .find(|(off, _, _)| *off <= kill)
            .map_or(&prefixes[0].1, |(_, s, _)| s);
        if rec.verify_integrity().is_clean() && rec.snapshot()? == *expected {
            truncation_clean += 1;
        }
        std::fs::write(&log, &pristine).map_err(|e| io("restore log", e))?;
    }

    // Leg 3 — recovery time against log length, over literal prefixes at
    // evenly spaced committed-batch checkpoints.
    let mut recovery = Vec::new();
    let steps: Vec<usize> = if prefixes.len() <= 5 {
        (0..prefixes.len()).collect()
    } else {
        (0..5).map(|i| i * (prefixes.len() - 1) / 4).collect()
    };
    for &i in &steps {
        let (off, _, at) = &prefixes[i];
        std::fs::write(&log, &pristine[..*off as usize]).map_err(|e| io("cut log", e))?;
        let (_, report) = Database::recover(cfg.clone())?;
        recovery.push(
            Row::new()
                .cell("batches", *at)
                .cell("records", report.records_replayed())
                .cell("wal_bytes", report.wal_bytes_replayed)
                .cell("replay_ns", report.replay_ns),
        );
    }
    std::fs::write(&log, &pristine).map_err(|e| io("restore log", e))?;

    // Leg 4 — the durability fault matrix. Recovery-replay first, while
    // the pristine log still holds the full history: a fault during
    // replay fails the whole recovery typed, the disk is left untouched,
    // and the retry succeeds.
    let mut torture: Vec<TortureRow> = Vec::new();
    let (probe_db, probe_report) = Database::recover(cfg.clone())?;
    drop(probe_db);
    let replayable = probe_report.records_replayed();
    let nths: Vec<u64> = if replayable <= 6 {
        (0..replayable).collect()
    } else {
        (0..6).map(|i| i * (replayable - 1) / 5).collect()
    };
    for mode in [FaultMode::Error, FaultMode::Panic] {
        let mut row = TortureRow::new(site::RECOVERY_REPLAY, mode);
        for &nth in &nths {
            row.cells += 1;
            let plan =
                std::sync::Arc::new(FaultPlan::new().fail_at(site::RECOVERY_REPLAY, nth, mode));
            let outcome = Database::recover_with_faults(cfg.clone(), Some(plan.clone()));
            if plan.fired(site::RECOVERY_REPLAY) == 0 {
                row.no_fire += 1;
                let _ = outcome?;
                continue;
            }
            row.injections += 1;
            if let Err(Error::Injected { .. } | Error::ExecutionPanic { .. }) = outcome {
                row.typed_errors += 1;
            }
            let (rec, _) = Database::recover(cfg.clone())?;
            if rec.verify_integrity().is_clean() {
                row.clean_reports += 1;
            }
            if rec.snapshot()? == expected_final {
                row.snapshot_matches += 1;
            }
        }
        torture.push(row);
    }

    // A pool of pre-tested batches for the write-side legs: each cell
    // needs a batch known to commit, so the armed fault is the only
    // failure cause. An in-memory fork (`Database::fork`) is the tester.
    let mut spare_rng = StdRng::seed_from_u64(seed ^ 0xA11D);
    let spare_ops = university_ops(
        &MixSpec::write_only(),
        64 * batch_size.max(1),
        courses,
        20,
        200,
        &mut spare_rng,
    );
    let mut pool = write_batches(&spare_ops, false, batch_size);
    let next_committing =
        |db: &Database, pool: &mut Vec<Vec<Statement>>| -> Result<Vec<Statement>> {
            while let Some(b) = pool.pop() {
                let mut fork = db.fork();
                if fork.apply_batch(&b).is_ok() {
                    return Ok(b);
                }
            }
            Err(Error::Durability {
                detail: "ran out of committing batches".to_owned(),
            })
        };

    // WAL-append leg: the failed append aborts the batch — in memory
    // (rollback), at the log position, and on disk (a fresh recovery
    // still sees the pre-batch state).
    let (mut db, _) = Database::recover(cfg.clone())?;
    let probe_batch = next_committing(&db, &mut pool)?;
    let probe =
        db.set_fault_plan(FaultPlan::new().fail_at(site::WAL_APPEND, u64::MAX, FaultMode::Error));
    db.apply_batch(&probe_batch)?;
    let hits = probe.hits(site::WAL_APPEND);
    db.clear_fault_plan();
    for mode in [FaultMode::Error, FaultMode::Panic] {
        let mut row = TortureRow::new(site::WAL_APPEND, mode);
        for nth in 0..hits {
            row.cells += 1;
            let batch = next_committing(&db, &mut pool)?;
            let pre = db.snapshot()?;
            let pre_pos = db.wal_position();
            let plan = db.set_fault_plan(FaultPlan::new().fail_at(site::WAL_APPEND, nth, mode));
            let outcome = db.apply_batch(&batch);
            if plan.total_fired() == 0 {
                row.no_fire += 1;
                db.clear_fault_plan();
                outcome?;
                continue;
            }
            row.injections += 1;
            if let Err(e) = outcome {
                if matches!(
                    e.root_cause(),
                    DmlError::Schema(Error::Injected { .. })
                        | DmlError::Schema(Error::ExecutionPanic { .. })
                ) {
                    row.typed_errors += 1;
                }
            }
            db.clear_fault_plan();
            if db.verify_integrity().is_clean() {
                row.clean_reports += 1;
            }
            let (rec, _) = Database::recover(cfg.clone())?;
            if db.snapshot()? == pre && db.wal_position() == pre_pos && rec.snapshot()? == pre {
                row.snapshot_matches += 1;
            }
        }
        torture.push(row);
    }
    drop(db);

    // Snapshot leg: a failed snapshot is *contained* — the batch that
    // triggered the cadence stays committed (it is already in the log),
    // the generation does not advance, and recovery replays the gap.
    let (mut db, _) = Database::recover(durable(1))?;
    for mode in [FaultMode::Error, FaultMode::Panic] {
        let mut row = TortureRow {
            cells: 1,
            ..TortureRow::new(site::SNAPSHOT_WRITE, mode)
        };
        let batch = next_committing(&db, &mut pool)?;
        let gen_before = db.wal_position().map(|(g, _)| g);
        let plan = db.set_fault_plan(FaultPlan::new().fail_at(site::SNAPSHOT_WRITE, 0, mode));
        let outcome = db.apply_batch(&batch);
        if plan.fired(site::SNAPSHOT_WRITE) == 0 {
            row.no_fire += 1;
            db.clear_fault_plan();
            outcome?;
            torture.push(row);
            continue;
        }
        row.injections += 1;
        db.clear_fault_plan();
        // Containment is this site's acceptance criterion (cf. B9's
        // pushdown site): the batch committed and no snapshot landed.
        if outcome.is_ok() && db.wal_position().map(|(g, _)| g) == gen_before {
            row.typed_errors += 1;
        }
        if db.verify_integrity().is_clean() {
            row.clean_reports += 1;
        }
        let (rec, _) = Database::recover(durable(0))?;
        if rec.snapshot()? == db.snapshot()? {
            row.snapshot_matches += 1;
        }
        torture.push(row);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        truncation_clean, truncation_cells,
        "every crash point must recover"
    );
    let mut report = Report::new("B11: durability (write-ahead log + snapshots + crash recovery)");
    report.scale = format!("{courses} courses, {n_batches} batches of {batch_size} statements");
    report.fields = Row::new()
        .cell("courses", courses)
        .cell("batches", committed)
        .cell("batch_size", batch_size)
        .cell("durable_batch_us", Cell::Num(durable_batch_us, 3))
        .cell("memory_batch_us", Cell::Num(memory_batch_us, 3))
        .cell("append_overhead", Cell::Num(append_overhead, 4))
        .cell("truncation_cells", truncation_cells)
        .cell("truncation_clean", truncation_clean);
    report.tables.push(("recovery", recovery));
    report.tables.push(("torture", torture_table(&torture)));
    Ok(report)
}

/// Thread `t`'s deterministic operation stream: the default read-mostly
/// mix with its new course numbers shifted into a per-thread range, so
/// concurrent writers never collide on a key and every write commits.
fn b12_thread_ops(t: usize, n: usize, courses: usize) -> Vec<relmerge_workload::UniversityOp> {
    use relmerge_workload::{university_ops, MixSpec, UniversityOp};
    let mut rng = StdRng::seed_from_u64(0xB12 + t as u64);
    let mut ops = university_ops(&MixSpec::default(), n, courses, 20, 200, &mut rng);
    let offset = (t as i64 + 1) * 10_000_000;
    for op in &mut ops {
        if let UniversityOp::AddCourse { nr, .. } | UniversityOp::DropCourse { nr } = op {
            if *nr >= 1_000_000 {
                *nr += offset;
            }
        }
    }
    ops
}

/// The query a read op lowers to against the unmerged schema (`None`
/// for write ops).
fn b12_read_plan(op: &relmerge_workload::UniversityOp) -> Option<QueryPlan> {
    use relmerge_workload::UniversityOp;
    match op {
        UniversityOp::CourseDetail { nr } => Some(unmerged_point_query(*nr)),
        UniversityOp::ByFaculty { ssn } => Some(unmerged_by_faculty_query(*ssn)),
        UniversityOp::AddCourse { .. } | UniversityOp::DropCourse { .. } => None,
    }
}

/// B12: N client threads of the mixed university workload over one
/// shared [`Store`] — snapshot readers, serialized writers, and the
/// store-wide versioned build cache, swept over every [`worker_sweep`]
/// thread count.
///
/// Each thread mints its own [`relmerge_engine::Session`]: read ops pin
/// a snapshot and run the unmerged point or reverse-lookup query; write
/// ops commit their statements through the serialized writer path; every
/// 8th op additionally runs [`composite_no_index_query`] — its
/// transient TEACH build flows through the shared versioned cache, so
/// concurrent sessions at the same relation version reuse one build.
///
/// Three correctness proofs ride along with the timing:
/// - **frozen pins** — each thread retains its first read pins across
///   the whole storm and the harness re-executes them afterwards,
///   asserting byte-identical rows (a reader never observes later
///   commits);
/// - **cross-session reuse** — a deterministic two-session probe on a
///   fresh store asserts the second session's identical join hits the
///   build the first inserted (`cross_session_hits > 0`);
/// - **baseline sanity** — thread 0's stream is also run against a plain
///   [`Database`], and the single-thread store row must land within a
///   generous factor of it (the session layer adds one pin per read, not
///   a new execution path). The factor is wide because shared single-core
///   CI hosts drift; the printed table carries the honest numbers.
pub fn concurrent_sessions(courses: usize, ops_per_thread: usize) -> Result<Report> {
    use relmerge_workload::unmerged_statements;

    let _span = obs::span("bench.b12.concurrency").field("courses", courses);
    let mut rng = StdRng::seed_from_u64(12);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut base = Database::new(u.schema.clone(), DbmsProfile::ideal())?;
    base.load_state(&u.state)?;
    let cores = base.parallelism();

    // Single-`Database` baseline: thread 0's exact stream, no store.
    let baseline_ns_per_op = {
        let mut solo = base.fork();
        let ops = b12_thread_ops(0, ops_per_thread, courses);
        let t0 = std::time::Instant::now();
        for (i, op) in ops.iter().enumerate() {
            match b12_read_plan(op) {
                Some(plan) => {
                    let _ = solo.execute(&plan)?;
                }
                None => {
                    solo.apply_batch(&unmerged_statements(op))
                        .expect("baseline write stream is collision-free");
                }
            }
            if i % 8 == 0 {
                let _ = solo.execute(&composite_no_index_query())?;
            }
        }
        t0.elapsed().as_nanos() as f64 / ops.len() as f64
    };

    // Deterministic cross-session reuse proof: a fresh store, two
    // sessions, the same composite join — the second session's execution
    // must hit the build the first session's miss inserted.
    let cross_session_hits = {
        let store = Store::new(base.fork());
        let first = store.session();
        let second = store.session();
        let plan = composite_no_index_query();
        let (first_rows, _) = first.pin()?.execute(&plan)?;
        let before = store.metrics_registry().snapshot();
        let pin = second.pin()?;
        let (second_rows, _) = pin.execute(&plan)?;
        assert_eq!(
            first_rows, second_rows,
            "a shared-cache hit must not change the result"
        );
        drop(pin);
        drop(second);
        drop(first);
        let diff = store.metrics_registry().snapshot().diff(&before);
        let hits = diff
            .counters
            .get("engine.query.build_cache.hits")
            .copied()
            .unwrap_or(0);
        assert!(
            hits > 0,
            "the second session's identical join must reuse the shared build"
        );
        hits
    };

    let mut rows = Vec::new();
    for &threads in &worker_sweep(cores) {
        let store = Store::new(base.fork());
        let before = store.metrics_registry().snapshot();
        let t0 = std::time::Instant::now();
        let per_thread: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let store = store.clone();
                    let ops = b12_thread_ops(t, ops_per_thread, courses);
                    scope.spawn(move || {
                        let session = store.session();
                        let mut lat: Vec<f64> = Vec::new();
                        let (mut reads, mut writes) = (0usize, 0usize);
                        let mut frozen = Vec::new();
                        for (i, op) in ops.iter().enumerate() {
                            match b12_read_plan(op) {
                                Some(plan) => {
                                    let t0 = std::time::Instant::now();
                                    let pin = session.pin().expect("pin");
                                    let (rel, _) = pin.execute(&plan).expect("read");
                                    lat.push(t0.elapsed().as_nanos() as f64);
                                    reads += 1;
                                    if frozen.len() < 2 {
                                        frozen.push((pin, plan, rel));
                                    }
                                }
                                None => {
                                    session
                                        .apply_batch(&unmerged_statements(op))
                                        .expect("per-thread streams are collision-free");
                                    writes += 1;
                                }
                            }
                            if i % 8 == 0 {
                                let t0 = std::time::Instant::now();
                                let pin = session.pin().expect("pin");
                                let _ = pin
                                    .execute(&composite_no_index_query())
                                    .expect("composite probe");
                                lat.push(t0.elapsed().as_nanos() as f64);
                                reads += 1;
                            }
                        }
                        (lat, reads, writes, frozen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("b12 client thread"))
                .collect()
        });
        let total_ns = t0.elapsed().as_nanos() as f64;

        // The retained pins saw the whole storm; their reads must replay
        // byte-identical now that every writer has committed.
        let mut lat: Vec<f64> = Vec::new();
        let (mut reads, mut writes, mut frozen_reads) = (0usize, 0usize, 0usize);
        for (l, r, w, frozen) in per_thread {
            lat.extend(l);
            reads += r;
            writes += w;
            for (pin, plan, rel) in frozen {
                let (again, _) = pin.execute(&plan)?;
                assert_eq!(
                    again, rel,
                    "a pinned snapshot must stay frozen under concurrent writes"
                );
                frozen_reads += 1;
            }
        }
        // Pins (and their session metric shards) are dropped; the store
        // registry now holds every counter this run charged.
        let diff = store.metrics_registry().snapshot().diff(&before);
        let pick = |name: &str| diff.counters.get(name).copied().unwrap_or(0);
        let cache_hits = pick("engine.query.build_cache.hits");
        let cache_misses = pick("engine.query.build_cache.misses");
        if threads >= 2 {
            assert!(
                cache_hits > 0,
                "concurrent sessions issuing the same join must share builds"
            );
        }
        let ops = reads + writes;
        if threads == 1 {
            let n1_ns_per_op = total_ns / ops as f64;
            assert!(
                n1_ns_per_op < baseline_ns_per_op * 10.0,
                "one session over a store must stay in the same regime as a plain \
                 Database: {n1_ns_per_op:.0} ns/op vs baseline {baseline_ns_per_op:.0} ns/op"
            );
        }
        rows.push(
            Row::new()
                .cell("threads", threads)
                .cell("ops", ops)
                .cell("reads", reads)
                .cell("writes", writes)
                .cell("total_ns", Cell::Num(total_ns, 0))
                .cell("ops_per_sec", Cell::Num(ops as f64 / (total_ns / 1e9), 1))
                .cell("read_p50_ns", Cell::Num(quantile(&mut lat, 0.50), 0))
                .cell("read_p95_ns", Cell::Num(quantile(&mut lat, 0.95), 0))
                .cell("cache_hits", cache_hits)
                .cell("cache_misses", cache_misses)
                .cell("frozen_reads", frozen_reads),
        );
    }

    let mut report = Report::new(
        "B12: concurrent sessions (snapshot readers / serialized writers / shared cache)",
    );
    report.scale = format!("{courses} courses, {ops_per_thread} ops per client thread");
    report.fields = Row::new()
        .cell("courses", courses)
        .cell("ops_per_thread", ops_per_thread)
        .cell("baseline_ns_per_op", Cell::Num(baseline_ns_per_op, 1))
        .cell("cross_session_hits", cross_session_hits);
    report.tables.push(("rows", rows));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell names of `row`, in order: the keys its artifact carries.
    fn keys(row: &Row) -> Vec<&str> {
        row.0.iter().map(|(n, _)| *n).collect()
    }

    /// The torture-matrix columns of B9, B11 and B13.
    const TORTURE_KEYS: [&str; 8] = [
        "site",
        "mode",
        "cells",
        "injections",
        "typed_errors",
        "clean_reports",
        "snapshot_matches",
        "no_fire",
    ];

    #[test]
    fn query_speedup_shape() {
        let report = query_speedup(&[200], 50).unwrap();
        let rows = report.table("rows");
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // The unmerged query needs 4 probes (1 lookup + 3 joins); merged 1.
        assert_eq!(r.int("unmerged_probes"), 4);
        assert_eq!(r.int("merged_probes"), 1);
        // The merged plan must not be slower for point queries (shape, not
        // magnitude — debug builds are noisy, so allow generous slack).
        assert!(r.num("point_speedup") > 0.8, "{r:?}");
    }

    #[test]
    fn reverse_lookup_queries_agree() {
        let (u, m) = university_merge(300, 3).unwrap();
        let (unmerged, merged) = university_databases(&u, &m).unwrap();
        // Probe every faculty member; results must agree and the merged
        // plan must use its secondary index (no scans).
        for ssn in 10_000..10_040 {
            let (r1, s1) = unmerged.execute(&unmerged_by_faculty_query(ssn)).unwrap();
            let (r2, s2) = merged.execute(&merged_by_faculty_query(ssn)).unwrap();
            assert!(r1.set_eq_unordered(&r2), "ssn {ssn}: {r1} vs {r2}");
            assert_eq!(s2.rows_scanned, 0, "merged reverse lookup must not scan");
            assert_eq!(s2.index_probes, 1);
            assert!(s1.index_probes >= 1);
        }
    }

    #[test]
    fn maintenance_shape() {
        let report = maintenance_cost(100).unwrap();
        let rows = report.table("rows");
        assert_eq!(rows.len(), 3);
        let (unmerged, merged, native) = (&rows[0], &rows[1], &rows[2]);
        // Unmerged: 4 statements per entity, no procedural checks.
        assert_eq!(unmerged.int("statements"), 400);
        assert_eq!(unmerged.int("procedural"), 0);
        assert!(unmerged.int("declarative") > 0);
        // Merged: 1 statement per entity, trigger checks present.
        assert_eq!(merged.int("statements"), 100);
        assert!(merged.int("procedural") > 0);
        // The same insert with no trigger tier checks every constraint
        // natively.
        assert_eq!(native.int("statements"), 100);
        assert_eq!(native.int("procedural"), 0);
        assert_eq!(
            native.int("declarative"),
            merged.int("declarative") + merged.int("procedural")
        );
    }

    #[test]
    fn merge_scaling_shape() {
        // `merge_scaling` itself asserts BCNF, a greedy merge at every
        // size and η′(η(r)) = r; the checks here cover the recorded rows.
        let report = merge_scaling(&[2, 8], &[100]).unwrap();
        let procedures = report.table("procedures");
        assert_eq!(procedures.len(), 2);
        for r in procedures {
            // Merge keeps every member's attributes; Remove drops each
            // satellite's copy of the root key.
            let n = r.int("satellites");
            assert_eq!(
                (r.int("arity_before"), r.int("arity_after")),
                (1 + 2 * n, 1 + n)
            );
            assert_eq!(r.int("greedy_merges"), 1, "{r:?}");
            for k in [
                "plan_us",
                "remove_us",
                "propose_us",
                "greedy_us",
                "query_plan_us",
            ] {
                assert!(r.num(k) > 0.0, "{k}: {r:?}");
            }
        }
        let eta = &report.table("mappings")[0];
        assert_eq!(
            keys(eta),
            [
                "root_rows",
                "tuples",
                "merged_tuples",
                "apply_us",
                "invert_us"
            ]
        );
        // η keeps one merged tuple per root row.
        assert_eq!((eta.int("root_rows"), eta.int("merged_tuples")), (100, 100));
    }

    #[test]
    fn substrate_shape() {
        // `substrate` itself asserts the join's padding, the total
        // projection's round trip, every constraint and both closures.
        let report = substrate(&[1_000]).unwrap();
        let join = &report.table("joins")[0];
        assert_eq!((join.int("rows"), join.int("joined_rows")), (1_000, 1_500));
        let kinds: Vec<&str> = report
            .table("null_constraints")
            .iter()
            .map(|r| r.text("constraint"))
            .collect();
        assert_eq!(
            kinds,
            [
                "nna",
                "null_sync",
                "null_existence",
                "total_equality",
                "part_null"
            ]
        );
        let chains = report.table("chains");
        assert_eq!(chains.len(), 2);
        for r in chains {
            assert_eq!(r.int("closure_attrs"), r.int("attrs"), "{r:?}");
            assert_eq!(r.int("ne_closure_attrs"), r.int("attrs"), "{r:?}");
            assert_eq!(r.get("bcnf"), Some(&Cell::Bool(false)), "{r:?}");
        }
    }

    #[test]
    fn mixed_workload_runs_and_agrees() {
        let report = mixed_workload(&[200], 2_000).unwrap();
        let rows = report.table("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].int("ops"), 2_000);
        assert_eq!(rows[0].int("reads") + rows[0].int("writes"), 2_000);
        assert!(
            rows[0].int("reads") > rows[0].int("writes"),
            "read-mostly mix"
        );
        assert!(rows[1].int("total_ns") > 0);
        assert!(rows[1].num("merged_speedup") > 0.0);
    }

    #[test]
    fn batch_dml_defers_and_saves_checks() {
        // `batch_dml` itself asserts the final states are identical.
        let report = batch_dml(&[200], 400, 32).unwrap();
        let rows = report.table("rows");
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.int("statements") > 0, "{r:?}");
            assert!(r.int("batches") > 1, "{r:?}");
            // The acceptance criterion: strictly fewer checks and probes
            // than per-statement application of the same stream.
            assert!(r.int("batched_checks") < r.int("eager_checks"), "{r:?}");
            assert!(r.int("batched_probes") < r.int("eager_probes"), "{r:?}");
            assert!(r.int("deferred_checks") > 0, "group validation ran: {r:?}");
        }
    }

    #[test]
    fn concurrent_sessions_shape() {
        // `concurrent_sessions` itself asserts frozen pins replay
        // byte-identical, cross-session cache reuse, and the N=1 regime
        // bound; here we check the ledger's shape and its artifact keys.
        let report = concurrent_sessions(120, 48).unwrap();
        assert_eq!(
            keys(&report.fields),
            [
                "courses",
                "ops_per_thread",
                "baseline_ns_per_op",
                "cross_session_hits"
            ]
        );
        assert!(report.fields.int("cross_session_hits") > 0);
        assert!(report.fields.num("baseline_ns_per_op") > 0.0);
        let rows = report.table("rows");
        assert!(rows.iter().any(|r| r.int("threads") == 1));
        assert!(rows.iter().any(|r| r.int("threads") >= 2));
        for r in rows {
            assert_eq!(
                keys(r),
                [
                    "threads",
                    "ops",
                    "reads",
                    "writes",
                    "total_ns",
                    "ops_per_sec",
                    "read_p50_ns",
                    "read_p95_ns",
                    "cache_hits",
                    "cache_misses",
                    "frozen_reads"
                ]
            );
            assert_eq!(r.int("ops"), r.int("reads") + r.int("writes"), "{r:?}");
            assert!(r.int("reads") > r.int("writes"), "read-mostly mix: {r:?}");
            assert!(r.int("frozen_reads") > 0, "{r:?}");
            assert!(r.num("ops_per_sec") > 0.0, "{r:?}");
            assert!(r.num("read_p95_ns") >= r.num("read_p50_ns"), "{r:?}");
            if r.int("threads") >= 2 {
                assert!(r.int("cache_hits") > 0, "{r:?}");
            }
        }
    }

    #[test]
    fn worker_sweep_is_sorted_and_deduped() {
        assert_eq!(worker_sweep(1), vec![1, 2, 4]);
        assert_eq!(worker_sweep(3), vec![1, 2, 3, 4]);
        assert_eq!(worker_sweep(4), vec![1, 2, 4]);
        assert_eq!(worker_sweep(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn parallel_query_shape() {
        // `parallel_query` itself asserts byte-identical results and equal
        // stats at every worker count.
        let report = parallel_query(300, 2).unwrap();
        let rows = report.table("b8");
        // One row per query per swept worker count, chain rows first.
        let sweep = rows.len() / 2;
        assert_eq!(rows.len(), 2 * sweep);
        assert!(sweep >= 3, "the sweep includes 1, 2, and 4 workers");
        let (chain_rows, composite_rows) = rows.split_at(sweep);
        assert!(
            chain_rows.iter().any(|r| r.int("workers") > 1),
            "multi-worker entries exist even on a single-core host"
        );
        for chain in chain_rows {
            assert_eq!(chain.int("rows_out"), 300, "{chain:?}");
            assert!(chain.int("morsels") > 0, "{chain:?}");
            // Covering indexes exist: nothing is built, and every join
            // probes its index once per left row with a non-null key (each
            // course probes OFFER; each offered course probes TEACH and
            // ASSIST).
            assert_eq!(chain.int("hash_builds"), 0, "{chain:?}");
            assert_eq!(chain.int("rows_scanned"), 300, "{chain:?}");
            assert!(chain.int("index_probes") > 300, "{chain:?}");
        }
        for composite in composite_rows {
            assert_eq!(composite.int("rows_out"), 0, "disjoint SSNs: {composite:?}");
            // One root scan of ASSIST plus one build scan of TEACH.
            assert_eq!(composite.int("hash_builds"), 1, "{composite:?}");
            assert_eq!(composite.int("index_probes"), 0, "{composite:?}");
        }
        for r in rows {
            assert!(r.num("serial_ns") > 0.0 && r.num("speedup") > 0.0, "{r:?}");
        }
    }

    #[test]
    fn median_is_order_insensitive_and_spike_robust() {
        assert_eq!(quantile(&mut [3.0], 0.5), 3.0);
        assert_eq!(quantile(&mut [4.0, 1.0], 0.5), 2.5);
        // A 100× interference spike does not move the median.
        assert_eq!(quantile(&mut [2.0, 200.0, 1.0, 2.0, 3.0], 0.5), 2.0);
        // The tails interpolate between the closest ranks.
        assert_eq!(quantile(&mut [4.0, 0.0, 2.0], 0.75), 3.0);
        assert_eq!(quantile(&mut [], 0.95), 0.0);
    }

    #[test]
    fn build_cache_speedup_shape() {
        // `build_cache_speedup` itself asserts byte-identity and stat
        // equality against the cache-off serial reference; wall-clock
        // magnitudes are left to the release-mode B10 run.
        let report = build_cache_speedup(300, 2).unwrap();
        let rows = report.table("b10");
        assert!(rows.len() >= 3, "sweep includes 1, 2, and 4 workers");
        assert_eq!(rows[0].int("workers"), 1);
        for r in rows {
            assert!(r.int("cache_hits") >= 1, "{r:?}");
            assert_eq!(
                r.int("cache_misses"),
                2,
                "every cold iteration misses: {r:?}"
            );
            assert!(r.int("build_bytes") > 0, "{r:?}");
            assert!(
                r.int("saved_allocs") > 0,
                "every probe row saves one: {r:?}"
            );
            assert!(r.num("cold_ns") > 0.0 && r.num("warm_ns") > 0.0);
            assert!(r.num("speedup") > 0.0);
        }
    }

    /// The exact keys of the B8, B10 and B15 artifacts' rows.
    #[test]
    fn parallel_query_json_is_well_formed() {
        let b8 = parallel_query(150, 1).unwrap();
        assert_eq!(
            keys(&b8.table("b8")[0]),
            [
                "query",
                "courses",
                "workers",
                "rows_out",
                "serial_ns",
                "parallel_ns",
                "speedup",
                "rows_per_sec",
                "morsels",
                "hash_builds",
                "rows_scanned",
                "index_probes"
            ]
        );
        let b10 = build_cache_speedup(150, 1).unwrap();
        assert_eq!(
            keys(&b10.table("b10")[0]),
            [
                "courses",
                "workers",
                "rows_out",
                "cold_ns",
                "warm_ns",
                "speedup",
                "cache_hits",
                "cache_misses",
                "build_bytes",
                "saved_allocs"
            ]
        );
        let b15 = predicate_pushdown(150, 1).unwrap();
        assert_eq!(
            keys(&b15.table("b15")[0]),
            [
                "query",
                "courses",
                "rows_out",
                "off_scanned",
                "on_scanned",
                "off_probes",
                "on_probes",
                "scan_reduction",
                "off_ns",
                "on_ns",
                "speedup",
                "pushed_conjuncts",
                "pruned_rows"
            ]
        );
        for (name, report) in [("b8", &b8), ("b10", &b10), ("b15", &b15)] {
            let text = report.to_json(name, true);
            let rows = report.table(name).len();
            assert!(text.contains(&format!(",\"{name}\":[{{")), "{text}");
            assert!(text.trim_end().ends_with("}]}"), "{text}");
            assert_eq!(text.matches("\"speedup\":").count(), rows, "{text}");
        }
    }

    #[test]
    fn predicate_pushdown_shape() {
        // `predicate_pushdown` itself asserts byte-identity, the >= 10x cut
        // of the rows entering the chain's ASSIST join, and the
        // scan-to-lookup upgrade; the checks here cover the recorded rows.
        let report = predicate_pushdown(200, 2).unwrap();
        let rows = report.table("b15");
        assert_eq!(rows.len(), 2);
        let chain = &rows[0];
        // Both sides scan the root and build ASSIST at most once; a
        // pushed conjunct that keeps no TEACH row skips the build.
        assert!(
            chain.int("on_scanned") <= chain.int("off_scanned"),
            "{chain:?}"
        );
        assert!(chain.int("pushed_conjuncts") >= 1, "{chain:?}");
        assert!(chain.int("pruned_rows") > 0, "{chain:?}");
        let root = &rows[1];
        assert_eq!(root.int("on_scanned"), 0, "{root:?}");
        assert!(root.int("off_scanned") >= 200, "{root:?}");
        assert!(root.int("rows_out") >= 1, "{root:?}");
        for r in rows {
            assert!(r.num("off_ns") > 0.0 && r.num("on_ns") > 0.0, "{r:?}");
            assert!(r.num("speedup") > 0.0, "{r:?}");
        }
    }

    #[test]
    fn workload_profile_shape() {
        // `workload_profile` itself asserts the exactness (profiler totals
        // == manual per-query sums), determinism and ordering invariants;
        // the shape checks here cover the summary surface.
        let report = workload_profile(200, 300, 5).unwrap();
        let f = &report.fields;
        assert_eq!(f.int("ops"), 300);
        assert_eq!(f.int("fingerprints"), 2);
        assert_eq!(f.int("executions"), 300);
        assert!(f.int("index_probes") > 0);
        assert!(
            f.int("intermediate_bytes") > 0,
            "allocation tracking is live"
        );
        assert!(f.int("peak_intermediate_bytes") > 0);
        assert!(f.int("peak_intermediate_bytes") <= f.int("intermediate_bytes"));
        let hot = report.table("hot_joins");
        assert!(!hot.is_empty() && hot.len() <= 5);
        // Ranking is 1-based, dense, and sorted by cumulative cost.
        for (i, h) in hot.iter().enumerate() {
            assert_eq!(h.int("rank"), i as u64 + 1);
            assert_eq!(
                h.int("cumulative_cost"),
                h.int("index_probes") + h.int("rows_scanned")
            );
        }
        // The point query dominates the skewed mix, so its first join
        // edge (COURSE→OFFER) must lead the ranking.
        assert_eq!(hot[0].text("edge"), "COURSE->OFFER[O.C.NR]");
    }

    #[test]
    fn profile_json_is_well_formed() {
        let report = workload_profile(120, 100, 3).unwrap();
        assert_eq!(
            keys(&report.fields),
            [
                "courses",
                "ops",
                "fingerprints",
                "executions",
                "index_probes",
                "rows_scanned",
                "intermediate_bytes",
                "peak_intermediate_bytes",
                "ns_per_op",
                "snapshot_us",
                "report_us"
            ]
        );
        assert_eq!(
            keys(&report.table("hot_joins")[0]),
            [
                "rank",
                "edge",
                "cumulative_cost",
                "index_probes",
                "rows_scanned",
                "executions",
                "intermediate_bytes"
            ]
        );
        let text = report.to_json("b14", false);
        assert!(text.starts_with("{\"experiment\":\"B14\","), "{text}");
        assert_eq!(
            text.matches("\"edge\":").count(),
            report.table("hot_joins").len(),
            "every hot join carries its relation pair"
        );
    }

    #[test]
    fn fault_torture_every_cell_recovers() {
        // `fault_torture` itself asserts every row recovered.
        let report = fault_torture(60, 8, 11).unwrap();
        let rows = report.table("torture");
        // 4 batch sites × 2 modes, plus 3 query sites × 2 modes, plus 2
        // session sites × 2 modes.
        assert_eq!(rows.len(), 18);
        let total_cells: u64 = rows.iter().map(|r| r.int("cells")).sum();
        assert!(total_cells > 8, "matrix is wider than one cell per pair");
        for r in rows {
            assert_eq!(keys(r), TORTURE_KEYS);
            assert!(r.int("cells") > 0, "{r:?}");
            assert_eq!(r.int("snapshot_matches"), r.int("cells"), "{r:?}");
        }
    }

    #[test]
    fn online_merge_shape() {
        let report = online_merge(60, 40, 7).unwrap();
        let f = &report.fields;
        // The advisor chose the paper's chain from the observed workload.
        assert_eq!(f.text("merged_name"), "COURSE_M");
        assert_eq!(
            f.get("members"),
            Some(&Cell::list(["COURSE", "OFFER", "TEACH", "ASSIST"]))
        );
        assert!(f.int("observed_cost") > 0, "{f:?}");
        // Capacity oracles and the probe payoff (the strict-drop and
        // torture invariants are asserted inside online_merge; re-state
        // the headline ones on the summary).
        assert_eq!(f.get("capacity_4_1"), Some(&Cell::Bool(true)));
        assert_eq!(f.get("capacity_both"), Some(&Cell::Bool(true)));
        assert!(f.int("post_probes") < f.int("pre_probes"), "{f:?}");
        assert!(f.int("rows_migrated") > 0 && f.int("chunks_applied") > 0);
        // 2 migration sites × 2 modes.
        assert_eq!(report.table("torture").len(), 4);
        assert!(matches!(f.get("workers"), Some(Cell::List(w)) if !w.is_empty()));
    }

    #[test]
    fn merge_json_is_well_formed() {
        let report = online_merge(60, 40, 7).unwrap();
        assert_eq!(
            keys(&report.fields),
            [
                "courses",
                "ops",
                "merged_name",
                "members",
                "observed_cost",
                "propose_us",
                "rows_migrated",
                "chunks_applied",
                "migrate_ms",
                "pre_probes",
                "post_probes",
                "pre_rows_scanned",
                "post_rows_scanned",
                "pre_median_us",
                "post_median_us",
                "capacity_4_1",
                "capacity_both",
                "workers"
            ]
        );
        let text = report.to_json("b13", false);
        assert!(text.starts_with("{\"experiment\":\"B13\","), "{text}");
        assert!(
            text.contains("\"members\":[\"COURSE\",\"OFFER\",\"TEACH\",\"ASSIST\"]"),
            "{text}"
        );
        assert_eq!(text.matches("\"site\":").count(), 4);
        assert!(text.contains("\"capacity_both\":true"));
    }

    #[test]
    fn remove_effect_shrinks() {
        let report = remove_effect(&[200]).unwrap();
        let r = &report.table("rows")[0];
        assert_eq!((r.int("arity_before"), r.int("arity_after")), (7, 4));
        assert!(r.int("values_after") < r.int("values_before"));
        assert!(r.int("nulls_after") < r.int("nulls_before"));
        assert!(r.int("constraints_after") < r.int("constraints_before"));
    }

    /// Runs B11 with the default panic hook silenced: panic-mode cells
    /// deliberately panic inside the engine.
    fn quiet_wal_torture(courses: usize, batches: usize, size: usize, seed: u64) -> Report {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = wal_torture(courses, batches, size, seed);
        std::panic::set_hook(default_hook);
        report.unwrap()
    }

    #[test]
    fn wal_torture_matrix_is_green_at_smoke_scale() {
        // `wal_torture` itself asserts every crash point and torture cell
        // recovered.
        let report = quiet_wal_torture(60, 6, 6, 7);
        let batches = report.fields.int("batches");
        assert!(batches > 0);
        // 3 sites × 2 modes.
        assert_eq!(report.table("torture").len(), 6);
        // The recovery curve covers the empty prefix through the full log.
        let curve = report.table("recovery");
        assert!(curve.len() >= 2);
        assert_eq!(curve[0].int("batches"), 0);
        let last = curve.last().unwrap();
        assert_eq!(last.int("batches"), batches);
        assert!(last.int("records") > curve[0].int("records"));
    }

    #[test]
    fn wal_json_is_well_formed() {
        let report = quiet_wal_torture(60, 4, 4, 11);
        assert_eq!(
            keys(&report.fields),
            [
                "courses",
                "batches",
                "batch_size",
                "durable_batch_us",
                "memory_batch_us",
                "append_overhead",
                "truncation_cells",
                "truncation_clean"
            ]
        );
        let curve = report.table("recovery");
        assert_eq!(
            keys(&curve[0]),
            ["batches", "records", "wal_bytes", "replay_ns"]
        );
        for r in report.table("torture") {
            assert_eq!(keys(r), TORTURE_KEYS);
        }
        let text = report.to_json("b11", false);
        assert!(text.starts_with("{\"experiment\":\"B11\","), "{text}");
        assert_eq!(text.matches("\"replay_ns\":").count(), curve.len());
    }
}
