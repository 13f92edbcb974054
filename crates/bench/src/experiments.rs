//! The measured experiments B1–B15. Each returns a [`Report`] whose cell
//! names are the keys of its `BENCH_<name>.json` artifact.
//!
//! Every comparison is timed one way, in rotated rounds: each round takes
//! one sample of every subject, the next round starting at the next
//! subject. A time is a subject's median over the rounds, and a speedup
//! the median of the per-round ratios. Counts are diffs of the engine's
//! counters, which only go up.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_core::{Merge, Merged};
use relmerge_engine::{Database, DbmsProfile, JoinStep, Predicate, QueryPlan, Statement, Store};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, Error, RelationalSchema, Result, Tuple, Value};
use relmerge_workload::{generate_university, University, UniversityOp, UniversitySpec};

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
    Ok((
        loaded(&u.schema, DbmsProfile::ideal(), &u.state)?,
        loaded(m.schema(), DbmsProfile::ideal(), &m.apply(&u.state)?)?,
    ))
}

/// A database of `schema` on `profile`, loaded with `state`.
fn loaded(
    schema: &RelationalSchema,
    profile: DbmsProfile,
    state: &DatabaseState,
) -> Result<Database> {
    let mut db = Database::new(schema.clone(), profile)?;
    db.load_state(state)?;
    Ok(db)
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

/// The query a university read op lowers to against the merged or the
/// unmerged schema (`None` for a write op).
fn read_plan(merged: bool, op: &UniversityOp) -> Option<QueryPlan> {
    match (merged, op) {
        (false, UniversityOp::CourseDetail { nr }) => Some(unmerged_point_query(*nr)),
        (false, UniversityOp::ByFaculty { ssn }) => Some(unmerged_by_faculty_query(*ssn)),
        (true, UniversityOp::CourseDetail { nr }) => Some(merged_point_query(*nr)),
        (true, UniversityOp::ByFaculty { ssn }) => Some(merged_by_faculty_query(*ssn)),
        (_, UniversityOp::AddCourse { .. } | UniversityOp::DropCourse { .. }) => None,
    }
}

/// B1: merged-vs-unmerged retrieval cost across instance scales.
///
/// Three comparisons per scale: point queries and reverse lookups over
/// `queries` random keys each (a sample is one pass, per query), and the
/// full scan (a sample is one scan). Each runs `rounds` rotated rounds
/// of an unmerged and a merged sample.
pub fn query_speedup(scales: &[usize], queries: usize, rounds: usize) -> Result<Report> {
    let mut rows = Vec::new();
    for &courses in scales {
        let (u, m) = university_merge(courses, 42)?;
        let (unmerged, merged) = university_databases(&u, &m)?;
        let mut rng = StdRng::seed_from_u64(7);
        let keys: Vec<i64> = (0..queries)
            .map(|_| *u.offered_courses.choose(&mut rng).expect("offers exist"))
            .collect();
        // Reverse lookups ("courses taught by faculty F"): a walk up the
        // chain against one probe of the merged relation's secondary index.
        let ssns: Vec<i64> = (0..queries)
            .map(|_| 10_000 + rng.gen_range(0..200))
            .collect();

        // Warm-up + correctness cross-checks.
        let (r1, s1) = unmerged.execute(&unmerged_point_query(keys[0]))?;
        let (r2, s2) = merged.execute(&merged_point_query(keys[0]))?;
        assert_eq!(r1.len(), r2.len(), "result cardinality must agree");
        let (scan1, _) = unmerged.execute(&unmerged_scan_query())?;
        let (scan2, _) = merged.execute(&merged_scan_query())?;
        assert_eq!(scan1.len(), scan2.len(), "scan cardinality must agree");
        let (r1, _) = unmerged.execute(&unmerged_by_faculty_query(ssns[0]))?;
        let (r2, _) = merged.execute(&merged_by_faculty_query(ssns[0]))?;
        assert!(r1.set_eq_unordered(&r2), "reverse lookups must agree");

        // The point, scan and reverse comparisons: a sample is one pass of
        // a side's plan over the comparison's keys, in ns per query.
        let dbs = [&unmerged, &merged];
        type Plans = [fn(i64) -> QueryPlan; 2];
        let comparisons: [(&[i64], Plans); 3] = [
            (&keys, [unmerged_point_query, merged_point_query]),
            (&[0], [|_| unmerged_scan_query(), |_| merged_scan_query()]),
            (&ssns, [unmerged_by_faculty_query, merged_by_faculty_query]),
        ];
        let [point, scan, reverse] = comparisons.map(|(args, plan)| {
            rotated(2, rounds, |s| {
                let t0 = Instant::now();
                for &a in args {
                    drop(dbs[s].execute(&plan[s](a))?);
                }
                Ok(obs::elapsed_ns(t0) as f64 / args.len() as f64)
            })
        });
        let (point, scan, reverse) = (point?, scan?, reverse?);

        rows.push(
            Row::new()
                .cell("courses", courses)
                .cell("unmerged_probes", s1.index_probes)
                .cell("merged_probes", s2.index_probes)
                .cell("unmerged_ns", Cell::Num(median(&point[0]), 0))
                .cell("merged_ns", Cell::Num(median(&point[1]), 0))
                .cell(
                    "point_speedup",
                    Cell::Num(median_ratio(&point[0], &point[1]), 2),
                )
                .cell("scan_unmerged_ns", Cell::Num(median(&scan[0]), 0))
                .cell("scan_merged_ns", Cell::Num(median(&scan[1]), 0))
                .cell(
                    "scan_speedup",
                    Cell::Num(median_ratio(&scan[0], &scan[1]), 2),
                )
                .cell("reverse_unmerged_ns", Cell::Num(median(&reverse[0]), 0))
                .cell("reverse_merged_ns", Cell::Num(median(&reverse[1]), 0)),
        );
    }
    let mut report = Report::new("B1: query speedup (merged vs unmerged), university workload");
    report.scale =
        format!("{scales:?} courses, {queries} point queries, median of {rounds} rounds");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// B2: constraint-maintenance cost of inserting course bundles into the
/// unmerged schema (fully declarative on DB2) versus the merged schema,
/// whose general null constraints run as SYBASE-style triggers or, on the
/// ideal profile, natively: the same one-statement insert with no trigger
/// tier.
///
/// A sample loads a fresh database (untimed) and times its `entities`
/// bundle inserts; each of `rounds` rotated rounds takes one per
/// scenario, and each row reports its scenario's median `ns_per_entity`
/// and `vs_native`, the median over rounds of its time over the native
/// row's in the same round. Every round must bump the same counters
/// (asserted).
pub fn maintenance_cost(entities: usize, rounds: usize) -> Result<Report> {
    let (u, m) = university_merge(10, 1)?;
    let merged_state = m.apply(&u.state)?;
    // Unmerged: DB2 profile — every constraint is declarative. Merged: a
    // course bundle is a single statement; SYBASE checks the NS/NE
    // constraints through triggers, the ideal profile natively.
    let scenarios = [
        ("unmerged (DB2, declarative)", DbmsProfile::db2(), false),
        (
            "merged (SYBASE 4.0, triggers)",
            DbmsProfile::sybase40(),
            true,
        ),
        ("merged (ideal, native)", DbmsProfile::ideal(), true),
    ];
    let dept = Value::text("dept0");
    let faculty = Value::Int(10_000);
    let student = Value::Int(10_400);
    let samples = rotated(scenarios.len(), rounds, |s| {
        let (_, profile, merged) = &scenarios[s];
        let mut db = if *merged {
            loaded(m.schema(), profile.clone(), &merged_state)?
        } else {
            loaded(&u.schema, profile.clone(), &u.state)?
        };
        let before = db.metrics_registry().snapshot();
        let t0 = Instant::now();
        for e in 0..entities {
            let nr = Value::Int(1_000_000 + e as i64);
            if *merged {
                db.insert(
                    "COURSE_M",
                    Tuple::new([nr, dept.clone(), faculty.clone(), student.clone()]),
                )
                .expect("merged insert");
            } else {
                db.insert("COURSE", Tuple::new([nr.clone()]))
                    .expect("course insert");
                db.insert("OFFER", Tuple::new([nr.clone(), dept.clone()]))
                    .expect("offer insert");
                db.insert("TEACH", Tuple::new([nr.clone(), faculty.clone()]))
                    .expect("teach insert");
                db.insert("ASSIST", Tuple::new([nr, student.clone()]))
                    .expect("assist insert");
            }
        }
        let ns = obs::elapsed_ns(t0) as f64 / entities as f64;
        Ok((ns, counters_since(&db, &before)))
    })?;
    let native = times(&samples[2]);
    let rows = scenarios
        .iter()
        .zip(&samples)
        .map(|((scenario, _, _), samples)| {
            let counts = same_counts(scenario, samples);
            let ns = times(samples);
            Row::new()
                .cell("scenario", *scenario)
                .cell("entities", entities)
                .cell("statements", count(counts, "engine.dml.inserts"))
                .cell("declarative", count(counts, "engine.check.declarative"))
                .cell("procedural", count(counts, "engine.check.procedural"))
                .cell("ns_per_entity", Cell::Num(median(&ns), 0))
                .cell("vs_native", Cell::Num(median_ratio(&ns, &native), 2))
        })
        .collect();
    let mut report = Report::new("B2: maintenance cost per inserted course bundle");
    report.scale = format!("{entities} course bundles, median of {rounds} rounds");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// B3: the cost of the schema-design procedures as the merge set grows,
/// and of the state mappings as the data grows.
///
/// Each star of `satellites` satellites has one non-key attribute per
/// satellite, referencing one of two external schemes. With one such
/// attribute, an advisor on DB2's profile admits the merge; with two,
/// general null constraints remain (Proposition 5.2) and the advisor
/// applies nothing. Timed per star: `Merge::plan`
/// of the whole star, `remove_all_removable` of a fresh plan (planned
/// untimed), the advisor's `propose_static` and `greedy`, and the query
/// planner on a query spanning the root and the last satellite. Timed
/// per `root_rows`: η (`Merged::apply`) and η′ (`Merged::invert`) of a
/// 3-satellite star.
///
/// Asserted: every merged scheme is BCNF (Proposition 4.1), `greedy`
/// applies at least one merge, and η′(η(r)) = r at every size.
pub fn merge_scaling(satellites: &[usize], root_rows: &[usize]) -> Result<Report> {
    use relmerge_core::Advisor;
    use relmerge_engine::LogicalQuery;
    use relmerge_workload::{consistent_state, star_merge_set, star_schema, StarSpec, StateSpec};

    let advisor = Advisor::new(&DbmsProfile::db2());
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
///
/// A sample loads a fresh database (untimed) and runs the whole stream
/// on it; each of `rounds` rotated rounds takes one per schema.
/// `total_ns` is a schema's median and `merged_speedup` the median of the
/// per-round ratios.
pub fn mixed_workload(scales: &[usize], n_ops: usize, rounds: usize) -> Result<Report> {
    use relmerge_workload::{merged_statements, university_ops, unmerged_statements, MixSpec};

    let mut rows = Vec::new();
    for &courses in scales {
        let (u, m) = university_merge(courses, 21)?;
        let merged_state = m.apply(&u.state)?;
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
        let row = |scenario: &str, total_ns: f64| {
            Row::new()
                .cell("courses", courses)
                .cell("scenario", scenario)
                .cell("ops", n_ops)
                .cell("reads", reads)
                .cell("writes", n_ops - reads)
                .cell("total_ns", total_ns as u64)
                .cell("ns_per_op", Cell::Num(total_ns / n_ops as f64, 0))
        };

        // A sample runs the stream one operation at a time: a read as its
        // query, a write as its statements, each applied on its own.
        let ns = rotated(2, rounds, |s| {
            let merged = s == 1;
            let mut db = if merged {
                loaded(m.schema(), DbmsProfile::ideal(), &merged_state)?
            } else {
                loaded(&u.schema, DbmsProfile::ideal(), &u.state)?
            };
            let lower = if merged {
                merged_statements
            } else {
                unmerged_statements
            };
            let t0 = Instant::now();
            for op in &ops {
                match read_plan(merged, op) {
                    Some(plan) => drop(db.execute(&plan)?),
                    None => lower(op)
                        .iter()
                        .try_for_each(|s| apply_single(&mut db, s))?,
                }
            }
            Ok(obs::elapsed_ns(t0) as f64)
        })?;
        rows.push(row("unmerged (4 relations)", median(&ns[0])));
        rows.push(
            row("merged (COURSE_M)", median(&ns[1]))
                .cell("merged_speedup", Cell::Num(median_ratio(&ns[0], &ns[1]), 2)),
        );
    }
    let mut report =
        Report::new("B6: mixed workload (80% point reads, 10% reverse reads, 10% DML)");
    report.scale = format!("{scales:?} courses, {n_ops} operations, median of {rounds} rounds");
    report.tables.push(("rows", rows));
    Ok(report)
}

/// Applies one statement through the immediate per-statement API: B6's
/// writes, and the baseline B7 measures the batch path against.
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
/// application of the identical write stream, at each scale. Every run
/// must end in the same [`relmerge_relational::DatabaseState`]; the
/// batched run performs strictly fewer constraint checks and index probes
/// because commit-time validation checks each constraint once over the
/// touched rows of a relation instead of once per statement.
///
/// A sample loads a fresh database (untimed) and applies the stream on
/// it; each of `rounds` rotated rounds takes one per side. A time is
/// its side's median and `speedup` the median of the per-round ratios;
/// every round of a side must bump the same counters (asserted).
pub fn batch_dml(
    scales: &[usize],
    n_ops: usize,
    batch_size: usize,
    rounds: usize,
) -> Result<Report> {
    use relmerge_workload::{university_ops, write_batches, MixSpec};

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
            let (schema, state) = if merged {
                (m.schema(), &merged_state)
            } else {
                (&u.schema, &u.state)
            };
            // Side 0 validates every statement on its own; side 1 commits
            // all-or-nothing batches with deferred group validation.
            let mut end_state = None;
            let samples = rotated(2, rounds, |s| {
                let mut db = loaded(schema, DbmsProfile::ideal(), state)?;
                let before = db.metrics_registry().snapshot();
                let t0 = Instant::now();
                if s == 0 {
                    for stmt in batches.iter().flatten() {
                        apply_single(&mut db, stmt)?;
                    }
                } else {
                    for batch in &batches {
                        db.apply_batch(batch)?;
                    }
                }
                let ns = obs::elapsed_ns(t0) as f64;
                let counts = counters_since(&db, &before);
                let state = db.snapshot()?;
                assert_eq!(
                    *end_state.get_or_insert_with(|| state.clone()),
                    state,
                    "batched and per-statement runs must converge on one state"
                );
                Ok((ns, counts))
            })?;
            let [eager, batched] = [0, 1].map(|s| same_counts(scenario, &samples[s]));
            let checks =
                |c| count(c, "engine.check.declarative") + count(c, "engine.check.procedural");
            let [eager_ns, batched_ns] = [0, 1].map(|s| times(&samples[s]));
            rows.push(
                Row::new()
                    .cell("courses", courses)
                    .cell("scenario", scenario)
                    .cell("statements", batches.iter().map(Vec::len).sum::<usize>())
                    .cell("batches", batches.len())
                    .cell("eager_checks", checks(eager))
                    .cell("batched_checks", checks(batched))
                    .cell("eager_probes", count(eager, "engine.check.index_probes"))
                    .cell(
                        "batched_probes",
                        count(batched, "engine.check.index_probes"),
                    )
                    .cell("deferred_checks", count(batched, "engine.check.deferred"))
                    .cell("eager_ns", median(&eager_ns) as u64)
                    .cell("batched_ns", median(&batched_ns) as u64)
                    .cell(
                        "speedup",
                        Cell::Num(median_ratio(&eager_ns, &batched_ns), 2),
                    ),
            );
        }
    }
    let mut report = Report::new("B7: batched DML (deferred group validation) vs per-statement");
    report.scale = format!(
        "{scales:?} courses, {n_ops} writes in batches of {batch_size}, median of {rounds} rounds"
    );
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

/// The client-thread counts B12 measures: 1, 2, 4, and the machine's
/// available parallelism, deduplicated and sorted. Counts above the
/// physical core count are kept on purpose: on a single-core host they
/// are the only multi-thread data points.
#[must_use]
pub fn worker_sweep(cores: usize) -> Vec<usize> {
    let mut sweep = vec![1, 2, 4, cores.max(1)];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// B8: the executor on the unmerged university schema.
///
/// Two queries are measured: the B1 chain scan (covering indexes exist,
/// so every join probes its index once per left row) and
/// [`composite_no_index_query`] (no covering index, so the join scans
/// TEACH once to build a transient hash table). `ns` is the median of
/// `iters` timed runs after one warm-up. The build cache is disabled
/// throughout, so every run pays its own build; [`build_cache_speedup`]
/// (B10) measures the cache.
///
/// Asserted: the chain builds nothing and probes, and the composite join
/// builds once.
pub fn join_execution(courses: usize, iters: u32) -> Result<Report> {
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;
    db.configure(db.config().build_cache_capacity(0));

    // (label, plan, transient builds): every chain join probes its
    // covering index, and the composite join builds once.
    let queries = [
        (
            "chain scan (COURSE + 3 outer joins)",
            unmerged_scan_query(),
            0,
        ),
        (
            "composite join (ASSIST x TEACH)",
            composite_no_index_query(),
            1,
        ),
    ];
    let mut rows = Vec::new();
    for (label, plan, builds) in queries {
        let (rel, stats) = db.execute(&plan)?; // warm-up
        assert_eq!(
            (stats.hash_builds, stats.index_probes > 0),
            (builds, builds == 0),
            "{label}: {stats:?}"
        );
        let runs = rotated(1, iters as usize, |_| {
            let t0 = Instant::now();
            drop(db.execute(&plan)?);
            Ok(obs::elapsed_ns(t0) as f64)
        })?;
        let ns = median(&runs[0]);
        rows.push(
            Row::new()
                .cell("query", label)
                .cell("courses", courses)
                .cell("rows_out", rel.len())
                .cell("ns", Cell::Num(ns, 0))
                .cell("rows_per_sec", Cell::Num(rel.len() as f64 * 1e9 / ns, 0))
                .cell("morsels", stats.morsels)
                .cell("hash_builds", stats.hash_builds)
                .cell("rows_scanned", stats.rows_scanned)
                .cell("index_probes", stats.index_probes),
        );
    }
    let mut report = Report::new("B8: the executor on a chain scan and a composite join");
    report.scale = format!("{courses} courses, median of {iters} timed runs");
    report.tables.push(("b8", rows));
    Ok(report)
}

/// Runs subjects `0..n` once per round for `rounds` rounds and returns
/// each subject's samples in round order: the one way `reproduce` times a
/// comparison. Round `r` starts at subject `r % n`, so host drift touches
/// every subject alike and none always runs first. A subject times itself,
/// which keeps the set-up it needs (a fresh database, a cleared cache) off
/// its clock.
fn rotated<T>(
    n: usize,
    rounds: usize,
    mut sample: impl FnMut(usize) -> Result<T>,
) -> Result<Vec<Vec<T>>> {
    let mut samples: Vec<Vec<T>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    for round in 0..rounds {
        for i in 0..n {
            let s = (round + i) % n;
            samples[s].push(sample(s)?);
        }
    }
    Ok(samples)
}

/// The median of `xs`.
fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// The median over rounds of `num[r] / den[r]`: each ratio pairs two
/// samples of one round, which cancels the drift between rounds.
fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    quantile(&mut ratios, 0.5)
}

/// The row of medians over `runs`, rows with the same cells: each cell of
/// `runs[0]` holds its median over `runs`, a count staying a count.
fn median_row(runs: &[Row]) -> Row {
    let cells = runs[0].0.iter().map(|(name, cell)| {
        let m = median(&runs.iter().map(|r| r.num(name)).collect::<Vec<f64>>());
        let cell = match cell {
            Cell::Num(_, decimals) => Cell::Num(m, *decimals),
            _ => Cell::Int(m as u64),
        };
        (*name, cell)
    });
    Row(cells.collect())
}

/// Counter values by name.
type Counts = BTreeMap<String, u64>;

/// The counters `db` bumped since `before` was taken. Counters only go
/// up, so a diff of two snapshots is the count of the events between them.
fn counters_since(db: &Database, before: &obs::Snapshot) -> Counts {
    db.metrics_registry().snapshot().diff(before).counters
}

/// Counter `name` of `counts` (a counter that did not move reads 0).
fn count(counts: &Counts, name: &str) -> u64 {
    counts.get(name).copied().unwrap_or(0)
}

/// The wall times of `samples`.
fn times(samples: &[(f64, Counts)]) -> Vec<f64> {
    samples.iter().map(|(ns, _)| *ns).collect()
}

/// The counts every sample of `scenario` bumped, asserting they agree.
fn same_counts<'a>(scenario: &str, samples: &'a [(f64, Counts)]) -> &'a Counts {
    let first = &samples[0].1;
    assert!(
        samples.iter().all(|(_, c)| c == first),
        "{scenario}: the rounds counted differently"
    );
    first
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
/// the composite non-indexed `[T.C.NR, T.F.SSN]`. The unfiltered plan
/// scans every course and probes TEACH once per course; pushed, the `Eq`
/// drives the root through TEACH's `T.F.SSN` index and COURSE's `C.NR`
/// index (the semi-join reduction), so COURSE is not scanned at all and
/// only the ASSIST build scans. The stream entering the ASSIST join must
/// shrink at least 10×. Like B8's composite query the result is
/// legitimately empty (faculty and student SSNs are disjoint), keeping
/// the query a pure measure of filter placement. The *root Eq upgrade*
/// filters a two-relation outer chain on the root key; the optimizer
/// converts the full scan into an index point lookup, so `rows_scanned`
/// drops to zero.
///
/// Both sides are asserted byte-identical per query. Latency is measured
/// in `iters` rotated off/on rounds, and `speedup` is the median of
/// the per-round `off / on` ratios. The build cache is disabled so every
/// execution pays its own access work.
pub fn predicate_pushdown(courses: usize, iters: u32) -> Result<Report> {
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;
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
        let counts = counters_since(&db, &before);
        assert_eq!(
            on_rel, off_rel,
            "pushdown must return the filter at the top's answer ({label})"
        );
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

        // Side 0 is "off", side 1 "on".
        let ns = rotated(2, iters as usize, |s| {
            let t0 = Instant::now();
            if s == 0 {
                drop(filter_at_top(&db, plan)?);
            } else {
                drop(db.execute(plan)?);
            }
            Ok(obs::elapsed_ns(t0) as f64)
        })?;
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
                .cell("off_ns", Cell::Num(median(&ns[0]), 0))
                .cell("on_ns", Cell::Num(median(&ns[1]), 0))
                .cell("speedup", Cell::Num(median_ratio(&ns[0], &ns[1]), 4))
                .cell(
                    "pushed_conjuncts",
                    count(&counts, "engine.query.pushed_conjuncts"),
                )
                .cell(
                    "pruned_rows",
                    count(&counts, "engine.query.pushdown_pruned_rows"),
                ),
        );
    }
    report.scale = format!("{courses} courses, {iters} timed pairs");
    report.tables.push(("b15", rows));
    Ok(report)
}

/// B10: the versioned build-side cache on the build-heavy composite join.
///
/// The query runs in `iters` rotated rounds of one cold run (cache
/// cleared, untimed, before the run, so it rebuilds TEACH's transient hash
/// table) and one warm run (the cache holds the last cold run's build, so
/// it hits); `cold_ns`/`warm_ns` are the medians, and `speedup`, the
/// end-to-end win of the cache, is the median of the per-round ratios.
/// Like B8's composite row, the query's result is legitimately empty
/// (faculty and student SSNs are disjoint), keeping it a pure measure of
/// build-side work.
///
/// Every run, cold or warm, is asserted byte-identical, with identical
/// [`relmerge_engine::QueryStats`], to a cache-off reference.
pub fn build_cache_speedup(courses: usize, iters: u32) -> Result<Report> {
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;
    let plan = composite_no_index_query();

    // Cache-off reference: every cached run must be byte-identical to it,
    // with identical stats.
    db.configure(db.config().build_cache_capacity(0));
    let (reference, ref_stats) = db.execute(&plan)?;
    db.configure(
        db.config()
            .build_cache_capacity(relmerge_engine::DEFAULT_BUILD_CACHE_BYTES),
    );

    // A cold run rebuilds and populates the cache; a warm run reuses it.
    db.clear_build_cache();
    let (cold_rel, cold_stats) = db.execute(&plan)?;
    assert_eq!(cold_rel, reference, "cold result must be byte-identical");
    assert_eq!(cold_stats, ref_stats, "cold stats must be identical");
    let build_bytes = db.build_cache_bytes();
    let (warm_rel, warm_stats) = db.execute(&plan)?;
    assert_eq!(warm_rel, reference, "warm result must be byte-identical");
    assert_eq!(warm_stats, ref_stats, "warm stats must be identical");

    // Side 0 runs cold, side 1 warm; a sample is the run's wall time and
    // the counters it bumped.
    let samples = rotated(2, iters as usize, |s| {
        if s == 0 {
            db.clear_build_cache();
        }
        let before = db.metrics_registry().snapshot();
        let t0 = Instant::now();
        drop(db.execute(&plan)?);
        let ns = obs::elapsed_ns(t0) as f64;
        Ok((ns, counters_since(&db, &before)))
    })?;
    let [cold, warm] = [0, 1].map(|s| times(&samples[s]));
    let total = |s: usize, name| samples[s].iter().map(|(_, c)| count(c, name)).sum::<u64>();
    let cache_hits = total(1, "engine.query.build_cache.hits");
    let cache_misses = total(0, "engine.query.build_cache.misses");
    let saved_allocs = total(1, "engine.query.probe_key.saved_allocs");
    assert!(cache_hits >= 1, "the warm runs must hit the cache");
    let (cold_ns, warm_ns) = (median(&cold), median(&warm));

    let row = Row::new()
        .cell("courses", courses)
        .cell("rows_out", reference.len())
        .cell("cold_ns", Cell::Num(cold_ns, 0))
        .cell("warm_ns", Cell::Num(warm_ns, 0))
        .cell("speedup", Cell::Num(median_ratio(&cold, &warm), 4))
        .cell("cache_hits", cache_hits)
        .cell("cache_misses", cache_misses)
        .cell("build_bytes", build_bytes)
        .cell("saved_allocs", saved_allocs / u64::from(iters.max(1)));
    let mut report = Report::new("B10: versioned build-side cache (cold rebuild vs warm hit)");
    report.scale = format!("{courses} courses, {iters} timed runs");
    report.tables.push(("b10", vec![row]));
    Ok(report)
}

/// One B14 run: load the unmerged university instance, execute the
/// skewed read mix, and return the database alongside the manually summed
/// per-query [`QueryStats`] — the ground truth its profiler must match
/// exactly — and the mix's wall time (ns).
fn profile_run(
    courses: usize,
    ops: &[UniversityOp],
) -> Result<(Database, relmerge_engine::QueryStats, u64)> {
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let db = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;
    let mut manual = relmerge_engine::QueryStats::default();
    let t0 = Instant::now();
    for op in ops {
        let plan = read_plan(false, op).expect("B14 streams reads only");
        manual += db.execute(&plan)?.1;
    }
    let elapsed_ns = obs::elapsed_ns(t0);
    Ok((db, manual, elapsed_ns))
}

/// B14: the workload profiler on a Zipf-skewed read mix against the
/// unmerged Figure 3 schema — the hot-join ranking of its join ledger is
/// the evidence the merge advisor reads.
///
/// Two invariants are asserted, not just reported:
///
/// * **Exactness** — the `engine.query.*` counters equal the manual sum
///   of every execution's [`relmerge_engine::QueryStats`] field for
///   field, `engine.query.ns` counts every execution, and the ledger is
///   charged once per executed join step.
/// * **Determinism** — a second run over the same operation stream on a
///   fresh database yields a byte-identical hot-join report (wall time is
///   excluded from the report by construction), ranked by cumulative
///   cost.
pub fn workload_profile(courses: usize, n_ops: usize, top_k: usize) -> Result<Report> {
    use relmerge_workload::{skewed_reads, SkewSpec};

    // Defaults: 200 faculty (persons 500 × 2/5).
    let mut rng = StdRng::seed_from_u64(14);
    let ops = skewed_reads(&SkewSpec::default(), n_ops, courses, 200, &mut rng);

    let (db, manual, mix_ns) = profile_run(courses, &ops)?;
    let snap = db.profile_snapshot();

    // Exactness: the query counters == manual per-query sums, field for
    // field, and every join step is charged to the ledger once.
    let metrics = db.metrics_registry().snapshot();
    let total = |field: &str| metrics.counters[format!("engine.query.{field}").as_str()];
    let executions = metrics.histograms["engine.query.ns"].count;
    assert_eq!(executions, ops.len() as u64, "every execution counted");
    assert_eq!(total("rows_scanned"), manual.rows_scanned);
    assert_eq!(total("index_probes"), manual.index_probes);
    assert_eq!(total("hash_builds"), manual.hash_builds);
    assert_eq!(total("rows_output"), manual.rows_output);
    assert_eq!(total("morsels"), manual.morsels);
    assert_eq!(total("intermediate_bytes"), manual.intermediate_bytes);
    let ranking = &snap.hot_joins;
    assert_eq!(
        ranking.iter().map(|h| h.executions).sum::<u64>(),
        manual.joins,
        "one ledger charge per join step"
    );

    // Determinism: a fresh database + the same stream reproduce the
    // report byte for byte.
    let (db2, _, _) = profile_run(courses, &ops)?;
    assert_eq!(
        obs::report_to_json(ranking),
        obs::report_to_json(&db2.profile_snapshot().hot_joins),
        "hot-join report must be deterministic"
    );
    let snapshot_us = median_us(|| Ok(db.profile_snapshot()))?;
    let report_us = median_us(|| Ok(obs::report_to_json(ranking)))?;

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
        .cell("executions", executions)
        .cell("index_probes", total("index_probes"))
        .cell("rows_scanned", total("rows_scanned"))
        .cell("intermediate_bytes", total("intermediate_bytes"))
        .cell("peak_intermediate_bytes", manual.peak_intermediate_bytes)
        .cell("ns_per_op", Cell::Num(mix_ns as f64 / n_ops as f64, 0))
        .cell("snapshot_us", snapshot_us)
        .cell("report_us", report_us);
    report.tables.push(("hot_joins", hot_joins));
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
/// * the replayed workload's index probes strictly drop.
///
/// The migration fault sites are tortured by
/// `migrate::tests::faults_at_both_migration_sites_roll_back_byte_identical`
/// and `tests/online_merge.rs`.
pub fn online_merge(courses: usize, n_ops: usize, seed: u64) -> Result<Report> {
    use relmerge_core::{check_both, check_proposition_4_1, Advisor};
    use relmerge_workload::{skewed_reads, SkewSpec};

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
    let plan_for = |merged: bool, op| read_plan(merged, op).expect("B13 streams reads only");

    let mut db = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;

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
    let advisor = Advisor::new(db.profile());
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
        !report.pre_profile.hot_joins.is_empty(),
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
        .cell("capacity_both", capacity_both);
    Ok(out)
}

/// B11: durability. Commits a write workload through the write-ahead
/// log, timing the append overhead against an in-memory twin, then
/// measures recovery time against log length over literal log prefixes.
/// The seed state is a durable `load_state`, so it commits as snapshot
/// generation 1 and the log holds the workload's batches only.
///
/// The crash and fault-site matrices live in the tests:
/// `tests/wal_recovery.rs` cuts the log at every acked boundary and at
/// random offsets, and `relmerge_engine::wal`'s `*_fault_*` tests arm
/// the three durability fault sites.
pub fn durability(
    courses: usize,
    n_batches: usize,
    batch_size: usize,
    seed: u64,
) -> Result<Report> {
    use relmerge_engine::{DurabilityConfig, EngineConfig, FsyncPolicy};
    use relmerge_workload::{university_ops, write_batches, MixSpec};

    let io = |context: &str, e: std::io::Error| Error::Durability {
        detail: format!("{context}: {e}"),
    };
    let dir = std::env::temp_dir().join(format!("relmerge-b11-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No snapshot cadence, so the whole workload stays in one replayable
    // log. The measured overhead is serialization plus page-cache write.
    let cfg = EngineConfig::default().durability(Some(
        DurabilityConfig::new(&dir)
            .snapshot_every(0)
            .fsync(FsyncPolicy::Never),
    ));

    let mut rng = StdRng::seed_from_u64(seed);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let mut db = Database::new_with_config(u.schema.clone(), DbmsProfile::ideal(), cfg.clone())?;
    db.load_state(&u.state)?;
    let mut memory = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;

    // Append overhead: the same workload against the durable database and
    // its in-memory twin, recording the log length after every commit.
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
    let (generation, seed_end) = db.wal_position().expect("durable database");
    let mut acked = vec![seed_end];
    let mut durable_ns = 0u64;
    let mut memory_ns = 0u64;
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
            acked.push(db.wal_position().expect("durable database").1);
        }
    }
    let committed = acked.len() - 1;
    let per_batch = batches.len().max(1) as f64;
    let durable_batch_us = durable_ns as f64 / 1e3 / per_batch;
    let memory_batch_us = memory_ns as f64 / 1e3 / per_batch;
    let append_overhead = if memory_ns > 0 {
        durable_ns as f64 / memory_ns as f64 - 1.0
    } else {
        0.0
    };
    drop(db);

    // Recovery time against log length, over literal prefixes at evenly
    // spaced committed-batch checkpoints. One untimed recovery first, so
    // the curve's first point pays no cost the later ones skip; each point
    // is the median of five recoveries of its prefix.
    let log = dir.join(format!("wal-{generation}.log"));
    let pristine = std::fs::read(&log).map_err(|e| io("read log", e))?;
    let _ = Database::recover(cfg.clone())?;
    let mut recovery = Vec::new();
    let steps: Vec<usize> = if acked.len() <= 5 {
        (0..acked.len()).collect()
    } else {
        (0..5).map(|i| i * committed / 4).collect()
    };
    for at in steps {
        std::fs::write(&log, &pristine[..acked[at] as usize]).map_err(|e| io("cut log", e))?;
        let reports = (0..5)
            .map(|_| Database::recover(cfg.clone()).map(|(_, report)| report))
            .collect::<Result<Vec<_>>>()?;
        let mut replay_ns: Vec<f64> = reports.iter().map(|r| r.replay_ns as f64).collect();
        let report = &reports[0];
        recovery.push(
            Row::new()
                .cell("batches", at)
                .cell("records", report.records_replayed())
                .cell("wal_bytes", report.wal_bytes_replayed)
                .cell("replay_ns", quantile(&mut replay_ns, 0.5) as u64),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut report =
        Report::new("B11: durability (write-ahead log append overhead + recovery curve)");
    report.scale = format!("{courses} courses, {n_batches} batches of {batch_size} statements");
    report.fields = Row::new()
        .cell("courses", courses)
        .cell("batches", committed)
        .cell("batch_size", batch_size)
        .cell("durable_batch_us", Cell::Num(durable_batch_us, 3))
        .cell("memory_batch_us", Cell::Num(memory_batch_us, 3))
        .cell("append_overhead", Cell::Num(append_overhead, 4));
    report.tables.push(("recovery", recovery));
    Ok(report)
}

/// Thread `t`'s deterministic operation stream: the default read-mostly
/// mix with its new course numbers shifted into a per-thread range, so
/// concurrent writers never collide on a key and every write commits.
fn b12_thread_ops(t: usize, n: usize, courses: usize) -> Vec<UniversityOp> {
    use relmerge_workload::{university_ops, MixSpec};
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
/// The sweep runs `rounds` rotated rounds, one storm per thread count
/// and one baseline run each, every run on a fresh fork (a storm's under
/// a fresh store); each row holds its count's medians over the rounds.
///
/// Three correctness proofs ride along with the timing, in every storm:
/// - **frozen pins** — each thread retains its first read pins across
///   the whole storm and the harness re-executes them afterwards,
///   asserting byte-identical rows (a reader never observes later
///   commits);
/// - **cross-session reuse** — a deterministic two-session probe on a
///   fresh store asserts the second session's identical join hits the
///   build the first inserted (`cross_session_hits > 0`);
/// - **baseline sanity** — thread 0's stream is also run against a plain
///   [`Database`], one more subject of the rotated rounds, and the median
///   single-thread store row must land within a generous factor of the
///   median baseline (the session layer adds one pin per read, not a new
///   execution path). The factor is wide because shared single-core CI
///   hosts drift; the printed table carries the honest numbers.
pub fn concurrent_sessions(courses: usize, ops_per_thread: usize, rounds: usize) -> Result<Report> {
    use relmerge_workload::unmerged_statements;

    let mut rng = StdRng::seed_from_u64(12);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )?;
    let base = loaded(&u.schema, DbmsProfile::ideal(), &u.state)?;
    let cores = base.parallelism();

    // Single-`Database` baseline: thread 0's exact stream on a fresh
    // fork, no store.
    let baseline = || -> Result<Row> {
        let mut solo = base.fork();
        let ops = b12_thread_ops(0, ops_per_thread, courses);
        let t0 = std::time::Instant::now();
        for (i, op) in ops.iter().enumerate() {
            match read_plan(false, op) {
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
        let ns_per_op = t0.elapsed().as_nanos() as f64 / ops.len() as f64;
        Ok(Row::new().cell("ns_per_op", Cell::Num(ns_per_op, 1)))
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
        let (second_rows, _) = second.pin()?.execute(&plan)?;
        assert_eq!(
            first_rows, second_rows,
            "a shared-cache hit must not change the result"
        );
        let diff = store.metrics_registry().snapshot().diff(&before);
        let hits = count(&diff.counters, "engine.query.build_cache.hits");
        assert!(
            hits > 0,
            "the second session's identical join must reuse the shared build"
        );
        hits
    };

    // A sample is one storm of `threads` clients on a fresh store over a
    // fresh fork of `base`.
    let storm = |threads: usize| -> Result<Row> {
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
                            match read_plan(false, op) {
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
        // Every session and pin counts on the store registry, so it holds
        // every counter this run charged.
        let diff = store.metrics_registry().snapshot().diff(&before).counters;
        let cache_hits = count(&diff, "engine.query.build_cache.hits");
        let cache_misses = count(&diff, "engine.query.build_cache.misses");
        if threads >= 2 {
            assert!(
                cache_hits > 0,
                "concurrent sessions issuing the same join must share builds"
            );
        }
        let ops = reads + writes;
        Ok(Row::new()
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
            .cell("frozen_reads", frozen_reads))
    };
    // Subject 0 is the baseline; subject i is a storm of `sweep[i - 1]`
    // threads.
    let sweep = worker_sweep(cores);
    let runs = rotated(sweep.len() + 1, rounds, |i| match i {
        0 => baseline(),
        i => storm(sweep[i - 1]),
    })?;
    let baseline_ns_per_op = median_row(&runs[0]).num("ns_per_op");
    let rows: Vec<Row> = runs[1..].iter().map(|runs| median_row(runs)).collect();
    // The sweep starts at one thread.
    let n1_ns_per_op = rows[0].num("total_ns") / rows[0].num("ops");
    assert!(
        n1_ns_per_op < baseline_ns_per_op * 10.0,
        "one session over a store must stay in the same regime as a plain \
         Database: {n1_ns_per_op:.0} ns/op vs baseline {baseline_ns_per_op:.0} ns/op"
    );

    let mut report = Report::new(
        "B12: concurrent sessions (snapshot readers / serialized writers / shared cache)",
    );
    report.scale = format!(
        "{courses} courses, {ops_per_thread} ops per client thread, median of {rounds} rounds"
    );
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

    #[test]
    fn query_speedup_shape() {
        let report = query_speedup(&[200], 50, 3).unwrap();
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
        let report = maintenance_cost(100, 3).unwrap();
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
        // Each row's per-round ratio to the native row; native's own is 1.
        assert_eq!(native.num("vs_native"), 1.0);
        assert!(unmerged.num("vs_native") > 0.0 && merged.num("vs_native") > 0.0);
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
        let report = mixed_workload(&[200], 2_000, 3).unwrap();
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
        let report = batch_dml(&[200], 400, 32, 2).unwrap();
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
        let report = concurrent_sessions(120, 48, 2).unwrap();
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
    fn join_execution_shape() {
        let report = join_execution(300, 2).unwrap();
        let rows = report.table("b8");
        assert_eq!(rows.len(), 2, "the chain scan, then the composite join");
        let (chain, composite) = (&rows[0], &rows[1]);
        assert_eq!(chain.int("rows_out"), 300, "{chain:?}");
        assert_eq!(chain.int("morsels"), 1, "{chain:?}");
        // Every join probes its index once per left row with a non-null
        // key (each course probes OFFER; each offered course probes TEACH
        // and ASSIST), after the one root scan.
        assert_eq!(chain.int("rows_scanned"), 300, "{chain:?}");
        assert!(chain.int("index_probes") > 300, "{chain:?}");
        assert_eq!(composite.int("rows_out"), 0, "disjoint SSNs: {composite:?}");
        assert_eq!(composite.int("index_probes"), 0, "{composite:?}");
        for r in rows {
            assert!(r.num("ns") > 0.0, "{r:?}");
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
        // equality against the cache-off reference; wall-clock magnitudes
        // are left to the release-mode B10 run.
        let report = build_cache_speedup(300, 2).unwrap();
        let rows = report.table("b10");
        assert_eq!(rows.len(), 1, "one cold/warm row");
        let r = &rows[0];
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

    /// The exact keys of the B8, B10 and B15 artifacts' rows.
    #[test]
    fn query_json_is_well_formed() {
        let b8 = join_execution(150, 1).unwrap();
        assert_eq!(
            keys(&b8.table("b8")[0]),
            [
                "query",
                "courses",
                "rows_out",
                "ns",
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
            assert_eq!(text.matches("\"courses\":").count(), rows, "{text}");
        }
    }

    #[test]
    fn predicate_pushdown_shape() {
        // `predicate_pushdown` itself asserts byte-identity, the >= 10x cut
        // of the rows entering the chain's ASSIST join, and the
        // scan-to-lookup upgrade; the checks here cover the recorded rows.
        // At the smoke scale (1,500 courses) the chain's faculty member
        // teaches eight courses; at 200 none, and the ASSIST build would
        // be skipped.
        let report = predicate_pushdown(1_500, 2).unwrap();
        let rows = report.table("b15");
        assert_eq!(rows.len(), 2);
        let chain = &rows[0];
        // The pushed `Eq` reduces the root through TEACH's index, so the
        // root is not scanned: only the ASSIST build scans. The unfiltered
        // plan probes TEACH once per course; the reduction probes one
        // index, one root key per kept TEACH row, and TEACH per kept row.
        let u = generate_university(
            &UniversitySpec {
                courses: 1_500,
                ..UniversitySpec::default()
            },
            &mut StdRng::seed_from_u64(42),
        )
        .unwrap();
        let assist = u.state.relation("ASSIST").unwrap().len();
        assert_eq!(chain.int("on_scanned"), assist as u64, "{chain:?}");
        assert!(
            chain.int("on_probes") < chain.int("off_probes"),
            "{chain:?}"
        );
        assert!(chain.int("pushed_conjuncts") >= 1, "{chain:?}");
        let root = &rows[1];
        assert_eq!(root.int("on_scanned"), 0, "{root:?}");
        assert!(root.int("off_scanned") >= 1_500, "{root:?}");
        assert!(root.int("rows_out") >= 1, "{root:?}");
        for r in rows {
            assert!(r.num("off_ns") > 0.0 && r.num("on_ns") > 0.0, "{r:?}");
            assert!(r.num("speedup") > 0.0, "{r:?}");
        }
    }

    #[test]
    fn workload_profile_shape() {
        // `workload_profile` itself asserts the exactness (query counters
        // == manual per-query sums), determinism and ordering invariants;
        // the shape checks here cover the summary surface.
        let report = workload_profile(200, 300, 5).unwrap();
        let f = &report.fields;
        assert_eq!(f.int("ops"), 300);
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
        // Capacity oracles and the probe payoff (the strict drop is
        // asserted inside online_merge; re-state the headline ones on the
        // summary).
        assert_eq!(f.get("capacity_4_1"), Some(&Cell::Bool(true)));
        assert_eq!(f.get("capacity_both"), Some(&Cell::Bool(true)));
        assert!(f.int("post_probes") < f.int("pre_probes"), "{f:?}");
        assert!(f.int("rows_migrated") > 0 && f.int("chunks_applied") > 0);
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
                "capacity_both"
            ]
        );
        let text = report.to_json("b13", false);
        assert!(text.starts_with("{\"experiment\":\"B13\","), "{text}");
        assert!(
            text.contains("\"members\":[\"COURSE\",\"OFFER\",\"TEACH\",\"ASSIST\"]"),
            "{text}"
        );
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

    #[test]
    fn durability_curve_spans_the_log() {
        let report = durability(60, 6, 6, 7).unwrap();
        let batches = report.fields.int("batches");
        assert!(batches > 0);
        // The curve runs from the seed snapshot alone through the full log,
        // which holds one record per committed batch.
        let curve = report.table("recovery");
        assert!(curve.len() >= 2);
        assert_eq!((curve[0].int("batches"), curve[0].int("records")), (0, 0));
        let last = curve.last().unwrap();
        assert_eq!(
            (last.int("batches"), last.int("records")),
            (batches, batches)
        );
    }

    #[test]
    fn wal_json_is_well_formed() {
        let report = durability(60, 4, 4, 11).unwrap();
        assert_eq!(
            keys(&report.fields),
            [
                "courses",
                "batches",
                "batch_size",
                "durable_batch_us",
                "memory_batch_us",
                "append_overhead"
            ]
        );
        let curve = report.table("recovery");
        assert_eq!(
            keys(&curve[0]),
            ["batches", "records", "wal_bytes", "replay_ns"]
        );
        let text = report.to_json("b11", false);
        assert!(text.starts_with("{\"experiment\":\"B11\","), "{text}");
        assert_eq!(text.matches("\"replay_ns\":").count(), curve.len());
    }
}
