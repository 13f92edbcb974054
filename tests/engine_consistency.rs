//! The engine's incremental DML enforcement agrees with the declarative
//! whole-state consistency checker: a statement is accepted iff applying it
//! would leave the state consistent — on both checking schedules, through
//! the single-statement verbs and through one-statement batches.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::engine::{Database, DbmsProfile, DmlError, Statement};
use relmerge::relational::{
    Attribute, DatabaseState, Domain, InclusionDep, NullConstraint, RelationScheme,
    RelationalSchema, Tuple, Value,
};
use relmerge::workload::{
    generate_university, university_ops, MixSpec, UniversityOp, UniversitySpec,
};

/// A merged-shape schema with every constraint class the engine enforces:
/// key, NNA, NS, NE, TE, PN would require a synthetic key-relation — use
/// the post-merge COURSE_M shape plus one reference target, which carries
/// a non-key attribute so that an update can keep a referenced key.
fn merged_shape_schema() -> RelationalSchema {
    let a = |n: &str| Attribute::new(n, Domain::Int);
    let mut rs = RelationalSchema::new();
    rs.add_scheme(RelationScheme::new("DEPT", vec![a("D.K"), a("D.N")], &["D.K"]).unwrap())
        .unwrap();
    rs.add_scheme(
        RelationScheme::new(
            "M",
            vec![a("K"), a("O.K"), a("O.D"), a("T.K"), a("T.F")],
            &["K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("DEPT", &["D.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("M", &["K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::ns("M", &["O.K", "O.D"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::ns("M", &["T.K", "T.F"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::ne("M", &["T.K", "T.F"], &["O.K", "O.D"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::te("M", &["K"], &["O.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::te("M", &["K"], &["T.K"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("M", &["O.D"], "DEPT", &["D.K"]))
        .unwrap();
    rs
}

fn to_tuple(vals: &[Option<i64>]) -> Tuple {
    Tuple::new(
        vals.iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect::<Vec<_>>(),
    )
}

fn key(k: i64) -> Tuple {
    Tuple::new([Value::Int(k)])
}

/// An `M` row: arbitrary values, or a well-formed row (its groups total
/// or null together, keyed alike) so that rows referencing `DEPT` exist.
fn m_row() -> impl Strategy<Value = [Option<i64>; 5]> {
    let small = || proptest::option::of(0i64..6);
    prop_oneof![
        proptest::array::uniform5(small()),
        (0i64..6, small(), small()).prop_map(|(k, dept, faculty)| {
            let taught = dept.and(faculty);
            [Some(k), dept.map(|_| k), dept, taught.map(|_| k), taught]
        }),
    ]
}

/// One random statement: inserts, deletes, and updates of `DEPT` and `M`
/// that keep or change the key.
fn stmt_strategy() -> impl Strategy<Value = Statement> {
    let small = || 0i64..6;
    let dept = || (small(), proptest::option::of(0i64..3));
    prop_oneof![
        dept().prop_map(|(k, n)| Statement::insert("DEPT", to_tuple(&[Some(k), n]))),
        m_row().prop_map(|vals| Statement::insert("M", to_tuple(&vals))),
        small().prop_map(|k| Statement::delete("DEPT", key(k))),
        small().prop_map(|k| Statement::delete("M", key(k))),
        (small(), proptest::option::of(0i64..3)).prop_map(|(k, n)| Statement::update(
            "DEPT",
            key(k),
            to_tuple(&[Some(k), n])
        )),
        (small(), dept()).prop_map(|(k, (to, n))| Statement::update(
            "DEPT",
            key(k),
            to_tuple(&[Some(to), n])
        )),
        m_row().prop_map(|mut vals| {
            let k = vals[0].unwrap_or(0);
            vals[0] = Some(k);
            Statement::update("M", key(k), to_tuple(&vals))
        }),
        (small(), m_row()).prop_map(|(k, vals)| Statement::update("M", key(k), to_tuple(&vals))),
    ]
}

/// Runs `stmt` through its single-statement verb.
fn apply_single(db: &mut Database, stmt: &Statement) -> Result<(), DmlError> {
    match stmt {
        Statement::Insert { rel, tuple } => db.insert(rel, tuple.clone()).map(drop),
        Statement::Delete { rel, key } => db.delete_by_key(rel, key).map(drop),
        Statement::Update { rel, key, tuple } => {
            db.update_by_key(rel, key, tuple.clone()).map(drop)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness + completeness of incremental enforcement, on the
    /// deferred (`ideal`) and immediate (`sybase40`) schedules, through
    /// the single-statement verbs and one-statement batches: after every
    /// statement the snapshot is consistent, and every rejected statement
    /// would in fact have made the snapshot inconsistent (checked by
    /// replaying it into a copy of the state).
    #[test]
    fn engine_agrees_with_declarative_checker(stmts in proptest::collection::vec(stmt_strategy(), 1..60)) {
        let schema = merged_shape_schema();
        for profile in [DbmsProfile::ideal(), DbmsProfile::sybase40()] {
            for batched in [false, true] {
                let path = format!("{} {}", profile.name, if batched { "batch" } else { "verb" });
                let mut db = Database::new(schema.clone(), profile.clone()).expect("db");
                for stmt in &stmts {
                    let before = db.snapshot().expect("snapshot");
                    let outcome = if batched {
                        db.apply_batch(std::slice::from_ref(stmt)).map(drop)
                    } else {
                        apply_single(&mut db, stmt)
                    };
                    let after = db.snapshot().expect("snapshot");
                    // Invariant: the live state is always consistent.
                    prop_assert!(
                        after.is_consistent(&schema).expect("check"),
                        "{path}: inconsistent after {stmt}"
                    );
                    if let Err(e) = outcome {
                        // The state must be unchanged…
                        prop_assert_eq!(&before, &after, "{}: rejected {} mutated state", &path, stmt);
                        // …and force-applying the statement must violate
                        // something (completeness of the rejection).
                        if let Some(forced) = force_apply(&before, stmt) {
                            prop_assert!(
                                !forced.is_consistent(&schema).expect("check"),
                                "{path}: {stmt} was rejected ({e}) but would be consistent"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// What a stream's single-statement calls of one verb returned, tallied
/// by the caller: the reference the database's registry must equal.
#[derive(Default)]
struct Returned {
    /// Calls made.
    calls: u64,
    /// Calls that returned `Ok(true)`: a row inserted or deleted.
    changed: u64,
    /// Calls that returned a constraint violation.
    rejected: u64,
}

impl Returned {
    fn tally(&mut self, result: Result<bool, DmlError>) {
        self.calls += 1;
        self.changed += u64::from(matches!(result, Ok(true)));
        self.rejected += u64::from(matches!(result, Err(DmlError::ConstraintViolation(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The metrics registry counts what the calls returned: for a random
    /// DML stream, each row counter equals the calls that returned
    /// `Ok(true)`, the rejection counter the calls that returned a
    /// constraint violation, and each DML latency histogram holds exactly
    /// one sample per call.
    #[test]
    fn registry_counts_what_the_calls_returned(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = generate_university(
            &UniversitySpec {
                courses: 40,
                departments: 5,
                persons: 40,
                ..UniversitySpec::default()
            },
            &mut rng,
        )
        .expect("university");
        let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal()).expect("db");
        db.load_state(&u.state).expect("load");
        let ops = university_ops(
            &MixSpec {
                point_reads: 0.2,
                reverse_reads: 0.2,
                inserts: 0.4,
                deletes: 0.2,
            },
            60,
            40,
            5,
            16,
            &mut rng,
        );

        let before = db.metrics_registry().snapshot();
        let (mut inserts, mut deletes) = (Returned::default(), Returned::default());
        for op in &ops {
            match op {
                UniversityOp::AddCourse { nr, dept, teacher } => {
                    inserts.tally(db.insert("COURSE", Tuple::new([Value::Int(*nr)])));
                    inserts.tally(db.insert(
                        "OFFER",
                        Tuple::new([Value::Int(*nr), Value::text(format!("dept{dept}"))]),
                    ));
                    if let Some(t) = teacher {
                        inserts.tally(
                            db.insert("TEACH", Tuple::new([Value::Int(*nr), Value::Int(*t)])),
                        );
                    }
                }
                UniversityOp::DropCourse { nr } => {
                    let key = Tuple::new([Value::Int(*nr)]);
                    for rel in ["TEACH", "ASSIST", "OFFER", "COURSE"] {
                        deletes.tally(db.delete_by_key(rel, &key));
                    }
                }
                // Repurpose the read ops as failure probes so the stream
                // also exercises the rejection paths: an OFFER for a course
                // that does not exist (IND violation) and a delete of a
                // possibly-still-offered base course (RESTRICT violation).
                UniversityOp::CourseDetail { nr } => {
                    inserts.tally(db.insert(
                        "OFFER",
                        Tuple::new([Value::Int(-nr - 1), Value::text("dept0")]),
                    ));
                }
                UniversityOp::ByFaculty { ssn } => {
                    deletes.tally(
                        db.delete_by_key("COURSE", &Tuple::new([Value::Int(ssn - 10_000)])),
                    );
                }
            }
        }
        let diff = db.metrics_registry().snapshot().diff(&before);
        let counter = |name: &str| diff.counters.get(name).copied().unwrap_or(0);
        let hist_count =
            |name: &str| diff.histograms.get(name).map_or(0, |h| h.count);

        prop_assert_eq!(counter("engine.dml.inserts"), inserts.changed);
        prop_assert_eq!(counter("engine.dml.deletes"), deletes.changed);
        prop_assert_eq!(counter("engine.dml.rejected"), inserts.rejected + deletes.rejected);
        prop_assert_eq!(hist_count("engine.dml.insert.ns"), inserts.calls);
        prop_assert_eq!(hist_count("engine.dml.delete.ns"), deletes.calls);
        // The per-mechanism totals agree with their per-class splits.
        prop_assert_eq!(
            counter("engine.check.declarative"),
            counter("engine.check.null.declarative")
                + counter("engine.check.key.declarative")
                + counter("engine.check.ind.declarative")
                + counter("engine.check.restrict.declarative")
        );
        prop_assert_eq!(counter("engine.check.procedural"), 0);
    }
}

/// Applies a statement to a state copy without any checking. Returns
/// `None` for deletes and updates of absent keys (nothing to force).
fn force_apply(state: &DatabaseState, stmt: &Statement) -> Option<DatabaseState> {
    let mut s = state.clone();
    let rel = s.relation_mut(stmt.rel()).expect("relation");
    let victim = |key: &Tuple| rel.iter().find(|t| t.get(0) == key.get(0)).cloned();
    match stmt {
        Statement::Insert { tuple, .. } => {
            rel.insert(tuple.clone()).ok()?;
        }
        Statement::Delete { key, .. } => {
            let old = victim(key)?;
            rel.remove(&old);
        }
        Statement::Update { key, tuple, .. } => {
            let old = victim(key)?;
            rel.remove(&old);
            rel.insert(tuple.clone()).ok()?;
        }
    }
    Some(s)
}
