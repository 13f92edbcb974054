//! Fault-injection integration coverage: every batch injection site ×
//! arrival index × mode aborts with a typed error, leaves the deep
//! integrity checker clean, and rolls the state back byte-identical —
//! on a small schema and on the merged university, under deferred and
//! under immediate checking, updates included; both session sites; a
//! panicking query morsel fails only its own query; and seeded
//! corruption is actually detected.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge::core::Merge;
use relmerge::engine::fault::site;
use relmerge::engine::{
    Database, DbmsProfile, DmlError, FaultMode, FaultPlan, IntegrityKind, QueryPlan, Statement,
    Store,
};
use relmerge::relational::{
    Attribute, DatabaseState, Domain, Error, InclusionDep, NullConstraint, RelationScheme,
    RelationalSchema, Tuple, Value,
};
use relmerge::workload::{
    generate_university, university_ops, write_batches, MixSpec, UniversitySpec,
};

/// PARENT(P.K) ← CHILD(C.K, C.FK) with CHILD[C.FK] ⊆ PARENT[P.K].
fn parent_child_schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(
        RelationScheme::new("PARENT", vec![Attribute::new("P.K", Domain::Int)], &["P.K"]).unwrap(),
    )
    .unwrap();
    rs.add_scheme(
        RelationScheme::new(
            "CHILD",
            vec![
                Attribute::new("C.K", Domain::Int),
                Attribute::new("C.FK", Domain::Int),
            ],
            &["C.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("PARENT", &["P.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("CHILD", &["C.K", "C.FK"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("CHILD", &["C.FK"], "PARENT", &["P.K"]))
        .unwrap();
    rs
}

fn row(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
}

/// A seeded baseline database: PARENT(1), PARENT(2), CHILD(500, 1).
fn baseline_db() -> Database {
    baseline_db_on(DbmsProfile::ideal())
}

/// [`baseline_db`] under `profile`.
fn baseline_db_on(profile: DbmsProfile) -> Database {
    let mut db = Database::new(parent_child_schema(), profile).unwrap();
    db.insert("PARENT", row(&[1])).unwrap();
    db.insert("PARENT", row(&[2])).unwrap();
    db.insert("CHILD", row(&[500, 1])).unwrap();
    db
}

/// A valid mixed batch: inserts, a delete, and a child arriving before
/// its parent (legal under deferred validation).
fn torture_batch() -> Vec<Statement> {
    vec![
        Statement::insert("CHILD", row(&[501, 10])),
        Statement::insert("PARENT", row(&[10])),
        Statement::insert("PARENT", row(&[20])),
        Statement::insert("CHILD", row(&[502, 20])),
        Statement::delete("CHILD", row(&[500])),
        Statement::insert("CHILD", row(&[503, 10])),
    ]
}

/// A 300-course university merged into `COURSE_M` by the paper's chain
/// merge, every removable key removed, with the first 12-statement batch
/// of a write-only stream against it.
fn university_subject() -> (Database, Vec<Statement>) {
    let spec = UniversitySpec {
        courses: 300,
        ..UniversitySpec::default()
    };
    let u = generate_university(&spec, &mut StdRng::seed_from_u64(11)).unwrap();
    let mut m = Merge::plan(
        &u.schema,
        &["COURSE", "OFFER", "TEACH", "ASSIST"],
        "COURSE_M",
    )
    .unwrap();
    m.remove_all_removable().unwrap();
    let mut db = Database::new(m.schema().clone(), DbmsProfile::ideal()).unwrap();
    db.load_state(&m.apply(&u.state).unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(11 ^ 0x9e37_79b9_7f4a_7c15);
    let ops = university_ops(&MixSpec::write_only(), 36, 300, 20, 200, &mut rng);
    (db, write_batches(&ops, true, 12).swap_remove(0))
}

#[test]
fn every_site_arrival_and_mode_recovers() {
    for (base, batch) in [(baseline_db(), torture_batch()), university_subject()] {
        let pre = base.snapshot().unwrap();
        // Dry run with never-firing arms to learn each site's arrival count.
        let mut dry = base.fork();
        let mut probe = FaultPlan::new();
        for &s in site::BATCH {
            probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
        }
        let probe = dry.set_fault_plan(probe);
        dry.apply_batch(&batch).unwrap();

        for &s in site::BATCH {
            let hits = probe.hits(s);
            assert!(hits > 0, "site {s} never reached by the batch");
            for nth in 0..hits {
                for mode in [FaultMode::Error, FaultMode::Panic] {
                    let mut db = base.fork();
                    let plan = db.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                    let err = db
                        .apply_batch(&batch)
                        .expect_err("armed fault must abort the batch");
                    assert_eq!(plan.fired(s), 1, "{s}#{nth} ({})", mode.label());
                    // The abort is a typed error, never a process abort.
                    match mode {
                        FaultMode::Error => assert!(
                            matches!(err.root_cause(), DmlError::Schema(Error::Injected { .. })),
                            "{s}#{nth}: {err}"
                        ),
                        FaultMode::Panic => assert!(
                            matches!(
                                err.root_cause(),
                                DmlError::Schema(Error::ExecutionPanic { .. })
                            ),
                            "{s}#{nth}: {err}"
                        ),
                    }
                    db.clear_fault_plan();
                    let report = db.verify_integrity();
                    assert!(report.is_clean(), "{s}#{nth} ({}): {report}", mode.label());
                    assert_eq!(
                        db.snapshot().unwrap(),
                        pre,
                        "{s}#{nth} ({}): rollback must be byte-identical",
                        mode.label()
                    );
                    // The database stays fully usable after the abort.
                    db.apply_batch(&batch).unwrap();
                }
            }
        }
    }
}

/// A valid parent-first batch that moves a child with an update, which
/// removes the old row and then lands the new one.
fn immediate_batch() -> Vec<Statement> {
    vec![
        Statement::insert("PARENT", row(&[10])),
        Statement::insert("CHILD", row(&[501, 10])),
        Statement::update("CHILD", row(&[500]), row(&[500, 10])),
        Statement::delete("CHILD", row(&[501])),
    ]
}

/// Under immediate checking, a fault at any arrival of any batch site, in
/// either mode — an update's insert half and each statement's group
/// validation included — fails a batch and a single-statement update
/// typed, with a clean audit and the pre-operation state.
#[test]
fn immediate_mode_updates_recover_at_every_site_arrival_and_mode() {
    type Op = fn(&mut Database) -> Result<(), DmlError>;
    let ops: [(&str, Op); 2] = [
        ("apply_batch", |db| {
            db.apply_batch(&immediate_batch()).map(drop)
        }),
        ("update_by_key", |db| {
            db.update_by_key("CHILD", &row(&[500]), row(&[500, 2]))
                .map(drop)
        }),
    ];
    for (name, op) in ops {
        let mut dry = baseline_db_on(DbmsProfile::db2());
        let mut probe = FaultPlan::new();
        for &s in site::BATCH {
            probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
        }
        let probe = dry.set_fault_plan(probe);
        op(&mut dry).unwrap();
        // Sites the operation never reaches (statement entry and the
        // commit tail, for a single statement) have no cells.
        for &s in site::BATCH {
            for nth in 0..probe.hits(s) {
                for mode in [FaultMode::Error, FaultMode::Panic] {
                    let cell = format!("{name} {s}#{nth} ({})", mode.label());
                    let mut db = baseline_db_on(DbmsProfile::db2());
                    let pre = db.snapshot().unwrap();
                    let plan = db.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                    let err = op(&mut db).expect_err("the armed fault must fail the operation");
                    assert_eq!(plan.fired(s), 1, "{cell}");
                    assert!(
                        matches!(
                            (mode, err.root_cause()),
                            (FaultMode::Error, DmlError::Schema(Error::Injected { .. }))
                                | (
                                    FaultMode::Panic,
                                    DmlError::Schema(Error::ExecutionPanic { .. })
                                )
                        ),
                        "{cell}: {err}"
                    );
                    db.clear_fault_plan();
                    let report = db.verify_integrity();
                    assert!(report.is_clean(), "{cell}: {report}");
                    assert_eq!(db.snapshot().unwrap(), pre, "{cell}: state moved");
                }
            }
        }
    }
}

#[test]
fn session_sites_error_and_panic_at_every_arrival_recover() {
    let batch = torture_batch();

    // Dry run through a store to learn each session site's arrival count
    // (one pin, one writer commit).
    let st = Store::new(baseline_db());
    let mut probe = FaultPlan::new();
    for &s in site::SESSION {
        probe = probe.fail_at(s, u64::MAX, FaultMode::Error);
    }
    let probe = st.set_fault_plan(probe);
    let dry = st.session();
    let _ = dry.pin().unwrap();
    dry.apply_batch(&batch).unwrap();

    for &s in site::SESSION {
        let hits = probe.hits(s);
        assert!(hits > 0, "site {s} never reached");
        for nth in 0..hits {
            for mode in [FaultMode::Error, FaultMode::Panic] {
                let st = Store::new(baseline_db());
                let session = st.session();
                let pre = st.snapshot().unwrap();
                // Pinned before the fault arms: the reader a failed
                // writer commit must not poison.
                let pinned = session.pin().unwrap();
                let plan = st.set_fault_plan(FaultPlan::new().fail_at(s, nth, mode));
                match s {
                    site::SESSION_SNAPSHOT => {
                        let err = session.pin().expect_err("armed pin must fail");
                        match mode {
                            FaultMode::Error => {
                                assert!(matches!(err, Error::Injected { .. }), "{err}")
                            }
                            FaultMode::Panic => {
                                assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}")
                            }
                        }
                    }
                    _ => {
                        let err = session
                            .apply_batch(&batch)
                            .expect_err("armed writer commit must fail");
                        match mode {
                            FaultMode::Error => assert!(
                                matches!(
                                    err.root_cause(),
                                    relmerge::engine::DmlError::Schema(Error::Injected { .. })
                                ),
                                "{err}"
                            ),
                            FaultMode::Panic => assert!(
                                matches!(
                                    err.root_cause(),
                                    relmerge::engine::DmlError::Schema(
                                        Error::ExecutionPanic { .. }
                                    )
                                ),
                                "{err}"
                            ),
                        }
                    }
                }
                assert_eq!(plan.fired(s), 1, "{s}#{nth} ({})", mode.label());
                st.clear_fault_plan();
                assert!(st.verify_integrity().is_clean());
                assert_eq!(
                    st.snapshot().unwrap(),
                    pre,
                    "{s}#{nth} ({}): master must be untouched",
                    mode.label()
                );
                // A failed writer commit (or pin) never poisons a
                // concurrently-pinned reader: the frozen view still
                // answers, byte-identical to the pre-fault state.
                assert_eq!(
                    pinned.snapshot().unwrap(),
                    pre,
                    "{s}#{nth} ({}): pinned reader poisoned",
                    mode.label()
                );
                assert!(pinned.verify_integrity().is_clean());
                // The store stays fully serviceable.
                let _ = session.pin().unwrap();
                session.apply_batch(&batch).unwrap();
            }
        }
    }
}

#[test]
fn panicking_morsel_worker_fails_only_its_query() {
    let mut db = baseline_db();
    // 2 + 2,047 parents: three morsels of 1,024 root rows.
    let parents: Vec<Statement> = (100..2_147)
        .map(|k| Statement::insert("PARENT", row(&[k])))
        .collect();
    db.apply_batch(&parents).unwrap();
    let scan = QueryPlan::scan("PARENT");
    let (all, stats) = db.execute(&scan).unwrap();
    assert_eq!(stats.morsels, 3);

    let plan =
        db.set_fault_plan(FaultPlan::new().fail_at(site::MORSEL_WORKER, 2, FaultMode::Panic));
    let err = db.execute(&scan).unwrap_err();
    assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}");
    assert_eq!(plan.fired(site::MORSEL_WORKER), 1);
    assert_eq!(plan.hits(site::MORSEL_WORKER), 3, "the third morsel fired");

    // Only that query failed: the database survives, verifies clean, and
    // answers the same query once the plan is cleared.
    db.clear_fault_plan();
    assert!(db.verify_integrity().is_clean());
    let (again, _) = db.execute(&scan).unwrap();
    assert_eq!(again, all);
    db.insert("PARENT", row(&[5_000])).unwrap();

    // Error mode is equally contained.
    db.set_fault_plan(FaultPlan::new().fail_at(site::MORSEL_WORKER, 0, FaultMode::Error));
    let err = db.execute(&scan).unwrap_err();
    assert!(matches!(err, Error::Injected { .. }), "{err}");
    db.clear_fault_plan();
    assert!(db.execute(&scan).is_ok());
}

#[test]
fn verify_integrity_detects_seeded_corruption() {
    // A dangling foreign key and a null in a NOT-NULL column bypass the
    // DML layer entirely. `load_state` audits its input with the deep
    // checker and rejects the state typed; the database that refused the
    // load must be discarded, but still exposes the violations through
    // `verify_integrity` for diagnosis.
    let schema = parent_child_schema();
    let mut state = DatabaseState::empty_for(&schema).unwrap();
    state.insert("PARENT", Tuple::new([Value::Int(1)])).unwrap();
    state
        .insert("CHILD", Tuple::new([Value::Int(5), Value::Int(99)]))
        .unwrap();
    state
        .insert("CHILD", Tuple::new([Value::Int(6), Value::Null]))
        .unwrap();
    let mut db = Database::new(schema, DbmsProfile::ideal()).unwrap();
    let err = db.load_state(&state).unwrap_err();
    assert!(
        matches!(err, relmerge::relational::Error::StateMismatch { .. }),
        "{err}"
    );

    let report = db.verify_integrity();
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == IntegrityKind::InclusionDependency),
        "{report}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == IntegrityKind::NullConstraint),
        "{report}"
    );
    // A healthy database reports clean with non-trivial coverage counts.
    let clean = baseline_db().verify_integrity();
    assert!(clean.is_clean());
    assert!(clean.relations_checked >= 2);
    assert!(clean.constraints_checked > 0);
    assert!(clean.index_entries_checked > 0);
}

/// One random statement against the parent/child schema.
fn random_batch(rng: &mut StdRng, n: usize) -> Vec<Statement> {
    let mut next_parent = 100i64;
    let mut next_child = 1000i64;
    let mut stmts = Vec::new();
    for _ in 0..n {
        match rng.gen_range(0..4u32) {
            0 => {
                stmts.push(Statement::insert("PARENT", row(&[next_parent])));
                next_parent += 1;
            }
            1 => {
                // Mostly valid references (parents 1/2 or ones inserted in
                // this batch), occasionally dangling — natural violations
                // must roll back exactly like injected ones.
                let fk = if rng.gen_bool(0.85) {
                    if next_parent > 100 && rng.gen_bool(0.5) {
                        rng.gen_range(100..next_parent)
                    } else {
                        rng.gen_range(1..3)
                    }
                } else {
                    9_999
                };
                stmts.push(Statement::insert("CHILD", row(&[next_child, fk])));
                next_child += 1;
            }
            2 => stmts.push(Statement::delete(
                "CHILD",
                row(&[rng.gen_range(999..next_child)]),
            )),
            _ => stmts.push(Statement::delete(
                "PARENT",
                row(&[rng.gen_range(99..next_parent)]),
            )),
        }
    }
    stmts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches under random seeded single-arm fault plans: if the
    /// arm fires the batch aborts, and after any abort — injected, panic,
    /// or natural violation — the deep checker is clean and the state
    /// equals the pre-batch snapshot.
    #[test]
    fn seeded_faults_always_leave_a_clean_database(
        seed in 0u64..1_000_000,
        n in 4usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(&mut rng, n);
        let mut db = baseline_db();
        let pre = db.snapshot().unwrap();
        let plan = db.set_fault_plan(FaultPlan::seeded(
            seed,
            site::BATCH,
            (n as u64) * 2,
        ));
        let outcome = db.apply_batch(&batch);
        let fired = plan.total_fired();
        db.clear_fault_plan();
        if fired > 0 {
            prop_assert!(outcome.is_err(), "a fired fault must abort the batch");
        }
        let report = db.verify_integrity();
        prop_assert!(report.is_clean(), "{}", report);
        if outcome.is_err() {
            prop_assert_eq!(db.snapshot().unwrap(), pre);
        }
        // The database remains serviceable either way.
        db.insert("PARENT", row(&[777_777])).unwrap();
    }
}
