//! Integration coverage for the batched-DML API: deferred inclusion
//! dependencies make statement order inside a batch irrelevant, a failed
//! batch leaves no trace, and profiles without the capability fall back
//! to immediate (still atomic) checking; RESTRICT guards only referenced
//! values that change, on both schedules.

use relmerge::engine::{Database, DbmsProfile, DmlError, Statement};
use relmerge::relational::{
    Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Tuple, Value,
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

/// Two relations referencing each other: no insertion order is valid one
/// statement at a time, so only a deferred batch can populate them.
fn cyclic_schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    for (name, k, fk) in [("A", "A.K", "A.FK"), ("B", "B.K", "B.FK")] {
        rs.add_scheme(
            RelationScheme::new(
                name,
                vec![
                    Attribute::new(k, Domain::Int),
                    Attribute::new(fk, Domain::Int),
                ],
                &[k],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna(name, &[k, fk]))
            .unwrap();
    }
    rs.add_ind(InclusionDep::new("A", &["A.FK"], "B", &["B.K"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("B", &["B.FK"], "A", &["A.K"]))
        .unwrap();
    rs
}

fn row(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
}

#[test]
fn child_before_parent_commits_under_deferred_checking() {
    let mut db = Database::new(parent_child_schema(), DbmsProfile::ideal()).unwrap();

    // One statement at a time the child is an orphan...
    assert!(db.insert("CHILD", row(&[1, 10])).is_err());

    // ...but a deferred batch validates at commit, when the parent exists.
    let out = db
        .apply_batch(&[
            Statement::insert("CHILD", row(&[1, 10])),
            Statement::insert("PARENT", row(&[10])),
        ])
        .unwrap();
    assert!(out.deferred);
    assert_eq!(out.applied(), 2);
    assert_eq!(
        db.get_by_key("CHILD", &row(&[1])).unwrap(),
        Some(row(&[1, 10]))
    );
}

#[test]
fn violating_batch_rolls_back_fully() {
    let mut db = Database::new(parent_child_schema(), DbmsProfile::ideal()).unwrap();
    db.insert("PARENT", row(&[10])).unwrap();
    let before = db.snapshot().unwrap();

    // Statement 1 dangles (no PARENT 99), so commit-time validation fails.
    let err = db
        .apply_batch(&[
            Statement::insert("CHILD", row(&[1, 10])),
            Statement::insert("CHILD", row(&[2, 99])),
        ])
        .unwrap_err();
    assert_eq!(err.statement_index(), Some(1), "{err}");

    // State AND indexes are exactly as before the attempt.
    assert_eq!(db.snapshot().unwrap(), before);
    assert_eq!(db.get_by_key("CHILD", &row(&[1])).unwrap(), None);
    assert!(
        db.insert("CHILD", row(&[1, 10])).unwrap(),
        "index still live"
    );
}

#[test]
fn cyclic_references_need_a_batch() {
    let mut db = Database::new(cyclic_schema(), DbmsProfile::ideal()).unwrap();

    // Neither row can go first on its own.
    assert!(db.insert("A", row(&[1, 2])).is_err());
    assert!(db.insert("B", row(&[2, 1])).is_err());

    let out = db
        .apply_batch(&[
            Statement::insert("A", row(&[1, 2])),
            Statement::insert("B", row(&[2, 1])),
        ])
        .unwrap();
    assert_eq!(out.applied(), 2);
    assert_eq!(db.get_by_key("A", &row(&[1])).unwrap(), Some(row(&[1, 2])));
    assert_eq!(db.get_by_key("B", &row(&[2])).unwrap(), Some(row(&[2, 1])));
}

#[test]
fn profiles_without_the_capability_check_immediately_but_stay_atomic() {
    let mut db = Database::new(parent_child_schema(), DbmsProfile::db2()).unwrap();
    assert!(!db.profile().deferred_checking);

    // Child-before-parent fails at the offending statement...
    let err = db
        .apply_batch(&[
            Statement::insert("CHILD", row(&[1, 10])),
            Statement::insert("PARENT", row(&[10])),
        ])
        .unwrap_err();
    assert_eq!(err.statement_index(), Some(0), "{err}");
    assert_eq!(db.get_by_key("PARENT", &row(&[10])).unwrap(), None);

    // ...while the dependency-ordered batch commits, un-deferred.
    let out = db
        .apply_batch(&[
            Statement::insert("PARENT", row(&[10])),
            Statement::insert("CHILD", row(&[1, 10])),
        ])
        .unwrap();
    assert!(!out.deferred);
    assert_eq!(out.deferred_checks, 0);
    assert_eq!(out.applied(), 2);
}

/// P(P.K, P.V) ← C(C.K, C.FK) with C[C.FK] ⊆ P[P.K].
fn valued_parent_schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(
        RelationScheme::new(
            "P",
            vec![
                Attribute::new("P.K", Domain::Int),
                Attribute::new("P.V", Domain::Int),
            ],
            &["P.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_scheme(
        RelationScheme::new(
            "C",
            vec![
                Attribute::new("C.K", Domain::Int),
                Attribute::new("C.FK", Domain::Int),
            ],
            &["C.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("C", &["C.K"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
        .unwrap();
    rs
}

/// RESTRICT guards the referenced projection, not the row: an update that
/// keeps a referenced key commits on both schedules, through a single
/// statement and through a batch, and one that changes it is refused.
#[test]
fn restrict_applies_only_to_referenced_values_that_change() {
    for profile in [DbmsProfile::ideal(), DbmsProfile::db2()] {
        let name = profile.name;
        let mut db = Database::new(valued_parent_schema(), profile).unwrap();
        db.insert("P", row(&[1, 7])).unwrap();
        db.insert("C", row(&[10, 1])).unwrap();

        assert!(
            db.update_by_key("P", &row(&[1]), row(&[1, 8])).unwrap(),
            "{name}: non-key update through update_by_key"
        );
        db.apply_batch(&[Statement::update("P", row(&[1]), row(&[1, 9]))])
            .unwrap_or_else(|e| panic!("{name}: non-key update through apply_batch: {e}"));
        assert_eq!(db.get_by_key("P", &row(&[1])).unwrap(), Some(row(&[1, 9])));

        let before = db.snapshot().unwrap();
        let single = db.update_by_key("P", &row(&[1]), row(&[2, 9])).unwrap_err();
        let batched = db
            .apply_batch(&[Statement::update("P", row(&[1]), row(&[2, 9]))])
            .unwrap_err();
        for err in [single.to_string(), batched.to_string()] {
            assert!(
                err.contains("RESTRICT: `C`[C.FK] still references (1)"),
                "{name}: {err}"
            );
        }
        assert_eq!(db.snapshot().unwrap(), before, "{name}");
    }
}

/// Row counters count a statement's rows when its statement or batch
/// commits, never rows a rejection rolled back.
#[test]
fn rows_count_when_their_statement_or_batch_commits() {
    for profile in [DbmsProfile::ideal(), DbmsProfile::db2()] {
        let mut d = Database::new(parent_child_schema(), profile).unwrap();
        // A rejected batch lands PARENT(1) before CHILD(10, 9) dangles;
        // neither row is counted, on either schedule.
        assert!(d
            .apply_batch(&[
                Statement::insert("PARENT", row(&[1])),
                Statement::insert("CHILD", row(&[10, 9])),
            ])
            .is_err());
        // A rejected single insert lands, then rolls back.
        assert!(d.insert("CHILD", row(&[10, 9])).is_err());
        assert_eq!((d.len("PARENT"), d.len("CHILD")), (0, 0));
        let rows = |d: &Database| {
            let count = |name| d.metrics_registry().counter(name).get();
            [
                "engine.dml.inserts",
                "engine.dml.deletes",
                "engine.dml.updates",
                "engine.dml.rejected",
            ]
            .map(count)
        };
        assert_eq!(rows(&d), [0, 0, 0, 2]);
        // Committed rows count once each: an update is one of each.
        d.insert("PARENT", row(&[1])).unwrap();
        d.insert("PARENT", row(&[2])).unwrap();
        d.apply_batch(&[
            Statement::insert("CHILD", row(&[10, 1])),
            Statement::update("CHILD", row(&[10]), row(&[10, 2])),
            Statement::update("CHILD", row(&[10]), row(&[10, 2])), // identical: no change
            Statement::delete("PARENT", row(&[1])),
        ])
        .unwrap();
        assert_eq!(rows(&d), [4, 2, 1, 2], "no rejection since");
    }
}

/// A single-statement update is validated over its own rows and rolled
/// back whole when rejected, on both schedules.
#[test]
fn single_statement_updates_validate_and_roll_back() {
    for profile in [DbmsProfile::ideal(), DbmsProfile::db2()] {
        let mut d = Database::new(parent_child_schema(), profile).unwrap();
        d.insert("PARENT", row(&[1])).unwrap();
        d.insert("PARENT", row(&[2])).unwrap();
        d.insert("CHILD", row(&[10, 1])).unwrap();
        // A non-key change commits.
        assert!(d
            .update_by_key("CHILD", &row(&[10]), row(&[10, 2]))
            .unwrap());
        assert_eq!(
            d.get_by_key("CHILD", &row(&[10])).unwrap(),
            Some(row(&[10, 2]))
        );
        // A dangling replacement is rejected and the old row restored.
        let err = d
            .update_by_key("CHILD", &row(&[10]), row(&[10, 99]))
            .unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)), "{err}");
        assert_eq!(
            d.get_by_key("CHILD", &row(&[10])).unwrap(),
            Some(row(&[10, 2]))
        );
        // A missing key is a no-op.
        assert!(!d.update_by_key("PARENT", &row(&[9]), row(&[9])).unwrap());
        // A failed batch restores the rows its statements deleted.
        let before = d.snapshot().unwrap();
        assert!(d
            .apply_batch(&[
                Statement::delete("PARENT", row(&[1])),
                Statement::insert("CHILD", row(&[11, 99])),
            ])
            .is_err());
        assert_eq!(d.snapshot().unwrap(), before);
        assert!(d.verify_integrity().is_clean());
        assert!(d.snapshot().unwrap().is_consistent(d.schema()).unwrap());
    }
}

/// The DML row counters of `d`: inserts, deletes, updates, rejected.
fn dml_counts(d: &Database) -> [u64; 4] {
    [
        "engine.dml.inserts",
        "engine.dml.deletes",
        "engine.dml.updates",
        "engine.dml.rejected",
    ]
    .map(|name| d.metrics_registry().counter(name).get())
}

/// A deferred batch of 20,000 updates to one relation: 10,000 children
/// move from parent 1 to parent 2 in key order, then each moves on to
/// parent 3 in a scattered order, so every second-pass update removes a
/// row the batch itself inserted (a net no-op for validation) from the
/// middle of the batch's touch set. It commits once; the same batch with
/// its last statement pointing at no parent is rejected at commit and
/// leaves no trace. Each removal finds its row in the touch set without
/// scanning it, so the batch costs linear, not quadratic, time.
#[test]
fn a_twenty_thousand_update_deferred_batch_commits_or_rolls_back_whole() {
    const CHILDREN: i64 = 10_000;
    let mut d = Database::new(parent_child_schema(), DbmsProfile::ideal()).unwrap();
    let mut seed: Vec<Statement> = (1..=3)
        .map(|p| Statement::insert("PARENT", row(&[p])))
        .collect();
    seed.extend((0..CHILDREN).map(|k| Statement::insert("CHILD", row(&[k, 1]))));
    d.apply_batch(&seed).unwrap();
    let seeded = dml_counts(&d);
    assert_eq!(seeded, [3 + CHILDREN as u64, 0, 0, 0]);
    let batch = |last_parent: i64| -> Vec<Statement> {
        let first = (0..CHILDREN).map(|k| Statement::update("CHILD", row(&[k]), row(&[k, 2])));
        // 7,919 is prime, so this visits every key once.
        let second = (0..CHILDREN).map(|i| {
            let k = i * 7_919 % CHILDREN;
            let parent = if i == CHILDREN - 1 { last_parent } else { 3 };
            Statement::update("CHILD", row(&[k]), row(&[k, parent]))
        });
        first.chain(second).collect()
    };
    let before = d.snapshot().unwrap();

    let err = d.apply_batch(&batch(99)).unwrap_err();
    assert_eq!(
        err.statement_index(),
        Some(2 * CHILDREN as usize - 1),
        "{err}"
    );
    assert_eq!(d.snapshot().unwrap(), before);
    assert_eq!(dml_counts(&d), [seeded[0], 0, 0, 1]);

    let out = d.apply_batch(&batch(3)).unwrap();
    assert!(out.deferred);
    assert_eq!(out.applied(), 2 * CHILDREN as usize);
    let n = 2 * CHILDREN as u64;
    assert_eq!(dml_counts(&d), [seeded[0] + n, n, n, 1]);
    let children = d.snapshot().unwrap();
    let children = children.relation("CHILD").unwrap();
    assert_eq!(children.len(), CHILDREN as usize);
    assert!(children.iter().all(|t| t.get(1) == &Value::Int(3)));
    assert!(d.verify_integrity().is_clean());
}

/// 20,000 children share one parent, so one bucket of the lookup index on
/// `C.FK` holds all their slots. A batch deletes them in a scattered order
/// and is rejected at its last statement: the rollback puts every row back
/// at its old slot, the pre-batch snapshot returns, and a lookup on the
/// parent key reads the children from that one bucket in slot order,
/// exactly as before the batch. Each removal and each re-insert finds its
/// place in the bucket by binary search, without rescanning or re-sorting
/// it.
#[test]
fn a_rolled_back_twenty_thousand_child_delete_restores_the_index_in_slot_order() {
    use relmerge::engine::QueryPlan;
    const CHILDREN: i64 = 20_000;
    let mut d = Database::new(parent_child_schema(), DbmsProfile::ideal()).unwrap();
    let mut seed = vec![Statement::insert("PARENT", row(&[1]))];
    seed.extend((0..CHILDREN).map(|k| Statement::insert("CHILD", row(&[k, 1]))));
    d.apply_batch(&seed).unwrap();
    let before = d.snapshot().unwrap();
    let lookup = QueryPlan::lookup("CHILD", &["C.FK"], row(&[1]));
    let (children, stats) = d.execute(&lookup).unwrap();
    assert_eq!(children.rows(), before.relation("CHILD").unwrap().rows());
    assert_eq!((stats.index_probes, stats.rows_scanned), (1, 0));

    // 7,919 is prime, so this deletes every child once.
    let mut batch: Vec<Statement> = (0..CHILDREN)
        .map(|i| Statement::delete("CHILD", row(&[i * 7_919 % CHILDREN])))
        .collect();
    batch.push(Statement::insert("CHILD", row(&[CHILDREN, 99])));
    let err = d.apply_batch(&batch).unwrap_err();
    assert_eq!(err.statement_index(), Some(CHILDREN as usize), "{err}");

    assert_eq!(d.snapshot().unwrap(), before);
    let (again, stats) = d.execute(&lookup).unwrap();
    assert_eq!(again.rows(), children.rows(), "slot order");
    assert_eq!((stats.index_probes, stats.rows_scanned), (1, 0));
    assert!(d.verify_integrity().is_clean());
}
