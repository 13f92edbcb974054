//! Rendering and diagnostics coverage: the paper-notation renderer on the
//! real Figure 3 schema, display of every error and violation form, and
//! the figure-notation round trip through a merge.

use relmerge::eer::{figures, translate};
use relmerge::relational::notation::render_figure;
use relmerge::relational::{
    Attribute, DatabaseState, Domain, Error, InclusionDep, NullConstraint, RelationScheme,
    RelationalSchema, Tuple, Value,
};

/// The notation renderer reproduces Figure 3's layout on the translated
/// university schema.
#[test]
fn figure3_in_paper_notation() {
    let rs = translate(&figures::fig7_eer()).unwrap();
    let text = render_figure(&rs, "Fig. 3. A Relational Schema.");
    assert!(text.starts_with("Fig. 3. A Relational Schema.\n"));
    // Numbered relation-schemes with underlined keys.
    assert!(text.contains("PERSON (_P.SSN_)"), "{text}");
    assert!(text.contains("OFFER (_O.C.NR_, O.D.NAME)"));
    // Numbered dependency section with the paper's entries.
    assert!(text.contains("Inclusion Dependencies"));
    assert!(text.contains("TEACH [T.C.NR] <= OFFER [O.C.NR]"));
    // Numbered null constraints.
    assert!(text.contains("Null Constraints"));
    assert!(text.contains("PERSON: 0 E-> P.SSN"));
    // All eight schemes numbered 1-8.
    for i in 1..=8 {
        assert!(text.contains(&format!("({i}) ")), "missing ({i})");
    }
}

/// The Figure 1(iii) star notation: nullable attributes are starred.
#[test]
fn teorey_schema_stars_nullable_attrs() {
    let t = relmerge::eer::translate_teorey(&figures::fig1_eer()).unwrap();
    let text = render_figure(&t.schema, "Fig. 1(iii).");
    assert!(text.contains("WORKS (_E.SSN_, W.NR*, W.DATE*)"), "{text}");
}

/// Every error variant renders a non-empty, informative message.
#[test]
fn error_messages_are_informative() {
    let errors = [
        Error::UnknownAttribute {
            attribute: "X".into(),
            context: "ctx".into(),
        },
        Error::UnknownScheme("S".into()),
        Error::IncompatibleAttributes { detail: "d".into() },
        Error::DuplicateAttribute("A".into()),
        Error::DuplicateScheme("S".into()),
        Error::TupleMismatch { detail: "d".into() },
        Error::MalformedKey {
            scheme: "S".into(),
            detail: "d".into(),
        },
        Error::MalformedConstraint { detail: "d".into() },
        Error::MissingPrimaryKey("S".into()),
        Error::PreconditionViolated {
            procedure: "P",
            detail: "d".into(),
        },
        Error::StateMismatch { detail: "d".into() },
    ];
    for e in errors {
        let text = e.to_string();
        assert!(text.len() > 5, "{text}");
        // std::error::Error is implemented.
        let _: &dyn std::error::Error = &e;
    }
}

/// Violations print with the offending constraint spelled out.
#[test]
fn violation_messages_name_the_constraint() {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(
        RelationScheme::new(
            "R",
            vec![
                Attribute::new("R.K", Domain::Int),
                Attribute::new("R.V", Domain::Int),
            ],
            &["R.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_scheme(
        RelationScheme::new("T", vec![Attribute::new("T.K", Domain::Int)], &["T.K"]).unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("R", &["R.K"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("R", &["R.V"], "T", &["T.K"]))
        .unwrap();
    let mut st = DatabaseState::empty_for(&rs).unwrap();
    // One tuple violating key (dup), NNA, and IND at once.
    st.insert("R", Tuple::new([Value::Null, Value::Int(9)]))
        .unwrap();
    st.insert("R", Tuple::new([Value::Int(1), Value::Int(9)]))
        .unwrap();
    st.insert("R", Tuple::new([Value::Int(1), Value::Int(8)]))
        .unwrap();
    let violations = st.violations(&rs).unwrap();
    let texts: Vec<String> = violations.iter().map(ToString::to_string).collect();
    assert!(
        texts.iter().any(|t| t.contains("key violation on R")),
        "{texts:?}"
    );
    assert!(texts.iter().any(|t| t.contains("0 E-> R.K")), "{texts:?}");
    assert!(
        texts.iter().any(|t| t.contains("R [R.V] <= T [T.K]")),
        "{texts:?}"
    );
}

/// DML errors from the engine display both constraint and schema causes.
#[test]
fn dml_error_display() {
    use relmerge::engine::{Database, DbmsProfile};
    let mut rs = RelationalSchema::new();
    rs.add_scheme(
        RelationScheme::new("R", vec![Attribute::new("R.K", Domain::Int)], &["R.K"]).unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("R", &["R.K"]))
        .unwrap();
    let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
    let constraint_err = db.insert("R", Tuple::new([Value::Null])).unwrap_err();
    assert!(constraint_err.to_string().contains("constraint violation"));
    let schema_err = db.insert("NOPE", Tuple::new([Value::Int(1)])).unwrap_err();
    assert!(schema_err.to_string().contains("NOPE"));
    let _: &dyn std::error::Error = &constraint_err;
}

/// The EER display summarizes object-sets, cardinalities, and ISA links.
#[test]
fn eer_display() {
    let text = figures::fig7_eer().to_string();
    assert!(text.contains("PERSON [id: SSN]"));
    assert!(text.contains("OFFER: COURSE(M) -- DEPARTMENT(1)"));
    assert!(text.contains("FACULTY ISA PERSON"));
    let weak = {
        let mut eer = figures::fig1_eer();
        eer.add_entity(
            relmerge::eer::EntitySet::new(
                "DEPENDENT",
                vec![relmerge::eer::EerAttribute::required("NAME", Domain::Text)],
                &["NAME"],
            )
            .weak("EMPLOYEE"),
        );
        eer.to_string()
    };
    assert!(weak.contains("weak(owner=EMPLOYEE)"));
}

/// COURSE(C.K) ← OFFER(O.K, O.D) with OFFER[O.K] ⊆ COURSE[C.K], holding
/// courses 0..4 and an offer of course 2.
fn course_offer_db() -> relmerge::engine::Database {
    use relmerge::engine::{Database, DbmsProfile};
    let int = |n: &str| Attribute::new(n, Domain::Int);
    let mut rs = RelationalSchema::new();
    rs.add_scheme(RelationScheme::new("COURSE", vec![int("C.K")], &["C.K"]).unwrap())
        .unwrap();
    rs.add_scheme(RelationScheme::new("OFFER", vec![int("O.K"), int("O.D")], &["O.K"]).unwrap())
        .unwrap();
    rs.add_ind(InclusionDep::new("OFFER", &["O.K"], "COURSE", &["C.K"]))
        .unwrap();
    let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
    for k in 0..4 {
        db.insert("COURSE", Tuple::new([Value::Int(k)])).unwrap();
    }
    db.insert("OFFER", Tuple::new([Value::Int(2), Value::Int(7)]))
        .unwrap();
    db
}

/// A plan with several faults fails with the one the query meets first,
/// traced or not: the root relation, then (for a filtered plan) every join
/// relation and the filter's attributes, then the root access's attributes,
/// then each join step's left attributes, relation and right attributes in
/// step order — whether or not any row reaches the step.
#[test]
fn query_errors_name_what_the_plan_meets_first() {
    use relmerge::engine::{JoinStep, Predicate, QueryPlan};
    let db = course_offer_db();
    let key = |k: i64| Tuple::new([Value::Int(k)]);
    let step = |rel: &str, l: &str, r: &str| JoinStep::inner(rel, &[l], &[r]);
    let cases: Vec<(QueryPlan, &str)> = vec![
        (
            QueryPlan::scan("NOPE").join(step("GONE", "C.K", "O.K")),
            "unknown relation-scheme `NOPE`",
        ),
        (
            QueryPlan::lookup("COURSE", &["X"], key(1)).join(step("GONE", "C.K", "O.K")),
            "unknown attribute `X` in `table`",
        ),
        (
            QueryPlan::scan("COURSE").join(step("GONE", "Y", "O.K")),
            "unknown attribute `Y` in `join input of `GONE``",
        ),
        (
            QueryPlan::scan("COURSE").join(step("GONE", "C.K", "O.K")),
            "unknown relation-scheme `GONE`",
        ),
        (
            QueryPlan::scan("COURSE")
                .join(step("OFFER", "C.K", "Z"))
                .join(step("GONE", "C.K", "O.K")),
            "unknown attribute `Z` in `table`",
        ),
        (
            // No row reaches the step, and its right attribute still fails.
            QueryPlan::lookup("COURSE", &["C.K"], key(9)).join(step("OFFER", "C.K", "Z")),
            "unknown attribute `Z` in `table`",
        ),
        (
            QueryPlan::scan("COURSE")
                .join(step("OFFER", "Y", "O.K"))
                .join(step("GONE", "C.K", "O.K"))
                .filter(Predicate::eq("C.K", 1i64)),
            "unknown relation-scheme `GONE`",
        ),
        (
            QueryPlan::lookup("COURSE", &["X"], key(1)).filter(Predicate::eq("W", 1i64)),
            "unknown attribute `W` in `predicate`",
        ),
        (
            QueryPlan::scan("COURSE")
                .join(step("OFFER", "C.K", "O.K"))
                .filter(Predicate::eq("O.D", 7i64).and(Predicate::eq("C.K", 2i64)))
                .select(&["O.D", "Q"]),
            "unknown attribute `Q` in `relation`",
        ),
    ];
    for (plan, want) in cases {
        let plain = db.execute(&plan).unwrap_err().to_string();
        let traced = db.execute_traced(&plan).unwrap_err().to_string();
        assert_eq!(plain, want, "{plan:?}");
        assert_eq!(traced, want, "{plan:?}");
    }
}

/// A self-join repeats every attribute name of its relation, so its answer
/// has no valid header: it fails with `DuplicateAttribute`, traced or not,
/// projected or not, and whether or not any row joins.
#[test]
fn self_joins_fail_with_duplicate_attribute() {
    use relmerge::engine::{JoinStep, QueryPlan};
    let db = course_offer_db();
    let self_join = JoinStep::inner("COURSE", &["C.K"], &["C.K"]);
    let roots = [
        QueryPlan::scan("COURSE"),
        QueryPlan::lookup("COURSE", &["C.K"], Tuple::new([Value::Int(9)])),
    ];
    for root in roots {
        let plan = root.join(self_join.clone());
        for plan in [plan.clone(), plan.select(&["C.K"])] {
            let is_dup = |e: &Error| matches!(e, Error::DuplicateAttribute(n) if n == "C.K");
            let plain = db.execute(&plan).unwrap_err();
            assert!(is_dup(&plain), "{plan:?}: {plain}");
            let traced = db.execute_traced(&plan).unwrap_err();
            assert!(is_dup(&traced), "{plan:?}: {traced}");
        }
    }
}
