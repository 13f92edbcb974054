//! End-to-end integration: EER model → translation → advisor-driven merge
//! → DDL emission → engine hosting, across DBMS profiles.

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::core::Advisor;
use relmerge::ddl::{generate, run_sdt, Dialect, SdtOption};
use relmerge::eer::{figures, translate};
use relmerge::engine::{Database, DbmsProfile, JoinStep, QueryPlan};
use relmerge::relational::{Tuple, Value};
use relmerge::workload::{generate_university, UniversitySpec};

/// The whole SDT matrix: both options on every dialect, for the university
/// EER schema — everything deployable, nothing silently dropped.
#[test]
fn sdt_matrix_university() {
    let eer = figures::fig7_eer();
    for dialect in Dialect::ALL {
        for option in [SdtOption::OneToOne, SdtOption::Merged] {
            let out = run_sdt(&eer, option, dialect).unwrap();
            assert!(
                out.script.unsupported().is_empty(),
                "{dialect} {option:?}: {:?}",
                out.script
                    .unsupported()
                    .iter()
                    .map(|s| s.sql())
                    .collect::<Vec<_>>()
            );
            assert!(out.schema.is_bcnf(), "{dialect} {option:?} not BCNF");
            if option == SdtOption::Merged {
                assert!(out.scheme_count.1 <= out.scheme_count.0);
            }
        }
    }
}

/// The advisor's output for a dialect is hostable by the engine under the
/// same dialect's profile.
#[test]
fn advisor_output_hostable() {
    let schema = translate(&figures::fig7_eer()).unwrap();
    for dialect in Dialect::ALL {
        let profile = dialect.profile();
        let (merged_schema, applied) = Advisor::new(&profile).greedy(&schema).unwrap();
        let db = Database::new(merged_schema.clone(), profile.clone());
        assert!(
            db.is_ok(),
            "{} cannot host the advisor output after {} merges: {:?}",
            profile.name,
            applied.len(),
            profile.hosting_report(&merged_schema)
        );
    }
}

/// A merged database answers the same logical query as the unmerged one,
/// for every offered course.
#[test]
fn merged_and_unmerged_agree_on_all_courses() {
    let mut rng = StdRng::seed_from_u64(77);
    let u = generate_university(
        &UniversitySpec {
            courses: 150,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut m = relmerge::core::Merge::plan(
        &u.schema,
        &["COURSE", "OFFER", "TEACH", "ASSIST"],
        "COURSE_M",
    )
    .unwrap();
    m.remove_all_removable().unwrap();
    let mut unmerged = Database::new(u.schema.clone(), DbmsProfile::ideal()).unwrap();
    unmerged.load_state(&u.state).unwrap();
    let merged_state = m.apply(&u.state).unwrap();
    let mut merged = Database::new(m.schema().clone(), DbmsProfile::ideal()).unwrap();
    merged.load_state(&merged_state).unwrap();

    for nr in 0..150i64 {
        let key = Tuple::new([Value::Int(nr)]);
        let unmerged_plan = QueryPlan::lookup("COURSE", &["C.NR"], key.clone())
            .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
            .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
            .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]))
            .select(&["C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN"]);
        let merged_plan = QueryPlan::lookup("COURSE_M", &["C.NR"], key);
        let (r1, _) = unmerged.execute(&unmerged_plan).unwrap();
        let (r2, _) = merged.execute(&merged_plan).unwrap();
        assert!(
            r1.set_eq_unordered(&r2),
            "course {nr}: unmerged {r1} vs merged {r2}"
        );
    }
}

/// DDL for the merged university schema deploys the right mechanism per
/// dialect, and DB2 flags what it cannot maintain.
#[test]
fn ddl_mechanisms_per_dialect() {
    let schema = translate(&figures::fig7_eer()).unwrap();
    let mut m =
        relmerge::core::Merge::plan(&schema, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_M")
            .unwrap();
    m.remove_all_removable().unwrap();
    // The merged schema carries two general null constraints.
    let general = m
        .generated_null_constraints()
        .iter()
        .filter(|c| !c.is_nna())
        .count();
    assert_eq!(general, 2);

    let db2 = generate(m.schema(), Dialect::Db2).unwrap();
    assert_eq!(db2.unsupported().len(), general);
    let sybase = generate(m.schema(), Dialect::Sybase40).unwrap();
    assert!(sybase.unsupported().is_empty());
    assert!(sybase.procedural_count() >= general);
    let ingres = generate(m.schema(), Dialect::Ingres63).unwrap();
    assert!(ingres.unsupported().is_empty());
    let sql92 = generate(m.schema(), Dialect::Sql92).unwrap();
    assert!(sql92.unsupported().is_empty());
    assert_eq!(sql92.procedural_count(), 0);
    assert_eq!(sql92.render().matches("ADD CONSTRAINT").count(), general);
}

/// The engine rejects exactly the statements that would break the merged
/// schema's generated constraints.
#[test]
fn merged_constraints_enforced_by_engine() {
    let schema = translate(&figures::fig7_eer()).unwrap();
    let mut m =
        relmerge::core::Merge::plan(&schema, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE_M")
            .unwrap();
    m.remove_all_removable().unwrap();
    let mut db = Database::new(m.schema().clone(), DbmsProfile::sybase40()).unwrap();
    db.insert("DEPARTMENT", Tuple::new([Value::text("cs")]))
        .unwrap();
    db.insert("PERSON", Tuple::new([Value::Int(1)])).unwrap();
    db.insert("FACULTY", Tuple::new([Value::Int(1)])).unwrap();
    // A course with no offer: nulls everywhere but the key — fine.
    db.insert(
        "COURSE_M",
        Tuple::new([Value::Int(10), Value::Null, Value::Null, Value::Null]),
    )
    .unwrap();
    // An offered, taught course — fine.
    db.insert(
        "COURSE_M",
        Tuple::new([
            Value::Int(11),
            Value::text("cs"),
            Value::Int(1),
            Value::Null,
        ]),
    )
    .unwrap();
    // A taught course with no offer violates T.F.SSN ⊑ O.D.NAME
    // (the Figure 6 constraint).
    let err = db
        .insert(
            "COURSE_M",
            Tuple::new([Value::Int(12), Value::Null, Value::Int(1), Value::Null]),
        )
        .unwrap_err();
    assert!(err.to_string().contains("T.F.SSN"));
    // A dangling faculty reference is caught through the FK trigger.
    assert!(db
        .insert(
            "COURSE_M",
            Tuple::new([
                Value::Int(13),
                Value::text("cs"),
                Value::Int(99),
                Value::Null
            ]),
        )
        .is_err());
    // The accepted contents are a consistent state of the merged schema.
    let snapshot = db.snapshot().unwrap();
    assert!(snapshot.is_consistent(m.schema()).unwrap());
}
