//! The full adoption scenario a downstream user of this library would run:
//! design in EER, translate, let the advisor merge what the target DBMS can
//! maintain, migrate existing data through the composed state mappings,
//! serve queries and DML on the merged database, and prove nothing was
//! lost — at a realistic scale.

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::core::{Advisor, MergeReport};
use relmerge::ddl::{backward_migration, forward_migration, generate, Dialect};
use relmerge::engine::{Database, DbmsProfile, LogicalQuery, Statement};
use relmerge::relational::{Tuple, Value};
use relmerge::workload::{generate_university, UniversitySpec};

#[test]
fn university_adoption_end_to_end() {
    // 1. Existing system: the Figure 3 schema with 2 000 courses of data.
    let mut rng = StdRng::seed_from_u64(2026);
    let u = generate_university(
        &UniversitySpec {
            courses: 2_000,
            departments: 30,
            persons: 800,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .unwrap();
    assert!(u.state.is_consistent(&u.schema).unwrap());

    // 2. The advisor proposes merges the SYBASE target can maintain.
    let advisor = Advisor::new(&Dialect::Sybase40.profile());
    let (merged_schema, pipeline) = advisor.greedy_pipeline(&u.schema).unwrap();
    assert!(!pipeline.is_empty());
    assert!(pipeline.joins_eliminated() >= 3, "the COURSE chain merges");
    for step in pipeline.steps() {
        let report = MergeReport::new(step);
        assert!(report.bcnf);
    }

    // 3. Deployment artifacts exist for the target.
    let ddl = generate(&merged_schema, Dialect::Sybase40).unwrap();
    assert!(ddl.unsupported().is_empty());
    for step in pipeline.steps() {
        let fwd = forward_migration(step).unwrap();
        assert!(fwd.contains("FULL OUTER JOIN"));
        assert!(!backward_migration(step).unwrap().is_empty());
    }

    // 4. Migrate the data through the composed mappings.
    let merged_state = pipeline.apply(&u.state).unwrap();
    assert!(merged_state.is_consistent(&merged_schema).unwrap());

    // 5. Serve from the engine under the SYBASE profile.
    let mut db = Database::new(merged_schema.clone(), DbmsProfile::sybase40()).unwrap();
    db.load_state(&merged_state).unwrap();

    // The course-detail logical query plans without joins on the merged
    // schema and with 3 joins on the original.
    let q = LogicalQuery::select(&["C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN"]);
    let merged_plan = relmerge::engine::plan(&merged_schema, &q).unwrap();
    assert_eq!(merged_plan.joins.len(), 0);
    let original_plan = relmerge::engine::plan(&u.schema, &q).unwrap();
    assert_eq!(original_plan.joins.len(), 3);
    let (merged_result, _) = db.query(&q).unwrap();
    assert_eq!(merged_result.len(), 2_000);

    // 6. Ongoing DML against the merged database, trigger-checked.
    let merged_name = pipeline
        .steps()
        .iter()
        .map(|s| s.merged_name())
        .find(|n| n.starts_with("COURSE"))
        .expect("course chain merged");
    db.apply_batch(&[
        Statement::insert("DEPARTMENT", Tuple::new([Value::text("new-dept")])),
        Statement::insert(
            merged_name,
            Tuple::new([
                Value::Int(50_000),
                Value::text("new-dept"),
                Value::Null,
                Value::Null,
            ]),
        ),
    ])
    .unwrap();
    // A constraint-violating bundle rolls back wholesale.
    let before = db.snapshot().unwrap();
    let result = db.apply_batch(&[
        Statement::insert("DEPARTMENT", Tuple::new([Value::text("other-dept")])),
        Statement::insert(
            merged_name,
            Tuple::new([
                Value::Int(50_001),
                Value::text("ghost-dept"), // dangling FK
                Value::Null,
                Value::Null,
            ]),
        ),
    ]);
    assert!(result.is_err());
    assert_eq!(db.snapshot().unwrap(), before);

    // 7. Back out: the inverse mappings reconstruct a consistent state of
    // the original schema containing everything, including the new course.
    let current = db.snapshot().unwrap();
    let back = pipeline.invert(&current).unwrap();
    assert!(back.is_consistent(&u.schema).unwrap());
    assert_eq!(
        back.relation("COURSE").unwrap().len(),
        2_001,
        "the post-migration insert survives the round trip"
    );
    assert!(back
        .relation("DEPARTMENT")
        .unwrap()
        .contains(&Tuple::new([Value::text("new-dept")])));
    // And the original data is exactly preserved.
    for rel in ["OFFER", "TEACH", "ASSIST"] {
        let original = u.state.relation(rel).unwrap();
        let recovered = back.relation(rel).unwrap();
        for t in original.iter() {
            assert!(recovered.contains(t), "{rel} lost {t}");
        }
    }
}
