//! Soak test: a long seeded DML stream against both the unmerged and the
//! merged university databases. Every accepted statement must leave the
//! database consistent; acceptance rates must be sane; and the merged
//! database's contents must stay reconstructible.

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge::core::Merge;
use relmerge::engine::{Database, DbmsProfile};
use relmerge::relational::{Tuple, Value};
use relmerge::workload::{generate_university, UniversitySpec};

#[test]
fn dml_soak_unmerged_and_merged() {
    let mut rng = StdRng::seed_from_u64(99);
    let u = generate_university(
        &UniversitySpec {
            courses: 300,
            departments: 10,
            persons: 200,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .unwrap();
    let mut m = Merge::plan(
        &u.schema,
        &["COURSE", "OFFER", "TEACH", "ASSIST"],
        "COURSE_M",
    )
    .unwrap();
    m.remove_all_removable().unwrap();

    let mut unmerged = Database::new(u.schema.clone(), DbmsProfile::ideal()).unwrap();
    unmerged.load_state(&u.state).unwrap();
    let mut merged = Database::new(m.schema().clone(), DbmsProfile::ideal()).unwrap();
    merged.load_state(&m.apply(&u.state).unwrap()).unwrap();

    let mut accepted = (0u32, 0u32);
    let mut rejected = (0u32, 0u32);
    const OPS: usize = 4_000;
    for i in 0..OPS {
        let course = rng.gen_range(0..500i64);
        let dept = Value::text(format!("dept{}", rng.gen_range(0..12)));
        let person = Value::Int(10_000 + rng.gen_range(0..250));
        match rng.gen_range(0..5) {
            // Insert a full bundle into the unmerged database...
            0 => {
                let ok = unmerged
                    .insert("COURSE", Tuple::new([Value::Int(course)]))
                    .is_ok()
                    && unmerged
                        .insert("OFFER", Tuple::new([Value::Int(course), dept.clone()]))
                        .is_ok();
                if ok {
                    accepted.0 += 1;
                } else {
                    rejected.0 += 1;
                }
            }
            // ...or a merged tuple with random group presence.
            1 => {
                let offered = rng.gen_bool(0.8);
                let taught = offered && rng.gen_bool(0.5);
                let t = Tuple::new([
                    Value::Int(course),
                    if offered { dept.clone() } else { Value::Null },
                    if taught { person.clone() } else { Value::Null },
                    Value::Null,
                ]);
                if merged.insert("COURSE_M", t).is_ok() {
                    accepted.1 += 1;
                } else {
                    rejected.1 += 1;
                }
            }
            // Deletes on both.
            2 => {
                let _ = unmerged.delete_by_key("TEACH", &Tuple::new([Value::Int(course)]));
                let _ = merged.delete_by_key("COURSE_M", &Tuple::new([Value::Int(course)]));
            }
            // Violations on purpose: dangling references, null keys.
            3 => {
                assert!(unmerged
                    .insert("OFFER", Tuple::new([Value::Int(9_999_999), dept.clone()]))
                    .is_err());
                assert!(merged
                    .insert(
                        "COURSE_M",
                        Tuple::new([Value::Null, Value::Null, Value::Null, Value::Null]),
                    )
                    .is_err());
            }
            // Updates on the merged database.
            _ => {
                let key = Tuple::new([Value::Int(course)]);
                if let Some(existing) = merged.get_by_key("COURSE_M", &key).unwrap() {
                    let updated = existing.with(1, dept.clone());
                    let _ = merged.update_by_key("COURSE_M", &key, updated);
                }
            }
        }
        // Periodic full-consistency audit (cheap at this scale).
        if i % 500 == 0 {
            let snap = unmerged.snapshot().unwrap();
            assert!(snap.is_consistent(&u.schema).unwrap(), "op {i} unmerged");
            let msnap = merged.snapshot().unwrap();
            assert!(msnap.is_consistent(m.schema()).unwrap(), "op {i} merged");
            // The merged contents always reconstruct to a consistent
            // original-schema state.
            let back = m.invert(&msnap).unwrap();
            // (The back-mapped state needs the non-merged relations from
            // the merged snapshot, which invert carries over.)
            assert!(back.is_consistent(&u.schema).unwrap(), "op {i} invert");
        }
    }
    // Sanity on the mix: plenty of accepted and rejected operations.
    assert!(accepted.0 > 50, "unmerged accepted {accepted:?}");
    assert!(accepted.1 > 100, "merged accepted {accepted:?}");
    assert!(rejected.0 > 50, "unmerged rejected {rejected:?}");

    // Final audits.
    let snap = unmerged.snapshot().unwrap();
    assert!(snap.is_consistent(&u.schema).unwrap());
    let msnap = merged.snapshot().unwrap();
    assert!(msnap.is_consistent(m.schema()).unwrap());
    let count = |name| merged.metrics_registry().counter(name).get();
    assert!(count("engine.check.declarative") + count("engine.check.procedural") > 0);
    assert!(count("engine.dml.rejected") > 0);
}
