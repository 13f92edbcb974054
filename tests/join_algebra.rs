//! The engine's transient hash join against the paper's algebra: on random
//! L/R tables whose join keys are often null, the engine's inner and left
//! outer joins on a column no index covers must return the answer of
//! `equi_join` / `outer_equi_join` (paper §2), up to row order.

use proptest::prelude::*;

use relmerge::engine::{Database, DbmsProfile, JoinStep, QueryPlan};
use relmerge::relational::algebra::{difference, equi_join, outer_equi_join, select_eq};
use relmerge::relational::{
    Attribute, Domain, Relation, RelationScheme, RelationalSchema, Tuple, Value,
};

/// L(L.K, L.V) and R(R.K, R.V), keyed on K; `left[k]` / `right[k]` is row
/// `k`'s V value (`None` = null). No index covers the V columns.
fn lr_database(left: &[Option<i64>], right: &[Option<i64>]) -> Database {
    let mut rs = RelationalSchema::new();
    for rel in ["L", "R"] {
        let (k, v) = (format!("{rel}.K"), format!("{rel}.V"));
        let header = vec![
            Attribute::new(k.as_str(), Domain::Int),
            Attribute::new(v, Domain::Int),
        ];
        let scheme = RelationScheme::new(rel, header, &[k.as_str()]).expect("scheme");
        rs.add_scheme(scheme).expect("add");
    }
    let mut db = Database::new(rs, DbmsProfile::ideal()).expect("database");
    for (rel, vals) in [("L", left), ("R", right)] {
        for (k, v) in vals.iter().enumerate() {
            let v = v.map_or(Value::Null, Value::Int);
            db.insert(rel, Tuple::new([Value::Int(k as i64), v]))
                .expect("insert");
        }
    }
    db
}

/// The answer of `L ⋈ R` on `L.V = R.V` by the algebra. The algebra treats
/// `null = null` while a null join key never matches in the engine, so
/// null-keyed rows leave the join inputs first. A left outer join is the
/// full outer-equi-join minus its right-only rows, which are the ones whose
/// never-null `L.K` is padded.
fn algebra_join(db: &Database, outer: bool) -> Relation {
    let state = db.snapshot().expect("snapshot");
    let null = Tuple::new([Value::Null]);
    let keyed = |rel: &str, attr: &str| {
        let r = state.relation(rel).expect("relation");
        difference(r, &select_eq(r, &[attr], &null).expect("select")).expect("difference")
    };
    let on = [("L.V", "R.V")];
    if outer {
        let l = state.relation("L").expect("relation");
        let full = outer_equi_join(l, &keyed("R", "R.V"), &on).expect("outer join");
        let right_only = select_eq(&full, &["L.K"], &null).expect("select");
        difference(&full, &right_only).expect("difference")
    } else {
        equi_join(&keyed("L", "L.V"), &keyed("R", "R.V"), &on).expect("join")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One transient build per query, and the algebra's answer, serially
    /// and morsel-parallel.
    #[test]
    fn transient_hash_join_matches_the_algebra(
        left in prop::collection::vec(prop::option::of(0i64..4), 1..16),
        right in prop::collection::vec(prop::option::of(0i64..4), 0..16),
        outer in any::<bool>(),
        workers in 1usize..4,
    ) {
        let mut db = lr_database(&left, &right);
        db.configure(db.config().parallelism(workers).morsel_rows(3));
        let step = if outer {
            JoinStep::outer("R", &["L.V"], &["R.V"])
        } else {
            JoinStep::inner("R", &["L.V"], &["R.V"])
        };
        let (got, stats) = db.execute(&QueryPlan::scan("L").join(step)).expect("query");
        prop_assert_eq!(stats.hash_builds, 1);
        let want = algebra_join(&db, outer);
        prop_assert!(got.set_eq_unordered(&want), "engine {} vs algebra {}", got, want);
    }
}
