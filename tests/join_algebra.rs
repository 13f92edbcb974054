//! The engine's join access paths against the paper's algebra: on random
//! L/R tables whose join keys are often null, the engine's inner and left
//! outer joins must return the answer of `equi_join` / `outer_equi_join`
//! (paper §2), up to row order — whether the right join column has no
//! index (one transient hash build), is the key (unique-index probes), or
//! is the left side of an inclusion dependency (lookup-index probes).

use proptest::prelude::*;

use relmerge::engine::{Database, DbmsProfile, JoinStep, QueryPlan};
use relmerge::relational::algebra::{difference, equi_join, outer_equi_join, select_eq};
use relmerge::relational::{
    Attribute, Domain, InclusionDep, Relation, RelationScheme, RelationalSchema, Tuple, Value,
};

/// The right join column of one case, and the access that reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RightColumn {
    /// `R.V`, which no index covers: one transient hash build.
    Unindexed,
    /// `R.K`, the key: probes of its unique index.
    Key,
    /// `R.V` under `R[R.V] ⊆ L[L.K]`: probes of the IND's lookup index.
    Referencing,
}

impl RightColumn {
    fn attr(self) -> &'static str {
        match self {
            RightColumn::Key => "R.K",
            RightColumn::Unindexed | RightColumn::Referencing => "R.V",
        }
    }
}

/// L(L.K, L.V) and R(R.K, R.V), keyed on K; `left[k]` / `right[k]` is row
/// `k`'s V value (`None` = null). Only a `Referencing` case declares
/// `R[R.V] ⊆ L[L.K]`, which indexes `R.V`.
fn lr_database(left: &[Option<i64>], right: &[Option<i64>], column: RightColumn) -> Database {
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
    if column == RightColumn::Referencing {
        rs.add_ind(InclusionDep::new("R", &["R.V"], "L", &["L.K"]))
            .expect("ind");
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

/// The answer of `L ⋈ R` on `L.V = right` by the algebra. The algebra
/// treats `null = null` while a null join key never matches in the engine,
/// so null-keyed rows leave the join inputs first. A left outer join is the
/// full outer-equi-join minus its right-only rows, which are the ones whose
/// never-null `L.K` is padded.
fn algebra_join(db: &Database, right: &str, outer: bool) -> Relation {
    let state = db.snapshot().expect("snapshot");
    let null = Tuple::new([Value::Null]);
    let keyed = |rel: &str, attr: &str| {
        let r = state.relation(rel).expect("relation");
        difference(r, &select_eq(r, &[attr], &null).expect("select")).expect("difference")
    };
    let on = [("L.V", right)];
    if outer {
        let l = state.relation("L").expect("relation");
        let full = outer_equi_join(l, &keyed("R", right), &on).expect("outer join");
        let right_only = select_eq(&full, &["L.K"], &null).expect("select");
        difference(&full, &right_only).expect("difference")
    } else {
        equi_join(&keyed("L", "L.V"), &keyed("R", right), &on).expect("join")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The algebra's answer, serially and morsel-parallel: one transient
    /// build for the unindexed column, one counted probe per non-null left
    /// key and no build for an indexed one.
    #[test]
    fn join_access_paths_match_the_algebra(
        left in prop::collection::vec(prop::option::of(0i64..4), 1..16),
        right in prop::collection::vec(prop::option::of(0i64..64), 0..16),
        column in prop::sample::select(vec![
            RightColumn::Unindexed,
            RightColumn::Key,
            RightColumn::Referencing,
        ]),
        outer in any::<bool>(),
        workers in 1usize..4,
    ) {
        // A referencing R.V must name an L row; the others stay in 0..4,
        // where the left keys are drawn.
        let bound = if column == RightColumn::Referencing { left.len() as i64 } else { 4 };
        let right: Vec<Option<i64>> = right.iter().map(|v| v.map(|v| v % bound)).collect();
        let mut db = lr_database(&left, &right, column);
        db.configure(db.config().parallelism(workers).morsel_rows(3));
        let attr = column.attr();
        let step = if outer {
            JoinStep::outer("R", &["L.V"], &[attr])
        } else {
            JoinStep::inner("R", &["L.V"], &[attr])
        };
        let (got, stats) = db.execute(&QueryPlan::scan("L").join(step)).expect("query");
        if column == RightColumn::Unindexed {
            prop_assert_eq!(stats.hash_builds, 1);
            prop_assert_eq!(stats.index_probes, 0);
        } else {
            prop_assert_eq!(stats.hash_builds, 0);
            let keyed_left = left.iter().filter(|v| v.is_some()).count() as u64;
            prop_assert_eq!(stats.index_probes, keyed_left);
        }
        let want = algebra_join(&db, attr, outer);
        prop_assert!(got.set_eq_unordered(&want), "engine {} vs algebra {}", got, want);
    }
}
