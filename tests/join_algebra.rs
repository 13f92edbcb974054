//! The engine's join access paths against the paper's algebra: on random
//! L/R tables whose join keys are often null, the engine's inner and left
//! outer joins must return the answer of `equi_join` / `outer_equi_join`
//! (paper §2), up to row order — whether the right join column has no
//! index (one transient hash build), is the key (unique-index probes), or
//! is the left side of an inclusion dependency (lookup-index probes).
//! Random plans of two to four such steps, filtered by a predicate over
//! nulls, must return the algebra's answer too, as must their root alone
//! under that predicate, one such plan over a root of three morsels, and
//! a root lookup keyed on any of those columns, with a key that may be
//! null, must return the algebra's selection. Every unprojected answer holds each row once, and a plan
//! projected on a random attribute subset, which can merge rows, answers
//! the algebra's projection of the unprojected answer, row for row and in
//! order. Traced or not, a plan returns the same header, the same rows in
//! the same order and the same stats.

use proptest::prelude::*;

use relmerge::engine::{
    Database, DbmsProfile, JoinStep, Predicate, QueryPlan, QueryStats, Statement,
};
use relmerge::relational::algebra::{difference, equi_join, outer_equi_join, project, select_eq};
use relmerge::relational::{
    Attribute, DatabaseState, Domain, InclusionDep, Relation, RelationScheme, RelationalSchema,
    Tuple, Value,
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

/// `Ti(Ti.K, Ti.V)` for each `vals[i]`, keyed on K, holding row `k` =
/// `(k, vals[i][k])`. Where `indexed[i]`, `Ti[Ti.V] ⊆ T0[T0.K]` gives
/// `Ti.V` a lookup index; every V lies in `0..4`, where every T0 has keys.
fn chain_database(vals: &[Vec<Option<i64>>], indexed: &[bool]) -> Database {
    let mut rs = RelationalSchema::new();
    for (i, &lookup) in indexed[..vals.len()].iter().enumerate() {
        let (k, v) = (format!("T{i}.K"), format!("T{i}.V"));
        let header = vec![
            Attribute::new(k.as_str(), Domain::Int),
            Attribute::new(v.as_str(), Domain::Int),
        ];
        let scheme = RelationScheme::new(format!("T{i}"), header, &[k.as_str()]).expect("scheme");
        rs.add_scheme(scheme).expect("add");
        if lookup {
            rs.add_ind(InclusionDep::new(
                format!("T{i}"),
                &[v.as_str()],
                "T0",
                &["T0.K"],
            ))
            .expect("ind");
        }
    }
    let mut db = Database::new(rs, DbmsProfile::ideal()).expect("database");
    let rows: Vec<Statement> = vals
        .iter()
        .enumerate()
        .flat_map(|(i, rel)| {
            rel.iter().enumerate().map(move |(k, v)| {
                let v = v.map_or(Value::Null, Value::Int);
                Statement::insert(format!("T{i}"), Tuple::new([Value::Int(k as i64), v]))
            })
        })
        .collect();
    db.apply_batch(&rows).expect("load");
    db
}

/// `Ti.K` or `Ti.V`.
fn chain_attr(rel: usize, key: bool) -> String {
    format!("T{rel}.{}", if key { "K" } else { "V" })
}

/// Asserts that `answer` holds no row twice: it has as many rows as the
/// relation `with_rows` makes of them, which deduplicates.
fn assert_distinct(answer: &Relation) {
    let deduplicated =
        Relation::with_rows(answer.header().to_vec(), answer.rows().to_vec()).expect("rows");
    assert_eq!(
        deduplicated.len(),
        answer.len(),
        "a row repeats in {answer}"
    );
}

/// Runs `plan` through `execute` and `execute_traced` and asserts that both
/// return the same header, the same rows in the same order and the same
/// stats, and that the trace adds up to them; returns the answer.
fn execute_both_ways(db: &Database, plan: &QueryPlan) -> (Relation, QueryStats) {
    let (got, stats) = db.execute(plan).expect("query");
    let (traced, traced_stats, trace) = db.execute_traced(plan).expect("traced query");
    assert_eq!(got.header(), traced.header());
    assert_eq!(
        got.rows(),
        traced.rows(),
        "traced rows or their order differ"
    );
    assert_eq!(stats, traced_stats);
    assert_eq!(trace.totals(), stats);
    (got, stats)
}

/// Asserts that `plan` projected on `names` answers the algebra's
/// projection of `full`, `plan`'s own answer, row for row and in order,
/// with `plan`'s `stats` but for `rows_output`.
fn assert_projection(
    db: &Database,
    plan: &QueryPlan,
    full: &Relation,
    stats: QueryStats,
    names: &[&str],
) {
    let (got, got_stats) = execute_both_ways(db, &plan.clone().select(names));
    let want = project(full, names).expect("projection");
    assert_eq!(got.header(), want.header());
    assert_eq!(got.rows(), want.rows(), "projected on {names:?}");
    let rows_output = want.len() as u64;
    assert_eq!(
        got_stats,
        QueryStats {
            rows_output,
            ..stats
        }
    );
}

/// One filter atom: `attr IS NULL`, `attr IS NOT NULL`, `attr = value`
/// (the null literal included), possibly negated.
#[derive(Debug, Clone)]
enum Atom {
    IsNull(String),
    NotNull(String),
    Eq(String, Value),
}

/// Whether `atom` (negated when `negate`) holds on `row` over `header`:
/// two-valued, with `Eq` false on a null operand unless the literal is
/// null — the engine's documented predicate semantics.
fn holds(atom: &Atom, negate: bool, header: &[Attribute], row: &Tuple) -> bool {
    let at = |attr: &str| {
        let p = header.iter().position(|a| a.name() == attr).expect("attr");
        row.get(p)
    };
    let v = match atom {
        Atom::IsNull(a) => at(a).is_null(),
        Atom::NotNull(a) => !at(a).is_null(),
        Atom::Eq(a, lit) => at(a) == lit,
    };
    v != negate
}

/// The plan's answer by the algebra over the stored state: per step, an
/// inner step equi-joins the inputs without their null-keyed rows, and a
/// left outer step takes the outer-equi-join minus its right-only rows,
/// the ones whose never-null `T0.K` is padded; then the atoms select.
fn algebra_chain(
    state: &DatabaseState,
    steps: &[(String, String, bool)],
    atoms: &[(Atom, bool)],
) -> Relation {
    let null = Tuple::new([Value::Null]);
    let keyed = |r: &Relation, attr: &str| {
        difference(r, &select_eq(r, &[attr], &null).expect("select")).expect("difference")
    };
    let mut acc = state.relation("T0").expect("relation").clone();
    for (j, (left, right, outer)) in steps.iter().enumerate() {
        let rel = state.relation(&format!("T{}", j + 1)).expect("relation");
        let on = [(left.as_str(), right.as_str())];
        acc = if *outer {
            let full = outer_equi_join(&acc, &keyed(rel, right), &on).expect("outer join");
            let right_only = select_eq(&full, &["T0.K"], &null).expect("select");
            difference(&full, &right_only).expect("difference")
        } else {
            equi_join(&keyed(&acc, left), &keyed(rel, right), &on).expect("join")
        };
    }
    let header = acc.header().to_vec();
    let kept: Vec<Tuple> = acc
        .iter()
        .filter(|t| atoms.iter().all(|(a, neg)| holds(a, *neg, &header, t)))
        .cloned()
        .collect();
    Relation::with_rows(header, kept).expect("selection")
}

/// One drawn filter atom: its kind (`IsNull`, `NotNull`, `Eq` on a
/// value, `Eq` on null), the relation and attribute it names, the value,
/// and whether it is negated.
type AtomDraw = (u8, usize, bool, i64, bool);

/// Joins `T0` through `steps`, filters by the conjunction of `draws` over
/// the joined relations, and asserts the algebra's answer, traced or not,
/// with no row twice; then the answer's projection on the attributes
/// `select` draws.
fn assert_chain_plan(
    db: &Database,
    state: &DatabaseState,
    steps: &[(String, String, bool)],
    draws: &[AtomDraw],
    select: &[(usize, bool)],
) {
    let sources = steps.len() + 1;
    let atoms: Vec<(Atom, bool)> = draws
        .iter()
        .map(|&(kind, rel, key, v, negate)| {
            let attr = chain_attr(rel % sources, key);
            let atom = match kind {
                0 => Atom::IsNull(attr),
                1 => Atom::NotNull(attr),
                2 => Atom::Eq(attr, Value::Int(v)),
                _ => Atom::Eq(attr, Value::Null),
            };
            (atom, negate)
        })
        .collect();
    let mut plan = QueryPlan::scan("T0");
    for (j, (left, right, outer)) in steps.iter().enumerate() {
        let rel = format!("T{}", j + 1);
        plan = plan.join(if *outer {
            JoinStep::outer(rel, &[left], &[right])
        } else {
            JoinStep::inner(rel, &[left], &[right])
        });
    }
    let filter = atoms
        .iter()
        .map(|(atom, negate)| {
            let p = match atom {
                Atom::IsNull(a) => Predicate::is_null(a.as_str()),
                Atom::NotNull(a) => Predicate::not_null(a.as_str()),
                Atom::Eq(a, v) => Predicate::eq(a.as_str(), v.clone()),
            };
            if *negate {
                p.negate()
            } else {
                p
            }
        })
        .reduce(Predicate::and);
    if let Some(f) = filter {
        plan = plan.filter(f);
    }
    let want = algebra_chain(state, steps, &atoms);
    let (got, stats) = execute_both_ways(db, &plan);
    assert_eq!(stats.joins, steps.len() as u64);
    assert_eq!(stats.rows_output, got.len() as u64);
    assert!(got.set_eq(&want), "engine {got} vs algebra {want}");
    assert_distinct(&got);
    let mut names: Vec<String> = Vec::new();
    for &(rel, key) in select {
        let attr = chain_attr(rel % sources, key);
        if !names.contains(&attr) {
            names.push(attr);
        }
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_projection(db, &plan, &got, stats, &names);
}

/// A root of 2,099 rows after its filter runs as three morsels of 1,024
/// root rows: the answer across the morsel boundaries is the algebra's,
/// and the trace adds up to the stats. `T0.V` is null in every fifth row
/// and `T1.V`, `T2.V` in every third. The inner step probes `T1.V`'s
/// lookup index, and the outer step builds over the unindexed `T2.V`. The
/// filter drops one root row before the pipeline and every match with
/// `T2.V = 0` after it, keeping the outer step's pads.
#[test]
fn three_morsel_plan_matches_the_algebra() {
    let vals: [Vec<Option<i64>>; 3] = [
        (0..2_100).map(|k| (k % 5 != 4).then_some(k % 4)).collect(),
        (0..8).map(|k| (k % 3 != 1).then_some(k % 4)).collect(),
        (0..8)
            .map(|k| (k % 3 != 2).then_some((k + 1) % 4))
            .collect(),
    ];
    let db = chain_database(&vals, &[false, true, false]);
    let steps = [
        ("T0.V".to_owned(), "T1.V".to_owned(), false),
        ("T1.K".to_owned(), "T2.V".to_owned(), true),
    ];
    let atoms = [
        (Atom::Eq("T0.K".to_owned(), Value::Int(0)), true),
        (Atom::Eq("T2.V".to_owned(), Value::Int(0)), true),
    ];
    let plan = QueryPlan::scan("T0")
        .join(JoinStep::inner("T1", &["T0.V"], &["T1.V"]))
        .join(JoinStep::outer("T2", &["T1.K"], &["T2.V"]))
        .filter(
            Predicate::eq("T0.K", 0i64)
                .negate()
                .and(Predicate::eq("T2.V", 0i64).negate()),
        );
    let (got, stats, trace) = db.execute_traced(&plan).expect("query");
    assert_eq!(stats.morsels, 3);
    assert_eq!(stats.hash_builds, 1, "one build over T2.V");
    assert_eq!(trace.totals(), stats);
    let want = algebra_chain(&db.snapshot().expect("snapshot"), &steps, &atoms);
    assert!(got.set_eq(&want), "engine {got} vs algebra {want}");
    // Rows from different morsels stay distinct, and a projection merges
    // them across morsel boundaries.
    assert_distinct(&got);
    assert_projection(&db, &plan, &got, stats, &["T1.V", "T2.K"]);
    assert!(project(&got, &["T1.V", "T2.K"]).expect("projection").len() < got.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The algebra's answer: one transient build for the unindexed column,
    /// one counted probe per non-null left key and no build for an indexed
    /// one.
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
    ) {
        // A referencing R.V must name an L row; the others stay in 0..4,
        // where the left keys are drawn.
        let bound = if column == RightColumn::Referencing { left.len() as i64 } else { 4 };
        let right: Vec<Option<i64>> = right.iter().map(|v| v.map(|v| v % bound)).collect();
        let db = lr_database(&left, &right, column);
        let attr = column.attr();
        let step = if outer {
            JoinStep::outer("R", &["L.V"], &[attr])
        } else {
            JoinStep::inner("R", &["L.V"], &[attr])
        };
        let (got, stats) = execute_both_ways(&db, &QueryPlan::scan("L").join(step));
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
        assert_distinct(&got);
    }

    /// Plans of two to four steps over three to five relations, mixing
    /// inner and left outer steps, key (unique-index), lookup-index and
    /// unindexed right columns and null join keys, filtered by a
    /// conjunction of `IsNull` / `NotNull` / `Eq` atoms, some negated: the
    /// algebra's answer, traced or not, with a trace whose operators add up
    /// to the stats, and no row twice. Projected on one to three of the
    /// joined attributes, the plan answers the projection of that answer.
    /// So does the root alone under the same atoms and projection moved
    /// onto it: a plan without a step scans its root or, through a pushed
    /// `Eq` on an indexed attribute, looks it up.
    #[test]
    fn multi_join_plans_match_the_algebra(
        vals in prop::collection::vec(
            prop::collection::vec(prop::option::of(0i64..4), 4..8),
            3..6,
        ),
        indexed in prop::collection::vec(any::<bool>(), 5),
        steps in prop::collection::vec(
            (0usize..4, any::<bool>(), any::<bool>(), any::<bool>()),
            2..5,
        ),
        atoms in prop::collection::vec(
            (0u8..4, 0usize..5, any::<bool>(), 0i64..4, any::<bool>()),
            0..4,
        ),
        select in prop::collection::vec((0usize..5, any::<bool>()), 1..4),
    ) {
        let db = chain_database(&vals, &indexed);
        let state = db.snapshot().expect("snapshot");
        // Step j joins T(j+1) on an attribute of T0..=Tj.
        let steps: Vec<(String, String, bool)> = steps
            .iter()
            .take(vals.len() - 1)
            .enumerate()
            .map(|(j, &(src, left_key, right_key, outer))| {
                (chain_attr(src % (j + 1), left_key), chain_attr(j + 1, right_key), outer)
            })
            .collect();
        assert_chain_plan(&db, &state, &steps, &atoms, &select);
        assert_chain_plan(&db, &state, &[], &atoms, &select);
    }

    /// A root lookup of R on its key, on the referencing `R.V` (lookup
    /// index) or on the unindexed `R.V`, with a key that may be null:
    /// `select_eq`'s answer, where null equals null, as it does in
    /// `Predicate::Eq`.
    #[test]
    fn root_lookups_match_the_algebra(
        left in prop::collection::vec(prop::option::of(0i64..4), 1..16),
        right in prop::collection::vec(prop::option::of(0i64..64), 0..16),
        column in prop::sample::select(vec![
            RightColumn::Unindexed,
            RightColumn::Key,
            RightColumn::Referencing,
        ]),
        key in prop::option::of(0i64..4),
    ) {
        let bound = if column == RightColumn::Referencing { left.len() as i64 } else { 4 };
        let right: Vec<Option<i64>> = right.iter().map(|v| v.map(|v| v % bound)).collect();
        let db = lr_database(&left, &right, column);
        let attr = column.attr();
        let key = Tuple::new([key.map_or(Value::Null, Value::Int)]);
        let (got, _) = execute_both_ways(&db, &QueryPlan::lookup("R", &[attr], key.clone()));
        let state = db.snapshot().expect("snapshot");
        let r = state.relation("R").expect("relation");
        let want = select_eq(r, &[attr], &key).expect("select");
        prop_assert!(got.set_eq_unordered(&want), "engine {} vs algebra {}", got, want);
        assert_distinct(&got);
    }
}
