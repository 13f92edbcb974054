//! Property tests for the substrate: inference soundness (everything an
//! inference engine derives actually holds on data), algebra identities,
//! and constraint-satisfaction coherence.

use proptest::prelude::*;

use relmerge_relational::nullcon::{ne_implies, TotalEqualityClosure};
use relmerge_relational::{
    algebra, Attribute, Domain, Fd, FdSet, NullConstraint, Relation, Tuple, Value,
};

const ATTRS: [&str; 4] = ["A", "B", "C", "D"];

fn header() -> Vec<Attribute> {
    ATTRS
        .iter()
        .map(|a| Attribute::new(*a, Domain::Int))
        .collect()
}

/// Random relation over (A,B,C,D) with small values and nulls.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(
        proptest::array::uniform4(proptest::option::of(0i64..4)),
        0..16,
    )
    .prop_map(|rows| {
        Relation::with_rows(
            header(),
            rows.into_iter().map(|r| {
                Tuple::new(
                    r.into_iter()
                        .map(|v| v.map_or(Value::Null, Value::Int))
                        .collect::<Vec<_>>(),
                )
            }),
        )
        .expect("valid rows")
    })
}

/// A random (A, B) pair over two values and null: nine distinct tuples,
/// so random sequences repeat tuples often.
fn pair_strategy() -> impl Strategy<Value = Tuple> {
    proptest::array::uniform2(proptest::option::of(0i64..2)).prop_map(|[a, b]| {
        Tuple::new([
            a.map_or(Value::Null, Value::Int),
            b.map_or(Value::Null, Value::Int),
        ])
    })
}

/// One step of a [`Relation`] model run: `0` insert, `1` remove,
/// `2` contains, `3` set equality against a relation built from `others`.
fn relation_op_strategy() -> impl Strategy<Value = (u8, Tuple, Vec<Tuple>)> {
    (
        0u8..4,
        pair_strategy(),
        proptest::collection::vec(pair_strategy(), 0..8),
    )
}

/// A random null-existence constraint over the fixed attributes.
fn ne_strategy() -> impl Strategy<Value = NullConstraint> {
    (
        proptest::sample::subsequence(ATTRS.to_vec(), 0..3),
        proptest::sample::subsequence(ATTRS.to_vec(), 1..4),
    )
        .prop_map(|(lhs, rhs)| NullConstraint::ne("R", &lhs, &rhs))
}

/// A random total-equality constraint (single attribute pair).
fn te_strategy() -> impl Strategy<Value = NullConstraint> {
    (
        proptest::sample::select(ATTRS.to_vec()),
        proptest::sample::select(ATTRS.to_vec()),
    )
        .prop_map(|(a, b)| NullConstraint::te("R", &[a], &[b]))
}

/// Random rows over (A,B,C,D) with small values and nulls, repeats kept.
fn rows_strategy() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        proptest::array::uniform4(proptest::option::of(0i64..3)),
        0..12,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|r| {
                Tuple::new(
                    r.into_iter()
                        .map(|v| v.map_or(Value::Null, Value::Int))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    })
}

/// A random constraint of each of the four kinds (nulls-not-allowed is a
/// null-existence constraint with an empty left side).
fn null_constraint_strategy() -> impl Strategy<Value = NullConstraint> {
    let attrs = |size| proptest::sample::subsequence(ATTRS.to_vec(), size);
    prop_oneof![
        ne_strategy(),
        attrs(1..4).prop_map(|a| NullConstraint::ns("R", &a)),
        (attrs(1..3), attrs(1..3)).prop_map(|(g, h)| NullConstraint::pn("R", &[&g, &h])),
        te_strategy(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A null constraint holds on a relation exactly when it holds on the
    /// rows read where they lie, repeats included, and exactly when it
    /// holds on each row alone: every kind is a predicate on one tuple.
    #[test]
    fn null_constraint_forms_agree(
        c in null_constraint_strategy(),
        rows in rows_strategy(),
    ) {
        let relation = Relation::with_rows(header(), rows.clone()).expect("fits");
        let on_relation = c.satisfied_by(&relation).expect("known attributes");
        let on_rows = c.satisfied_by_rows(&header(), &rows).expect("known attributes");
        let each = rows
            .iter()
            .all(|t| c.satisfied_by_rows(&header(), [t]).expect("known attributes"));
        prop_assert_eq!(on_relation, on_rows);
        prop_assert_eq!(on_relation, each);
    }

    /// A relation stores each row once yet keeps set semantics: random
    /// insert / remove / contains / set-equality sequences over nullable
    /// tuples agree with a plain `Vec` that deduplicates linearly, in both
    /// membership and iteration order.
    #[test]
    fn relation_matches_a_vec_model(
        ops in proptest::collection::vec(relation_op_strategy(), 0..40),
    ) {
        let pair_header = || header()[..2].to_vec();
        let mut r = Relation::new(pair_header()).expect("header");
        let mut model: Vec<Tuple> = Vec::new();
        for (op, t, others) in ops {
            match op {
                0 => {
                    let new = !model.contains(&t);
                    if new {
                        model.push(t.clone());
                    }
                    prop_assert_eq!(r.insert(t).expect("fits"), new);
                }
                1 => {
                    let pos = model.iter().position(|m| *m == t);
                    if let Some(p) = pos {
                        model.remove(p);
                    }
                    prop_assert_eq!(r.remove(&t), pos.is_some());
                }
                2 => prop_assert_eq!(r.contains(&t), model.contains(&t)),
                _ => {
                    let other = Relation::with_rows(pair_header(), others.clone()).expect("fits");
                    let same = model.iter().all(|m| others.contains(m))
                        && others.iter().all(|o| model.contains(o));
                    prop_assert_eq!(r.set_eq(&other), same);
                    prop_assert_eq!(other.set_eq(&r), same);
                    prop_assert_eq!(r == other, same);
                }
            }
            prop_assert_eq!(r.rows(), model.as_slice());
            for m in &model {
                prop_assert!(r.contains(m));
            }
        }
    }

    /// Soundness of null-existence inference: anything `ne_implies`
    /// derives from a constraint set holds on every relation satisfying
    /// the set (the §3 claim that NE axioms mirror FD axioms).
    #[test]
    fn ne_inference_sound(
        constraints in proptest::collection::vec(ne_strategy(), 0..5),
        lhs in proptest::sample::subsequence(ATTRS.to_vec(), 0..3),
        rhs in proptest::sample::subsequence(ATTRS.to_vec(), 1..4),
        r in relation_strategy(),
    ) {
        let satisfies_all = constraints
            .iter()
            .all(|c| c.satisfied_by(&r).expect("check"));
        prop_assume!(satisfies_all);
        if ne_implies(&constraints, "R", &lhs, &rhs) {
            let derived = NullConstraint::ne("R", &lhs, &rhs);
            prop_assert!(
                derived.satisfied_by(&r).expect("check"),
                "derived {derived} fails on a satisfying relation"
            );
        }
    }

    /// Soundness of total-equality inference without non-null knowledge:
    /// only declared pairs, symmetry, and reflexivity may be derived
    /// (unrestricted transitivity is unsound with nulls — see the
    /// `total_equality_transitivity_counterexample` unit test).
    #[test]
    fn te_inference_sound(
        constraints in proptest::collection::vec(te_strategy(), 0..5),
        a in proptest::sample::select(ATTRS.to_vec()),
        b in proptest::sample::select(ATTRS.to_vec()),
        r in relation_strategy(),
    ) {
        let satisfies_all = constraints
            .iter()
            .all(|c| c.satisfied_by(&r).expect("check"));
        prop_assume!(satisfies_all);
        let closure = TotalEqualityClosure::new(&constraints, "R");
        if closure.equivalent(a, b) {
            let derived = NullConstraint::te("R", &[a], &[b]);
            prop_assert!(derived.satisfied_by(&r).expect("check"));
        }
    }

    /// Soundness of total-equality inference *with* non-null pivots: when
    /// the pivot attributes genuinely carry no nulls in the data, the
    /// transitive derivations hold.
    #[test]
    fn te_inference_sound_with_pivots(
        constraints in proptest::collection::vec(te_strategy(), 0..5),
        a in proptest::sample::select(ATTRS.to_vec()),
        b in proptest::sample::select(ATTRS.to_vec()),
        r in relation_strategy(),
    ) {
        let satisfies_all = constraints
            .iter()
            .all(|c| c.satisfied_by(&r).expect("check"));
        prop_assume!(satisfies_all);
        // Declare exactly the attributes that are in fact total in r.
        let pos: Vec<usize> = (0..ATTRS.len()).collect();
        let non_null: std::collections::BTreeSet<String> = ATTRS
            .iter()
            .enumerate()
            .filter(|(i, _)| r.iter().all(|t| !t.get(pos[*i]).is_null()))
            .map(|(_, n)| (*n).to_owned())
            .collect();
        let closure =
            TotalEqualityClosure::new_with_non_null(&constraints, "R", &non_null);
        if closure.equivalent(a, b) {
            let derived = NullConstraint::te("R", &[a], &[b]);
            prop_assert!(derived.satisfied_by(&r).expect("check"));
        }
    }

    /// FD implication is sound on data: if `implies` says X → Y follows
    /// from a set, then any relation satisfying the set satisfies X → Y.
    #[test]
    fn fd_implication_sound(
        fd_pairs in proptest::collection::vec(
            (
                proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
                proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
            ),
            0..4,
        ),
        lhs in proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
        rhs in proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
        r in relation_strategy(),
    ) {
        let mut set = FdSet::new();
        for (l, rr) in &fd_pairs {
            set.push(Fd::new("R", l, rr));
        }
        let satisfies_all = set
            .fds()
            .iter()
            .all(|f| f.satisfied_by(&r).expect("check"));
        prop_assume!(satisfies_all);
        let target = Fd::new("R", &lhs, &rhs);
        if set.implies(&target) {
            prop_assert!(target.satisfied_by(&r).expect("check"));
        }
    }

    /// Null-sync constraints are exactly equivalent to their expansion
    /// into null-existence constraints, on arbitrary data.
    #[test]
    fn ns_expansion_equivalent(
        attrs in proptest::sample::subsequence(ATTRS.to_vec(), 1..4),
        r in relation_strategy(),
    ) {
        let ns = NullConstraint::ns("R", &attrs);
        let direct = ns.satisfied_by(&r).expect("check");
        let expanded = ns
            .expand()
            .iter()
            .all(|c| c.satisfied_by(&r).expect("check"));
        prop_assert_eq!(direct, expanded);
    }

    /// Projection then projection equals one projection (π_{W}(π_{V}(r)) =
    /// π_{W}(r) when W ⊆ V).
    #[test]
    fn projection_composes(r in relation_strategy()) {
        let once = algebra::project(&r, &["A", "B"]).expect("project");
        let twice = algebra::project(
            &algebra::project(&r, &["A", "B", "C"]).expect("project"),
            &["A", "B"],
        )
        .expect("project");
        prop_assert!(once.set_eq(&twice));
    }

    /// Total projection refines projection: π↓ ⊆ π, and equals π exactly
    /// when no projected subtuple contains nulls.
    #[test]
    fn total_projection_refines(r in relation_strategy()) {
        let plain = algebra::project(&r, &["A", "C"]).expect("project");
        let total = algebra::total_project(&r, &["A", "C"]).expect("project");
        for t in total.iter() {
            prop_assert!(plain.contains(t));
            prop_assert!(t.is_total());
        }
        let any_nulls = plain.iter().any(|t| !t.is_total());
        prop_assert_eq!(!any_nulls, total.set_eq(&plain));
    }

    /// Armstrong relations are exact: for random FD sets, a candidate
    /// dependency is satisfied by the Armstrong relation iff it is implied.
    #[test]
    fn armstrong_relations_exact(
        fd_pairs in proptest::collection::vec(
            (
                proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
                proptest::sample::subsequence(ATTRS.to_vec(), 1..3),
            ),
            0..5,
        ),
        lhs in proptest::sample::subsequence(ATTRS.to_vec(), 1..4),
        rhs in proptest::sample::subsequence(ATTRS.to_vec(), 1..4),
    ) {
        let mut set = FdSet::new();
        for (l, r) in &fd_pairs {
            set.push(Fd::new("R", l, r));
        }
        let armstrong =
            relmerge_relational::theory::armstrong_relation(&set, "R", &ATTRS).expect("build");
        let candidate = Fd::new("R", &lhs, &rhs);
        prop_assert_eq!(
            candidate.satisfied_by(&armstrong).expect("check"),
            set.implies(&candidate)
        );
    }

    /// Equi-join is contained in the outer-equi-join, and the outer join's
    /// cardinality is bounded by |inner| + |l| + |r|.
    #[test]
    fn join_containment(l in relation_strategy(), r in relation_strategy()) {
        // Rename r's columns to keep headers disjoint.
        let fresh: Vec<Attribute> = ["E", "F", "G", "H"]
            .iter()
            .map(|a| Attribute::new(*a, Domain::Int))
            .collect();
        let r = algebra::rename(&r, &ATTRS, &fresh).expect("rename");
        let on = [("A", "E")];
        let inner = algebra::equi_join(&l, &r, &on).expect("join");
        let outer = algebra::outer_equi_join(&l, &r, &on).expect("join");
        for t in inner.iter() {
            prop_assert!(outer.contains(t));
        }
        prop_assert!(outer.len() <= inner.len() + l.len() + r.len());
        prop_assert!(outer.len() >= inner.len());
    }
}
