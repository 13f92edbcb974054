//! Whole-system property tests for the predicate optimizer and
//! cross-operator pushdown: on random predicate trees (with null literals
//! and null-padded rows) the optimized form must agree with the original
//! row-by-row; every execution must return the answer of the filter
//! evaluated at the top of the unfiltered plan (`filter_at_top`), while
//! never scanning or probing more than that plan; and an injected fault at `engine.query.pushdown` must fail the
//! query typed, leaving the state and the build cache untouched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relmerge::engine::fault::site;
use relmerge::engine::{
    optimize, Database, DbmsProfile, FaultMode, FaultPlan, JoinStep, Optimized, Predicate,
    QueryPlan, QueryStats, QueryTrace,
};
use relmerge::relational::{
    Attribute, Domain, Error, InclusionDep, NullConstraint, Relation, RelationScheme,
    RelationalSchema, Tuple, Value,
};
use relmerge::workload::{
    consistent_state, generate_university, star_schema, StarSpec, StateSpec, UniversitySpec,
};

/// The reference a pushed-down filter must match: `plan` run without its
/// filter, keeping the answer rows the filter matches, in order, with the
/// unfiltered run's stats and trace. For unprojected plans: the filter
/// compiles against the answer's header.
fn filter_at_top(db: &Database, plan: &QueryPlan) -> (Relation, QueryStats, QueryTrace) {
    let unfiltered = QueryPlan {
        filter: None,
        ..plan.clone()
    };
    let (all, stats, trace) = db
        .execute_traced(&unfiltered)
        .expect("unfiltered execution");
    let Some(filter) = &plan.filter else {
        return (all, stats, trace);
    };
    let cp = filter
        .compile(all.header())
        .expect("filter over the answer's header");
    let kept = all.iter().filter(|t| cp.matches(t.values())).cloned();
    let answer = Relation::with_rows(all.header().to_vec(), kept).expect("answer rows");
    (answer, stats, trace)
}

/// A random predicate tree over `attrs`: leaves mix equality against small
/// integers, equality against the null literal, and null tests; inner
/// nodes mix conjunction, disjunction, and negation.
fn random_pred(rng: &mut StdRng, attrs: &[String], depth: usize) -> Predicate {
    if depth == 0 || rng.gen_bool(0.35) {
        let a = attrs[rng.gen_range(0..attrs.len())].clone();
        match rng.gen_range(0..5) {
            0 | 1 => Predicate::eq(a, Value::Int(rng.gen_range(-2i64..12))),
            2 => Predicate::eq(a, Value::Null),
            3 => Predicate::is_null(a),
            _ => Predicate::not_null(a),
        }
    } else {
        let l = random_pred(rng, attrs, depth - 1);
        match rng.gen_range(0..4) {
            0 => l.and(random_pred(rng, attrs, depth - 1)),
            1 => l.or(random_pred(rng, attrs, depth - 1)),
            2 => l.negate(),
            _ => l.and(random_pred(rng, attrs, depth - 1)).negate(),
        }
    }
}

/// A random value row over `width` columns, with nulls.
fn random_row(rng: &mut StdRng, width: usize) -> Vec<Value> {
    (0..width)
        .map(|_| {
            if rng.gen_bool(0.3) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-2i64..12))
            }
        })
        .collect()
}

/// ROOT and the attributes visible after joining every satellite.
fn star_attrs(satellites: usize, non_key: usize) -> Vec<String> {
    let mut v = vec!["ROOT.K".to_owned()];
    for s in 0..satellites {
        v.push(format!("S{s}.K"));
        for j in 0..non_key {
            v.push(format!("S{s}.V{j}"));
        }
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `optimize` is semantics-preserving: over random trees and random
    /// rows (nulls included), the optimized predicate agrees with the
    /// original on every row — the classical-rewrite soundness the
    /// pushdown partition relies on.
    #[test]
    fn optimize_preserves_row_semantics(seed in any::<u64>(), width in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let header: Vec<Attribute> = (0..width)
            .map(|i| Attribute::new(format!("A{i}"), Domain::Int))
            .collect();
        let attrs: Vec<String> = header.iter().map(|a| a.name().to_owned()).collect();
        for _ in 0..8 {
            let p = random_pred(&mut rng, &attrs, 4);
            let original = p.compile(&header).expect("known attrs");
            let optimized: std::result::Result<_, bool> = match optimize(&p) {
                Optimized::Always(b) => Err(b),
                Optimized::Pred(q) => Ok(q.compile(&header).expect("optimize keeps attrs")),
            };
            for _ in 0..32 {
                let row = random_row(&mut rng, width);
                let want = original.matches(&row);
                let got = match &optimized {
                    Ok(cp) => cp.matches(&row),
                    Err(b) => *b,
                };
                prop_assert_eq!(got, want, "optimize changed semantics of {:?} on {:?}", p, row);
            }
        }
    }

    /// Pushdown returns the filter at the top's answer, and it never
    /// scans, nor scans and probes, more than the unfiltered plan.
    #[test]
    fn pushdown_equivalent_and_counters_monotone(
        satellites in 1usize..4,
        rows in 1usize..24,
        coverage in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let spec = StarSpec { satellites, non_key_attrs: 2, externals: 0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = star_schema(&spec);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage },
            &mut rng,
        ).expect("state");
        let attrs = star_attrs(satellites, 2);

        for _ in 0..4 {
            let mut plan = QueryPlan::scan("ROOT");
            for s in 0..satellites {
                let rel = format!("S{s}");
                let key = format!("{rel}.K");
                let step = if rng.gen_bool(0.5) {
                    JoinStep::outer(&rel, &["ROOT.K"], &[key.as_str()])
                } else {
                    JoinStep::inner(&rel, &["ROOT.K"], &[key.as_str()])
                };
                plan = plan.join(step);
            }
            let plan = plan.filter(random_pred(&mut rng, &attrs, 3));

            let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).expect("db");
            db.load_state(&state).expect("load");
            let (want, top_stats, _) = filter_at_top(&db, &plan);
            let (on_rel, on_stats) = db.execute(&plan).expect("execution");
            prop_assert_eq!(&on_rel, &want, "pushdown changed the answer");
            prop_assert!(
                on_stats.rows_scanned <= top_stats.rows_scanned,
                "pushdown increased scans: {} > {}",
                on_stats.rows_scanned, top_stats.rows_scanned
            );
            prop_assert!(
                on_stats.rows_scanned + on_stats.index_probes
                    <= top_stats.rows_scanned + top_stats.index_probes,
                "pushdown increased scan+probe work"
            );
        }
    }

    /// An inner step's indexed `Eq` may drive the root (the semi-join
    /// reduction): every answer must still be the filter at the top's, row
    /// for row in the scan's order (`Relation`'s `==` is set equality, so
    /// the rows are compared as slices too), and never scan, nor scan and
    /// probe, more. With externals every `S{i}.V{j}` references one, so it
    /// carries a lookup index; the filters draw `Eq`s on those attributes
    /// and on `S{i}.K` from the stored values (and some misses), some
    /// beside a random predicate, under random inner/outer join mixes.
    /// Root rows appended after the load carry keys below every loaded one
    /// and copy stored satellite values, so a reduced root's key order is
    /// not its slot order.
    #[test]
    fn semi_join_reduction_keeps_answers_and_their_order(
        satellites in 1usize..4,
        rows in 1usize..32,
        coverage in 0.0f64..=1.0,
        appended in 0i64..4,
        seed in any::<u64>(),
    ) {
        let spec = StarSpec { satellites, non_key_attrs: 2, externals: 2 };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = star_schema(&spec);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage },
            &mut rng,
        ).expect("state");
        let mut db = Database::new(schema, DbmsProfile::ideal()).expect("db");
        db.load_state(&state).expect("load");
        let stored = |db: &Database, rel: &str| {
            db.execute(&QueryPlan::scan(rel)).expect("scan").0.rows().to_vec()
        };
        for n in 1..=appended {
            let key = Value::Int(-n);
            db.insert("ROOT", Tuple::new(vec![key.clone()])).expect("root row");
            for s in 0..satellites {
                let rel = format!("S{s}");
                let rows = stored(&db, &rel);
                if let Some(row) = rows.get(rng.gen_range(0..rows.len().max(1))) {
                    let mut values = row.values().to_vec();
                    values[0] = key.clone();
                    db.insert(&rel, Tuple::new(values)).expect("satellite row");
                }
            }
        }
        let attrs = star_attrs(satellites, 2);

        for _ in 0..6 {
            let mut plan = QueryPlan::scan("ROOT");
            for s in 0..satellites {
                let rel = format!("S{s}");
                let key = format!("{rel}.K");
                plan = plan.join(if rng.gen_bool(0.3) {
                    JoinStep::outer(&rel, &["ROOT.K"], &[key.as_str()])
                } else {
                    JoinStep::inner(&rel, &["ROOT.K"], &[key.as_str()])
                });
            }
            // Mostly one `Eq`, on a satellite's key or an indexed value,
            // its literal a stored value of that attribute or a miss.
            let mut conjuncts = Vec::new();
            for _ in 0..if rng.gen_bool(0.15) { 2 } else { 1 } {
                let rel = format!("S{}", rng.gen_range(0..satellites));
                let col = rng.gen_range(0..3);
                let attr = if col == 0 { format!("{rel}.K") } else { format!("{rel}.V{}", col - 1) };
                let rows = stored(&db, &rel);
                let literal = match rows.get(rng.gen_range(0..rows.len().max(1))) {
                    Some(row) if rng.gen_bool(0.85) => row.get(col).clone(),
                    _ => Value::Int(-1000),
                };
                conjuncts.push(Predicate::eq(attr, literal));
            }
            if rng.gen_bool(0.3) {
                conjuncts.push(random_pred(&mut rng, &attrs, 2));
            }
            let filter = conjuncts.into_iter().reduce(Predicate::and).expect("a conjunct");
            let plan = plan.filter(filter);

            let (want, top_stats, _) = filter_at_top(&db, &plan);
            let (on_rel, on_stats, trace) = db.execute_traced(&plan).expect("execution");
            prop_assert_eq!(on_rel.rows(), want.rows(), "rows or their order moved");
            prop_assert_eq!(&on_rel, &want, "the reduction changed the answer");
            prop_assert_eq!(trace.totals(), on_stats);
            prop_assert!(
                on_stats.rows_scanned <= top_stats.rows_scanned,
                "the reduction increased scans: {} > {}",
                on_stats.rows_scanned, top_stats.rows_scanned
            );
            prop_assert!(
                on_stats.rows_scanned + on_stats.index_probes
                    <= top_stats.rows_scanned + top_stats.index_probes,
                "the reduction increased scan+probe work"
            );
        }
    }

    /// An injected error or panic at `engine.query.pushdown` fails the
    /// query typed before any row is read: the state and the build cache
    /// stay untouched (S1 joins on its unindexed `S1.V0`, so a run that
    /// reached that join would cache a build), and the next execution
    /// returns the filter at the top's answer.
    #[test]
    fn pushdown_fault_fails_the_query_typed(
        rows in 1usize..24,
        seed in any::<u64>(),
    ) {
        let spec = StarSpec { satellites: 2, non_key_attrs: 1, externals: 0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = star_schema(&spec);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage: 0.7 },
            &mut rng,
        ).expect("state");
        let plan = QueryPlan::scan("ROOT")
            .join(JoinStep::outer("S0", &["ROOT.K"], &["S0.K"]))
            .join(JoinStep::inner("S1", &["ROOT.K"], &["S1.V0"]))
            .filter(random_pred(&mut rng, &star_attrs(2, 1), 3));

        for mode in [FaultMode::Error, FaultMode::Panic] {
            let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).expect("db");
            db.load_state(&state).expect("load");
            let pre = db.snapshot().expect("snapshot");
            let armed = db.set_fault_plan(FaultPlan::new().fail_at(site::PUSHDOWN, 0, mode));
            let err = db.execute(&plan).expect_err("a fire fails the query");
            prop_assert_eq!(armed.fired(site::PUSHDOWN), 1, "site never armed ({:?})", mode);
            prop_assert!(
                matches!(err, Error::Injected { .. } | Error::ExecutionPanic { .. }),
                "untyped failure ({:?}): {:?}", mode, err
            );
            prop_assert_eq!(db.build_cache_len(), 0, "a failed query cached a build ({:?})", mode);
            prop_assert!(db.snapshot().expect("snapshot") == pre, "state moved ({:?})", mode);
            prop_assert!(db.verify_integrity().is_clean(), "unclean audit ({:?})", mode);
            // The armed shot is spent: the next execution succeeds.
            let (again, _) = db.execute(&plan).expect("clean re-execution");
            let (want, _, _) = filter_at_top(&db, &plan);
            prop_assert_eq!(&again, &want);
        }
    }
}

/// An inner step whose pushed conjunct keeps no right row proves the
/// stream empty, so the next step — a join no index covers — skips its
/// build, and no morsel runs. The unfiltered plan builds, and the pushed
/// run returns the filter at the top's answer. A conjunct that keeps some
/// rows keeps the build and probes C1 once per C0 row.
#[test]
fn pushed_conjunct_keeping_no_row_skips_the_next_build() {
    let a = |n: &str| Attribute::new(n, Domain::Int);
    let mut rs = RelationalSchema::new();
    rs.add_scheme(RelationScheme::new("C0", vec![a("A.K")], &["A.K"]).unwrap())
        .unwrap();
    rs.add_scheme(RelationScheme::new("C1", vec![a("B.K"), a("B.V")], &["B.K"]).unwrap())
        .unwrap();
    rs.add_scheme(RelationScheme::new("C2", vec![a("D.K"), a("D.V")], &["D.K"]).unwrap())
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("C0", &["A.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("C1", &["B.K", "B.V"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("C2", &["D.K", "D.V"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("C1", &["B.K"], "C0", &["A.K"]))
        .unwrap();
    let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
    for k in 0..100i64 {
        db.insert("C0", Tuple::new(vec![Value::Int(k)])).unwrap();
        db.insert("C1", Tuple::new(vec![Value::Int(k), Value::Int(k % 10)]))
            .unwrap();
        db.insert("C2", Tuple::new(vec![Value::Int(k), Value::Int(k)]))
            .unwrap();
    }
    let label_of = |trace: &relmerge::engine::QueryTrace, rel: &str| {
        trace
            .ops
            .iter()
            .find(|op| op.label.contains(rel))
            .map(|op| op.label.clone())
            .unwrap_or_default()
    };
    // B.V = 3 keeps 10 C1 rows; B.V = 99 keeps none. C1 is joined on its
    // key and C2 on the uncovered D.V.
    for (value, rows, on_builds, on_probes, on_morsels) in [(3i64, 10, 1, 100, 1), (99, 0, 0, 0, 0)]
    {
        let plan = QueryPlan::scan("C0")
            .join(JoinStep::inner("C1", &["A.K"], &["B.K"]))
            .join(JoinStep::inner("C2", &["B.K"], &["D.V"]))
            .filter(Predicate::eq("B.V", Value::Int(value)));
        let (top_rel, top_stats, top_trace) = filter_at_top(&db, &plan);
        let (on_rel, on_stats, on_trace) = db.execute_traced(&plan).unwrap();

        assert_eq!(
            on_rel, top_rel,
            "B.V = {value}: pushdown changed the result"
        );
        assert_eq!(on_rel.len(), rows);
        assert_eq!(
            top_stats.hash_builds, 1,
            "B.V = {value}: the unfiltered plan builds"
        );
        assert_eq!(on_stats.hash_builds, on_builds, "B.V = {value}");
        assert_eq!(on_stats.index_probes, on_probes, "B.V = {value}");
        assert_eq!(on_stats.morsels, on_morsels, "B.V = {value}");
        assert_eq!(on_trace.totals(), on_stats, "B.V = {value}");
        assert_eq!(on_stats.rows_scanned, 100 + 100 * on_builds);
        let c2 = label_of(&on_trace, "C2");
        let verb = if on_builds == 0 {
            "Join C2"
        } else {
            "HashJoin C2"
        };
        assert!(c2.starts_with(verb), "B.V = {value}: {c2}");
        assert!(label_of(&top_trace, "C2").starts_with("HashJoin C2"));
        assert!(
            label_of(&on_trace, "C1").contains("[pushed]"),
            "C1 must carry the pushed conjunct: {}",
            label_of(&on_trace, "C1")
        );
    }
    // Only an inner step can empty the stream: under an outer join the
    // unmatched C0 rows survive null-padded, so C2 still builds.
    let plan = QueryPlan::scan("C0")
        .join(JoinStep::outer("C1", &["A.K"], &["B.K"]))
        .join(JoinStep::inner("C2", &["B.K"], &["D.V"]))
        .filter(Predicate::eq("B.V", Value::Int(99)));
    let (rel, stats) = db.execute(&plan).unwrap();
    assert!(rel.is_empty());
    assert_eq!(stats.hash_builds, 1);
}

/// `COURSE ⋈ TEACH` filtered on `T.F.SSN IS NULL` over the 10,000-course
/// university: `T.F.SSN` is NNA, so the pushed conjunct keeps no TEACH row
/// and the stream is proved empty before the first morsel. No morsel runs
/// and TEACH is never probed (10 morsels and 10,000 probes when every
/// course ran through the join); the root scan stays, and the proof's
/// read of every TEACH row counts on `engine.query.empty_check_rows`, not
/// in the stats.
#[test]
fn a_stream_proved_empty_runs_no_morsel() {
    let spec = UniversitySpec {
        courses: 10_000,
        ..UniversitySpec::default()
    };
    let u = generate_university(&spec, &mut StdRng::seed_from_u64(7)).expect("university");
    let mut db = Database::new(u.schema, DbmsProfile::ideal()).expect("database");
    db.load_state(&u.state).expect("load");
    let plan = QueryPlan::scan("COURSE")
        .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
        .filter(Predicate::is_null("T.F.SSN"));
    let empty_check_rows = || {
        db.metrics_registry()
            .counter("engine.query.empty_check_rows")
            .get()
    };
    let before = empty_check_rows();
    let (rel, stats, trace) = db.execute_traced(&plan).expect("query");
    assert_eq!(empty_check_rows() - before, db.len("TEACH") as u64);
    assert!(rel.is_empty());
    assert_eq!(stats.rows_scanned, 10_000, "the root scan stays");
    assert_eq!(stats.index_probes, 0, "TEACH is never probed");
    assert_eq!(stats.morsels, 0);
    assert_eq!(trace.totals(), stats);
    let (top_rel, top_stats, _) = filter_at_top(&db, &plan);
    assert_eq!(rel, top_rel);
    assert_eq!(top_stats.index_probes, 10_000);
}

/// A pushed root `Eq` on an indexed attribute upgrades the full scan to an
/// index point-lookup, visible in the trace and in the scan counter.
#[test]
fn pushed_root_eq_upgrades_scan_to_lookup() {
    let spec = StarSpec {
        satellites: 1,
        non_key_attrs: 1,
        externals: 0,
    };
    let schema = star_schema(&spec);
    let mut rng = StdRng::seed_from_u64(7);
    let state = consistent_state(
        &schema,
        &StateSpec {
            root_rows: 20,
            coverage: 1.0,
        },
        &mut rng,
    )
    .expect("state");
    let mut db = Database::new(schema, DbmsProfile::ideal()).unwrap();
    db.load_state(&state).unwrap();
    let key = {
        let (all, _) = db.execute(&QueryPlan::scan("ROOT")).unwrap();
        all.rows().first().expect("nonempty root").get(0).clone()
    };
    let plan = QueryPlan::scan("ROOT")
        .join(JoinStep::outer("S0", &["ROOT.K"], &["S0.K"]))
        .filter(Predicate::eq("ROOT.K", key).and(Predicate::not_null("S0.V0")));

    let (top_rel, top_stats, _) = filter_at_top(&db, &plan);
    let (on_rel, on_stats, trace) = db.execute_traced(&plan).unwrap();

    assert_eq!(on_rel, top_rel);
    assert!(
        trace.ops[0].label.contains("(pushed Eq)"),
        "root access must be the upgraded lookup: {}",
        trace.ops[0].label
    );
    assert!(
        top_stats.rows_scanned >= 20,
        "the unfiltered plan scans the root"
    );
    assert_eq!(
        on_stats.rows_scanned, 0,
        "upgraded root access must not scan"
    );
    assert!(
        on_stats.rows_scanned + on_stats.index_probes
            <= top_stats.rows_scanned + top_stats.index_probes,
        "upgrade must not increase total access work"
    );
    let snap = db.metrics_registry().snapshot();
    assert!(snap.counters["engine.query.pushed_conjuncts"] >= 2);
}
