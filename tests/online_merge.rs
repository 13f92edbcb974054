//! Whole-system property test for the online migration path: for a random
//! star schema, a random consistent state, and a random tolerated DML
//! history, `Database::migrate` must land the live database byte-identical
//! — state and per-query `QueryStats`, at every worker count — to a fresh
//! database built on the merged schema from the η-mapped state; capacity
//! must be preserved (Propositions 4.1/4.2); and every injected migration
//! fault must abort with a typed error, verify clean, and roll back
//! byte-identical to the pre-migration snapshot without poisoning the
//! database for a later, clean migration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::core::{check_both, check_proposition_4_1, Advisor, AdvisorConfig, Merge, Merged};
use relmerge::engine::fault::site;
use relmerge::engine::{
    Database, DbmsProfile, FaultMode, FaultPlan, JoinStep, QueryPlan, Statement,
};
use relmerge::relational::{
    Attribute, Domain, Error, InclusionDep, NullConstraint, RelationScheme, RelationalSchema,
    Tuple, Value,
};
use relmerge::workload::{
    consistent_state, generate_university, star_merge_set, star_schema, StarSpec, StateSpec,
    UniversitySpec,
};

/// One step of the random DML history. Every field is interpreted
/// modulo the generated schema's actual shape, and statements the
/// constraints reject are simply skipped — rejection is part of the
/// randomness, not a failure.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert a fresh ROOT row (keys drawn from a disjoint range).
    InsertRoot(i64),
    /// Insert a satellite row keyed by an existing-or-not root key.
    InsertSat(usize, i64),
    /// Delete a satellite row by key (no-op when absent).
    DeleteSat(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..32i64).prop_map(|k| Op::InsertRoot(10_000 + k)),
        (any::<usize>(), 0..64i64).prop_map(|(s, k)| Op::InsertSat(s, k)),
        (any::<usize>(), 0..64i64).prop_map(|(s, k)| Op::DeleteSat(s, k)),
    ]
}

/// Builds the live database: schema + generated state + the DML history,
/// applied one tolerated statement at a time.
fn build_live(
    schema: &relmerge::relational::RelationalSchema,
    state: &relmerge::relational::DatabaseState,
    history: &[Op],
    spec: &StarSpec,
    root_rows: usize,
) -> Database {
    let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).unwrap();
    db.load_state(state).unwrap();
    for op in history {
        let stmt = match *op {
            Op::InsertRoot(k) => Statement::insert("ROOT", Tuple::new([Value::Int(k)])),
            Op::InsertSat(s, k) => {
                let s = s % spec.satellites;
                // Map into (roughly) the generated root-key range so some
                // inserts land and some violate the IND or the key.
                let key = 1 + (k % (2 * root_rows as i64));
                let mut vals = vec![Value::Int(key)];
                for j in 0..spec.non_key_attrs {
                    vals.push(Value::Int(key + 100 + j as i64));
                }
                Statement::insert(format!("S{s}"), Tuple::new(vals))
            }
            Op::DeleteSat(s, k) => {
                let s = s % spec.satellites;
                let key = 1 + (k % (2 * root_rows as i64));
                Statement::delete(format!("S{s}"), Tuple::new([Value::Int(key)]))
            }
        };
        let _ = db.apply_batch(&[stmt]);
    }
    db
}

/// The replay queries both sides must answer identically: a full scan of
/// the merged relation and point lookups across present and absent keys.
fn replay_queries(root_rows: usize) -> Vec<QueryPlan> {
    let mut qs = vec![QueryPlan::scan("M")];
    for k in [1, 2, root_rows as i64, 10_005, 999_999] {
        qs.push(QueryPlan::lookup(
            "M",
            &["ROOT.K"],
            Tuple::new([Value::Int(k)]),
        ));
    }
    qs
}

/// Plans the full star merge with every removable key removed.
fn star_plan(schema: &relmerge::relational::RelationalSchema, spec: &StarSpec) -> Merged {
    let members = star_merge_set(spec);
    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
    let mut plan = Merge::plan(schema, &refs, "M").unwrap();
    plan.remove_all_removable().unwrap();
    plan
}

/// A scan-only workload pays for its joins too: each chain scan probes
/// OFFER once per course and TEACH and ASSIST once per offered course, so
/// the hot-join report charges every edge and the advisor merges the
/// COURSE chain.
#[test]
fn advisor_merges_the_chain_a_scan_workload_pays_for() {
    let mut rng = StdRng::seed_from_u64(42);
    let spec = UniversitySpec {
        courses: 500,
        ..UniversitySpec::default()
    };
    let u = generate_university(&spec, &mut rng).unwrap();
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal()).unwrap();
    db.load_state(&u.state).unwrap();
    let chain = QueryPlan::scan("COURSE")
        .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
        .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
        .join(JoinStep::outer("ASSIST", &["O.C.NR"], &["A.C.NR"]));
    let mut probes = 0;
    for _ in 0..20 {
        let (_, stats) = db.execute(&chain).unwrap();
        assert_eq!(stats.hash_builds, 0, "every chain join is covered");
        probes += stats.index_probes;
    }
    let hot = relmerge::obs::report(&db.profile_snapshot());
    assert_eq!(hot.len(), 3, "{hot:?}");
    assert!(hot.iter().all(|h| h.cumulative_cost > 0), "{hot:?}");
    assert_eq!(hot.iter().map(|h| h.index_probes).sum::<u64>(), probes);

    let applied = db
        .advise_and_migrate(&Advisor::new(AdvisorConfig::permissive()))
        .unwrap();
    assert_eq!(applied.len(), 1, "{applied:?}");
    let mut members = applied[0].proposal.members.clone();
    members.sort();
    assert_eq!(members, ["ASSIST", "COURSE", "OFFER", "TEACH"]);
    assert_eq!(applied[0].proposal.observed_cost, probes);
    assert!(db.verify_integrity().is_clean());
}

/// Two disjoint stars, `A ← A1` and `B ← B1`, ten rows in each relation.
fn two_stars() -> Database {
    let int = |name: &str| Attribute::new(name, Domain::Int);
    let mut rs = RelationalSchema::new();
    for (root, sat) in [("A", "A1"), ("B", "B1")] {
        let (rk, sk, sv) = (format!("{root}.K"), format!("{sat}.K"), format!("{sat}.V"));
        rs.add_scheme(RelationScheme::new(root, vec![int(&rk)], &[&rk]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new(sat, vec![int(&sk), int(&sv)], &[&sk]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna(root, &[&rk]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna(sat, &[&sk, &sv]))
            .unwrap();
        rs.add_ind(InclusionDep::new(sat, &[&sk], root, &[&rk]))
            .unwrap();
    }
    let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
    for k in 0..10 {
        for (root, sat) in [("A", "A1"), ("B", "B1")] {
            db.insert(root, Tuple::new([Value::Int(k)])).unwrap();
            db.insert(sat, Tuple::new([Value::Int(k), Value::Int(k * 10)]))
                .unwrap();
        }
    }
    db
}

/// Of two mergeable stars, only the one the workload joins migrates, and
/// the migrations are exactly `Advisor::apply_proposals`' selection over
/// the same observed proposals.
#[test]
fn advise_and_migrate_merges_only_the_hot_star() {
    let mut db = two_stars();
    let hot = QueryPlan::scan("A1").join(JoinStep::inner("A", &["A1.K"], &["A.K"]));
    for _ in 0..4 {
        db.execute(&hot).unwrap();
    }
    let advisor = Advisor::new(AdvisorConfig::permissive());
    let proposals = advisor
        .propose_from_profile(&db.profile_snapshot(), db.schema())
        .unwrap();
    assert_eq!(
        proposals.len(),
        2,
        "both stars are candidates: {proposals:?}"
    );
    let observed: Vec<_> = proposals
        .into_iter()
        .filter(|p| p.observed_cost > 0)
        .collect();
    let (schema, selected) = advisor.apply_proposals(db.schema(), &observed).unwrap();

    let migrated = db.advise_and_migrate(&advisor).unwrap();
    assert_eq!(migrated.len(), 1, "{migrated:?}");
    assert_eq!(migrated[0].proposal.members, ["A", "A1"]);
    assert_eq!(migrated.len(), selected.len());
    for (m, s) in migrated.iter().zip(&selected) {
        assert_eq!(m.proposal, s.proposal);
        assert_eq!(m.report.merged_name, s.merged_name);
    }
    assert_eq!(*db.schema(), schema);
    assert!(db.schema().scheme("B").is_some() && db.schema().scheme("B1").is_some());
    assert!(db.verify_integrity().is_clean());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn migrate_then_replay_is_byte_identical(
        satellites in 1usize..=4,
        non_key_attrs in 0usize..=2,
        root_rows in 4usize..=20,
        coverage in 0.2f64..=1.0,
        seed in 0u64..1_000,
        history in proptest::collection::vec(op_strategy(), 0..24),
    ) {
        let spec = StarSpec { satellites, non_key_attrs, externals: 0 };
        let schema = star_schema(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = consistent_state(&schema, &StateSpec { root_rows, coverage }, &mut rng).unwrap();
        let plan = star_plan(&schema, &spec);

        let mut live = build_live(&schema, &state, &history, &spec, root_rows);
        let pre = live.snapshot().unwrap();
        prop_assert!(check_proposition_4_1(&plan, &pre).unwrap());

        live.migrate(&plan).unwrap();
        let post = live.snapshot().unwrap();
        prop_assert!(check_both(&plan, &pre, &post).unwrap().holds());

        // The fresh twin: a database born on the merged schema, loaded
        // with the η-mapped state. The migrated live database must be
        // indistinguishable from it.
        let mut fresh = Database::new(plan.schema().clone(), DbmsProfile::ideal()).unwrap();
        fresh.load_state(&plan.apply(&pre).unwrap()).unwrap();
        prop_assert_eq!(&post, &fresh.snapshot().unwrap());
        prop_assert!(live.verify_integrity().is_clean());

        for w in [1usize, 2, 4] {
            live.configure(live.config().parallelism(w));
            fresh.configure(fresh.config().parallelism(w));
            for q in replay_queries(root_rows) {
                let (r_live, s_live) = live.execute(&q).unwrap();
                let (r_fresh, s_fresh) = fresh.execute(&q).unwrap();
                prop_assert_eq!(&r_live, &r_fresh, "workers {} plan {:?}", w, q);
                prop_assert_eq!(s_live, s_fresh, "workers {} plan {:?}", w, q);
            }
        }
    }

    #[test]
    fn injected_migration_faults_roll_back_byte_identical(
        satellites in 1usize..=3,
        non_key_attrs in 0usize..=2,
        root_rows in 4usize..=16,
        coverage in 0.2f64..=1.0,
        seed in 0u64..1_000,
        history in proptest::collection::vec(op_strategy(), 0..16),
    ) {
        let spec = StarSpec { satellites, non_key_attrs, externals: 0 };
        let schema = star_schema(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let state = consistent_state(&schema, &StateSpec { root_rows, coverage }, &mut rng).unwrap();
        let plan = star_plan(&schema, &spec);

        for &s in site::MIGRATION {
            for mode in [FaultMode::Error, FaultMode::Panic] {
                let mut db = build_live(&schema, &state, &history, &spec, root_rows);
                let pre = db.snapshot().unwrap();
                let armed = db.set_fault_plan(FaultPlan::new().fail_at(s, 0, mode));
                let outcome = db.migrate(&plan);
                prop_assert!(armed.total_fired() > 0, "site {} must arrive", s);
                prop_assert!(
                    matches!(outcome, Err(Error::Injected { .. } | Error::ExecutionPanic { .. })),
                    "site {} mode {:?}: {:?}", s, mode, outcome
                );
                db.clear_fault_plan();
                prop_assert!(db.verify_integrity().is_clean());
                prop_assert_eq!(&db.snapshot().unwrap(), &pre, "site {} mode {:?}", s, mode);
                // The aborted database is not poisoned: the same migration
                // succeeds once the fault is gone, and matches the twin.
                db.migrate(&plan).unwrap();
                let mut fresh = Database::new(plan.schema().clone(), DbmsProfile::ideal()).unwrap();
                fresh.load_state(&plan.apply(&pre).unwrap()).unwrap();
                prop_assert_eq!(&db.snapshot().unwrap(), &fresh.snapshot().unwrap());
            }
        }
    }
}
