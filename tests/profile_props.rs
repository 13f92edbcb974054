//! Whole-system property tests for the workload profiler: on random star
//! schemas carrying random consistent states, the per-fingerprint
//! aggregated totals must equal the sum of the individual
//! [`QueryStats`] of the executions they fold, exactly, and the plan
//! fingerprint must be stable under predicate-order permutation and
//! re-parenthesization.
//!
//! [`QueryStats`]: relmerge::engine::QueryStats

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::engine::{Database, DbmsProfile, JoinStep, Predicate, QueryPlan, QueryStats};
use relmerge::obs::{ProfileSnapshot, QueryCost};
use relmerge::relational::{DatabaseState, RelationalSchema, Tuple, Value};
use relmerge::workload::{consistent_state, star_schema, StarSpec, StateSpec};

/// The stat fields a profiler total must reproduce exactly (wall time is
/// measured, not derived, so it is excluded from the comparison).
#[derive(Debug, Default, PartialEq, Eq)]
struct StatSum {
    rows_scanned: u64,
    index_probes: u64,
    hash_builds: u64,
    rows_out: u64,
    morsels: u64,
    intermediate_bytes: u64,
    peak_intermediate_bytes: u64,
}

impl StatSum {
    fn fold(&mut self, s: &QueryStats) {
        self.rows_scanned += s.rows_scanned;
        self.index_probes += s.index_probes;
        self.hash_builds += s.hash_builds;
        self.rows_out += s.rows_output;
        self.morsels += s.morsels;
        self.intermediate_bytes += s.intermediate_bytes;
        self.peak_intermediate_bytes = self.peak_intermediate_bytes.max(s.peak_intermediate_bytes);
    }

    fn of_cost(t: &QueryCost) -> StatSum {
        StatSum {
            rows_scanned: t.rows_scanned,
            index_probes: t.index_probes,
            hash_builds: t.hash_builds,
            rows_out: t.rows_out,
            morsels: t.morsels,
            intermediate_bytes: t.intermediate_bytes,
            peak_intermediate_bytes: t.peak_intermediate_bytes,
        }
    }
}

/// A mixed bag of plans over the star: scans with join subsets, point
/// lookups with varying key constants (same shape, different literals),
/// and a filtered scan.
fn plan_mix(satellites: usize, keys: &[i64]) -> Vec<QueryPlan> {
    let mut plans = Vec::new();
    plans.push(QueryPlan::scan("ROOT"));
    for s in 0..satellites {
        let rel = format!("S{s}");
        let key = format!("{rel}.K");
        plans.push(QueryPlan::scan("ROOT").join(JoinStep::outer(
            &rel,
            &["ROOT.K"],
            &[key.as_str()],
        )));
    }
    for &k in keys {
        let mut plan = QueryPlan::lookup("ROOT", &["ROOT.K"], Tuple::new([Value::Int(k)]));
        for s in 0..satellites {
            let rel = format!("S{s}");
            let key = format!("{rel}.K");
            plan = plan.join(JoinStep::inner(&rel, &["ROOT.K"], &[key.as_str()]));
        }
        plans.push(plan);
    }
    plans.push(
        QueryPlan::scan("ROOT")
            .filter(Predicate::not_null("ROOT.K").and(Predicate::eq("ROOT.K", Value::Int(0)))),
    );
    plans
}

/// Maps a plan to its fingerprint by executing it alone on a fresh
/// database over the same schema and state — the snapshot then holds
/// exactly one entry, whose key is the plan's fingerprint.
fn fingerprint_of(schema: &RelationalSchema, state: &DatabaseState, plan: &QueryPlan) -> u64 {
    let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).expect("fresh db");
    db.load_state(state).expect("load");
    db.execute(plan).expect("probe execution");
    let snap = db.profile_snapshot();
    assert_eq!(snap.queries.len(), 1, "one plan, one fingerprint");
    *snap.queries.keys().next().expect("entry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-fingerprint totals == the summed `QueryStats` of exactly the
    /// executions that share the fingerprint.
    #[test]
    fn profiler_totals_equal_per_query_sums(
        satellites in 1usize..4,
        rows in 1usize..24,
        coverage in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let spec = StarSpec { satellites, ..StarSpec::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = star_schema(&spec);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage },
            &mut rng,
        ).expect("state");

        let keys = [0i64, 1, (rows / 2) as i64];
        let plans = plan_mix(satellites, &keys);
        let fingerprints: Vec<u64> = plans
            .iter()
            .map(|p| fingerprint_of(&schema, &state, p))
            .collect();

        let mut db = Database::new(schema.clone(), DbmsProfile::ideal()).expect("db");
        db.load_state(&state).expect("load");

        // Execute the mix (twice, so folding is exercised) and sum stats
        // manually per expected fingerprint.
        let mut manual: BTreeMap<u64, StatSum> = BTreeMap::new();
        let mut executions: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..2 {
            for (plan, &fp) in plans.iter().zip(&fingerprints) {
                let (_, stats) = db.execute(plan).expect("execution");
                manual.entry(fp).or_default().fold(&stats);
                *executions.entry(fp).or_default() += 1;
            }
        }

        let snap: ProfileSnapshot = db.profile_snapshot();
        let got: BTreeMap<u64, StatSum> = snap
            .queries
            .iter()
            .map(|(&fp, p)| (fp, StatSum::of_cost(&p.totals)))
            .collect();
        prop_assert_eq!(&got, &manual, "per-fingerprint totals must equal per-query sums");
        for (fp, p) in &snap.queries {
            prop_assert_eq!(p.executions, executions[fp]);
        }
    }

    /// The fingerprint hashes predicate *structure*, not literals or the
    /// order of commutative connectives: any permutation or
    /// re-parenthesization of an AND/OR chain, and any change of compared
    /// constants, maps to the same fingerprint — while changing the
    /// connective or the attribute set does not.
    #[test]
    fn fingerprints_stable_under_predicate_permutation(
        rows in 1usize..16,
        a in any::<i64>(),
        b in any::<i64>(),
        use_or in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = StarSpec { satellites: 1, ..StarSpec::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = star_schema(&spec);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage: 0.5 },
            &mut rng,
        ).expect("state");

        let connect = |l: Predicate, r: Predicate| if use_or { l.or(r) } else { l.and(r) };
        // Three leaves over the attributes visible after ROOT ⋈ S0.
        let leaves = || {
            (
                Predicate::eq("ROOT.K", Value::Int(a)),
                Predicate::not_null("S0.K"),
                Predicate::eq("S0.V0", Value::Int(b)),
            )
        };
        // (p1 ∘ (p2 ∘ p3)), ((p3 ∘ p1) ∘ p2), ((p2 ∘ p3) ∘ p1): same
        // flattened chain, different order and shape — and the first
        // variant repeated with different literals.
        let (p1, p2, p3) = leaves();
        let v1 = connect(p1, connect(p2, p3));
        let (p1, p2, p3) = leaves();
        let v2 = connect(connect(p3, p1), p2);
        let (p1, p2, p3) = leaves();
        let v3 = connect(connect(p2, p3), p1);
        let lit = connect(
            Predicate::eq("ROOT.K", Value::Int(a.wrapping_add(1))),
            connect(
                Predicate::not_null("S0.K"),
                Predicate::eq("S0.V0", Value::Int(b.wrapping_sub(7))),
            ),
        );

        let fp_of = |pred: Predicate| {
            let plan = QueryPlan::scan("ROOT")
                .join(JoinStep::outer("S0", &["ROOT.K"], &["S0.K"]))
                .filter(pred);
            fingerprint_of(&schema, &state, &plan)
        };
        let f1 = fp_of(v1);
        prop_assert_eq!(f1, fp_of(v2), "permutation changed the fingerprint");
        prop_assert_eq!(f1, fp_of(v3), "re-parenthesization changed it");
        prop_assert_eq!(f1, fp_of(lit), "literals leaked into the fingerprint");

        // Negative controls: flipping the connective or narrowing the
        // attribute set is a different shape.
        let (p1, p2, p3) = leaves();
        let flipped = if use_or { p1.and(p2.and(p3)) } else { p1.or(p2.or(p3)) };
        // Flipping the connective must distinguish the shape.
        prop_assert_ne!(f1, fp_of(flipped));
        let (p1, p2, _) = leaves();
        // Dropping a leaf (shorter chain) must distinguish too.
        prop_assert_ne!(f1, fp_of(connect(p1, p2)));
    }
}
