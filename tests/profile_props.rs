//! Whole-system property tests for the workload profiler and the query
//! counters: on random star schemas carrying random consistent states,
//! each join-ledger entry must equal the sum of its edge's per-join
//! operators in the EXPLAIN-ANALYZE traces, and the `engine.query.*`
//! counters must move by exactly the summed [`QueryStats`].
//!
//! [`QueryStats`]: relmerge::engine::QueryStats

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::engine::{Database, DbmsProfile, JoinStep, OpKind, Predicate, QueryPlan, QueryStats};
use relmerge::relational::{Tuple, Value};
use relmerge::workload::{consistent_state, star_schema, StarSpec, StateSpec};

/// A ledger key: `(left, right, probe attrs)`.
type Edge = (String, String, Vec<String>);

/// A ledger entry's counters: executions, index probes, rows scanned,
/// hash builds, rows out and intermediate bytes.
type EdgeSum = [u64; 6];

/// A mixed bag of plans over the star: scans with join subsets, point
/// lookups with varying key constants, a chain whose second step probes
/// from a satellite, a hash join on an unindexed attribute, and filtered
/// scans (one pushed to a join).
fn plan_mix(satellites: usize, keys: &[i64]) -> Vec<QueryPlan> {
    let key = |s: usize| format!("S{s}.K");
    let mut plans = vec![QueryPlan::scan("ROOT")];
    for s in 0..satellites {
        plans.push(QueryPlan::scan("ROOT").join(JoinStep::outer(
            format!("S{s}"),
            &["ROOT.K"],
            &[key(s).as_str()],
        )));
    }
    for &k in keys {
        let mut plan = QueryPlan::lookup("ROOT", &["ROOT.K"], Tuple::new([Value::Int(k)]));
        for s in 0..satellites {
            plan = plan.join(JoinStep::inner(
                format!("S{s}"),
                &["ROOT.K"],
                &[key(s).as_str()],
            ));
        }
        plans.push(plan);
    }
    let mut chain = QueryPlan::scan("ROOT");
    for s in 0..satellites {
        let left = if s == 0 {
            "ROOT.K".to_owned()
        } else {
            key(s - 1)
        };
        chain = chain.join(JoinStep::outer(
            format!("S{s}"),
            &[left.as_str()],
            &[key(s).as_str()],
        ));
    }
    plans.push(chain);
    plans.push(QueryPlan::scan("ROOT").join(JoinStep::inner("S0", &["ROOT.K"], &["S0.V0"])));
    plans.push(
        QueryPlan::scan("ROOT")
            .filter(Predicate::not_null("ROOT.K").and(Predicate::eq("ROOT.K", Value::Int(0)))),
    );
    plans.push(
        QueryPlan::scan("ROOT")
            .join(JoinStep::inner("S0", &["ROOT.K"], &["S0.K"]))
            .filter(Predicate::not_null("S0.V0")),
    );
    plans
}

/// A random star database with its plan mix.
fn star(satellites: usize, rows: usize, coverage: f64, seed: u64) -> (Database, Vec<QueryPlan>) {
    let spec = StarSpec {
        satellites,
        ..StarSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = star_schema(&spec);
    let state = consistent_state(
        &schema,
        &StateSpec {
            root_rows: rows,
            coverage,
        },
        &mut rng,
    )
    .expect("state");
    let mut db = Database::new(schema, DbmsProfile::ideal()).expect("db");
    db.load_state(&state).expect("load");
    (db, plan_mix(satellites, &[0, 1, (rows / 2) as i64]))
}

/// The relation an attribute belongs to: star attributes are named
/// `<relation>.<attribute>`.
fn owner(attr: &str) -> String {
    attr.split('.').next().expect("a qualified name").to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Each ledger entry == the sum of its edge's per-join operators over
    /// the traced executions, and the ledger is ranked by cumulative cost
    /// (ties on the edge).
    #[test]
    fn ledger_entries_equal_traced_join_operators(
        satellites in 1usize..4,
        rows in 1usize..24,
        coverage in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (db, plans) = star(satellites, rows, coverage, seed);
        // Execute the mix twice, so charges to one edge add up.
        let mut want: BTreeMap<Edge, EdgeSum> = BTreeMap::new();
        for _ in 0..2 {
            for plan in &plans {
                let (_, _, trace) = db.execute_traced(plan).expect("execution");
                let joins = trace.ops.iter().filter(|op| op.kind == OpKind::Join);
                for (step, op) in plan.joins.iter().zip(joins) {
                    let edge = (owner(&step.left_attrs[0]), step.rel.clone(), step.right_attrs.clone());
                    let s = &op.stats;
                    let sum = want.entry(edge).or_default();
                    for (field, v) in sum.iter_mut().zip([
                        1,
                        s.index_probes,
                        s.rows_scanned,
                        s.hash_builds,
                        s.rows_out,
                        s.intermediate_bytes,
                    ]) {
                        *field += v;
                    }
                }
            }
        }

        let ledger = db.profile_snapshot().hot_joins;
        let got: BTreeMap<Edge, EdgeSum> = ledger
            .iter()
            .map(|h| {
                let e = &h.edge;
                let edge = (e.left.clone(), e.right.clone(), e.probe_attrs.clone());
                let sum = [
                    h.executions,
                    h.index_probes,
                    h.rows_scanned,
                    h.hash_builds,
                    h.rows_out,
                    h.intermediate_bytes,
                ];
                (edge, sum)
            })
            .collect();
        prop_assert_eq!(&got, &want, "ledger entries must equal the traced join operators");
        for h in &ledger {
            prop_assert_eq!(h.cumulative_cost, h.index_probes + h.rows_scanned);
        }
        for w in ledger.windows(2) {
            prop_assert!(
                (w[1].cumulative_cost, &w[0].edge) < (w[0].cumulative_cost, &w[1].edge),
                "ranked by cost, ties on the edge: {:?}",
                ledger
            );
        }
    }

    /// The `engine.query.*` counters move by exactly the summed
    /// `QueryStats` of the executions between two snapshots, and
    /// `engine.query.ns` by one sample per execution.
    #[test]
    fn query_counters_equal_summed_stats(
        satellites in 1usize..4,
        rows in 1usize..24,
        coverage in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (db, plans) = star(satellites, rows, coverage, seed);
        let before = db.metrics_registry().snapshot();
        let mut sum = QueryStats::default();
        for _ in 0..2 {
            for plan in &plans {
                sum += db.execute(plan).expect("execution").1;
            }
        }
        let moved = db.metrics_registry().snapshot().diff(&before);
        let counter = |field: &str| {
            moved.counters.get(&format!("engine.query.{field}")).copied().unwrap_or(0)
        };
        prop_assert_eq!(counter("rows_scanned"), sum.rows_scanned);
        prop_assert_eq!(counter("index_probes"), sum.index_probes);
        prop_assert_eq!(counter("hash_builds"), sum.hash_builds);
        prop_assert_eq!(counter("rows_output"), sum.rows_output);
        prop_assert_eq!(counter("morsels"), sum.morsels);
        prop_assert_eq!(counter("intermediate_bytes"), sum.intermediate_bytes);
        prop_assert_eq!(moved.histograms["engine.query.ns"].count, 2 * plans.len() as u64);
    }
}
