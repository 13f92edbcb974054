//! Whole-system property test for the morsel-parallel executor: on random
//! star and chain schemas carrying random consistent states, every
//! configuration of morsel size and worker count must return the
//! byte-identical relation, identical [`QueryStats`], and a trace whose
//! per-operator counters sum exactly to those stats.
//!
//! [`QueryStats`]: relmerge::engine::QueryStats

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::engine::{Database, DbmsProfile, JoinStep, Predicate, QueryPlan, QueryStats};
use relmerge::workload::{
    chain_schema, consistent_state, star_schema, ChainSpec, StarSpec, StateSpec,
};

/// ROOT joined with every satellite; bit `s` of `outer_mask` picks
/// outer/inner for satellite `s`.
fn star_plan(satellites: usize, outer_mask: u8, filter: bool) -> QueryPlan {
    let mut plan = QueryPlan::scan("ROOT");
    for s in 0..satellites {
        let rel = format!("S{s}");
        let key = format!("{rel}.K");
        let step = if outer_mask & (1 << s) != 0 {
            JoinStep::outer(&rel, &["ROOT.K"], &[key.as_str()])
        } else {
            JoinStep::inner(&rel, &["ROOT.K"], &[key.as_str()])
        };
        plan = plan.join(step);
    }
    if filter {
        // Meaningful under outer joins: drops the null-padded rows again.
        plan = plan.filter(Predicate::not_null("S0.V0"));
    }
    plan
}

/// The whole chain walked from its root; bit `d` of `outer_mask` picks
/// outer/inner for the step onto `C{d}`.
fn chain_plan(depth: usize, outer_mask: u8, filter: bool) -> QueryPlan {
    let mut plan = QueryPlan::scan("C0");
    for d in 1..depth {
        let rel = format!("C{d}");
        let left = format!("C{}.K", d - 1);
        let right = format!("{rel}.K");
        let step = if outer_mask & (1 << d) != 0 {
            JoinStep::outer(&rel, &[left.as_str()], &[right.as_str()])
        } else {
            JoinStep::inner(&rel, &[left.as_str()], &[right.as_str()])
        };
        plan = plan.join(step);
    }
    if filter {
        plan = plan.filter(Predicate::not_null("C1.V0"));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_execution_matches_serial_on_random_instances(
        star in any::<bool>(),
        width in 1usize..4,
        non_key_attrs in 1usize..3,
        outer_mask in any::<u8>(),
        filter in any::<bool>(),
        rows in 1usize..50,
        coverage in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let (schema, plan) = if star {
            let spec = StarSpec { satellites: width, non_key_attrs, externals: 0 };
            (star_schema(&spec), star_plan(width, outer_mask, filter))
        } else {
            let depth = width + 1; // chains need >= 2 schemes
            let spec = ChainSpec { depth, non_key_attrs };
            (chain_schema(&spec), chain_plan(depth, outer_mask, filter))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage },
            &mut rng,
        ).expect("state");
        let mut db = Database::new(schema, DbmsProfile::ideal()).expect("database");
        db.load_state(&state).expect("load");

        // Reference: serial, at the default morsel size.
        db.configure(db.config().parallelism(1));
        let (ref_rel, ref_stats, ref_trace) = db.execute_traced(&plan).expect("reference");

        for morsel_rows in [1usize, 7, 64] {
            db.configure(db.config().morsel_rows(morsel_rows));
            for workers in 1usize..=4 {
                db.configure(db.config().parallelism(workers));
                let (rel, stats, trace) = db.execute_traced(&plan).expect("query");

                // Byte-identical result, whatever the configuration.
                prop_assert_eq!(&rel, &ref_rel, "morsel={} workers={}", morsel_rows, workers);
                // The trace reconstructs the stats exactly.
                prop_assert_eq!(trace.totals(), stats.clone());
                prop_assert_eq!(stats.rows_output, rel.len() as u64);
                prop_assert_eq!(
                    trace.ops.last().expect("ops nonempty").stats.rows_out,
                    rel.len() as u64
                );
                // Operator row counts are physical facts, independent of
                // morsel size and worker count.
                prop_assert_eq!(trace.ops.len(), ref_trace.ops.len());
                for (op, ref_op) in trace.ops.iter().zip(&ref_trace.ops) {
                    prop_assert_eq!(op.stats.rows_in, ref_op.stats.rows_in);
                    prop_assert_eq!(op.stats.rows_out, ref_op.stats.rows_out);
                }
                // So are the cost counters (the morsel count itself varies
                // with the morsel size, so it is masked out of the
                // comparison).
                prop_assert_eq!(
                    QueryStats { morsels: 0, ..stats },
                    QueryStats { morsels: 0, ..ref_stats }
                );
            }
        }
    }
}
