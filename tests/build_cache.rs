//! Whole-system property test for the versioned build-side cache: under a
//! random interleaving of DML, cache clears, and queries, a cache-enabled database must return the byte-identical
//! relation and identical `QueryStats` as a cache-disabled twin at every
//! step, and relation versions must bump on exactly the mutations that
//! change the relation — the invariant that makes a cache hit safe.

use proptest::prelude::*;

use relmerge::engine::{Database, DbmsProfile, JoinStep, QueryPlan};
use relmerge::relational::{Attribute, Domain, RelationScheme, RelationalSchema, Tuple, Value};

fn attr(name: &str) -> Attribute {
    Attribute::new(name, Domain::Int)
}

/// L(L.K, L.V) and R(R.K, R.V), keys `[L.K]` / `[R.K]`, no referential
/// constraints: every DML statement is schedulable, and a join on the V
/// columns has no covering index, so it always takes the transient-build
/// path the cache serves.
fn schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(RelationScheme::new("L", vec![attr("L.K"), attr("L.V")], &["L.K"]).unwrap())
        .unwrap();
    rs.add_scheme(RelationScheme::new("R", vec![attr("R.K"), attr("R.V")], &["R.K"]).unwrap())
        .unwrap();
    rs
}

fn build_db(cache: bool) -> Database {
    let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
    if !cache {
        db.configure(db.config().build_cache_capacity(0));
    }
    db
}

fn tup(k: i64, v: i64) -> Tuple {
    Tuple::new([Value::Int(k), Value::Int(v)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_execution_is_indistinguishable_from_uncached(
        // (op, k, v) triples: 0/1 insert L/R, 2/3 delete L/R, 4 cache
        // clear. Small key/value ranges force duplicate keys (rejected
        // inserts) and genuine join matches.
        ops in prop::collection::vec((0u8..5, 0i64..24, 0i64..6), 1..40),
    ) {
        let plan = QueryPlan::scan("L").join(JoinStep::inner("R", &["L.V"], &["R.V"]));
        let mut cached = build_db(true);
        let mut plain = build_db(false);

        for (op, k, v) in ops {
            let rel = if op % 2 == 0 { "L" } else { "R" };
            match op {
                0 | 1 => {
                    let before = cached.relation_version(rel).unwrap();
                    let a = cached.insert(rel, tup(k, v));
                    let b = plain.insert(rel, tup(k, v));
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    let did = matches!(a, Ok(true));
                    prop_assert_eq!(matches!(b, Ok(true)), did);
                    // The version bumps exactly when the relation changed.
                    let after = cached.relation_version(rel).unwrap();
                    prop_assert_eq!(after > before, did, "insert {} {}", rel, k);
                }
                2 | 3 => {
                    let before = cached.relation_version(rel).unwrap();
                    let key = Tuple::new([Value::Int(k)]);
                    let a = cached.delete_by_key(rel, &key).unwrap();
                    let b = plain.delete_by_key(rel, &key).unwrap();
                    prop_assert_eq!(a, b);
                    let after = cached.relation_version(rel).unwrap();
                    prop_assert_eq!(after > before, a, "delete {} {}", rel, k);
                }
                _ => cached.clear_build_cache(),
            }

            // Twice on the cached side: the first execution may miss
            // (fresh build) or hit, the second is warm whenever the first
            // populated — all three must be byte-identical with equal
            // stats.
            let (r1, s1) = cached.execute(&plan).unwrap();
            let (r2, s2) = cached.execute(&plan).unwrap();
            let (rp, sp) = plain.execute(&plan).unwrap();
            prop_assert_eq!(&r1, &rp, "cached cold vs uncached");
            prop_assert_eq!(&s1, &sp, "cached cold stats vs uncached");
            prop_assert_eq!(&r2, &rp, "cached warm vs uncached");
            prop_assert_eq!(&s2, &sp, "cached warm stats vs uncached");
        }
    }
}
