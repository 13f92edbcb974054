//! Concurrent-session coverage: random interleavings of reader sessions
//! and writer batches over one shared [`Store`] — every read must be
//! byte-identical to a serial replay at its pinned version vector, with
//! the shared build cache on or off; pinned
//! snapshots stay frozen while writers commit; the shared cache
//! serves cross-session hits without ever serving a stale or
//! predicate-mismatched build (stale service would break the replay
//! byte-identity); and every session's reads count once, live, on the
//! store registry.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge::engine::{
    Database, DbmsProfile, EngineConfig, JoinStep, Predicate, QueryPlan, Snapshot, Statement,
    Store, DEFAULT_BUILD_CACHE_BYTES,
};
use relmerge::relational::{
    Attribute, Domain, InclusionDep, NullConstraint, Relation, RelationScheme, RelationalSchema,
    Tuple, Value,
};

/// PARENT-with-payload / CHILD schema: `P.V` is deliberately not covered
/// by any index, so joining on it goes through the transient hash build
/// — and therefore through the shared versioned build cache.
fn schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(
        RelationScheme::new(
            "P",
            vec![
                Attribute::new("P.K", Domain::Int),
                Attribute::new("P.V", Domain::Int),
            ],
            &["P.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_scheme(
        RelationScheme::new(
            "C",
            vec![
                Attribute::new("C.K", Domain::Int),
                Attribute::new("C.FK", Domain::Int),
            ],
            &["C.K"],
        )
        .unwrap(),
    )
    .unwrap();
    rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("C", &["C.K", "C.FK"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
        .unwrap();
    rs
}

fn row(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
}

fn engine_config(cache_on: bool) -> EngineConfig {
    EngineConfig::default().build_cache_capacity(if cache_on {
        DEFAULT_BUILD_CACHE_BYTES
    } else {
        0
    })
}

/// The deterministic baseline both the store master and the serial
/// replay start from: P(k, k) for k in 1..=3, C(10,1), C(11,2).
fn seed_db(config: &EngineConfig) -> Database {
    let mut db = Database::new_with_config(schema(), DbmsProfile::ideal(), config.clone()).unwrap();
    for k in 1..=3 {
        db.insert("P", row(&[k, k])).unwrap();
    }
    db.insert("C", row(&[10, 1])).unwrap();
    db.insert("C", row(&[11, 2])).unwrap();
    db
}

const QUERY_COUNT: u32 = 4;

/// The read mix. Query 0 joins on the un-indexed `P.V` (transient hash
/// build through the shared cache); query 1 adds a pushed predicate, so
/// its cached build is keyed by a different pushed predicate than
/// query 0's over the same `(relation, attrs, version)` — a
/// predicate-mismatched hit would change its bytes.
fn query(idx: u32) -> QueryPlan {
    match idx {
        0 => QueryPlan::scan("C").join(JoinStep::inner("P", &["C.FK"], &["P.V"])),
        1 => QueryPlan::scan("C")
            .join(JoinStep::inner("P", &["C.FK"], &["P.V"]))
            .filter(Predicate::eq("P.V", Value::Int(1))),
        2 => QueryPlan::scan("P"),
        _ => QueryPlan::lookup("P", &["P.K"], row(&[2])),
    }
}

/// The version vector of a plain database — the serial-replay side of
/// the determinism contract ([`Snapshot::version_vector`] is the pinned
/// side).
fn vv(db: &Database) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = db
        .schema()
        .schemes()
        .iter()
        .map(|s| (s.name().to_owned(), db.relation_version(s.name()).unwrap()))
        .collect();
    v.sort();
    v
}

/// One random mostly-valid write batch; dangling references happen (and
/// must roll back identically in the store and in the replay).
fn random_batch(
    rng: &mut StdRng,
    n: usize,
    next_parent: &mut i64,
    next_child: &mut i64,
) -> Vec<Statement> {
    let mut stmts = Vec::new();
    for _ in 0..n {
        match rng.gen_range(0..4u32) {
            0 => {
                stmts.push(Statement::insert("P", row(&[*next_parent, *next_parent])));
                *next_parent += 1;
            }
            1 => {
                let fk = if rng.gen_bool(0.8) {
                    if *next_parent > 100 && rng.gen_bool(0.5) {
                        rng.gen_range(100..*next_parent)
                    } else {
                        rng.gen_range(1..4)
                    }
                } else {
                    9_999 // dangling: the batch aborts and rolls back
                };
                stmts.push(Statement::insert("C", row(&[*next_child, fk])));
                *next_child += 1;
            }
            2 => stmts.push(Statement::delete(
                "C",
                row(&[rng.gen_range(999..*next_child)]),
            )),
            _ => stmts.push(Statement::delete(
                "P",
                row(&[rng.gen_range(99..*next_parent)]),
            )),
        }
    }
    stmts
}

/// One recorded read: the pinned version vector, the query issued, and
/// the rows it returned.
struct Read {
    vector: Vec<(String, u64)>,
    query: u32,
    rows: Relation,
}

/// Replays `batches` serially against a fresh baseline database and
/// checks every recorded read byte-identical at its matching version
/// vector. Returns an error description instead of panicking so the
/// proptest harness can minimize.
fn check_against_serial_replay(
    config: &EngineConfig,
    batches: &[Vec<Statement>],
    reads: &[Read],
) -> Result<(), String> {
    let mut replay = seed_db(config);
    let mut matched = vec![false; reads.len()];
    let check = |db: &Database, matched: &mut Vec<bool>| -> Result<(), String> {
        let here = vv(db);
        for (i, read) in reads.iter().enumerate() {
            if read.vector == here {
                let (rows, _) = db
                    .execute(&query(read.query))
                    .map_err(|e| format!("replay query failed: {e}"))?;
                if rows != read.rows {
                    return Err(format!(
                        "read of query {} at {:?} diverges from serial replay",
                        read.query, read.vector
                    ));
                }
                matched[i] = true;
            }
        }
        Ok(())
    };
    check(&replay, &mut matched)?;
    for batch in batches {
        // Failed batches replay too: their rollback re-mutates rows, so
        // slot layout and versions advance exactly as they did live.
        let _ = replay.apply_batch(batch);
        check(&replay, &mut matched)?;
    }
    if let Some(missing) = matched.iter().position(|m| !m) {
        return Err(format!(
            "read at {:?} matched no serial commit boundary",
            reads[missing].vector
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random single-schedule interleavings of pins, reads, pin drops,
    /// and writer batches: every read must equal the serial replay at
    /// its pinned version vector, with the cache on or off.
    #[test]
    fn snapshot_reads_match_serial_replay(
        seed in 0u64..1_000_000,
        n_ops in 8usize..28,
        cache_on in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = engine_config(cache_on);
        let store = Store::new(seed_db(&config));
        let writer = store.session();
        let readers = [store.session(), store.session()];

        let mut batches: Vec<Vec<Statement>> = Vec::new();
        let mut reads: Vec<Read> = Vec::new();
        let mut pins: Vec<Snapshot> = vec![readers[0].pin().unwrap()];
        let (mut next_parent, mut next_child) = (100i64, 1000i64);
        for _ in 0..n_ops {
            match rng.gen_range(0..4u32) {
                0 => {
                    let n = rng.gen_range(1..6);
                    let batch = random_batch(&mut rng, n, &mut next_parent, &mut next_child);
                    let _ = writer.apply_batch(&batch); // natural failures allowed
                    batches.push(batch);
                }
                1 => {
                    let r = rng.gen_range(0..readers.len());
                    pins.push(readers[r].pin().unwrap());
                }
                2 => {
                    let pin = &pins[rng.gen_range(0..pins.len())];
                    let q = rng.gen_range(0..QUERY_COUNT);
                    let (rows, _) = pin.execute(&query(q)).unwrap();
                    reads.push(Read { vector: pin.version_vector(), query: q, rows });
                }
                _ => {
                    if pins.len() > 1 {
                        let i = rng.gen_range(0..pins.len());
                        pins.remove(i);
                    }
                }
            }
        }
        // Old pins survive arbitrary writer traffic: read them all again
        // at the end — each must still replay at its (old) vector.
        for pin in &pins {
            let q = rng.gen_range(0..QUERY_COUNT);
            let (rows, _) = pin.execute(&query(q)).unwrap();
            reads.push(Read { vector: pin.version_vector(), query: q, rows });
        }
        prop_assert!(store.verify_integrity().is_clean());
        if let Err(detail) = check_against_serial_replay(&config, &batches, &reads) {
            prop_assert!(false, "{}", detail);
        }
    }
}

/// Genuinely concurrent traffic: one writer thread streams batches while
/// reader threads pin and query; afterwards every recorded read must
/// match the serial replay at its pinned vector. (The writer is single,
/// so the batch order the replay needs is exactly the stream order.)
#[test]
fn threaded_readers_match_serial_replay_under_writes() {
    let config = engine_config(true);
    let store = Store::new(seed_db(&config));

    let mut rng = StdRng::seed_from_u64(0xb13);
    let (mut next_parent, mut next_child) = (100i64, 1000i64);
    let batches: Vec<Vec<Statement>> = (0..12)
        .map(|_| {
            let n = rng.gen_range(1..5);
            random_batch(&mut rng, n, &mut next_parent, &mut next_child)
        })
        .collect();

    let reads: Vec<Read> = std::thread::scope(|scope| {
        let writer_store = store.clone();
        let writer_batches = &batches;
        let writer = scope.spawn(move || {
            let session = writer_store.session();
            for batch in writer_batches {
                let _ = session.apply_batch(batch);
            }
        });
        let reader_handles: Vec<_> = (0..2)
            .map(|t| {
                let reader_store = store.clone();
                scope.spawn(move || {
                    let session = reader_store.session();
                    let mut out = Vec::new();
                    for i in 0..10u32 {
                        let pin = session.pin().unwrap();
                        let q = (i + t) % QUERY_COUNT;
                        let (rows, _) = pin.execute(&query(q)).unwrap();
                        out.push(Read {
                            vector: pin.version_vector(),
                            query: q,
                            rows,
                        });
                    }
                    out
                })
            })
            .collect();
        writer.join().unwrap();
        reader_handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert!(store.verify_integrity().is_clean());
    check_against_serial_replay(&config, &batches, &reads)
        .unwrap_or_else(|detail| panic!("{detail}"));
}

/// The shared cache serves cross-session hits: the second session's
/// identical join reuses the first session's build (hit counter > 0),
/// returning byte-identical rows.
#[test]
fn shared_cache_serves_cross_session_hits() {
    let store = Store::new(seed_db(&engine_config(true)));
    let s1 = store.session();
    let s2 = store.session();
    let q = query(0);
    let (r1, _) = s1.pin().unwrap().execute(&q).unwrap();
    // The hit counter moves on s2's read alone, proving the reuse crossed
    // sessions.
    let before = store.metrics_registry().snapshot();
    let (r2, _) = s2.pin().unwrap().execute(&q).unwrap();
    assert_eq!(r1, r2);
    let diff = store.metrics_registry().snapshot().diff(&before);
    assert!(
        diff.counters
            .get("engine.query.build_cache.hits")
            .copied()
            .unwrap_or(0)
            > 0,
        "the second session's identical join must hit the shared cache"
    );
}

/// One metrics shard per store: reads from concurrent sessions count on
/// the store registry while every session and pin is alive, and dropping
/// them folds nothing, so no read is counted twice.
#[test]
fn every_session_counts_its_reads_on_the_store_registry_once() {
    let store = Store::new(seed_db(&engine_config(true)));
    let before = store.metrics_registry().snapshot();
    let counted = || {
        let diff = store.metrics_registry().snapshot().diff(&before).counters;
        let get = |name: &str| diff.get(name).copied().unwrap_or(0);
        (
            get("engine.query.rows_output"),
            get("engine.query.index_probes"),
        )
    };
    // Each client hands back its session and pins, alive, with the sums
    // of its reads' stats.
    let clients: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u32)
            .map(|t| {
                let store = store.clone();
                scope.spawn(move || {
                    let session = store.session();
                    let (mut rows, mut probes) = (0, 0);
                    let mut pins = Vec::new();
                    for i in 0..8u32 {
                        let pin = session.pin().unwrap();
                        let (_, stats) = pin.execute(&query((i + t) % QUERY_COUNT)).unwrap();
                        rows += stats.rows_output;
                        probes += stats.index_probes;
                        pins.push(pin);
                    }
                    (session, pins, (rows, probes))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let summed = clients.iter().fold((0, 0), |acc, (_, _, (rows, probes))| {
        (acc.0 + rows, acc.1 + probes)
    });
    assert!(summed.0 > 0 && summed.1 > 0, "{summed:?}");
    assert_eq!(counted(), summed, "live sessions' reads show at once");
    drop(clients);
    assert_eq!(
        counted(),
        summed,
        "dropping the handles counts nothing again"
    );
}

/// A version bump invalidates for everyone: after a write that changes
/// the build side, a fresh pin's join reflects the new rows (no stale
/// build served), while an old pin keeps its frozen result.
#[test]
fn writes_invalidate_the_shared_cache_without_disturbing_old_pins() {
    let store = Store::new(seed_db(&engine_config(true)));
    let session = store.session();
    let q = query(0);
    let old_pin = session.pin().unwrap();
    let (old_rows, _) = old_pin.execute(&q).unwrap();

    // New parent P(4,1) matches C(10,1)'s FK-on-V join: the join result
    // must grow by exactly the rows a fresh database would produce.
    session.insert("P", row(&[4, 1])).unwrap();
    let (new_rows, _) = session.pin().unwrap().execute(&q).unwrap();
    assert!(new_rows.len() > old_rows.len(), "stale build served");

    // The old pin is frozen: same bytes as before the write, even though
    // the shared cache now holds newer builds too.
    let (again, _) = old_pin.execute(&q).unwrap();
    assert_eq!(again, old_rows);
}
