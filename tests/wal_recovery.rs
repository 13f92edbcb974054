//! Crash-recovery tests for the write-ahead log.
//!
//! The contract under test is *valid-prefix semantics*: whatever byte the
//! log is cut at — a clean record boundary, mid-record (torn tail), or a
//! record whose checksum was corrupted in place — recovery must produce a
//! `verify_integrity()`-clean database equal to the state after the last
//! batch whose record survives intact. The commits
//! that install a snapshot instead of appending a record — a durable
//! `load_state` and so an online migration — must survive a restart too,
//! and a failed one must leave the previous state to recover. A durable
//! database shared by concurrent sessions keeps the same contract: a cut
//! log recovers a prefix of every writer's own batches. A flipped byte in
//! a log recovers the batches before its frame, and a flipped or cut
//! snapshot fails recovery typed without touching a file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relmerge::core::{Merge, Merged};
use relmerge::engine::fault::site;
use relmerge::engine::{
    Database, DbmsProfile, DurabilityConfig, EngineConfig, FaultMode, FaultPlan, FsyncPolicy,
    Statement, Store,
};
use relmerge::relational::{
    Attribute, DatabaseState, Domain, Error, InclusionDep, NullConstraint, RelationScheme,
    RelationalSchema, Tuple, Value,
};
use relmerge::workload::{consistent_state, star_merge_set, star_schema, StarSpec, StateSpec};

/// Bytes of the `RMWAL001` magic every log file starts with.
const WAL_HEADER: u64 = 8;
/// Bytes of a record's frame header: `u32` payload length + `u64` checksum.
const FRAME_HEADER: u64 = 12;

fn attr(name: &str) -> Attribute {
    Attribute::new(name, Domain::Int)
}

/// PARENT(P.K) ← CHILD(C.K, C.FK): keyed inserts, RESTRICT deletes, and
/// FK-changing updates all reachable from small random draws.
fn schema() -> RelationalSchema {
    let mut rs = RelationalSchema::new();
    rs.add_scheme(RelationScheme::new("PARENT", vec![attr("P.K")], &["P.K"]).unwrap())
        .unwrap();
    rs.add_scheme(RelationScheme::new("CHILD", vec![attr("C.K"), attr("C.FK")], &["C.K"]).unwrap())
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("PARENT", &["P.K"]))
        .unwrap();
    rs.add_null_constraint(NullConstraint::nna("CHILD", &["C.K", "C.FK"]))
        .unwrap();
    rs.add_ind(InclusionDep::new("CHILD", &["C.FK"], "PARENT", &["P.K"]))
        .unwrap();
    rs
}

fn tup(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
}

/// One random statement over small key ranges, so inserts collide with
/// existing rows, deletes hit RESTRICT, and updates rewire real children —
/// rejected batches (state unchanged, nothing logged) are part of the mix.
fn random_stmt(rng: &mut StdRng) -> Statement {
    let parent = rng.gen_range(0..8i64);
    let child = rng.gen_range(0..12i64);
    match rng.gen_range(0..5u8) {
        0 => Statement::insert("PARENT", tup(&[parent])),
        1 => Statement::insert("CHILD", tup(&[child, parent])),
        2 => Statement::delete("CHILD", tup(&[child])),
        3 => Statement::delete("PARENT", tup(&[parent])),
        _ => Statement::update("CHILD", tup(&[child]), tup(&[child, parent])),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "relmerge-walprop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, snapshot_every: u64) -> EngineConfig {
    EngineConfig::default().durability(Some(
        DurabilityConfig::new(dir)
            .snapshot_every(snapshot_every)
            // No OS crash is simulated (the process survives), so skipping
            // fsync changes nothing about what recovery can see.
            .fsync(FsyncPolicy::Never),
    ))
}

/// Runs `batches` random batches against a fresh durable database and
/// returns, for the log's **final generation**, every durably-acked
/// `(offset, state)` prefix point — index 0 is the generation's baseline
/// (the snapshot state). Earlier generations are irrelevant to recovery:
/// their snapshot and log files have been superseded.
fn run_workload(db: &mut Database, rng: &mut StdRng, batches: usize) -> Vec<(u64, DatabaseState)> {
    let (g0, off0) = db.wal_position().expect("durable db");
    assert_eq!(off0, WAL_HEADER);
    let mut generation = g0;
    let mut prefixes = vec![(off0, db.snapshot().unwrap())];
    for _ in 0..batches {
        let n = rng.gen_range(1..4usize);
        let stmts: Vec<Statement> = (0..n).map(|_| random_stmt(rng)).collect();
        if db.apply_batch(&stmts).is_err() {
            continue; // rejected: rolled back, nothing appended
        }
        let (gen, off) = db.wal_position().expect("durable db");
        if gen != generation {
            // A snapshot fired: this batch's post-state IS the new
            // generation's baseline, and the old log is gone.
            generation = gen;
            prefixes.clear();
        }
        prefixes.push((off, db.snapshot().unwrap()));
    }
    prefixes
}

/// The state recovery must reproduce when the final log is cut at `kill`:
/// the last acked prefix at or below it.
fn expected_at(prefixes: &[(u64, DatabaseState)], kill: u64) -> &DatabaseState {
    prefixes
        .iter()
        .rev()
        .find(|(off, _)| *off <= kill)
        .map(|(_, s)| s)
        .unwrap_or(&prefixes[0].1)
}

fn wal_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating the log at ANY byte offset — record boundaries and
    /// mid-record torn tails alike — recovers to the valid batch prefix.
    #[test]
    fn any_kill_offset_recovers_to_a_valid_prefix(
        seed in 0u64..1_000_000,
        snapshot_every in prop::sample::select(vec![0u64, 3]),
    ) {
        let dir = fresh_dir("kill");
        let cfg = config(&dir, snapshot_every);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        let prefixes = run_workload(&mut db, &mut rng, 12);
        let (generation, end) = db.wal_position().unwrap();
        drop(db);

        // Every acked boundary, plus random mid-record cuts.
        let mut kills: Vec<u64> = prefixes.iter().map(|(off, _)| *off).collect();
        for _ in 0..6 {
            kills.push(rng.gen_range(0..=end));
        }
        let log = wal_file(&dir, generation);
        let pristine = std::fs::read(&log).unwrap();
        for kill in kills {
            std::fs::write(&log, &pristine[..kill.min(pristine.len() as u64) as usize])
                .unwrap();
            let (recovered, report) = Database::recover(cfg.clone()).unwrap();
            prop_assert!(recovered.verify_integrity().is_clean());
            let got = recovered.snapshot().unwrap();
            prop_assert_eq!(
                &got,
                expected_at(&prefixes, kill),
                "kill at {} of {} ({})",
                kill,
                end,
                report
            );
            // Recovery truncated the tail; put the full log back for the
            // next cut.
            std::fs::write(&log, &pristine).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corrupting a record's checksum in place ends the valid prefix at
    /// that record — even though later records are physically intact.
    #[test]
    fn corrupted_checksum_record_ends_the_prefix(
        seed in 0u64..1_000_000,
    ) {
        let dir = fresh_dir("crc");
        let cfg = config(&dir, 0); // one generation, no snapshots
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db =
            Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
        let prefixes = run_workload(&mut db, &mut rng, 12);
        let (generation, _) = db.wal_position().unwrap();
        drop(db);
        prop_assume!(prefixes.len() > 1); // at least one committed record

        // Record k occupies (prefixes[k-1].0 .. prefixes[k].0]; its 8
        // checksum bytes start 4 bytes in. Flip one of them.
        let k = rng.gen_range(1..prefixes.len());
        let start = prefixes[k - 1].0;
        let victim = start + 4 + rng.gen_range(0..8u64);
        let log = wal_file(&dir, generation);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[victim as usize] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        let (recovered, report) = Database::recover(cfg).unwrap();
        prop_assert!(recovered.verify_integrity().is_clean());
        prop_assert!(report.torn_tail, "{}", report);
        prop_assert_eq!(
            &recovered.snapshot().unwrap(),
            &prefixes[k - 1].1,
            "corrupted record {}",
            k
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Byte masks the frame-mutation tests XOR into each byte of a file.
const FLIP_MASKS: [u8; 3] = [0x01, 0x80, 0xFF];

fn snap_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation}.snap"))
}

/// Every file in `dir`, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

/// Recovery of `dir` must fail with a durability error and leave every
/// file in it byte-identical.
fn assert_recovery_refused(cfg: &EngineConfig, dir: &Path, case: &str) {
    let before = dir_files(dir);
    match Database::recover(cfg.clone()) {
        Err(Error::Durability { .. }) => {}
        Err(e) => panic!("{case}: not a durability error: {e}"),
        Ok((_, report)) => panic!("{case}: recovered ({report})"),
    }
    assert_eq!(dir_files(dir), before, "{case}: recovery changed a file");
}

/// A data dir holds one snapshot, so a snapshot with any byte flipped (at
/// every mask) or cut anywhere leaves recovery nothing that passes its
/// checksum: it fails typed, never panics, and writes nothing.
#[test]
fn every_snapshot_flip_and_cut_fails_recovery_typed() {
    let dir = fresh_dir("snapflip");
    let cfg = config(&dir, 0);
    let mut state = DatabaseState::empty_for(&schema()).unwrap();
    for k in 0..3 {
        state.insert("PARENT", tup(&[k])).unwrap();
    }
    for c in 0..4 {
        state.insert("CHILD", tup(&[c, c % 3])).unwrap();
    }
    let mut db = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
    db.load_state(&state).unwrap();
    let (generation, _) = db.wal_position().unwrap();
    drop(db);
    let snap = snap_file(&dir, generation);
    let pristine = std::fs::read(&snap).unwrap();
    for at in 0..pristine.len() {
        for mask in FLIP_MASKS {
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            std::fs::write(&snap, &bytes).unwrap();
            assert_recovery_refused(&cfg, &dir, &format!("flip {mask:#04x} at {at}"));
        }
        std::fs::write(&snap, &pristine[..at]).unwrap();
        assert_recovery_refused(&cfg, &dir, &format!("cut at {at}"));
    }
    std::fs::write(&snap, &pristine).unwrap();
    assert_eq!(Database::recover(cfg).unwrap().0.snapshot().unwrap(), state);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flip in the log damages one frame, so recovery replays exactly the
/// batches before it and drops the rest as a torn tail; a flip in the
/// log's magic fails recovery typed and writes nothing.
#[test]
fn every_log_flip_recovers_the_batches_before_it() {
    let dir = fresh_dir("logflip");
    let cfg = config(&dir, 0);
    let mut db = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
    let mut prefixes = vec![(WAL_HEADER, db.snapshot().unwrap())];
    for k in 0..5 {
        db.apply_batch(&[Statement::insert("PARENT", tup(&[k]))])
            .unwrap();
        prefixes.push((db.wal_position().unwrap().1, db.snapshot().unwrap()));
    }
    let (generation, _) = db.wal_position().unwrap();
    drop(db);
    let log = wal_file(&dir, generation);
    let pristine = std::fs::read(&log).unwrap();
    for at in 0..pristine.len() as u64 {
        for mask in FLIP_MASKS {
            let mut bytes = pristine.clone();
            bytes[at as usize] ^= mask;
            std::fs::write(&log, &bytes).unwrap();
            let case = format!("flip {mask:#04x} at {at}");
            if at < WAL_HEADER {
                assert_recovery_refused(&cfg, &dir, &case);
            } else {
                // Batch `damaged` is the first whose frame ends past the flip.
                let damaged = prefixes.iter().position(|(end, _)| *end > at).unwrap();
                let (recovered, report) = Database::recover(cfg.clone()).unwrap();
                assert!(recovered.verify_integrity().is_clean(), "{case}");
                assert!(report.torn_tail, "{case}: {report}");
                assert_eq!(
                    recovered.snapshot().unwrap(),
                    prefixes[damaged - 1].1,
                    "{case}: {report}"
                );
            }
            // A recovery drops the torn tail: restore the log.
            std::fs::write(&log, &pristine).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable database over a two-satellite star, seeded by one logged
/// batch, plus the plan that merges the whole star into `M`.
fn migratable(cfg: &EngineConfig) -> (Database, Merged) {
    let spec = StarSpec {
        satellites: 2,
        non_key_attrs: 1,
        externals: 0,
    };
    let schema = star_schema(&spec);
    let mut rng = StdRng::seed_from_u64(19);
    let state = consistent_state(
        &schema,
        &StateSpec {
            root_rows: 12,
            coverage: 0.5,
        },
        &mut rng,
    )
    .unwrap();
    let seed: Vec<Statement> = state
        .iter()
        .flat_map(|(name, rel)| rel.iter().map(move |t| Statement::insert(name, t.clone())))
        .collect();
    let mut db =
        Database::new_with_config(schema.clone(), DbmsProfile::ideal(), cfg.clone()).unwrap();
    db.apply_batch(&seed).unwrap();
    let members = star_merge_set(&spec);
    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
    let mut plan = Merge::plan(&schema, &refs, "M").unwrap();
    plan.remove_all_removable().unwrap();
    (db, plan)
}

#[test]
fn a_migrated_durable_database_survives_a_restart() {
    let dir = fresh_dir("migrate");
    let cfg = config(&dir, 0);
    let (mut db, plan) = migratable(&cfg);
    db.migrate(&plan).unwrap();
    let expect = db.snapshot().unwrap();
    let versions: Vec<(String, u64)> = expect
        .names()
        .into_iter()
        .map(|n| (n.to_owned(), db.relation_version(n).unwrap()))
        .collect();
    drop(db);

    let (mut recovered, report) = Database::recover(cfg.clone()).unwrap();
    assert_eq!(recovered.schema(), plan.schema());
    assert_eq!(recovered.snapshot().unwrap(), expect);
    for (name, version) in &versions {
        assert!(
            recovered.relation_version(name).unwrap() >= *version,
            "{name}"
        );
    }
    assert_eq!(report.records_replayed(), 0, "{report}");
    assert!(recovered.verify_integrity().is_clean());

    // A root with no satellite rows, committed on the merged schema, lands
    // in the new generation's log and replays.
    let arity = expect.relation("M").unwrap().header().len();
    let mut row = vec![Value::Null; arity];
    row[0] = Value::Int(10_000);
    recovered
        .apply_batch(&[Statement::insert("M", Tuple::new(row))])
        .unwrap();
    let expect = recovered.snapshot().unwrap();
    drop(recovered);
    let (again, report) = Database::recover(cfg).unwrap();
    assert_eq!(again.snapshot().unwrap(), expect);
    assert_eq!(report.records_replayed(), 1, "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_migration_commit_leaves_the_old_schema_to_recover() {
    for mode in [FaultMode::Error, FaultMode::Panic] {
        let dir = fresh_dir("migrate-fault");
        let cfg = config(&dir, 0);
        let (mut db, plan) = migratable(&cfg);
        let schema = db.schema().clone();
        let pre = db.snapshot().unwrap();
        let armed = db.set_fault_plan(FaultPlan::new().fail_at(site::SNAPSHOT_WRITE, 0, mode));
        let err = db.migrate(&plan).unwrap_err();
        assert_eq!(armed.fired(site::SNAPSHOT_WRITE), 1, "{mode:?}");
        assert!(
            matches!(err, Error::Injected { .. } | Error::ExecutionPanic { .. }),
            "{mode:?}: {err}"
        );
        db.clear_fault_plan();
        assert_eq!(db.schema(), &schema, "{mode:?}");
        assert_eq!(db.snapshot().unwrap(), pre, "{mode:?}");
        drop(db);

        let (recovered, _) = Database::recover(cfg).unwrap();
        assert_eq!(recovered.schema(), &schema, "{mode:?}");
        assert_eq!(recovered.snapshot().unwrap(), pre, "{mode:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_durable_load_state_survives_recovery() {
    let dir = fresh_dir("load");
    let cfg = config(&dir, 0);
    let mut state = DatabaseState::empty_for(&schema()).unwrap();
    for k in 0..4 {
        state.insert("PARENT", tup(&[k])).unwrap();
    }
    for c in 0..6 {
        state.insert("CHILD", tup(&[c, c % 4])).unwrap();
    }
    let mut db = Database::new_with_config(schema(), DbmsProfile::ideal(), cfg.clone()).unwrap();
    db.load_state(&state).unwrap();
    drop(db);
    let (mut recovered, report) = Database::recover(cfg.clone()).unwrap();
    assert_eq!(recovered.snapshot().unwrap(), state);
    assert_eq!(report.records_replayed(), 0, "{report}");

    // A load whose audit fails (a child of a missing parent) installs
    // nothing: recovery returns the state before it.
    let mut orphan = DatabaseState::empty_for(&schema()).unwrap();
    orphan.insert("CHILD", tup(&[100, 99])).unwrap();
    let err = recovered.load_state(&orphan).unwrap_err();
    assert!(matches!(err, Error::StateMismatch { .. }), "{err}");
    drop(recovered);
    let (again, _) = Database::recover(cfg).unwrap();
    assert_eq!(again.snapshot().unwrap(), state);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writer `w`'s keys are `w * 1000 + b` for its batch `b`.
fn writer_key(w: i64, b: i64) -> i64 {
    w * 1000 + b
}

/// Writer `w`'s batch `b`: a parent and a child of it, and the previous
/// batch's child moved over to the new parent — so every prefix of the
/// writer's batches leaves different rows.
fn writer_batch(w: i64, b: i64) -> Vec<Statement> {
    let k = writer_key(w, b);
    let mut stmts = vec![
        Statement::insert("PARENT", tup(&[k])),
        Statement::insert("CHILD", tup(&[k, k])),
    ];
    if b > 0 {
        let prev = writer_key(w, b - 1);
        stmts.push(Statement::update("CHILD", tup(&[prev]), tup(&[prev, k])));
    }
    stmts
}

/// Writer `w`'s rows of `state`, sorted: `(parents, children)`.
fn writer_rows(state: &DatabaseState, w: i64) -> (Vec<Tuple>, Vec<Tuple>) {
    let rows = |rel: &str| {
        let mut rows: Vec<Tuple> = state
            .relation(rel)
            .unwrap()
            .iter()
            .filter(|t| matches!(t.get(0), Value::Int(k) if k / 1000 == w))
            .cloned()
            .collect();
        rows.sort();
        rows
    };
    (rows("PARENT"), rows("CHILD"))
}

/// How many of writer `w`'s batches `state` holds the effect of, or
/// `None` when its rows are not the effect of any prefix of them.
fn writer_prefix(state: &DatabaseState, w: i64, batches: i64) -> Option<i64> {
    let (parents, children) = writer_rows(state, w);
    let n = parents.len() as i64;
    let expected_parents: Vec<Tuple> = (0..n).map(|b| tup(&[writer_key(w, b)])).collect();
    let expected_children: Vec<Tuple> = (0..n)
        .map(|b| tup(&[writer_key(w, b), writer_key(w, (b + 1).min(n - 1))]))
        .collect();
    (n <= batches && parents == expected_parents && children == expected_children).then_some(n)
}

/// The offsets where each whole record of the log `bytes` ends, found by
/// walking the frame headers; the first entry is the end of the magic.
fn frame_boundaries(bytes: &[u8]) -> Vec<u64> {
    let mut ends = vec![WAL_HEADER];
    let mut pos = WAL_HEADER as usize;
    while pos + FRAME_HEADER as usize <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += FRAME_HEADER as usize + len;
        assert!(pos <= bytes.len(), "the uncut log ends on a frame boundary");
        ends.push(pos as u64);
    }
    assert_eq!(pos, bytes.len(), "the uncut log ends on a frame boundary");
    ends
}

/// Durable sessions: three writers, each with its own session, commit to
/// their own key ranges while a reader pins and reads. Every pin sees a
/// prefix of each writer's batches, and a copy of the log cut at any
/// offset recovers a clean state holding a prefix of each writer's
/// batches whose lengths add up to the whole records before the cut.
#[test]
fn durable_sessions_recover_a_prefix_of_every_writer() {
    const WRITERS: i64 = 3;
    const BATCHES: i64 = 20;
    let dir = fresh_dir("sessions");
    let db = Database::new_with_config(schema(), DbmsProfile::ideal(), config(&dir, 0)).unwrap();
    // No snapshot cadence: the log stays in its first generation.
    let (generation, _) = db.wal_position().unwrap();
    let store = Store::new(db);

    let writers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let session = store.session();
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        session
                            .apply_batch(&writer_batch(w, b))
                            .expect("a writer's own key range never collides");
                    }
                })
            })
            .collect();
        let reader = {
            let session = store.session();
            let writers_done = &writers_done;
            scope.spawn(move || {
                let mut reads = 0;
                while reads < 5 || !writers_done.load(Ordering::Acquire) {
                    let state = session.pin().unwrap().snapshot().unwrap();
                    for w in 0..WRITERS {
                        assert!(
                            writer_prefix(&state, w, BATCHES).is_some(),
                            "a pin sees a prefix of writer {w}'s batches"
                        );
                    }
                    reads += 1;
                }
            })
        };
        for writer in writers {
            writer.join().unwrap();
        }
        writers_done.store(true, Ordering::Release);
        reader.join().unwrap();
    });
    assert!(store.verify_integrity().is_clean());

    let log = std::fs::read(wal_file(&dir, generation)).unwrap();
    let ends = frame_boundaries(&log);
    assert_eq!(
        ends.len() as i64,
        1 + WRITERS * BATCHES,
        "one record per batch"
    );
    let mut rng = StdRng::seed_from_u64(0x5e55);
    let mut cuts = ends.clone();
    cuts.extend((0..12).map(|_| rng.gen_range(0..=log.len() as u64)));
    for cut in cuts {
        let copy = fresh_dir("sessions-cut");
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        std::fs::write(wal_file(&copy, generation), &log[..cut as usize]).unwrap();
        let (recovered, report) = Database::recover(config(&copy, 0)).unwrap();
        assert!(recovered.verify_integrity().is_clean(), "cut at {cut}");
        let state = recovered.snapshot().unwrap();
        let prefixes: Vec<i64> = (0..WRITERS)
            .map(|w| {
                writer_prefix(&state, w, BATCHES)
                    .unwrap_or_else(|| panic!("cut at {cut}: writer {w} is not a prefix"))
            })
            .collect();
        let whole = ends[1..].iter().filter(|end| **end <= cut).count() as i64;
        assert_eq!(
            prefixes.iter().sum::<i64>(),
            whole,
            "cut at {cut} of {}: {prefixes:?} ({report})",
            log.len()
        );
        if cut == log.len() as u64 {
            assert_eq!(
                prefixes,
                vec![BATCHES; WRITERS as usize],
                "every acked commit"
            );
        }
        std::fs::remove_dir_all(&copy).unwrap();
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
