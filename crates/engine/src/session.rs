//! Concurrent multi-session access to one database: snapshot readers,
//! serialized writers, and a store-wide versioned build cache.
//!
//! [`Store`] owns the master [`Database`] (schema, catalog, relations,
//! versions, WAL). Cheap per-client [`Session`] handles share it:
//!
//! * **Readers never block writers** (and vice versa). [`Session::pin`]
//!   returns a [`Snapshot`] — a consistent, immutable view of the store
//!   at a commit boundary. A pin *is* the store's published base: the
//!   first pin after a commit copies the master's table map once
//!   (O(number of relations): tables are individually `Arc`-wrapped, so
//!   the base shares the writer's storage), and every pin at that commit
//!   shares that one base. A writer copies each table it touches while
//!   the base shares it ([`std::sync::Arc::make_mut`]); the base outlives
//!   the snapshots until the next commit retires it, so every commit that
//!   follows a pin copies each table it touches (`engine.cow.table_copies`,
//!   `engine.cow.copied_rows`; pins are timed in `engine.session.pin.ns`).
//!   A pinned snapshot is a plain [`Database`] value behind a `Deref`, so
//!   the whole `&self` read surface (execute, snapshot, verify, versions)
//!   works unchanged — and every query against it is byte-identical to
//!   running it alone against that frozen state.
//! * **Writers are serialized.** Every mutation — [`Statement`] batches,
//!   the single-statement verbs, [`Session::migrate`] — funnels through
//!   one writer mutex, retires the published base on success, and
//!   appends to the WAL exactly as a single-owner [`Database`] would.
//!   The writer drops the retired base after it unlocks, so it frees the
//!   tables its commit copied (`engine.session.publish.ns`), not the next
//!   pin. A failed commit rolls back and keeps the base, without
//!   disturbing concurrently-pinned readers (their tables are frozen by
//!   copy-on-write).
//! * **One build cache, shared by everyone.** The build-side LRU keyed
//!   `(relation, probe attrs, pushed predicate, version)`
//!   lives behind an `Arc` in the master and is shared by every session
//!   and every pinned snapshot, byte cap included. Relation versions are
//!   strictly monotonic over the store's lifetime, so a key names
//!   exactly one table state along the master history: a hit from *any*
//!   session — or from an old pinned snapshot — is proof of freshness,
//!   and version bumps invalidate for free.
//!
//! Observability: one metrics shard per store. The master, its published
//! bases and every pin share the master's shard, which is the store
//! registry ([`Store::metrics_registry`]), so a session's reads show
//! there as they happen, and the shard folds into the process-global
//! registry once, when the last of them drops.
//!
//! Fault injection: [`crate::fault::site::SESSION_SNAPSHOT`] fires at
//! every pin (contained to that pin attempt) and
//! [`crate::fault::site::WRITER_COMMIT`] at entry of the serialized
//! writer section (fails that commit typed; the master state and the
//! published base are untouched, and pinned readers stay healthy).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use relmerge_core::Merged;
use relmerge_obs::Registry;
use relmerge_relational::{DatabaseState, Error, Result};

use crate::batch::{BatchOutcome, Statement};
use crate::database::{Database, DbMetrics, DmlError};
use crate::fault::{contain, site, FaultPlan, IntegrityReport};
use crate::migrate::MigrationReport;

/// The shared half of a multi-session engine: one master [`Database`]
/// plus its published snapshot base. `Store` is a cheap handle
/// (`Arc` inside) — clone it freely, or mint [`Session`]s with
/// [`Store::session`].
#[derive(Clone)]
pub struct Store {
    inner: Arc<StoreInner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").finish_non_exhaustive()
    }
}

struct StoreInner {
    /// The single mutable instance. Every write path locks it; a pin
    /// locks it to build the base after a commit. Lock order: `master`
    /// before `published`.
    master: Mutex<Database>,
    /// The snapshot base of the current commit: built by the first pin
    /// after a commit, cloned by every other pin, and taken by the next
    /// successful commit while it still holds the master lock.
    published: Mutex<Option<Arc<Database>>>,
    /// The master database's metrics shard, which every published base
    /// and pin shares: the store-wide registry.
    metrics: Arc<DbMetrics>,
}

impl Store {
    /// Wraps `db` — WAL and all — as the master of a shared store.
    #[must_use]
    pub fn new(db: Database) -> Store {
        let metrics = Arc::clone(&db.metrics);
        Store {
            inner: Arc::new(StoreInner {
                master: Mutex::new(db),
                published: Mutex::new(None),
                metrics,
            }),
        }
    }

    /// Mints a new session: a cheap handle that pins snapshots for reads
    /// and routes writes through the serialized writer path.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            store: self.clone(),
        }
    }

    /// The store-wide metric registry: every count of the master, its
    /// published bases and its sessions' pins, live.
    #[must_use]
    pub fn metrics_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.metrics.registry)
    }

    /// Installs a fault plan on the master (see
    /// [`Database::set_fault_plan`]); snapshots pinned afterwards carry
    /// it, so armed query sites fire on session reads too.
    pub fn set_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlan> {
        let mut master = self.lock_master();
        let plan = master.set_fault_plan(plan);
        self.publish(master);
        plan
    }

    /// Removes the fault plan, if any.
    pub fn clear_fault_plan(&self) {
        let mut master = self.lock_master();
        master.clear_fault_plan();
        self.publish(master);
    }

    /// Materializes the master's current contents (a consistent commit
    /// boundary) as a [`DatabaseState`].
    pub fn snapshot(&self) -> Result<DatabaseState> {
        self.lock_master().snapshot()
    }

    /// Runs the deep integrity checker against the master's current
    /// state (see [`Database::verify_integrity`]).
    #[must_use]
    pub fn verify_integrity(&self) -> IntegrityReport {
        self.lock_master().verify_integrity()
    }

    fn lock_master(&self) -> MutexGuard<'_, Database> {
        // Every write path contains its own panics (`fault::contain`) and
        // rolls itself back, so only a panic outside them — a bug — can
        // poison the mutex. Recover the guard rather than propagate the
        // poison to every other session.
        self.inner
            .master
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_published(&self) -> MutexGuard<'_, Option<Arc<Database>>> {
        self.inner
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a successful commit: takes the published base while
    /// `master` is still locked, so no pin gets it after the commit, then
    /// unlocks and drops it. The writer, not the next pin, frees the
    /// tables its commit copied; `engine.session.publish.ns` times all
    /// three steps.
    fn publish(&self, master: MutexGuard<'_, Database>) {
        let t0 = Instant::now();
        let retired = self.lock_published().take();
        drop(master);
        drop(retired);
        self.inner
            .metrics
            .publish_ns
            .record(relmerge_obs::elapsed_ns(t0));
    }

    /// The snapshot base of the current commit. After a commit retired
    /// it, the first pin builds it from the master while holding both
    /// locks, so every pin until the next commit gets that one base.
    fn pinned_base(&self) -> Arc<Database> {
        if let Some(base) = self.lock_published().clone() {
            return base;
        }
        let master = self.lock_master();
        let mut published = self.lock_published();
        Arc::clone(published.get_or_insert_with(|| Arc::new(master.snapshot_handle())))
    }

    /// The serialized writer section: locks the master, fires the
    /// `engine.writer.commit` fault gate (contained — an injected panic
    /// becomes a typed error without poisoning anything), runs `f`, and
    /// publishes only if `f` succeeded. A failed `f` has rolled itself
    /// back (every `Database` write path does), so the published base —
    /// and every pinned reader — is untouched.
    fn with_writer<T, E: From<Error>>(
        &self,
        f: impl FnOnce(&mut Database) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let mut master = self.lock_master();
        contain(|| master.fault_check(site::WRITER_COMMIT))?;
        let out = f(&mut master)?;
        self.publish(master);
        Ok(out)
    }
}

/// One client's handle on a [`Store`]: pin snapshots to read, call the
/// write verbs to mutate through the serialized writer path. Cheap to
/// create and drop; `Send`, so each client thread owns one.
pub struct Session {
    store: Store,
}

impl Session {
    /// Pins the store's current state and returns the frozen
    /// [`Snapshot`]: the store's published base for the current commit,
    /// shared with every other pin at that commit. Only the first pin
    /// after a commit locks the master, to build the base, and so waits
    /// for a commit in flight; the returned snapshot is immutable — the
    /// same query against it returns byte-identical results no matter
    /// what writers do afterwards.
    ///
    /// Fault site [`site::SESSION_SNAPSHOT`] fires here; a fire (error
    /// or panic) is contained to this pin attempt.
    pub fn pin(&self) -> Result<Snapshot> {
        let t0 = Instant::now();
        let db = self.store.pinned_base();
        contain(|| db.fault_check(site::SESSION_SNAPSHOT))?;
        db.metrics.pin_ns.record(relmerge_obs::elapsed_ns(t0));
        Ok(Snapshot { db })
    }

    /// Applies an all-or-nothing statement batch through the serialized
    /// writer path (see [`Database::apply_batch`]).
    pub fn apply_batch(&self, stmts: &[Statement]) -> std::result::Result<BatchOutcome, DmlError> {
        self.store.with_writer(|db| db.apply_batch(stmts))
    }

    /// Inserts one tuple through the serialized writer path (see
    /// [`Database::insert`]).
    pub fn insert(
        &self,
        rel: &str,
        t: relmerge_relational::Tuple,
    ) -> std::result::Result<bool, DmlError> {
        self.store.with_writer(|db| db.insert(rel, t))
    }

    /// Deletes by primary key through the serialized writer path (see
    /// [`Database::delete_by_key`]).
    pub fn delete_by_key(
        &self,
        rel: &str,
        key: &relmerge_relational::Tuple,
    ) -> std::result::Result<bool, DmlError> {
        self.store.with_writer(|db| db.delete_by_key(rel, key))
    }

    /// Executes an online merge migration through the serialized writer
    /// path (see [`Database::migrate`]). Readers pinned before the
    /// migration keep their pre-migration view; pins after a successful
    /// migration see the merged schema.
    pub fn migrate(&self, plan: &Merged) -> Result<MigrationReport> {
        self.store.with_writer(|db| db.migrate(plan))
    }
}

/// A frozen, consistent view of a [`Store`] at one commit boundary,
/// pinned by [`Session::pin`]: the store's published base for that
/// commit, shared by every pin taken there. Dereferences to
/// [`Database`], so the whole `&self` read API works against it; the
/// writer's later commits never change what it sees (copy-on-write), and
/// it never blocks them. Only a shared reference to the base ever leaves
/// the newtype, so no holder can mutate it.
pub struct Snapshot {
    db: Arc<Database>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version_vector", &self.version_vector())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// The pinned version vector: every relation's modification version
    /// at the commit boundary this snapshot froze. Two snapshots with
    /// equal vectors see byte-identical data; the vector also names the
    /// exact serial state a replay must reproduce for determinism
    /// checks.
    #[must_use]
    pub fn version_vector(&self) -> Vec<(String, u64)> {
        self.db.relation_versions()
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;
    use crate::query::{JoinStep, QueryPlan};
    use crate::DbmsProfile;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Tuple,
        Value,
    };

    fn schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new("P", vec![Attribute::new("P.K", Domain::Int)], &["P.K"]).unwrap(),
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

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    fn store() -> Store {
        let db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        Store::new(db)
    }

    #[test]
    fn pinned_snapshot_is_frozen_while_writers_proceed() {
        let st = store();
        let writer = st.session();
        let reader = st.session();
        writer.insert("P", tup(&[1])).unwrap();
        let snap = reader.pin().unwrap();
        assert_eq!(snap.len("P"), 1);
        let vv = snap.version_vector();

        // The writer keeps committing; the pinned view does not move.
        writer.insert("P", tup(&[2])).unwrap();
        writer.insert("C", tup(&[10, 2])).unwrap();
        assert_eq!(snap.len("P"), 1);
        assert_eq!(snap.len("C"), 0);
        assert_eq!(snap.version_vector(), vv);

        // A fresh pin sees the new commits.
        let snap2 = reader.pin().unwrap();
        assert_eq!(snap2.len("P"), 2);
        assert_eq!(snap2.len("C"), 1);
        assert!(snap2.version_vector() > vv);
    }

    #[test]
    fn pins_at_one_commit_share_one_base() {
        let st = store();
        let s1 = st.session();
        let s2 = st.session();
        s1.insert("P", tup(&[1])).unwrap();
        let a = s1.pin().unwrap();
        let b = s2.pin().unwrap();
        assert!(
            std::ptr::eq(&*a, &*b),
            "one published base, not a handle per pin"
        );
        assert_eq!(a.version_vector(), b.version_vector());
        assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
        // A commit retires the base: the next pin gets a new one.
        s2.insert("P", tup(&[2])).unwrap();
        assert!(!std::ptr::eq(&*a, &*s1.pin().unwrap()));
    }

    #[test]
    fn writer_commit_fault_leaves_readers_and_master_untouched() {
        let st = store();
        let s = st.session();
        s.insert("P", tup(&[1])).unwrap();
        let pre = st.snapshot().unwrap();
        let snap = s.pin().unwrap();
        for mode in [FaultMode::Error, FaultMode::Panic] {
            let plan = st.set_fault_plan(FaultPlan::new().fail_at(site::WRITER_COMMIT, 0, mode));
            let err = s.insert("P", tup(&[2])).unwrap_err();
            match mode {
                FaultMode::Error => {
                    assert!(
                        matches!(err, DmlError::Schema(Error::Injected { .. })),
                        "{err}"
                    )
                }
                FaultMode::Panic => assert!(
                    matches!(err, DmlError::Schema(Error::ExecutionPanic { .. })),
                    "{err}"
                ),
            }
            assert_eq!(plan.fired(site::WRITER_COMMIT), 1);
            st.clear_fault_plan();
            assert_eq!(st.snapshot().unwrap(), pre);
            assert_eq!(snap.len("P"), 1, "pinned reader untouched");
            assert!(st.verify_integrity().is_clean());
        }
        s.insert("P", tup(&[2])).unwrap();
    }

    #[test]
    fn session_snapshot_fault_is_contained_to_the_pin() {
        let st = store();
        let s = st.session();
        s.insert("P", tup(&[1])).unwrap();
        for mode in [FaultMode::Error, FaultMode::Panic] {
            let plan = st.set_fault_plan(FaultPlan::new().fail_at(site::SESSION_SNAPSHOT, 0, mode));
            let err = s.pin().unwrap_err();
            match mode {
                FaultMode::Error => assert!(matches!(err, Error::Injected { .. }), "{err}"),
                FaultMode::Panic => assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}"),
            }
            assert_eq!(plan.fired(site::SESSION_SNAPSHOT), 1);
            st.clear_fault_plan();
            let snap = s.pin().unwrap();
            assert_eq!(snap.len("P"), 1);
        }
    }

    #[test]
    fn a_session_read_counts_on_the_store_registry_at_once() {
        // P carries a non-indexed attribute so the hash join goes through
        // the transient build-cache path (unique/lookup-indexed right
        // sides bypass the cache).
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
        let st = Store::new(Database::new(rs, DbmsProfile::ideal()).unwrap());
        let s = st.session();
        s.insert("P", tup(&[1, 1])).unwrap();
        s.insert("C", tup(&[10, 1])).unwrap();
        let snap = s.pin().unwrap();
        // The transient hash build charges the cache-miss counter to the
        // store's one shard while the session and its pin are alive.
        let plan = QueryPlan::scan("C").join(JoinStep::inner("P", &["C.FK"], &["P.V"]));
        let before = st.metrics_registry().snapshot();
        let (rows, stats) = snap.execute(&plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.hash_builds, 1);
        let read = st.metrics_registry().snapshot();
        let counted = read.diff(&before).counters;
        assert_eq!(counted.get("engine.query.build_cache.misses"), Some(&1));
        assert_eq!(counted.get("engine.query.rows_output"), Some(&1));
        // Nothing is folded when the pin and the session drop.
        drop(snap);
        drop(s);
        assert_eq!(st.metrics_registry().snapshot(), read);
    }

    #[test]
    fn batches_and_single_statements_commit_through_the_store() {
        let st = store();
        let s = st.session();
        s.apply_batch(&[
            Statement::insert("P", tup(&[1])),
            Statement::insert("C", tup(&[10, 1])),
        ])
        .unwrap();
        let snap = s.pin().unwrap();
        assert_eq!(snap.len("C"), 1);
        // A rejected batch or statement rolls back and does not commit.
        assert!(s
            .apply_batch(&[
                Statement::insert("P", tup(&[2])),
                Statement::insert("C", tup(&[11, 99])),
            ])
            .is_err());
        assert!(s.insert("C", tup(&[12, 99])).is_err());
        assert!(std::ptr::eq(&*snap, &*s.pin().unwrap()));
        assert_eq!(s.pin().unwrap().len("P"), 1);
    }

    #[test]
    fn a_commit_after_a_pin_copies_each_table_it_touches() {
        let st = store();
        let s = st.session();
        s.insert("P", tup(&[1])).unwrap();
        s.insert("C", tup(&[10, 1])).unwrap();
        s.insert("C", tup(&[11, 1])).unwrap();
        let copies = || {
            let snap = st.metrics_registry().snapshot();
            (
                snap.counters["engine.cow.table_copies"],
                snap.counters["engine.cow.copied_rows"],
            )
        };
        assert_eq!(copies(), (0, 0), "no pin yet, nothing shared");
        // A pinned snapshot shares every table: the insert copies P (one
        // row slot) and leaves C (two) alone.
        let snap = s.pin().unwrap();
        s.insert("P", tup(&[2])).unwrap();
        assert_eq!(copies(), (1, 1));
        assert_eq!(snap.len("P"), 1);
        // With every snapshot dropped, the store's published base still
        // shares P, so the next commit after a pin copies it again.
        drop(snap);
        drop(s.pin().unwrap());
        s.insert("P", tup(&[3])).unwrap();
        assert_eq!(copies(), (2, 3));
        // No pin in between: the master owns P alone.
        s.insert("P", tup(&[4])).unwrap();
        assert_eq!(copies(), (2, 3));
        let pins = &st.metrics_registry().snapshot().histograms["engine.session.pin.ns"];
        assert_eq!(pins.count, 2, "each pin is timed");
    }

    fn copies(st: &Store) -> u64 {
        st.metrics_registry().snapshot().counters["engine.cow.table_copies"]
    }

    #[test]
    fn a_commit_frees_the_tables_it_copied_before_it_returns() {
        let st = store();
        let s = st.session();
        s.insert("P", tup(&[1])).unwrap();
        drop(s.pin().unwrap());
        // No snapshot is held; the published base alone shares P.
        let old_p = Arc::downgrade(&st.lock_published().as_ref().unwrap().tables["P"]);
        assert!(old_p.upgrade().is_some());
        s.insert("P", tup(&[2])).unwrap();
        assert_eq!(copies(&st), 1);
        assert!(old_p.upgrade().is_none(), "the writer freed the old P");
    }

    #[test]
    fn a_second_commit_without_a_pin_copies_no_table() {
        let st = store();
        let s = st.session();
        s.insert("P", tup(&[1])).unwrap();
        drop(s.pin().unwrap());
        s.insert("P", tup(&[2])).unwrap();
        assert_eq!(copies(&st), 1);
        // The first commit retired the base, so C is the master's alone.
        s.insert("C", tup(&[10, 1])).unwrap();
        assert_eq!(copies(&st), 1);
    }

    #[test]
    fn pins_racing_right_after_a_commit_get_one_base() {
        const READERS: usize = 4;
        const COMMITS: i64 = 1_000;
        // Two thousand more relations make a base slow enough to build
        // that the released pins overlap its building, also on a host
        // whose idle cores wake slowly.
        let mut rs = schema();
        for i in 0..2_000 {
            let key = format!("W{i}.K");
            let attrs = vec![Attribute::new(key.as_str(), Domain::Int)];
            rs.add_scheme(RelationScheme::new(format!("W{i}"), attrs, &[key.as_str()]).unwrap())
                .unwrap();
        }
        let st = Store::new(Database::new(rs, DbmsProfile::ideal()).unwrap());
        let go = Arc::new(std::sync::Barrier::new(READERS + 1));
        let (tx, rx) = std::sync::mpsc::channel();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (s, go, tx) = (st.session(), Arc::clone(&go), tx.clone());
                std::thread::spawn(move || {
                    for _ in 0..COMMITS {
                        go.wait();
                        tx.send(s.pin().unwrap()).unwrap();
                    }
                })
            })
            .collect();
        let writer = st.session();
        for k in 0..COMMITS {
            writer.insert("P", tup(&[k])).unwrap();
            go.wait();
            let pins: Vec<Snapshot> = (0..READERS).map(|_| rx.recv().unwrap()).collect();
            for pin in &pins {
                assert!(std::ptr::eq(&*pins[0], &**pin), "commit {k}: two bases");
                assert_eq!(pin.len("P"), k as usize + 1);
            }
        }
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn only_a_successful_commit_publishes() {
        let st = store();
        let s = st.session();
        let publications =
            || st.metrics_registry().snapshot().histograms["engine.session.publish.ns"].count;
        s.insert("P", tup(&[1])).unwrap();
        assert_eq!(publications(), 1);
        let snap = s.pin().unwrap();
        // Dangling FK: the statement fails, rolls back and keeps the base.
        assert!(s.insert("C", tup(&[10, 99])).is_err());
        assert!(std::ptr::eq(&*snap, &*s.pin().unwrap()));
        assert_eq!(snap.len("C"), 0);
        assert!(st.verify_integrity().is_clean());
        assert_eq!(publications(), 1);
        for mode in [FaultMode::Error, FaultMode::Panic] {
            st.set_fault_plan(FaultPlan::new().fail_at(site::WRITER_COMMIT, 0, mode));
            let base = s.pin().unwrap();
            assert!(s.insert("P", tup(&[2])).is_err());
            assert!(std::ptr::eq(&*base, &*s.pin().unwrap()), "{mode:?}");
            st.clear_fault_plan();
        }
        // Two plan changes per mode, and no faulted commit.
        assert_eq!(publications(), 5);
        // The store remains fully serviceable.
        s.insert("P", tup(&[2])).unwrap();
        assert_eq!(publications(), 6);
        assert_eq!(s.pin().unwrap().len("P"), 2);
    }
}
