//! Batched DML behind a unified statement API, with one constraint
//! validator run on two schedules.
//!
//! Every mutation of a [`Database`] — the single-statement methods and
//! whole batches — flows through one apply step over [`Statement`]
//! values. The step checks only what cannot wait, the statement's shape
//! and key uniqueness; then the row lands and joins a *touch set*, and
//! one group validator checks null constraints, inclusion dependencies
//! and RESTRICT semantics over it, on one of two schedules:
//!
//! * **immediate** — right after each statement, over that statement's
//!   own rows: a rejection rolls the statement back (and, inside a batch,
//!   the whole batch);
//! * **deferred** — once per constraint over the touched rows of each
//!   relation when the batch commits (SQL-92 `DEFERRABLE INITIALLY
//!   DEFERRED`), on profiles with the `deferred_checking` capability.
//!
//! Deferral is what makes order-free batches possible: a referencing child
//! may be inserted before its parent, a parent deleted before its children,
//! and a cyclic pair of inclusion dependencies — which no sequence of
//! eagerly-checked statements can ever populate — becomes insertable in a
//! single batch. It is also cheaper: group validation runs each constraint
//! class once per touched relation (deduplicating repeated foreign-key
//! values into single index probes) instead of re-probing per statement,
//! which is the §5.1 maintenance cost amortized over the batch. For large
//! batches touching several relations, deferred validation fans out across
//! relations on up to [`Database::parallelism`] threads.
//!
//! Key uniqueness is checked as each row lands, on both schedules, because
//! the hash indexes that back every other check must stay consistent while
//! a batch applies — the same reason SQL `PRIMARY KEY` constraints are
//! typically not deferrable.
//!
//! All-or-nothing semantics come from one undo log: a statement or batch
//! that fails any check, fails its write-ahead append, or panics is rolled
//! back completely, leaving rows *and indexes* exactly as they were. Row
//! counters (`engine.dml.*`) count a statement's rows when its statement or
//! batch commits; the always-on `engine.dml.{insert,delete,update}.ns` and
//! `engine.batch.ns` histograms time every statement and batch, committed
//! or rolled back.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use relmerge_obs::{self as obs};
use relmerge_relational::{Error, FxHashMap, Tuple};

use crate::database::{key_hash, CheckClass, Database, DmlError};
use crate::fault::{contain, fan_out, site};

/// One DML statement, the unit of the unified execution path.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Insert `tuple` into `rel`.
    Insert {
        /// Target relation.
        rel: String,
        /// The tuple to insert.
        tuple: Tuple,
    },
    /// Delete the row of `rel` whose primary key equals `key`.
    Delete {
        /// Target relation.
        rel: String,
        /// Primary-key value of the victim.
        key: Tuple,
    },
    /// Replace the row of `rel` whose primary key equals `key` with
    /// `tuple` (which may change the key).
    Update {
        /// Target relation.
        rel: String,
        /// Primary-key value of the row to replace.
        key: Tuple,
        /// The replacement tuple.
        tuple: Tuple,
    },
}

impl Statement {
    /// An insert statement.
    pub fn insert(rel: impl Into<String>, tuple: Tuple) -> Self {
        Statement::Insert {
            rel: rel.into(),
            tuple,
        }
    }

    /// A delete-by-primary-key statement.
    pub fn delete(rel: impl Into<String>, key: Tuple) -> Self {
        Statement::Delete {
            rel: rel.into(),
            key,
        }
    }

    /// An update-by-primary-key statement.
    pub fn update(rel: impl Into<String>, key: Tuple, tuple: Tuple) -> Self {
        Statement::Update {
            rel: rel.into(),
            key,
            tuple,
        }
    }

    /// The relation this statement targets.
    #[must_use]
    pub fn rel(&self) -> &str {
        match self {
            Statement::Insert { rel, .. }
            | Statement::Delete { rel, .. }
            | Statement::Update { rel, .. } => rel,
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Insert { rel, tuple } => write!(f, "INSERT INTO {rel} {tuple}"),
            Statement::Delete { rel, key } => write!(f, "DELETE FROM {rel} WHERE pk = {key}"),
            Statement::Update { rel, key, tuple } => {
                write!(f, "UPDATE {rel} SET {tuple} WHERE pk = {key}")
            }
        }
    }
}

/// What one statement of a committed batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementOutcome {
    /// A new tuple landed.
    Inserted,
    /// An existing row was removed.
    Deleted,
    /// An existing row was replaced (or the replacement was identical).
    Updated,
    /// Nothing changed: duplicate identical insert, or delete/update of a
    /// missing key.
    Noop,
}

/// The report of a committed batch: what each statement did, and how much
/// validation work the commit performed.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-statement outcomes, parallel to the input slice. When the batch
    /// *fails*, [`Database::apply_batch`] instead returns
    /// [`DmlError::AtStatement`] naming the failing statement.
    pub outcomes: Vec<StatementOutcome>,
    /// Whether constraint checking was deferred to commit (profile
    /// capability) or ran on the immediate schedule, after each statement.
    pub deferred: bool,
    /// Group validations performed at commit (0 in immediate mode).
    pub deferred_checks: u64,
}

impl BatchOutcome {
    /// Statements that changed the database.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, StatementOutcome::Noop))
            .count()
    }

    /// Statements that were no-ops.
    #[must_use]
    pub fn noops(&self) -> usize {
        self.outcomes.len() - self.applied()
    }
}

/// One undoable change — the rollback unit of statements and batches. It
/// names the slot it changed, so rollback restores every table slot for
/// slot, with no probe and no way to fail. The relation name is borrowed
/// from the statement that made the change, so an entry allocates nothing
/// of its own.
pub(crate) enum Undo<'s> {
    /// Take out the row that landed at `slot`.
    Insert {
        /// Relation the row went into.
        rel: &'s str,
        /// Where it landed.
        slot: usize,
    },
    /// Put the removed `tuple` back at its `slot`.
    Delete {
        /// Relation the row came from.
        rel: &'s str,
        /// Where it was.
        slot: usize,
        /// The removed row.
        tuple: Tuple,
    },
}

impl Undo<'_> {
    /// Approximate heap footprint of this entry — the batch path's
    /// analogue of the executor's intermediate-byte accounting, so the
    /// staging cost of a batch is observable before it commits: the entry
    /// itself, plus the values of the row a removal holds.
    fn approx_bytes(&self) -> u64 {
        let removed = match self {
            Undo::Insert { .. } => 0,
            Undo::Delete { tuple, .. } => std::mem::size_of_val(tuple.values()),
        };
        (std::mem::size_of::<Undo>() + removed) as u64
    }

    /// The row a removal took out (validation reads removed rows here).
    fn removed(&self) -> &Tuple {
        match self {
            Undo::Delete { tuple, .. } => tuple,
            Undo::Insert { .. } => unreachable!("removed rows are recorded by their removals"),
        }
    }
}

/// Reverses every recorded change, newest first.
fn rollback(db: &mut Database, undo: Vec<Undo<'_>>) {
    for entry in undo.into_iter().rev() {
        match entry {
            Undo::Insert { rel, slot } => {
                db.take_slot(rel, slot);
            }
            Undo::Delete { rel, slot, tuple } => db.restore_slot(rel, slot, tuple),
        }
    }
}

/// The rows one statement changed in its relation: the row it removed
/// (its slot and its undo entry) and the slot of the row it landed.
#[derive(Default)]
struct Touch {
    removed: Option<(usize, usize)>,
    landed: Option<usize>,
}

/// A touched row as validation reads it: the row's slot (inserted rows)
/// or undo entry (removed rows), and the index of the statement that
/// touched it, for error attribution. No row is copied.
type TouchedRow = (usize, usize);

/// The earliest statement that touched any of `inserted` or `deleted`.
fn first_index(inserted: &[TouchedRow], deleted: &[TouchedRow]) -> usize {
    inserted
        .iter()
        .chain(deleted)
        .map(|&(_, i)| i)
        .min()
        .unwrap_or(0)
}

/// The net rows one deferred batch changed in one relation.
#[derive(Default)]
struct TouchedRel {
    /// The rows the batch inserted that are still live, by slot.
    inserted: Vec<TouchedRow>,
    /// Where each slot of `inserted` sits in it, so that a removal finds
    /// its row in O(1) however many rows the batch inserted. Built by the
    /// first removal that meets inserted rows, so a batch that only
    /// inserts or only deletes never builds it: a bulk seed is one
    /// insert-only batch, and a map kept from its first row would raise
    /// the seed's heap peak.
    inserted_at: Option<FxHashMap<usize, usize>>,
    /// The pre-existing rows the batch removed, by undo entry.
    deleted: Vec<TouchedRow>,
}

impl TouchedRel {
    fn record(&mut self, touch: Touch, index: usize) {
        if let Some((slot, entry)) = touch.removed {
            // Deleting a row the batch itself inserted is a net no-op: it
            // is neither a new row to validate nor a pre-existing row whose
            // removal could orphan references that predate the batch.
            if !self.take_inserted(slot) {
                self.deleted.push((entry, index));
            }
        }
        if let Some(slot) = touch.landed {
            if let Some(at) = &mut self.inserted_at {
                at.insert(slot, self.inserted.len());
            }
            self.inserted.push((slot, index));
        }
    }

    /// Removes `slot` from `inserted` and returns true if the batch
    /// inserted it. The rows left keep the order `swap_remove` leaves them
    /// in, the order validation reads them in.
    fn take_inserted(&mut self, slot: usize) -> bool {
        if self.inserted.is_empty() {
            return false;
        }
        let inserted = &self.inserted;
        let at = self.inserted_at.get_or_insert_with(|| {
            let slots = inserted.iter().enumerate().map(|(pos, &(s, _))| (s, pos));
            slots.collect()
        });
        let Some(pos) = at.remove(&slot) else {
            return false;
        };
        self.inserted.swap_remove(pos);
        if let Some(&(moved, _)) = self.inserted.get(pos) {
            at.insert(moved, pos);
        }
        true
    }
}

/// Per-relation touch sets of one deferred batch, keyed by the relation
/// names the statements carry.
#[derive(Default)]
struct Touched<'s> {
    rels: BTreeMap<&'s str, TouchedRel>,
}

impl Touched<'_> {
    fn total_rows(&self) -> usize {
        self.rels
            .values()
            .map(|t| t.inserted.len() + t.deleted.len())
            .sum()
    }
}

/// A group-validation failure: which statement caused it, and why.
struct Violation {
    index: usize,
    error: DmlError,
}

/// Batches at or above this many touched rows validate their relations on
/// up to [`Database::parallelism`] threads.
const PARALLEL_ROW_THRESHOLD: usize = 512;

/// One distinct key of a touch set: its hash (0 when it needs none), a
/// row carrying it, and the earliest statement index that introduced it.
type Key<'t> = (u64, &'t Tuple, usize);

/// The buffer that deduplicates a touch set's keys, reused by every check
/// of one relation's validation.
#[derive(Default)]
struct Keys<'t> {
    /// The key of a one-row touch set, which needs no hash and no buffer.
    lone: Option<Key<'t>>,
    many: Vec<Key<'t>>,
}

impl<'t> Keys<'t> {
    /// One entry per distinct key at `pos` among the `rows` that are total
    /// there. Keys are told apart by hash and then by value, read in
    /// place; none is projected.
    fn distinct(
        &mut self,
        rows: impl Iterator<Item = (&'t Tuple, usize)>,
        pos: &[usize],
    ) -> &[Key<'t>] {
        let mut rows = rows
            .filter(|(t, _)| t.is_total_at(pos))
            .map(|(t, i)| (0, t, i));
        let Some(first) = rows.next() else {
            return &[];
        };
        let Some(second) = rows.next() else {
            return std::slice::from_ref(self.lone.insert(first));
        };
        let keys = &mut self.many;
        keys.clear();
        keys.extend([first, second].into_iter().chain(rows));
        for key in keys.iter_mut() {
            key.0 = key_hash(pos.iter().map(|&p| key.1.get(p)));
        }
        keys.sort_unstable_by_key(|&(hash, _, index)| (hash, index));
        let mut kept = 0;
        for next in 0..keys.len() {
            let (hash, row, _) = keys[next];
            // The kept keys sharing this hash sit just below `kept`.
            let seen = keys[..kept]
                .iter()
                .rev()
                .take_while(|k| k.0 == hash)
                .any(|k| pos.iter().all(|&p| k.1.get(p) == row.get(p)));
            if !seen {
                keys[kept] = keys[next];
                kept += 1;
            }
        }
        keys.truncate(kept);
        keys
    }
}

/// The constraints `map` declares on `rel` that apply to a touch set
/// whose relevant rows are `rows`: none when there are no such rows.
fn constraints_on<'a, T>(
    map: &'a BTreeMap<String, Vec<T>>,
    rel: &str,
    rows: &[TouchedRow],
) -> &'a [T] {
    if rows.is_empty() {
        return &[];
    }
    map.get(rel).map_or(&[], Vec::as_slice)
}

impl Database {
    /// Inserts a tuple, enforcing every constraint. On success returns
    /// whether the tuple was new (duplicate inserts of an identical tuple
    /// are idempotent successes, matching set semantics).
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Insert {
            rel: rel.to_owned(),
            tuple: t,
        };
        Ok(matches!(self.apply_one(&stmt)?, StatementOutcome::Inserted))
    }

    /// Deletes the tuple with the given primary-key value, enforcing
    /// RESTRICT semantics on incoming inclusion dependencies.
    pub fn delete_by_key(&mut self, rel: &str, key: &Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Delete {
            rel: rel.to_owned(),
            key: key.clone(),
        };
        Ok(matches!(self.apply_one(&stmt)?, StatementOutcome::Deleted))
    }

    /// Updates the row with primary key `key` to `new`, atomically. The
    /// new tuple may change the key; referential RESTRICT applies only to
    /// referenced projections that actually change, because the new row
    /// lands before the old one's references are checked. Returns whether
    /// a row with that key existed.
    pub fn update_by_key(&mut self, rel: &str, key: &Tuple, new: Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Update {
            rel: rel.to_owned(),
            key: key.clone(),
            tuple: new,
        };
        Ok(matches!(self.apply_one(&stmt)?, StatementOutcome::Updated))
    }

    /// Runs one statement on the immediate schedule and records its
    /// latency on `engine.dml.{insert,delete,update}.ns` — the
    /// single-statement public API, whatever the profile's checking
    /// capability.
    fn apply_one(&mut self, stmt: &Statement) -> Result<StatementOutcome, DmlError> {
        let start = Instant::now();
        // The statement, its validation and its write-ahead append run
        // under `contain`, with the undo log outside, as in `apply_batch`:
        // a rejection, a failed append or a panic mid-statement (injected
        // or genuine) rolls back every change that landed. A statement
        // stopped before it changed a row, or a Noop, leaves `undo` empty
        // and appends nothing.
        let mut undo: Vec<Undo<'_>> = Vec::new();
        let result = contain(|| -> Result<(StatementOutcome, bool), DmlError> {
            let outcome = self.apply_immediate(stmt, 0, &mut undo)?;
            let snapshot_due =
                !undo.is_empty() && self.wal_append_batch(std::slice::from_ref(stmt))?;
            Ok((outcome, snapshot_due))
        });
        let result = match result {
            Ok((outcome, snapshot_due)) => {
                let updates =
                    u64::from(matches!(stmt, Statement::Update { .. }) && !undo.is_empty());
                self.count_committed(&undo, updates);
                drop(undo);
                if snapshot_due {
                    self.cadence_snapshot();
                }
                Ok(outcome)
            }
            Err(e) => {
                rollback(self, undo);
                Err(e)
            }
        };
        let ns = obs::elapsed_ns(start);
        match stmt {
            Statement::Insert { .. } => self.metrics.insert_ns.record(ns),
            Statement::Delete { .. } => self.metrics.delete_ns.record(ns),
            Statement::Update { .. } => self.metrics.update_ns.record(ns),
        }
        result
    }

    /// Applies `stmts` atomically. When the profile supports deferred
    /// checking, null constraints, inclusion dependencies, and RESTRICT
    /// semantics are validated once per constraint over the touched rows at
    /// commit — so statements may arrive in any order, including a
    /// referencing child before its parent. Profiles without the capability
    /// validate each statement's own rows right after it lands (still
    /// all-or-nothing, but order-sensitive).
    ///
    /// On failure the returned [`DmlError::AtStatement`] names the
    /// statement that caused the rejection and the whole batch is rolled
    /// back: rows and indexes are exactly as before the call.
    ///
    /// On a durable database a commit that makes the snapshot cadence due
    /// takes the snapshot last, after the batch has released its undo log
    /// and touch sets; `engine.batch.ns` covers it.
    pub fn apply_batch(&mut self, stmts: &[Statement]) -> Result<BatchOutcome, DmlError> {
        let start = Instant::now();
        let deferred = self.profile().deferred_checking;
        let mut undo: Vec<Undo<'_>> = Vec::with_capacity(stmts.len());
        let mut outcomes = Vec::with_capacity(stmts.len());
        let mut updates = 0u64;
        // The whole forward path — statement apply, group validation, the
        // commit tail — runs under `contain`, with the undo log owned
        // *outside* the closure. Every mutation records its undo entry
        // before any fault site can fire again, so a panic anywhere inside
        // (injected or genuine) leaves `undo` complete: the caught panic
        // becomes a typed error and takes the same rollback path a
        // constraint violation does.
        let result = contain(|| -> Result<(u64, bool), DmlError> {
            let mut touched = Touched::default();
            for (i, stmt) in stmts.iter().enumerate() {
                self.fault_check(site::STATEMENT_APPLY)
                    .map_err(|e| DmlError::at_statement(i, e.into()))?;
                let undo_before = undo.len();
                let applied = if deferred {
                    self.apply_statement(stmt, &mut undo)
                        .map(|(outcome, touch)| {
                            touched.rels.entry(stmt.rel()).or_default().record(touch, i);
                            outcome
                        })
                } else {
                    self.apply_immediate(stmt, i, &mut undo)
                };
                match applied {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => return Err(DmlError::at_statement(i, e)),
                }
                if matches!(stmt, Statement::Update { .. }) && undo.len() > undo_before {
                    updates += 1;
                }
            }
            let checks = if deferred {
                match self.validate_deferred(&touched, &undo) {
                    Ok(c) => c,
                    Err(e) => {
                        // Apply-time failures already counted themselves;
                        // commit-time violations are counted here.
                        self.metrics.rejected.inc();
                        return Err(e);
                    }
                }
            } else {
                0
            };
            // Validation was the touch sets' last reader.
            drop(touched);
            self.fault_check(site::COMMIT)?;
            // Write-ahead: on a durable database the batch's log record
            // must be on disk before the commit becomes visible. A failed
            // append — IO error, injected error, or injected panic at
            // `engine.wal.append` — takes the same rollback path a
            // constraint violation does, so nothing un-logged survives.
            let snapshot_due = self.wal_append_batch(stmts).map_err(DmlError::from)?;
            Ok((checks, snapshot_due))
        });
        self.metrics.batch_size.record(stmts.len() as u64);
        // Undo-log footprint at its high-water mark (the log is complete
        // here whether the batch commits or rolls back).
        let undo_bytes: u64 = undo.iter().map(Undo::approx_bytes).sum();
        self.metrics.undo_entries.record(undo.len() as u64);
        self.metrics.undo_bytes.record(undo_bytes);
        match result {
            Ok((deferred_checks, snapshot_due)) => {
                self.count_committed(&undo, updates);
                drop(undo);
                if snapshot_due {
                    self.cadence_snapshot();
                }
                self.metrics.batch_ns.record(obs::elapsed_ns(start));
                self.metrics.batch_commits.inc();
                Ok(BatchOutcome {
                    outcomes,
                    deferred,
                    deferred_checks,
                })
            }
            Err(e) => {
                self.metrics.batch_ns.record(obs::elapsed_ns(start));
                match e.root_cause() {
                    DmlError::Schema(Error::Injected { .. }) => self.metrics.injected_aborts.inc(),
                    DmlError::Schema(Error::ExecutionPanic { .. }) => {
                        self.metrics.panic_aborts.inc();
                    }
                    _ => {}
                }
                rollback(self, undo);
                self.metrics.batch_rollbacks.inc();
                Err(e)
            }
        }
    }

    /// Counts the rows of a statement or batch that committed: one insert
    /// or delete per undo entry (a changing update lands as one of each),
    /// plus the `updates` that changed a row.
    fn count_committed(&self, undo: &[Undo<'_>], updates: u64) {
        let inserts = undo
            .iter()
            .filter(|u| matches!(u, Undo::Insert { .. }))
            .count() as u64;
        self.metrics.inserts.add(inserts);
        self.metrics.deletes.add(undo.len() as u64 - inserts);
        self.metrics.updates.add(updates);
    }

    /// One statement on the immediate schedule: it lands, then
    /// [`Database::validate_relation`] checks its own touch set at once.
    /// The caller rolls back what `undo` gained when this fails.
    fn apply_immediate<'s>(
        &mut self,
        stmt: &'s Statement,
        index: usize,
        undo: &mut Vec<Undo<'s>>,
    ) -> Result<StatementOutcome, DmlError> {
        let (outcome, touch) = self.apply_statement(stmt, undo)?;
        let inserted = touch.landed.map(|slot| (slot, index));
        let deleted = touch.removed.map(|(_, entry)| (entry, index));
        if inserted.is_some() || deleted.is_some() {
            let rows = (inserted.as_slice(), deleted.as_slice());
            if let Err(v) = self.validate_relation(stmt.rel(), rows, undo, false) {
                self.metrics.rejected.inc();
                return Err(v.error);
            }
        }
        Ok(outcome)
    }

    /// The one statement-apply step of both schedules: the checks that
    /// cannot wait — shape and key uniqueness — then the row lands raw,
    /// recording its undo entry. Returns what the statement did and the
    /// rows it touched; every other check is
    /// [`Database::validate_relation`]'s, over those rows.
    fn apply_statement<'s>(
        &mut self,
        stmt: &'s Statement,
        undo: &mut Vec<Undo<'s>>,
    ) -> Result<(StatementOutcome, Touch), DmlError> {
        let mut touch = Touch::default();
        match stmt {
            Statement::Insert { rel, tuple } => {
                self.validate_shape(rel, tuple)?;
                if self.check_unique(rel, tuple)? {
                    return Ok((StatementOutcome::Noop, touch));
                }
                self.fault_check(site::INDEX_MAINTENANCE)?;
                let slot = self
                    .raw_insert(rel, tuple.clone())
                    .map_err(DmlError::Schema)?;
                undo.push(Undo::Insert { rel, slot });
                touch.landed = Some(slot);
                Ok((StatementOutcome::Inserted, touch))
            }
            Statement::Delete { rel, key } => {
                let Some(slot) = self.find_by_pk(rel, key)? else {
                    return Ok((StatementOutcome::Noop, touch));
                };
                self.fault_check(site::INDEX_MAINTENANCE)?;
                let victim = self.take_slot(rel, slot);
                undo.push(Undo::Delete {
                    rel,
                    slot,
                    tuple: victim,
                });
                touch.removed = Some((slot, undo.len() - 1));
                Ok((StatementOutcome::Deleted, touch))
            }
            Statement::Update { rel, key, tuple } => {
                let Some(slot) = self.find_by_pk(rel, key)? else {
                    return Ok((StatementOutcome::Noop, touch));
                };
                if self.tables[rel].rows[slot].as_ref() == Some(tuple) {
                    return Ok((StatementOutcome::Updated, touch));
                }
                self.validate_shape(rel, tuple)?;
                self.fault_check(site::INDEX_MAINTENANCE)?;
                let old = self.take_slot(rel, slot);
                undo.push(Undo::Delete {
                    rel,
                    slot,
                    tuple: old,
                });
                touch.removed = Some((slot, undo.len() - 1));
                if !self.check_unique(rel, tuple)? {
                    self.fault_check(site::INDEX_MAINTENANCE)?;
                    let slot = self
                        .raw_insert(rel, tuple.clone())
                        .map_err(DmlError::Schema)?;
                    undo.push(Undo::Insert { rel, slot });
                    touch.landed = Some(slot);
                }
                Ok((StatementOutcome::Updated, touch))
            }
        }
    }

    /// The deferred schedule's commit-time validation: each constraint
    /// class is checked once over the touched rows of each relation.
    /// Large batches validate relations on up to
    /// [`Database::parallelism`] threads. Returns the number of group
    /// checks performed.
    fn validate_deferred(&self, touched: &Touched<'_>, undo: &[Undo<'_>]) -> Result<u64, DmlError> {
        let rels: Vec<(&&str, &TouchedRel)> = touched.rels.iter().collect();
        let workers = if touched.total_rows() >= PARALLEL_ROW_THRESHOLD {
            self.parallelism()
        } else {
            1
        };
        // A panicking validation (injected or genuine) fails only its
        // relation: the panic becomes a typed violation attributed to that
        // relation's earliest statement, and the batch rolls back normally.
        let results = fan_out(workers, &rels, |(name, tr)| {
            let rows = (&tr.inserted[..], &tr.deleted[..]);
            Ok(
                contain(|| Ok(self.validate_relation(name, rows, undo, true))).unwrap_or_else(
                    |e| {
                        Err(Violation {
                            index: first_index(rows.0, rows.1),
                            error: DmlError::Schema(e),
                        })
                    },
                ),
            )
        })?;
        let mut checks = 0u64;
        let mut worst: Option<Violation> = None;
        for r in results {
            match r {
                Ok(c) => checks += c,
                Err(v) => {
                    // Deterministic attribution: the earliest failing
                    // statement wins, whatever order threads finish in.
                    if worst.as_ref().is_none_or(|w| v.index < w.index) {
                        worst = Some(v);
                    }
                }
            }
        }
        match worst {
            None => Ok(checks),
            Some(v) => Err(DmlError::at_statement(v.index, v.error)),
        }
    }

    /// The one constraint validator, over one relation's touch set: null
    /// constraints over the inserted rows, outgoing inclusion dependencies
    /// over their distinct foreign keys, RESTRICT over the distinct
    /// referenced values the deletes removed. Every touched row is already
    /// in place, so a parent in the same batch, a self-reference, a value
    /// another row still provides, and a referencing row deleted alongside
    /// all resolve through the indexes. `deferred` says which schedule
    /// runs it: only the deferred one counts `engine.check.deferred`.
    fn validate_relation(
        &self,
        rel: &str,
        (inserted_rows, deleted_rows): (&[TouchedRow], &[TouchedRow]),
        undo: &[Undo<'_>],
        deferred: bool,
    ) -> Result<u64, Violation> {
        let structural = |e: DmlError| Violation {
            index: first_index(inserted_rows, deleted_rows),
            error: e,
        };
        self.fault_check(site::GROUP_VALIDATE)
            .map_err(|e| structural(e.into()))?;
        // Null constraints and outgoing INDs check inserted rows, RESTRICT
        // checks removed ones.
        let nulls = constraints_on(&self.nulls, rel, inserted_rows);
        let outgoing = constraints_on(&self.outgoing, rel, inserted_rows);
        let incoming = constraints_on(&self.incoming, rel, deleted_rows);
        if nulls.is_empty() && outgoing.is_empty() && incoming.is_empty() {
            return Ok(0);
        }
        let mut checks = 0u64;
        let mut counted = |class, mechanism, t0| {
            self.metrics.record_check(class, mechanism, t0);
            if deferred {
                self.metrics.deferred.inc();
            }
            checks += 1;
        };
        let table = &self.tables[rel];
        let inserted = || {
            inserted_rows.iter().map(|&(slot, i)| {
                (
                    table.rows[slot].as_ref().expect("inserted rows are live"),
                    i,
                )
            })
        };
        let mut keys = Keys::default();
        // Null constraints: one group check per constraint over the
        // inserted rows, read where they are stored (each kind is a
        // predicate on one row, and every row passed its shape check).
        for c in nulls {
            let t0 = Instant::now();
            let ok = c
                .constraint
                .satisfied_by_rows(&table.header, inserted().map(|(t, _)| t))
                .map_err(|e| structural(e.into()))?;
            counted(CheckClass::Null, c.mechanism, t0);
            if !ok {
                // Pinpoint the offending statement (failure path only; not
                // metered).
                let offender = inserted()
                    .find(|&(t, _)| {
                        c.constraint
                            .satisfied_by_rows(&table.header, [t])
                            .is_ok_and(|ok| !ok)
                    })
                    .map_or_else(|| first_index(inserted_rows, deleted_rows), |(_, i)| i);
                return Err(Violation {
                    index: offender,
                    error: DmlError::ConstraintViolation(c.constraint.to_string()),
                });
            }
        }
        // Outgoing inclusion dependencies: one group check per dependency,
        // probing each *distinct* foreign key once.
        for c in outgoing {
            let t0 = Instant::now();
            let lhs_pos = table
                .positions(&c.lhs_attrs)
                .map_err(|e| structural(e.into()))?;
            let target = &self.tables[&c.rhs_rel];
            let index = target
                .index(&c.rhs_attrs)
                .expect("both sides of every IND are indexed");
            let mut dangling: Option<(usize, &Tuple)> = None;
            for &(_, row, idx) in keys.distinct(inserted(), &lhs_pos) {
                self.metrics.index_probes.inc();
                let key = lhs_pos.iter().map(|&p| row.get(p));
                let found = index.find(&target.rows, key).next().is_some();
                if !found && dangling.is_none_or(|(i, _)| idx < i) {
                    dangling = Some((idx, row));
                }
            }
            counted(CheckClass::Ind, c.mechanism, t0);
            if let Some((idx, row)) = dangling {
                return Err(Violation {
                    index: idx,
                    error: DmlError::ConstraintViolation(format!(
                        "`{rel}`[{}] = {} has no match in `{}`[{}]",
                        c.lhs_attrs.join(","),
                        row.project(&lhs_pos),
                        c.rhs_rel,
                        c.rhs_attrs.join(",")
                    )),
                });
            }
        }
        // RESTRICT: one group check per incoming dependency, probing each
        // distinct referenced value the deletes removed: first whether a
        // live row of `rel` still provides it, then whether a live row
        // references it.
        for c in incoming {
            let t0 = Instant::now();
            let rhs_pos = table
                .positions(&c.rhs_attrs)
                .map_err(|e| structural(e.into()))?;
            let carried = |rel: &str, attrs: &[String], row: &Tuple| {
                let table = &self.tables[rel];
                table.index(attrs).is_some_and(|ix| {
                    let value = rhs_pos.iter().map(|&p| row.get(p));
                    ix.find(&table.rows, value).next().is_some()
                })
            };
            let mut orphaned: Option<(usize, &Tuple)> = None;
            let deleted = deleted_rows.iter().map(|&(u, i)| (undo[u].removed(), i));
            for &(_, row, idx) in keys.distinct(deleted, &rhs_pos) {
                self.metrics.index_probes.inc();
                if carried(rel, &c.rhs_attrs, row) {
                    continue;
                }
                self.metrics.index_probes.inc();
                let referencing = carried(&c.lhs_rel, &c.lhs_attrs, row);
                if referencing && orphaned.is_none_or(|(i, _)| idx < i) {
                    orphaned = Some((idx, row));
                }
            }
            counted(CheckClass::Restrict, c.mechanism, t0);
            if let Some((idx, row)) = orphaned {
                return Err(Violation {
                    index: idx,
                    error: DmlError::ConstraintViolation(format!(
                        "RESTRICT: `{}`[{}] still references {}",
                        c.lhs_rel,
                        c.lhs_attrs.join(","),
                        row.project(&rhs_pos)
                    )),
                });
            }
        }
        Ok(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbmsProfile;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Value,
    };

    fn a(n: &str) -> Attribute {
        Attribute::new(n, Domain::Int)
    }

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    /// P ← C via C.FK ⊆ P.K, with NNA keys.
    fn pc_schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![a("C.K"), a("C.FK")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("C", &["C.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
            .unwrap();
        rs
    }

    fn db() -> Database {
        Database::new(pc_schema(), DbmsProfile::ideal()).unwrap()
    }

    /// `d`'s counter `name` so far.
    fn count(d: &Database, name: &str) -> u64 {
        d.metrics_registry().counter(name).get()
    }

    #[test]
    fn batch_commits_child_before_parent() {
        let mut d = db();
        let outcome = d
            .apply_batch(&[
                Statement::insert("C", tup(&[10, 1])),
                Statement::insert("P", tup(&[1])),
            ])
            .unwrap();
        assert!(outcome.deferred);
        assert_eq!(
            outcome.outcomes,
            [StatementOutcome::Inserted, StatementOutcome::Inserted]
        );
        assert_eq!(outcome.applied(), 2);
        assert_eq!(d.len("P"), 1);
        assert_eq!(d.len("C"), 1);
    }

    #[test]
    fn batch_delete_parent_before_child() {
        let mut d = db();
        d.insert("P", tup(&[1])).unwrap();
        d.insert("C", tup(&[10, 1])).unwrap();
        // Eagerly this order is RESTRICT-rejected.
        assert!(d.delete_by_key("P", &tup(&[1])).is_err());
        d.apply_batch(&[
            Statement::delete("P", tup(&[1])),
            Statement::delete("C", tup(&[10])),
        ])
        .unwrap();
        assert_eq!(d.len("P"), 0);
        assert_eq!(d.len("C"), 0);
    }

    #[test]
    fn failed_batch_reports_statement_and_rolls_back() {
        let mut d = db();
        d.insert("P", tup(&[1])).unwrap();
        // Tombstone a slot, so the rows the batch inserts (and the
        // rollback removes) sit after a dead slot.
        d.insert("P", tup(&[3])).unwrap();
        d.delete_by_key("P", &tup(&[3])).unwrap();
        let before = d.snapshot().unwrap();
        let err = d
            .apply_batch(&[
                Statement::insert("P", tup(&[2])),
                Statement::insert("C", tup(&[10, 2])),
                Statement::insert("C", tup(&[11, 99])), // dangling
            ])
            .unwrap_err();
        assert_eq!(err.statement_index(), Some(2));
        assert_eq!(d.snapshot().unwrap(), before);
        assert!(d.verify_integrity().is_clean());
        // Indexes intact: the engine still accepts and enforces DML.
        d.insert("C", tup(&[12, 1])).unwrap();
        assert!(d.insert("C", tup(&[13, 7])).is_err());
        assert!(d.insert("P", tup(&[2])).unwrap());
        assert!(d.insert("P", tup(&[3])).unwrap());
    }

    #[test]
    fn a_deferred_null_violation_names_its_statement() {
        let mut d = db();
        let stmts = [
            Statement::insert("P", tup(&[1])),
            Statement::insert("C", tup(&[10, 1])),
            Statement::insert("C", tup(&[11, 1])),
            Statement::insert("C", Tuple::new([Value::Null, Value::Int(1)])),
            Statement::insert("C", tup(&[12, 1])),
        ];
        let err = d.apply_batch(&stmts).unwrap_err();
        assert_eq!(err.statement_index(), Some(3), "{err}");
        assert!(
            matches!(err.root_cause(), DmlError::ConstraintViolation(c) if c == "C: 0 E-> C.K"),
            "{err}"
        );
        assert_eq!((d.len("P"), d.len("C")), (0, 0), "rolled back");
    }

    #[test]
    fn undo_bytes_record_each_entry_and_the_row_it_removed() {
        let mut d = db();
        let bytes = |d: &Database| {
            d.metrics_registry()
                .histogram("engine.batch.undo.bytes")
                .sum()
        };
        let row = tup(&[1]);
        d.apply_batch(&[Statement::insert("P", row.clone())])
            .unwrap();
        let inserted = Undo::Insert { rel: "P", slot: 0 }.approx_bytes();
        assert_eq!(inserted, std::mem::size_of::<Undo>() as u64);
        assert_eq!(bytes(&d), inserted);
        d.apply_batch(&[Statement::delete("P", row.clone())])
            .unwrap();
        let removed = std::mem::size_of::<Value>() as u64;
        let deleted = Undo::Delete {
            rel: "P",
            slot: 0,
            tuple: row,
        }
        .approx_bytes();
        assert_eq!(deleted, inserted + removed);
        assert_eq!(bytes(&d), inserted + deleted);
    }

    #[test]
    fn deferred_group_checks_are_fewer_than_eager() {
        let mut eager = db();
        let mut batched = db();
        let stmts: Vec<Statement> = (0..20)
            .map(|i| Statement::insert("C", Tuple::new([Value::Int(100 + i), Value::Null])))
            .collect();
        for s in &stmts {
            eager.apply_one(s).unwrap();
        }
        let outcome = batched.apply_batch(&stmts).unwrap();
        assert!(outcome.deferred_checks > 0);
        assert_eq!(eager.snapshot().unwrap(), batched.snapshot().unwrap());
        assert_eq!(count(&eager, "engine.check.deferred"), 0);
        let checks = |d: &Database| {
            count(d, "engine.check.declarative") + count(d, "engine.check.procedural")
        };
        let (e, b) = (checks(&eager), checks(&batched));
        assert!(b < e, "batched {b} vs eager {e}");
    }

    #[test]
    fn deferred_ind_probes_dedupe_repeated_keys() {
        let mut eager = db();
        let mut batched = db();
        for d in [&mut eager, &mut batched] {
            d.insert("P", tup(&[1])).unwrap();
        }
        // 30 children referencing the same parent: the batch probes the
        // parent index once, the eager path 30 times.
        let stmts: Vec<Statement> = (0..30)
            .map(|i| Statement::insert("C", tup(&[100 + i, 1])))
            .collect();
        for s in &stmts {
            eager.apply_one(s).unwrap();
        }
        batched.apply_batch(&stmts).unwrap();
        assert_eq!(eager.snapshot().unwrap(), batched.snapshot().unwrap());
        let probes = |d: &Database| count(d, "engine.check.index_probes");
        let (e, b) = (probes(&eager), probes(&batched));
        assert!(b < e, "batched {b} vs eager {e}");
    }

    #[test]
    fn duplicate_key_in_batch_fails_fast_with_index() {
        let mut d = db();
        let out = d
            .apply_batch(&[
                Statement::insert("P", tup(&[1])),
                Statement::insert("P", tup(&[2])),
                Statement::insert("P", tup(&[1])), // identical tuple: noop
            ])
            .unwrap();
        assert_eq!(out.outcomes[2], StatementOutcome::Noop);
        let err = d
            .apply_batch(&[Statement::insert("C", tup(&[50, 1])), {
                Statement::insert("C", tup(&[50, 2])) // conflicting duplicate
            }])
            .unwrap_err();
        assert_eq!(err.statement_index(), Some(1));
        assert_eq!(d.len("C"), 0, "failed batch fully rolled back");
    }

    #[test]
    fn batch_update_and_noops_report_outcomes() {
        let mut d = db();
        d.insert("P", tup(&[1])).unwrap();
        d.insert("P", tup(&[2])).unwrap();
        d.insert("C", tup(&[10, 1])).unwrap();
        let outcome = d
            .apply_batch(&[
                Statement::update("C", tup(&[10]), tup(&[10, 2])),
                Statement::delete("C", tup(&[99])),
                Statement::insert("P", tup(&[1])),
            ])
            .unwrap();
        assert_eq!(
            outcome.outcomes,
            [
                StatementOutcome::Updated,
                StatementOutcome::Noop,
                StatementOutcome::Noop
            ]
        );
        assert_eq!(outcome.applied(), 1);
        assert_eq!(outcome.noops(), 2);
        assert_eq!(d.get_by_key("C", &tup(&[10])).unwrap(), Some(tup(&[10, 2])));
    }

    #[test]
    fn batch_insert_then_delete_is_net_noop() {
        let mut d = db();
        d.apply_batch(&[
            Statement::insert("P", tup(&[5])),
            Statement::delete("P", tup(&[5])),
        ])
        .unwrap();
        assert_eq!(d.len("P"), 0);
        // And the transient row must not satisfy anyone's FK.
        let err = d
            .apply_batch(&[
                Statement::insert("P", tup(&[6])),
                Statement::insert("C", tup(&[20, 6])),
                Statement::delete("P", tup(&[6])),
            ])
            .unwrap_err();
        assert!(matches!(err, DmlError::AtStatement { .. }));
        assert_eq!(d.len("C"), 0);
    }

    #[test]
    fn immediate_fallback_without_capability() {
        let mut d = Database::new(pc_schema(), DbmsProfile::db2()).unwrap();
        // DB2 has no deferred checking: child-before-parent fails…
        let err = d
            .apply_batch(&[
                Statement::insert("C", tup(&[10, 1])),
                Statement::insert("P", tup(&[1])),
            ])
            .unwrap_err();
        assert_eq!(err.statement_index(), Some(0));
        assert_eq!(d.len("C"), 0);
        assert_eq!(d.len("P"), 0, "immediate batch still atomic");
        // …but parent-first commits, with no deferred work.
        let outcome = d
            .apply_batch(&[
                Statement::insert("P", tup(&[1])),
                Statement::insert("C", tup(&[10, 1])),
            ])
            .unwrap();
        assert!(!outcome.deferred);
        assert_eq!(outcome.deferred_checks, 0);
        assert_eq!(count(&d, "engine.check.deferred"), 0);
    }

    #[test]
    fn large_batch_validates_in_parallel() {
        let mut d = db();
        let n = PARALLEL_ROW_THRESHOLD as i64;
        let mut stmts = Vec::new();
        for i in 0..n {
            stmts.push(Statement::insert("C", tup(&[1000 + i, i])));
        }
        for i in 0..n {
            stmts.push(Statement::insert("P", tup(&[i])));
        }
        let outcome = d.apply_batch(&stmts).unwrap();
        assert_eq!(outcome.applied(), 2 * n as usize);
        assert_eq!(d.len("P"), n as usize);
        assert_eq!(d.len("C"), n as usize);
        // A violating large batch still attributes and rolls back.
        let mut bad = Vec::new();
        for i in 0..n {
            bad.push(Statement::insert("C", tup(&[5000 + i, i])));
        }
        bad.push(Statement::insert("C", tup(&[9999, -1]))); // dangling
        let err = d.apply_batch(&bad).unwrap_err();
        assert_eq!(err.statement_index(), Some(n as usize));
        assert_eq!(d.len("C"), n as usize);
    }

    #[test]
    fn validation_panic_names_the_earliest_statement_at_every_size() {
        use crate::fault::{FaultMode, FaultPlan};
        for workers in [1, 4] {
            for rows in [8, 1_024] {
                let mut d = db();
                d.configure(d.config().parallelism(workers));
                // Parents at even indices, their children at odd ones.
                let stmts: Vec<Statement> = (0..rows / 2)
                    .flat_map(|i| {
                        [
                            Statement::insert("P", tup(&[i])),
                            Statement::insert("C", tup(&[1000 + i, i])),
                        ]
                    })
                    .collect();
                // Two arms panic the first two arrivals, so both relations
                // fail in whatever order they are validated.
                d.set_fault_plan(
                    FaultPlan::new()
                        .fail_at(site::GROUP_VALIDATE, 0, FaultMode::Panic)
                        .fail_at(site::GROUP_VALIDATE, 0, FaultMode::Panic),
                );
                let err = d.apply_batch(&stmts).unwrap_err();
                assert_eq!(err.statement_index(), Some(0), "{workers}w/{rows}: {err}");
                assert!(
                    matches!(
                        err.root_cause(),
                        DmlError::Schema(Error::ExecutionPanic { .. })
                    ),
                    "{err}"
                );
                assert_eq!((d.len("P"), d.len("C")), (0, 0), "rolled back");
            }
        }
    }

    #[test]
    fn rollback_restores_every_slot() {
        for profile in [DbmsProfile::ideal(), DbmsProfile::db2()] {
            let mut d = Database::new(pc_schema(), profile).unwrap();
            for k in 1..=3 {
                d.insert("P", tup(&[k])).unwrap();
            }
            d.insert("C", tup(&[10, 1])).unwrap();
            let rows = |d: &Database| [d.tables["P"].rows.clone(), d.tables["C"].rows.clone()];
            let before = rows(&d);
            // P(2) leaves and lands again at a new slot, C(10) moves off
            // P(1), P(1) leaves; then C(11) dangles.
            let err = d
                .apply_batch(&[
                    Statement::delete("P", tup(&[2])),
                    Statement::insert("P", tup(&[2])),
                    Statement::update("C", tup(&[10]), tup(&[10, 3])),
                    Statement::delete("P", tup(&[1])),
                    Statement::insert("C", tup(&[11, 99])),
                ])
                .unwrap_err();
            assert_eq!(err.statement_index(), Some(4));
            // Every row is back at its slot; the slots the batch appended
            // are tombstones.
            for (after, before) in rows(&d).iter().zip(&before) {
                assert!(after[..before.len()] == before[..]);
                assert!(after[before.len()..].iter().all(Option::is_none));
            }
            let report = d.verify_integrity();
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn distinct_keys_keep_the_earliest_statement_of_each_key() {
        let rows = [
            tup(&[1, 7]),
            Tuple::new([Value::Int(2), Value::Null]),
            tup(&[3, 8]),
            tup(&[4, 7]),
        ];
        let mut keys = Keys::default();
        let mut got: Vec<(usize, Tuple)> = keys
            .distinct(rows.iter().zip([5, 1, 4, 0]), &[1])
            .iter()
            .map(|&(_, t, i)| (i, t.clone()))
            .collect();
        got.sort_unstable_by_key(|(i, _)| *i);
        // Key 7 first arrives at statement 0 (the fourth row); the null
        // key is not total and is skipped.
        assert_eq!(got, [(0, tup(&[4, 7])), (4, tup(&[3, 8]))]);
        // One total row, or none, needs no buffer.
        assert_eq!(keys.distinct(rows[..2].iter().zip([2, 3]), &[1]).len(), 1);
        assert!(keys.distinct(rows[1..2].iter().zip([3]), &[1]).is_empty());
    }

    #[test]
    fn statement_display_and_error_conversions() {
        let s = Statement::insert("P", tup(&[1]));
        assert!(s.to_string().starts_with("INSERT INTO P"));
        assert_eq!(Statement::delete("P", tup(&[1])).rel(), "P");
        let dml = DmlError::at_statement(3, DmlError::ConstraintViolation("boom".into()));
        assert_eq!(dml.statement_index(), Some(3));
        assert!(dml.to_string().contains("statement #3"));
        // DmlError ⇄ Error round trips through the unified path.
        let e: relmerge_relational::Error = dml.into();
        assert!(matches!(
            &e,
            relmerge_relational::Error::ConstraintViolation(_)
        ));
        let back: DmlError = e.into();
        assert!(matches!(back, DmlError::ConstraintViolation(_)));
    }
}
