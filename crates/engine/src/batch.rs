//! Batched DML with deferred constraint checking, behind a unified
//! statement API.
//!
//! Every mutation of a [`Database`] — the single-statement convenience
//! methods, [`Transaction`](crate::Transaction) statements, and whole
//! batches — flows through one executor over [`Statement`] values, in one
//! of two checking modes:
//!
//! * **immediate** — every constraint is verified before the row lands,
//!   exactly like the classic per-statement path;
//! * **deferred** — rows land after only structural and key-uniqueness
//!   checks, and inclusion dependencies, null constraints, and RESTRICT
//!   semantics are validated *once per constraint over the set of touched
//!   rows* when the batch commits (SQL-92 `DEFERRABLE INITIALLY DEFERRED`).
//!
//! Deferral is what makes order-free batches possible: a referencing child
//! may be inserted before its parent, a parent deleted before its children,
//! and a cyclic pair of inclusion dependencies — which no sequence of
//! eagerly-checked statements can ever populate — becomes insertable in a
//! single batch. It is also cheaper: group validation runs each constraint
//! class once per touched relation (deduplicating repeated foreign-key
//! values into single index probes) instead of re-probing per statement,
//! which is the §5.1 maintenance cost amortized over the batch. For large
//! batches touching several relations, group validation fans out across
//! relations on up to [`Database::parallelism`] threads.
//!
//! Key uniqueness is the exception: it is checked eagerly even in deferred
//! mode, because the hash indexes that back every other check must stay
//! consistent while the batch applies — the same reason SQL `PRIMARY KEY`
//! constraints are typically not deferrable.
//!
//! All-or-nothing semantics reuse the undo machinery shared with
//! [`Database::transaction`]: a batch that fails any check (immediate or
//! deferred) is rolled back completely, leaving rows *and indexes* exactly
//! as they were.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use relmerge_obs::{self as obs};
use relmerge_relational::{Error, FxHashMap, Relation, Tuple};

use crate::database::{singleton_relation, CheckClass, Database, DmlError};
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
    /// capability) or fell back to immediate per-statement checks.
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

/// One undoable change — the shared rollback unit of transactions and
/// batches.
pub(crate) enum Undo {
    /// Remove the tuple that was inserted.
    Insert {
        /// Relation the tuple went into.
        rel: String,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// Re-insert the tuple that was deleted.
    Delete {
        /// Relation the tuple came from.
        rel: String,
        /// The removed tuple.
        tuple: Tuple,
    },
}

impl Undo {
    /// Approximate heap footprint of this entry — the batch path's
    /// analogue of the executor's intermediate-byte accounting, so the
    /// staging cost of a batch is observable before it commits.
    fn approx_bytes(&self) -> u64 {
        let (Undo::Insert { rel, tuple } | Undo::Delete { rel, tuple }) = self;
        (std::mem::size_of::<Undo>() + rel.len() + std::mem::size_of_val(tuple.values())) as u64
    }
}

/// Rolls back a commit that failed after its changes landed — a failed
/// write-ahead append, or a panic mid-statement — keeping that failure as
/// the root cause: if the rollback itself also fails, the returned error
/// carries *both* faults — a fault must never be masked by the cleanup it
/// triggered.
pub(crate) fn rollback_after_failed_commit(
    db: &mut Database,
    undo: Vec<Undo>,
    cause: DmlError,
) -> DmlError {
    match rollback(db, undo) {
        Ok(()) => cause,
        Err(rollback_err) => DmlError::Schema(Error::Durability {
            detail: format!(
                "the commit failed ({cause}); its rollback then failed too \
                 ({rollback_err}) — in-memory state is neither the old one nor \
                 the logged one"
            ),
        }),
    }
}

/// Reverses every recorded change, newest first.
pub(crate) fn rollback(db: &mut Database, undo: Vec<Undo>) -> Result<(), DmlError> {
    for entry in undo.into_iter().rev() {
        match entry {
            Undo::Insert { rel, tuple } => {
                db.raw_remove(&rel, &tuple).map_err(DmlError::Schema)?;
            }
            Undo::Delete { rel, tuple } => {
                db.raw_insert(&rel, tuple).map_err(DmlError::Schema)?;
            }
        }
    }
    Ok(())
}

/// Net rows a deferred batch touched in one relation, with the index of
/// the statement that touched each (for error attribution).
#[derive(Default)]
struct TouchedRel {
    /// Rows inserted by the batch and still live.
    inserted: Vec<(Tuple, usize)>,
    /// Pre-existing rows the batch removed.
    deleted: Vec<(Tuple, usize)>,
}

impl TouchedRel {
    fn first_index(&self) -> usize {
        self.inserted
            .iter()
            .chain(&self.deleted)
            .map(|(_, i)| *i)
            .min()
            .unwrap_or(0)
    }
}

/// Per-relation touch sets of one deferred batch.
#[derive(Default)]
struct Touched {
    rels: BTreeMap<String, TouchedRel>,
}

impl Touched {
    fn record_insert(&mut self, rel: &str, tuple: Tuple, index: usize) {
        self.rels
            .entry(rel.to_owned())
            .or_default()
            .inserted
            .push((tuple, index));
    }

    fn record_delete(&mut self, rel: &str, tuple: Tuple, index: usize) {
        let touched = self.rels.entry(rel.to_owned()).or_default();
        // Deleting a row the batch itself inserted is a net no-op: it is
        // neither a new row to validate nor a pre-existing row whose
        // removal could orphan references that predate the batch.
        if let Some(pos) = touched.inserted.iter().position(|(t, _)| *t == tuple) {
            touched.inserted.swap_remove(pos);
        } else {
            touched.deleted.push((tuple, index));
        }
    }

    fn total_rows(&self) -> usize {
        self.rels
            .values()
            .map(|t| t.inserted.len() + t.deleted.len())
            .sum()
    }
}

/// A deferred violation: which statement caused it, and why.
struct Violation {
    index: usize,
    error: DmlError,
}

/// Batches at or above this many touched rows validate their relations on
/// up to [`Database::parallelism`] threads.
const PARALLEL_ROW_THRESHOLD: usize = 512;

/// The span/metrics label for a unified-path DML result.
fn outcome_label(result: &Result<StatementOutcome, DmlError>) -> &'static str {
    match result {
        Ok(StatementOutcome::Inserted) => "inserted",
        Ok(StatementOutcome::Deleted) => "deleted",
        Ok(StatementOutcome::Updated) => "updated",
        Ok(StatementOutcome::Noop) => "noop",
        Err(DmlError::ConstraintViolation(_) | DmlError::AtStatement { .. }) => "rejected",
        Err(DmlError::Schema(_)) => "error",
    }
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
    /// referenced projections that actually change. Returns whether a row
    /// with that key existed.
    pub fn update_by_key(&mut self, rel: &str, key: &Tuple, new: Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Update {
            rel: rel.to_owned(),
            key: key.clone(),
            tuple: new,
        };
        Ok(matches!(self.apply_one(&stmt)?, StatementOutcome::Updated))
    }

    /// Runs one statement through the unified immediate path with span and
    /// latency instrumentation — the single-statement public API.
    fn apply_one(&mut self, stmt: &Statement) -> Result<StatementOutcome, DmlError> {
        let start = Instant::now();
        let span_name = match stmt {
            Statement::Insert { .. } => "engine.dml.insert",
            Statement::Delete { .. } => "engine.dml.delete",
            Statement::Update { .. } => "engine.dml.update",
        };
        let mut span = obs::span(span_name);
        span.add_field("rel", stmt.rel());
        // The statement and its write-ahead append run under `contain`,
        // with the undo log outside, as in `apply_batch`: a failed append
        // or a panic mid-statement (injected or genuine) rolls back every
        // change that landed. A typed statement failure or a Noop leaves
        // `undo` empty, and a Noop appends nothing.
        let mut undo: Vec<Undo> = Vec::new();
        let result = contain(|| -> Result<StatementOutcome, DmlError> {
            let outcome = self.execute_statement(stmt, &mut undo)?;
            if !undo.is_empty() {
                self.wal_append_batch(std::slice::from_ref(stmt))?;
            }
            Ok(outcome)
        });
        let result = match result {
            Err(e) if !undo.is_empty() => Err(rollback_after_failed_commit(self, undo, e)),
            other => other,
        };
        let ns = obs::elapsed_ns(start);
        match stmt {
            Statement::Insert { .. } => self.metrics.insert_ns.record(ns),
            Statement::Delete { .. } => self.metrics.delete_ns.record(ns),
            Statement::Update { .. } => self.metrics.update_ns.record(ns),
        }
        span.add_field("result", outcome_label(&result));
        result
    }

    /// The immediate-mode executor every DML entry point shares. Records
    /// each change in `undo` as it lands, so a panic mid-statement leaves
    /// the caller's rollback complete. A typed failure leaves `undo` as it
    /// found it: an update whose insert half is rejected first restores
    /// its old row.
    pub(crate) fn execute_statement(
        &mut self,
        stmt: &Statement,
        undo: &mut Vec<Undo>,
    ) -> Result<StatementOutcome, DmlError> {
        match stmt {
            Statement::Insert { rel, tuple } => {
                if !self.insert_inner(rel, tuple.clone())? {
                    return Ok(StatementOutcome::Noop);
                }
                undo.push(Undo::Insert {
                    rel: rel.clone(),
                    tuple: tuple.clone(),
                });
                Ok(StatementOutcome::Inserted)
            }
            Statement::Delete { rel, key } => match self.delete_inner(rel, key)? {
                Some(victim) => {
                    undo.push(Undo::Delete {
                        rel: rel.clone(),
                        tuple: victim,
                    });
                    Ok(StatementOutcome::Deleted)
                }
                None => Ok(StatementOutcome::Noop),
            },
            Statement::Update { rel, key, tuple } => {
                let Some((_, old)) = self.find_by_pk(rel, key)? else {
                    return Ok(StatementOutcome::Noop);
                };
                if old == *tuple {
                    return Ok(StatementOutcome::Updated);
                }
                // Delete-then-insert. The delete's RESTRICT check is what
                // makes key-changing updates safe.
                let mark = undo.len();
                let result = (|| -> Result<(), DmlError> {
                    let Some(victim) = self.delete_inner(rel, key)? else {
                        unreachable!("row located above")
                    };
                    undo.push(Undo::Delete {
                        rel: rel.clone(),
                        tuple: victim,
                    });
                    if self.insert_inner(rel, tuple.clone())? {
                        undo.push(Undo::Insert {
                            rel: rel.clone(),
                            tuple: tuple.clone(),
                        });
                    }
                    Ok(())
                })();
                match result {
                    Ok(()) => {
                        self.metrics.updates.inc();
                        Ok(StatementOutcome::Updated)
                    }
                    Err(e) => {
                        rollback(self, undo.split_off(mark))?;
                        Err(e)
                    }
                }
            }
        }
    }

    /// Applies `stmts` atomically. When the profile supports deferred
    /// checking, null constraints, inclusion dependencies, and RESTRICT
    /// semantics are validated once per constraint over the touched rows at
    /// commit — so statements may arrive in any order, including a
    /// referencing child before its parent. Profiles without the capability
    /// fall back to immediate per-statement checking (still all-or-nothing,
    /// but order-sensitive).
    ///
    /// On failure the returned [`DmlError::AtStatement`] names the
    /// statement that caused the rejection and the whole batch is rolled
    /// back: rows and indexes are exactly as before the call.
    pub fn apply_batch(&mut self, stmts: &[Statement]) -> Result<BatchOutcome, DmlError> {
        let start = Instant::now();
        let deferred = self.profile().deferred_checking;
        let mut span = obs::span("engine.batch.apply");
        span.add_field("statements", stmts.len());
        span.add_field("mode", if deferred { "deferred" } else { "immediate" });
        let mut undo: Vec<Undo> = Vec::new();
        let mut outcomes = Vec::with_capacity(stmts.len());
        // The whole forward path — statement apply, deferred group
        // validation, the commit tail — runs under `contain`, with the
        // undo log owned *outside* the closure. Every mutation records its
        // undo entry before any fault site can fire again, so a panic
        // anywhere inside (injected or genuine) leaves `undo` complete:
        // the caught panic becomes a typed error and takes the same
        // rollback path a constraint violation does.
        let result = contain(|| -> Result<u64, DmlError> {
            let mut touched = Touched::default();
            for (i, stmt) in stmts.iter().enumerate() {
                self.fault_check(site::STATEMENT_APPLY)
                    .map_err(|e| DmlError::at_statement(i, e.into()))?;
                let applied = if deferred {
                    self.apply_deferred(stmt, i, &mut undo, &mut touched)
                } else {
                    self.execute_statement(stmt, &mut undo)
                };
                match applied {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(e) => return Err(DmlError::at_statement(i, e)),
                }
            }
            let checks = if deferred {
                match self.validate_deferred(&touched) {
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
            self.fault_check(site::COMMIT)?;
            // Write-ahead: on a durable database the batch's log record
            // must be on disk before the commit becomes visible. A failed
            // append — IO error, injected error, or injected panic at
            // `engine.wal.append` — takes the same rollback path a
            // constraint violation does, so nothing un-logged survives.
            self.wal_append_batch(stmts).map_err(DmlError::from)?;
            Ok(checks)
        });
        self.metrics.batch_size.record(stmts.len() as u64);
        self.metrics.batch_ns.record(obs::elapsed_ns(start));
        // Undo-log footprint at its high-water mark (the log is complete
        // here whether the batch commits or rolls back).
        let undo_bytes: u64 = undo.iter().map(Undo::approx_bytes).sum();
        self.metrics.undo_entries.record(undo.len() as u64);
        self.metrics.undo_bytes.record(undo_bytes);
        span.add_field("undo_entries", undo.len());
        match result {
            Ok(deferred_checks) => {
                self.metrics.batch_commits.inc();
                span.add_field("result", "committed");
                span.add_field("deferred_checks", deferred_checks);
                Ok(BatchOutcome {
                    outcomes,
                    deferred,
                    deferred_checks,
                })
            }
            Err(e) => {
                match e.root_cause() {
                    DmlError::Schema(Error::Injected { .. }) => self.metrics.injected_aborts.inc(),
                    DmlError::Schema(Error::ExecutionPanic { .. }) => {
                        self.metrics.panic_aborts.inc();
                    }
                    _ => {}
                }
                rollback(self, undo)?;
                self.metrics.batch_rollbacks.inc();
                span.add_field("result", "rolled_back");
                Err(e)
            }
        }
    }

    /// The deferred-mode apply step: structural and key-uniqueness checks
    /// only, then the row lands raw; everything else waits for commit.
    fn apply_deferred(
        &mut self,
        stmt: &Statement,
        index: usize,
        undo: &mut Vec<Undo>,
        touched: &mut Touched,
    ) -> Result<StatementOutcome, DmlError> {
        match stmt {
            Statement::Insert { rel, tuple } => {
                self.validate_shape(rel, tuple)?;
                if self.check_unique(rel, tuple)? {
                    return Ok(StatementOutcome::Noop);
                }
                self.fault_check(site::INDEX_MAINTENANCE)?;
                self.raw_insert(rel, tuple.clone())
                    .map_err(DmlError::Schema)?;
                self.metrics.inserts.inc();
                undo.push(Undo::Insert {
                    rel: rel.clone(),
                    tuple: tuple.clone(),
                });
                touched.record_insert(rel, tuple.clone(), index);
                Ok(StatementOutcome::Inserted)
            }
            Statement::Delete { rel, key } => {
                let Some((slot, victim)) = self.find_by_pk(rel, key)? else {
                    return Ok(StatementOutcome::Noop);
                };
                self.fault_check(site::INDEX_MAINTENANCE)?;
                self.remove_slot(rel, slot, &victim);
                self.metrics.deletes.inc();
                undo.push(Undo::Delete {
                    rel: rel.clone(),
                    tuple: victim.clone(),
                });
                touched.record_delete(rel, victim, index);
                Ok(StatementOutcome::Deleted)
            }
            Statement::Update { rel, key, tuple } => {
                let Some((slot, old)) = self.find_by_pk(rel, key)? else {
                    return Ok(StatementOutcome::Noop);
                };
                if old == *tuple {
                    return Ok(StatementOutcome::Updated);
                }
                self.validate_shape(rel, tuple)?;
                self.fault_check(site::INDEX_MAINTENANCE)?;
                self.remove_slot(rel, slot, &old);
                undo.push(Undo::Delete {
                    rel: rel.clone(),
                    tuple: old.clone(),
                });
                touched.record_delete(rel, old, index);
                if !self.check_unique(rel, tuple)? {
                    self.fault_check(site::INDEX_MAINTENANCE)?;
                    self.raw_insert(rel, tuple.clone())
                        .map_err(DmlError::Schema)?;
                    undo.push(Undo::Insert {
                        rel: rel.clone(),
                        tuple: tuple.clone(),
                    });
                    touched.record_insert(rel, tuple.clone(), index);
                }
                self.metrics.updates.inc();
                self.metrics.inserts.inc();
                self.metrics.deletes.inc();
                Ok(StatementOutcome::Updated)
            }
        }
    }

    /// Commit-time group validation: each deferred constraint class is
    /// checked once over the touched rows of each relation. Large batches
    /// validate relations on up to [`Database::parallelism`] threads.
    /// Returns the number of group checks performed.
    fn validate_deferred(&self, touched: &Touched) -> Result<u64, DmlError> {
        let rels: Vec<(&String, &TouchedRel)> = touched.rels.iter().collect();
        let workers = if touched.total_rows() >= PARALLEL_ROW_THRESHOLD {
            self.parallelism()
        } else {
            1
        };
        // A panicking validation (injected or genuine) fails only its
        // relation: the panic becomes a typed violation attributed to that
        // relation's earliest statement, and the batch rolls back normally.
        let results = fan_out(workers, &rels, |(name, tr)| {
            Ok(
                contain(|| Ok(self.validate_relation(name, tr))).unwrap_or_else(|e| {
                    Err(Violation {
                        index: tr.first_index(),
                        error: DmlError::Schema(e),
                    })
                }),
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

    /// Group-validates one relation's touch set: null constraints over the
    /// inserted rows, outgoing inclusion dependencies over the distinct
    /// foreign subtuples, RESTRICT over the distinct referenced values the
    /// deletes removed.
    fn validate_relation(&self, rel: &str, tr: &TouchedRel) -> Result<u64, Violation> {
        let structural = |e: DmlError| Violation {
            index: tr.first_index(),
            error: e,
        };
        self.fault_check(site::GROUP_VALIDATE)
            .map_err(|e| structural(e.into()))?;
        let mut checks = 0u64;
        if !tr.inserted.is_empty() {
            // Null constraints: one group check per constraint over a
            // relation holding exactly the batch-inserted rows.
            if let Some(constraints) = self.nulls.get(rel).filter(|c| !c.is_empty()) {
                let header = self.tables[rel].header.clone();
                let group = Relation::with_rows(header, tr.inserted.iter().map(|(t, _)| t.clone()))
                    .map_err(|e| structural(e.into()))?;
                for c in constraints {
                    let t0 = Instant::now();
                    let ok = c
                        .constraint
                        .satisfied_by(&group)
                        .map_err(|e| structural(e.into()))?;
                    self.metrics.record_check(CheckClass::Null, c.mechanism, t0);
                    self.metrics.deferred.inc();
                    checks += 1;
                    if !ok {
                        // Pinpoint the offending statement (failure path
                        // only; not metered).
                        let offender = tr
                            .inserted
                            .iter()
                            .find(|(t, _)| {
                                let single = singleton_relation(&self.tables[rel].header, t);
                                !c.constraint.satisfied_by(&single).unwrap_or(true)
                            })
                            .map_or_else(|| tr.first_index(), |(_, i)| *i);
                        return Err(Violation {
                            index: offender,
                            error: DmlError::ConstraintViolation(c.constraint.to_string()),
                        });
                    }
                }
            }
            // Outgoing inclusion dependencies: one group check per
            // dependency, probing each *distinct* foreign subtuple once.
            for c in self
                .outgoing
                .get(rel)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                let t0 = Instant::now();
                let lhs_pos = self.tables[rel]
                    .positions(&c.lhs_attrs)
                    .map_err(|e| structural(e.into()))?;
                let mut keys: FxHashMap<Tuple, usize> = FxHashMap::default();
                for (t, idx) in &tr.inserted {
                    if t.is_total_at(&lhs_pos) {
                        keys.entry(t.project(&lhs_pos))
                            .and_modify(|e| *e = (*e).min(*idx))
                            .or_insert(*idx);
                    }
                }
                let target = &self.tables[&c.rhs_rel];
                let index = target
                    .index(&c.rhs_attrs)
                    .expect("both sides of every IND are indexed");
                let mut dangling: Option<(usize, Tuple)> = None;
                for (key, idx) in &keys {
                    self.metrics.index_probes.inc();
                    // Batch-inserted target rows are live already, so
                    // child-before-parent (and self-reference) just works.
                    let found = index.find(&target.rows, key.values()).next().is_some();
                    if !found && dangling.as_ref().is_none_or(|(i, _)| idx < i) {
                        dangling = Some((*idx, key.clone()));
                    }
                }
                self.metrics.record_check(CheckClass::Ind, c.mechanism, t0);
                self.metrics.deferred.inc();
                checks += 1;
                if let Some((idx, key)) = dangling {
                    return Err(Violation {
                        index: idx,
                        error: DmlError::ConstraintViolation(format!(
                            "`{rel}`[{}] = {key} has no match in `{}`[{}]",
                            c.lhs_attrs.join(","),
                            c.rhs_rel,
                            c.rhs_attrs.join(",")
                        )),
                    });
                }
            }
        }
        if !tr.deleted.is_empty() {
            // RESTRICT: one group check per incoming dependency, probing
            // each distinct referenced value the deletes removed. Indexes
            // are current, so a value re-provided by a batch insert — or a
            // referencing row deleted in the same batch — resolves
            // naturally.
            for c in self
                .incoming
                .get(rel)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                let t0 = Instant::now();
                let rhs_pos = self.tables[rel]
                    .positions(&c.rhs_attrs)
                    .map_err(|e| structural(e.into()))?;
                let mut removed: FxHashMap<Tuple, usize> = FxHashMap::default();
                for (t, idx) in &tr.deleted {
                    if t.is_total_at(&rhs_pos) {
                        removed
                            .entry(t.project(&rhs_pos))
                            .and_modify(|e| *e = (*e).min(*idx))
                            .or_insert(*idx);
                    }
                }
                let carried = |rel: &str, attrs: &[String], value: &Tuple| {
                    let table = &self.tables[rel];
                    table
                        .index(attrs)
                        .is_some_and(|ix| ix.find(&table.rows, value.values()).next().is_some())
                };
                let mut orphaned: Option<(usize, Tuple)> = None;
                for (value, idx) in &removed {
                    self.metrics.index_probes.inc();
                    if carried(rel, &c.rhs_attrs, value) {
                        continue;
                    }
                    self.metrics.index_probes.inc();
                    let referencing = carried(&c.lhs_rel, &c.lhs_attrs, value);
                    if referencing && orphaned.as_ref().is_none_or(|(i, _)| idx < i) {
                        orphaned = Some((*idx, value.clone()));
                    }
                }
                self.metrics
                    .record_check(CheckClass::Restrict, c.mechanism, t0);
                self.metrics.deferred.inc();
                checks += 1;
                if let Some((idx, value)) = orphaned {
                    return Err(Violation {
                        index: idx,
                        error: DmlError::ConstraintViolation(format!(
                            "RESTRICT: `{}`[{}] still references {value}",
                            c.lhs_rel,
                            c.lhs_attrs.join(",")
                        )),
                    });
                }
            }
        }
        Ok(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::DbmsProfile;
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
    fn deferred_group_checks_are_fewer_than_eager() {
        let mut eager = db();
        let mut batched = db();
        let stmts: Vec<Statement> = (0..20)
            .map(|i| Statement::insert("C", Tuple::new([Value::Int(100 + i), Value::Null])))
            .collect();
        for s in &stmts {
            eager.execute_statement(s, &mut Vec::new()).unwrap();
        }
        let outcome = batched.apply_batch(&stmts).unwrap();
        assert!(outcome.deferred_checks > 0);
        let e = eager.take_stats();
        let b = batched.take_stats();
        assert_eq!(eager.snapshot().unwrap(), batched.snapshot().unwrap());
        assert_eq!(e.deferred_checks, 0);
        assert!(
            b.total_checks() < e.total_checks(),
            "batched {} vs eager {}",
            b.total_checks(),
            e.total_checks()
        );
    }

    #[test]
    fn deferred_ind_probes_dedupe_repeated_keys() {
        let mut eager = db();
        let mut batched = db();
        for d in [&mut eager, &mut batched] {
            d.insert("P", tup(&[1])).unwrap();
            let _ = d.take_stats();
        }
        // 30 children referencing the same parent: the batch probes the
        // parent index once, the eager path 30 times.
        let stmts: Vec<Statement> = (0..30)
            .map(|i| Statement::insert("C", tup(&[100 + i, 1])))
            .collect();
        for s in &stmts {
            eager.execute_statement(s, &mut Vec::new()).unwrap();
        }
        batched.apply_batch(&stmts).unwrap();
        let e = eager.take_stats();
        let b = batched.take_stats();
        assert_eq!(eager.snapshot().unwrap(), batched.snapshot().unwrap());
        assert!(
            b.index_probes < e.index_probes,
            "batched {} vs eager {}",
            b.index_probes,
            e.index_probes
        );
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
        assert_eq!(d.stats().deferred_checks, 0);
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
