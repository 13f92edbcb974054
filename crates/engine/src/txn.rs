//! Multi-statement atomicity and updates.
//!
//! The trigger bodies the DDL generator emits end in `ROLLBACK
//! TRANSACTION` (SYBASE) — a violated constraint aborts the *whole*
//! statement batch, not just one row. [`Database::transaction`] provides
//! the same contract: a closure issues statements; if it returns an error
//! (or any statement fails and the error propagates), every change it made
//! is undone.

use relmerge_relational::{Error, Tuple};

use crate::batch::{rollback, rollback_after_failed_commit, Statement, StatementOutcome, Undo};
use crate::database::{Database, DmlError};
use crate::fault::contain;

/// A transaction handle: issue statements through it; changes are recorded
/// for rollback. Each verb is a thin front for the unified
/// [`Statement`] executor shared with [`Database::apply_batch`].
pub struct Transaction<'a> {
    db: &'a mut Database,
    undo: Vec<Undo>,
    /// Statements that actually mutated something, in order — the
    /// transaction's write-ahead-log record if the closure commits.
    stmts: Vec<Statement>,
}

impl Transaction<'_> {
    fn run(&mut self, stmt: &Statement) -> Result<StatementOutcome, DmlError> {
        let outcome = self.db.execute_statement(stmt, &mut self.undo)?;
        if !matches!(outcome, StatementOutcome::Noop) {
            self.stmts.push(stmt.clone());
        }
        Ok(outcome)
    }

    /// Inserts a tuple (same contract as [`Database::insert`]).
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Insert {
            rel: rel.to_owned(),
            tuple: t,
        };
        Ok(matches!(self.run(&stmt)?, StatementOutcome::Inserted))
    }

    /// Deletes by primary key (same contract as
    /// [`Database::delete_by_key`]).
    pub fn delete_by_key(&mut self, rel: &str, key: &Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Delete {
            rel: rel.to_owned(),
            key: key.clone(),
        };
        Ok(matches!(self.run(&stmt)?, StatementOutcome::Deleted))
    }

    /// Updates the row with primary key `key` to `new`, atomically. The
    /// new tuple may change the key; referential RESTRICT applies only to
    /// referenced projections that actually change.
    pub fn update_by_key(&mut self, rel: &str, key: &Tuple, new: Tuple) -> Result<bool, DmlError> {
        let stmt = Statement::Update {
            rel: rel.to_owned(),
            key: key.clone(),
            tuple: new,
        };
        Ok(matches!(self.run(&stmt)?, StatementOutcome::Updated))
    }
}

impl Database {
    /// Runs `f` atomically: if it returns `Err`, every statement it issued
    /// is rolled back and the error is returned.
    ///
    /// Panic safety: if `f` panics, every statement it issued is rolled
    /// back *first* and the panic then resumes — the caller sees the same
    /// panic it would have without the transaction, but the database is
    /// back in its pre-transaction state (rows and indexes both).
    pub fn transaction<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, DmlError>,
    ) -> Result<T, DmlError> {
        let mut tx = Transaction {
            db: self,
            undo: Vec::new(),
            stmts: Vec::new(),
        };
        #[allow(
            clippy::disallowed_methods,
            reason = "not `contain`: a panic in caller code resumes after the rollback"
        )]
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
        match outcome {
            Ok(Ok(value)) => {
                // Write-ahead: the whole bundle becomes one log record
                // before the commit survives this call. A failed append —
                // IO error, injected error, or injected panic at
                // `engine.wal.append` — aborts the transaction through the
                // same rollback path a constraint violation takes.
                let stmts = std::mem::take(&mut tx.stmts);
                if !stmts.is_empty() {
                    let logged = contain(|| tx.db.wal_append_batch(&stmts));
                    if let Err(e) = logged {
                        let undo = std::mem::take(&mut tx.undo);
                        return Err(rollback_after_failed_commit(tx.db, undo, e.into()));
                    }
                }
                Ok(value)
            }
            Ok(Err(e)) => {
                let undo = std::mem::take(&mut tx.undo);
                rollback(tx.db, undo)?;
                Err(e)
            }
            Err(payload) => {
                let undo = std::mem::take(&mut tx.undo);
                // A failed rollback here would mean the undo log itself is
                // corrupt; surface that instead of the original panic.
                rollback(tx.db, undo).expect("transaction rollback after panic");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Fetches the row with primary key `key`, if present.
    pub fn get_by_key(&self, rel: &str, key: &Tuple) -> Result<Option<Tuple>, DmlError> {
        let scheme = self
            .schema()
            .scheme(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let pk: Vec<String> = scheme
            .primary_key()
            .iter()
            .map(|k| (*k).to_owned())
            .collect();
        Ok(self.unique_lookup(rel, &pk, key))
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

    fn schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![a("C.K"), a("C.FK")], &["C.K"]).unwrap())
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

    #[test]
    fn commit_keeps_changes() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.transaction(|tx| {
            tx.insert("P", tup(&[1]))?;
            tx.insert("C", tup(&[10, 1]))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(db.len("P"), 1);
        assert_eq!(db.len("C"), 1);
    }

    #[test]
    fn failure_rolls_everything_back() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        let result: Result<(), DmlError> = db.transaction(|tx| {
            tx.insert("P", tup(&[2]))?;
            tx.insert("C", tup(&[10, 2]))?;
            // Dangling reference: fails, aborting the bundle.
            tx.insert("C", tup(&[11, 99]))?;
            Ok(())
        });
        assert!(result.is_err());
        assert_eq!(db.len("P"), 1, "P(2) rolled back");
        assert_eq!(db.len("C"), 0, "C(10) rolled back");
        // The database is still fully functional and consistent.
        let snap = db.snapshot().unwrap();
        assert!(snap.is_consistent(db.schema()).unwrap());
        db.insert("C", tup(&[10, 1])).unwrap();
    }

    #[test]
    fn rollback_restores_deleted_rows() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("P", tup(&[2])).unwrap();
        let result: Result<(), DmlError> = db.transaction(|tx| {
            tx.delete_by_key("P", &tup(&[1]))?;
            Err(DmlError::ConstraintViolation("forced abort".to_owned()))
        });
        assert!(result.is_err());
        assert_eq!(db.len("P"), 2);
        assert!(db.get_by_key("P", &tup(&[1])).unwrap().is_some());
    }

    #[test]
    fn update_changes_non_key_attrs() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("P", tup(&[2])).unwrap();
        db.insert("C", tup(&[10, 1])).unwrap();
        db.transaction(|tx| tx.update_by_key("C", &tup(&[10]), tup(&[10, 2])))
            .unwrap();
        assert_eq!(
            db.get_by_key("C", &tup(&[10])).unwrap(),
            Some(tup(&[10, 2]))
        );
    }

    #[test]
    fn update_to_dangling_fk_rolls_back() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("C", tup(&[10, 1])).unwrap();
        let result = db.transaction(|tx| tx.update_by_key("C", &tup(&[10]), tup(&[10, 99])));
        assert!(result.is_err());
        // Old row restored.
        assert_eq!(
            db.get_by_key("C", &tup(&[10])).unwrap(),
            Some(tup(&[10, 1]))
        );
        let snap = db.snapshot().unwrap();
        assert!(snap.is_consistent(db.schema()).unwrap());
    }

    #[test]
    fn update_of_referenced_key_restricted() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("C", tup(&[10, 1])).unwrap();
        // Changing P's key while C references it: RESTRICT via the delete.
        let result = db.transaction(|tx| tx.update_by_key("P", &tup(&[1]), tup(&[5])));
        assert!(result.is_err());
        assert!(db.get_by_key("P", &tup(&[1])).unwrap().is_some());
    }

    #[test]
    fn update_missing_row_is_noop() {
        let mut db = Database::new(schema(), DbmsProfile::ideal()).unwrap();
        let updated = db
            .transaction(|tx| tx.update_by_key("P", &tup(&[9]), tup(&[9])))
            .unwrap();
        assert!(!updated);
    }
}
