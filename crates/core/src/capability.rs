//! DBMS capability profiles (paper §5.1).
//!
//! The paper evaluates its technique against the constraint-maintenance
//! mechanisms of 1989-era systems: IBM DB2 (declarative referential
//! integrity, no general mechanisms), SYBASE 4.0 (triggers), and INGRES 6.3
//! (rules). The proprietary systems themselves are unavailable, so each is
//! modelled as a *capability profile* — which constraint classes it can
//! maintain, and through which mechanism. This is the one copy of §5.1's
//! table: the [`Advisor`](crate::Advisor) derives its Proposition 5.1/5.2
//! gates from it, the DDL generator its mechanism per constraint, and the
//! engine the tier through which it enforces each constraint, mirroring
//! the cost difference between declarative checks and trigger/rule
//! procedures.

use relmerge_relational::{InclusionDep, NullConstraint, RelationalSchema};

/// How a constraint class is maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Not maintainable at all; schemas needing it cannot be hosted.
    Unsupported,
    /// Declarative DDL support (`NOT NULL`, `PRIMARY KEY`, `FOREIGN KEY`).
    Declarative,
    /// Procedural support: triggers (SYBASE) or rules (INGRES) — works,
    /// but "tedious and error-prone" and more expensive per statement.
    Procedural,
}

/// What a target DBMS can maintain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbmsProfile {
    /// Display name.
    pub name: &'static str,
    /// Key-based inclusion dependencies (referential integrity).
    pub referential_integrity: Mechanism,
    /// Non key-based inclusion dependencies.
    pub non_key_inds: Mechanism,
    /// Nulls-not-allowed constraints.
    pub nna: Mechanism,
    /// General null constraints (null-existence, null-synchronization,
    /// part-null, total-equality).
    pub general_null_constraints: Mechanism,
    /// Whether candidate keys containing nullable attributes can be
    /// maintained (false when the DBMS treats all nulls as identical).
    pub nullable_keys: bool,
    /// Whether constraint checking can be deferred to the end of a
    /// statement batch (SQL-92 `DEFERRABLE INITIALLY DEFERRED`). None of
    /// the paper's 1989-era targets support it; when `false`, the
    /// engine's `Database::apply_batch` falls back to immediate
    /// per-statement checking (still all-or-nothing).
    pub deferred_checking: bool,
}

impl DbmsProfile {
    /// Every built-in profile: the paper's three targets, then SQL-92 and
    /// the ideal engine. A persisted profile name maps back through this
    /// list.
    pub const BUILT_IN: [DbmsProfile; 5] = [
        DbmsProfile::db2(),
        DbmsProfile::sybase40(),
        DbmsProfile::ingres63(),
        DbmsProfile::sql92(),
        DbmsProfile::ideal(),
    ];

    /// IBM DB2 \[5\]: declarative referential integrity and `NOT NULL`; a
    /// `validproc` escape hatch exists but the paper treats general
    /// constraints and non-key dependencies as impractical there.
    #[must_use]
    pub const fn db2() -> Self {
        DbmsProfile {
            name: "DB2",
            referential_integrity: Mechanism::Declarative,
            non_key_inds: Mechanism::Unsupported,
            nna: Mechanism::Declarative,
            general_null_constraints: Mechanism::Unsupported,
            nullable_keys: false,
            deferred_checking: false,
        }
    }

    /// SYBASE 4.0 \[13\]: triggers maintain non-key dependencies and general
    /// null constraints; all nulls are identical, so nullable keys are out.
    #[must_use]
    pub const fn sybase40() -> Self {
        DbmsProfile {
            name: "SYBASE 4.0",
            referential_integrity: Mechanism::Procedural,
            non_key_inds: Mechanism::Procedural,
            nna: Mechanism::Declarative,
            general_null_constraints: Mechanism::Procedural,
            nullable_keys: false,
            deferred_checking: false,
        }
    }

    /// INGRES 6.3 \[6\]: rules play the role of triggers.
    #[must_use]
    pub const fn ingres63() -> Self {
        DbmsProfile {
            name: "INGRES 6.3",
            referential_integrity: Mechanism::Procedural,
            non_key_inds: Mechanism::Procedural,
            nna: Mechanism::Declarative,
            general_null_constraints: Mechanism::Procedural,
            nullable_keys: false,
            deferred_checking: false,
        }
    }

    /// Portable SQL-92: declarative keys, foreign keys and `CHECK`s, but
    /// no declarative home for a non key-based inclusion dependency. It
    /// is [`DbmsProfile::ideal`] without that one class.
    #[must_use]
    pub const fn sql92() -> Self {
        DbmsProfile {
            name: "SQL-92",
            non_key_inds: Mechanism::Unsupported,
            ..DbmsProfile::ideal()
        }
    }

    /// An idealized engine that maintains everything natively — the
    /// upper-bound comparator used in benches.
    #[must_use]
    pub const fn ideal() -> Self {
        DbmsProfile {
            name: "ideal",
            referential_integrity: Mechanism::Declarative,
            non_key_inds: Mechanism::Declarative,
            nna: Mechanism::Declarative,
            general_null_constraints: Mechanism::Declarative,
            nullable_keys: true,
            deferred_checking: true,
        }
    }

    /// The mechanism this profile uses for one null constraint.
    #[must_use]
    pub fn null_constraint_mechanism(&self, c: &NullConstraint) -> Mechanism {
        if c.is_nna() {
            self.nna
        } else {
            self.general_null_constraints
        }
    }

    /// The mechanism this profile uses for one inclusion dependency of
    /// `schema`: referential integrity when it is key-based, the non
    /// key-based class otherwise.
    #[must_use]
    pub fn ind_mechanism(&self, schema: &RelationalSchema, ind: &InclusionDep) -> Mechanism {
        if key_based(schema, ind) {
            self.referential_integrity
        } else {
            self.non_key_inds
        }
    }

    /// Whether this profile can host `schema`, and why not if it cannot.
    /// (Paper §5.1: *"for such DBMSs our merging technique can be applied
    /// only when such constraints and dependencies are not generated"*.)
    #[must_use]
    pub fn hosting_report(&self, schema: &RelationalSchema) -> Vec<String> {
        let mut problems = Vec::new();
        for ind in schema.inds() {
            if self.ind_mechanism(schema, ind) == Mechanism::Unsupported {
                problems.push(format!(
                    "{}: cannot maintain {} dependency {ind}",
                    self.name,
                    if key_based(schema, ind) {
                        "referential"
                    } else {
                        "non key-based"
                    }
                ));
            }
        }
        for c in schema.null_constraints() {
            if self.null_constraint_mechanism(c) == Mechanism::Unsupported {
                problems.push(format!(
                    "{}: cannot maintain null constraint {c}",
                    self.name
                ));
            }
        }
        if !self.nullable_keys {
            for s in schema.schemes() {
                for ck in s.candidate_keys() {
                    let nullable = ck.iter().any(|a| !schema.attr_not_null(s.name(), a));
                    if nullable {
                        problems.push(format!(
                            "{}: candidate key ({}) of {} contains nullable attributes",
                            self.name,
                            ck.join(","),
                            s.name()
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Whether the profile can host `schema` without problems.
    #[must_use]
    pub fn can_host(&self, schema: &RelationalSchema) -> bool {
        self.hosting_report(schema).is_empty()
    }
}

fn key_based(schema: &RelationalSchema, ind: &InclusionDep) -> bool {
    schema
        .scheme(&ind.rhs_rel)
        .is_some_and(|rhs| ind.is_key_based(rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Attribute, Domain, RelationScheme};

    fn base_schema() -> RelationalSchema {
        let a = |n: &str| Attribute::new(n, Domain::Int);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("A", vec![a("A.K"), a("A.V")], &["A.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("B", vec![a("B.K")], &["B.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("A", &["A.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("B", &["B.K"]))
            .unwrap();
        rs
    }

    #[test]
    fn db2_hosts_declarative_schema() {
        let mut rs = base_schema();
        rs.add_ind(InclusionDep::new("A", &["A.K"], "B", &["B.K"]))
            .unwrap();
        assert!(DbmsProfile::db2().can_host(&rs));
    }

    #[test]
    fn db2_rejects_non_key_ind() {
        let mut rs = base_schema();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.V"]))
            .unwrap();
        let report = DbmsProfile::db2().hosting_report(&rs);
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("non key-based"));
        assert!(!DbmsProfile::sql92().can_host(&rs));
        assert!(DbmsProfile::sybase40().can_host(&rs));
        assert!(DbmsProfile::ingres63().can_host(&rs));
        assert!(DbmsProfile::ideal().can_host(&rs));
        let ind = &rs.inds()[0];
        assert_eq!(
            DbmsProfile::sybase40().ind_mechanism(&rs, ind),
            Mechanism::Procedural
        );
    }

    #[test]
    fn db2_rejects_general_null_constraints() {
        let mut rs = base_schema();
        rs.add_null_constraint(NullConstraint::ne("A", &["A.V"], &["A.K"]))
            .unwrap();
        assert!(!DbmsProfile::db2().can_host(&rs));
        assert!(DbmsProfile::sybase40().can_host(&rs));
    }

    #[test]
    fn nullable_candidate_keys_rejected_without_support() {
        let a = |n: &str| Attribute::new(n, Domain::Int);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::with_candidate_keys(
                "R",
                vec![a("R.K"), a("R.ALT")],
                &[&["R.K"], &["R.ALT"]],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("R", &["R.K"]))
            .unwrap();
        // R.ALT is nullable.
        for profile in [
            DbmsProfile::db2(),
            DbmsProfile::sybase40(),
            DbmsProfile::ingres63(),
        ] {
            assert!(!profile.can_host(&rs), "{}", profile.name);
        }
        assert!(DbmsProfile::ideal().can_host(&rs));
    }

    #[test]
    fn mechanism_classification() {
        let profile = DbmsProfile::sybase40();
        assert_eq!(
            profile.null_constraint_mechanism(&NullConstraint::nna("R", &["X"])),
            Mechanism::Declarative
        );
        assert_eq!(
            profile.null_constraint_mechanism(&NullConstraint::ns("R", &["X", "Y"])),
            Mechanism::Procedural
        );
    }
}
