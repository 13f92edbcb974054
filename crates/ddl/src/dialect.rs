//! Target DDL dialects (the SDT tool's backends \[12\]).

use std::fmt;

use relmerge_core::DbmsProfile;

/// A DDL dialect the generator can target.
///
/// What a dialect can maintain, and by which mechanism, is its
/// [`profile`](Dialect::profile): the one capability table of paper §5.1
/// ([`DbmsProfile`]). The dialect itself keeps only syntax — its names,
/// whether a procedural constraint is a trigger or a rule, and whether a
/// key is a `PRIMARY KEY`/`UNIQUE` clause or a unique index. The
/// generator writes a declarative inclusion dependency as a `FOREIGN
/// KEY`, a declarative general null constraint as a `CHECK`, a
/// procedural one as the dialect's trigger or rule, and an unsupported
/// one as a warning comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// IBM DB2 (reference \[5\]): declarative referential integrity, no
    /// general constraint mechanism.
    Db2,
    /// SYBASE 4.0 (reference \[13\]): Transact-SQL triggers.
    Sybase40,
    /// INGRES 6.3 (reference \[6\]): rules firing database procedures.
    Ingres63,
    /// Portable SQL-92: single-tuple null constraints become `CHECK`
    /// clauses.
    Sql92,
}

impl Dialect {
    /// All dialects, for sweeps.
    pub const ALL: [Dialect; 4] = [
        Dialect::Db2,
        Dialect::Sybase40,
        Dialect::Ingres63,
        Dialect::Sql92,
    ];

    /// The capability profile of the system this dialect targets.
    #[must_use]
    pub fn profile(self) -> DbmsProfile {
        match self {
            Dialect::Db2 => DbmsProfile::db2(),
            Dialect::Sybase40 => DbmsProfile::sybase40(),
            Dialect::Ingres63 => DbmsProfile::ingres63(),
            Dialect::Sql92 => DbmsProfile::sql92(),
        }
    }

    /// Display name: the name of its [`profile`](Dialect::profile).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// A short lowercase identifier for metric names (`ddl.<slug>.…`).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Dialect::Db2 => "db2",
            Dialect::Sybase40 => "sybase40",
            Dialect::Ingres63 => "ingres63",
            Dialect::Sql92 => "sql92",
        }
    }

    /// The dialect's procedural mechanism (trigger/rule), if it has one.
    #[must_use]
    pub fn procedural_mechanism(self) -> Option<&'static str> {
        match self {
            Dialect::Sybase40 => Some("trigger"),
            Dialect::Ingres63 => Some("rule"),
            Dialect::Db2 | Dialect::Sql92 => None,
        }
    }
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated DDL artifact, categorized for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdlStatement {
    /// A `CREATE TABLE`.
    CreateTable {
        /// The table name.
        table: String,
        /// The statement text.
        sql: String,
    },
    /// A `CREATE TRIGGER` (SYBASE) maintaining a constraint.
    Trigger {
        /// The table the trigger is on.
        table: String,
        /// The statement text.
        sql: String,
    },
    /// A `CREATE RULE` + procedure (INGRES) maintaining a constraint.
    Rule {
        /// The table the rule is on.
        table: String,
        /// The statement text.
        sql: String,
    },
    /// A unique index (SYBASE/INGRES key maintenance).
    Index {
        /// The table indexed.
        table: String,
        /// The statement text.
        sql: String,
    },
    /// A constraint the dialect cannot maintain — emitted as a warning
    /// comment so the schema deployer sees the gap (paper §5.1: for such
    /// systems "our merging technique can be applied only when such
    /// constraints and dependencies are not generated").
    Unsupported {
        /// The constraint description.
        constraint: String,
        /// The comment text.
        sql: String,
    },
}

impl DdlStatement {
    /// The SQL (or comment) text.
    #[must_use]
    pub fn sql(&self) -> &str {
        match self {
            DdlStatement::CreateTable { sql, .. }
            | DdlStatement::Trigger { sql, .. }
            | DdlStatement::Rule { sql, .. }
            | DdlStatement::Index { sql, .. }
            | DdlStatement::Unsupported { sql, .. } => sql,
        }
    }
}

/// A full generated script.
#[derive(Debug, Clone, Default)]
pub struct DdlScript {
    /// The statements, in emission order.
    pub statements: Vec<DdlStatement>,
}

impl DdlScript {
    /// Renders the script as one SQL text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.statements {
            out.push_str(s.sql());
            out.push_str("\n\n");
        }
        out
    }

    /// The statements that are warnings about unmaintainable constraints.
    #[must_use]
    pub fn unsupported(&self) -> Vec<&DdlStatement> {
        self.statements
            .iter()
            .filter(|s| matches!(s, DdlStatement::Unsupported { .. }))
            .collect()
    }

    /// Count of procedural artifacts (triggers + rules).
    #[must_use]
    pub fn procedural_count(&self) -> usize {
        self.statements
            .iter()
            .filter(|s| matches!(s, DdlStatement::Trigger { .. } | DdlStatement::Rule { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialect_capabilities() {
        use relmerge_core::Mechanism;
        assert_eq!(Dialect::Sybase40.procedural_mechanism(), Some("trigger"));
        assert_eq!(Dialect::Ingres63.procedural_mechanism(), Some("rule"));
        assert_eq!(Dialect::Db2.procedural_mechanism(), None);
        assert_eq!(
            Dialect::Sql92.profile().general_null_constraints,
            Mechanism::Declarative
        );
        assert_eq!(
            Dialect::Db2.profile().general_null_constraints,
            Mechanism::Unsupported
        );
        for d in Dialect::ALL {
            assert_eq!(d.name(), d.profile().name);
        }
    }

    #[test]
    fn script_helpers() {
        let script = DdlScript {
            statements: vec![
                DdlStatement::CreateTable {
                    table: "T".into(),
                    sql: "CREATE TABLE T (X INTEGER);".into(),
                },
                DdlStatement::Trigger {
                    table: "T".into(),
                    sql: "CREATE TRIGGER ...".into(),
                },
                DdlStatement::Unsupported {
                    constraint: "c".into(),
                    sql: "-- warning".into(),
                },
            ],
        };
        assert_eq!(script.procedural_count(), 1);
        assert_eq!(script.unsupported().len(), 1);
        assert!(script.render().contains("CREATE TABLE T"));
    }
}
