//! DDL generation: the code-emitting half of the SDT tool \[12\].

use relmerge_core::Mechanism;
use relmerge_obs as obs;
use relmerge_relational::{InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Result};

use crate::dialect::{DdlScript, DdlStatement, Dialect};

/// Generates a DDL script deploying `schema` on `dialect`.
///
/// Constraint classes the dialect cannot maintain are emitted as
/// `-- UNSUPPORTED` warning comments rather than silently dropped.
pub fn generate(schema: &RelationalSchema, dialect: Dialect) -> Result<DdlScript> {
    schema.validate()?;
    let mut script = DdlScript::default();
    for name in creation_order(schema) {
        let s = schema.scheme_required(&name)?;
        script.statements.push(create_table(schema, s, dialect));
        // Non-declarative key maintenance: unique indexes.
        if !matches!(dialect, Dialect::Db2 | Dialect::Sql92) {
            for (i, key) in s.candidate_keys().iter().enumerate() {
                script.statements.push(DdlStatement::Index {
                    table: s.name().to_owned(),
                    sql: format!(
                        "CREATE UNIQUE INDEX {}_key{} ON {} ({});",
                        ident(s.name()),
                        i,
                        ident(s.name()),
                        key.iter().map(|k| ident(k)).collect::<Vec<_>>().join(", ")
                    ),
                });
            }
        }
    }
    // Every constraint goes where the dialect's capability profile puts
    // it: declarative ones inline or as `CHECK`s, procedural ones as the
    // dialect's trigger (SYBASE) or rule (INGRES), unsupported ones as
    // warning comments.
    let profile = dialect.profile();
    let rules = dialect.procedural_mechanism() == Some("rule");
    for (i, ind) in schema.inds().iter().enumerate() {
        match profile.ind_mechanism(schema, ind) {
            Mechanism::Declarative => {} // a FOREIGN KEY in CREATE TABLE
            Mechanism::Procedural if rules => script.statements.push(rule_for_ind(ind, i)),
            Mechanism::Procedural => script.statements.push(trigger_for_ind(ind, i)),
            Mechanism::Unsupported => script.statements.push(DdlStatement::Unsupported {
                constraint: ind.to_string(),
                sql: format!(
                    "-- UNSUPPORTED on {}: inclusion dependency {} must be \
                     maintained by application code",
                    dialect.name(),
                    ind
                ),
            }),
        }
    }
    // Null constraints beyond NOT NULL (declared inline).
    for (i, c) in schema.null_constraints().iter().enumerate() {
        if c.is_nna() {
            continue;
        }
        match profile.null_constraint_mechanism(c) {
            Mechanism::Declarative => script.statements.push(DdlStatement::CreateTable {
                table: c.rel().to_owned(),
                sql: format!(
                    "ALTER TABLE {} ADD CONSTRAINT nc{} CHECK ({});",
                    ident(c.rel()),
                    i,
                    check_expr(c)
                ),
            }),
            Mechanism::Procedural if rules => script.statements.push(rule_for_null(c, i)),
            Mechanism::Procedural => script.statements.push(trigger_for_null(c, i)),
            Mechanism::Unsupported => script.statements.push(DdlStatement::Unsupported {
                constraint: c.to_string(),
                sql: format!(
                    "-- UNSUPPORTED on {}: null constraint {} (no trigger/rule \
                     mechanism; see paper Section 5.1)",
                    dialect.name(),
                    c
                ),
            }),
        }
    }
    record_statement_counts(&script, dialect);
    Ok(script)
}

/// Bumps the per-dialect statement counters (`ddl.<dialect>.<kind>`).
/// Declarative `CHECK` constraints ride on the `CreateTable` variant as
/// `ALTER TABLE` statements, so they are told apart by their SQL prefix.
fn record_statement_counts(script: &DdlScript, dialect: Dialect) {
    let mut tables = 0u64;
    let mut checks = 0u64;
    let mut indexes = 0u64;
    let mut triggers = 0u64;
    let mut rules = 0u64;
    let mut unsupported = 0u64;
    for s in &script.statements {
        match s {
            DdlStatement::CreateTable { sql, .. } => {
                if sql.starts_with("ALTER TABLE") {
                    checks += 1;
                } else {
                    tables += 1;
                }
            }
            DdlStatement::Index { .. } => indexes += 1,
            DdlStatement::Trigger { .. } => triggers += 1,
            DdlStatement::Rule { .. } => rules += 1,
            DdlStatement::Unsupported { .. } => unsupported += 1,
        }
    }
    let registry = obs::global();
    let slug = dialect.slug();
    for (kind, n) in [
        ("tables", tables),
        ("checks", checks),
        ("indexes", indexes),
        ("triggers", triggers),
        ("rules", rules),
        ("unsupported", unsupported),
    ] {
        if n > 0 {
            registry.counter(&format!("ddl.{slug}.{kind}")).add(n);
        }
    }
}

fn ident(name: &str) -> String {
    name.replace('.', "_")
}

/// Orders scheme names so that every table follows the tables it
/// references (declarative `FOREIGN KEY` clauses require the referenced
/// table to exist). Self-references are allowed; genuine cycles fall back
/// to declaration order for the remainder (deployment would need `ALTER
/// TABLE`, which the 1989-era targets lack — the warning surfaces when the
/// dialect is declarative).
fn creation_order(schema: &RelationalSchema) -> Vec<String> {
    let mut remaining: Vec<&str> = schema.schemes().iter().map(|s| s.name()).collect();
    let mut done: Vec<String> = Vec::new();
    while !remaining.is_empty() {
        let ready: Vec<&str> = remaining
            .iter()
            .copied()
            .filter(|name| {
                schema
                    .inds()
                    .iter()
                    .filter(|ind| ind.lhs_rel == *name && ind.rhs_rel != *name)
                    .all(|ind| done.iter().any(|d| d == &ind.rhs_rel))
            })
            .collect();
        if ready.is_empty() {
            // Cycle: emit the rest in declaration order.
            done.extend(remaining.iter().map(|s| (*s).to_owned()));
            break;
        }
        for r in &ready {
            done.push((*r).to_owned());
        }
        remaining.retain(|n| !ready.contains(n));
    }
    done
}

fn create_table(schema: &RelationalSchema, s: &RelationScheme, dialect: Dialect) -> DdlStatement {
    let mut lines: Vec<String> = Vec::new();
    for a in s.attrs() {
        let not_null = schema.attr_not_null(s.name(), a.name());
        lines.push(format!(
            "  {} {}{}",
            ident(a.name()),
            a.domain().sql_name(),
            if not_null { " NOT NULL" } else { "" }
        ));
    }
    if matches!(dialect, Dialect::Db2 | Dialect::Sql92) {
        let keys = s.candidate_keys();
        let pk = &keys[0];
        lines.push(format!(
            "  PRIMARY KEY ({})",
            pk.iter().map(|k| ident(k)).collect::<Vec<_>>().join(", ")
        ));
        for alt in keys.iter().skip(1) {
            lines.push(format!(
                "  UNIQUE ({})",
                alt.iter().map(|k| ident(k)).collect::<Vec<_>>().join(", ")
            ));
        }
        let profile = dialect.profile();
        for ind in schema.inds().iter().filter(|i| i.lhs_rel == s.name()) {
            if profile.ind_mechanism(schema, ind) == Mechanism::Declarative {
                lines.push(format!(
                    "  FOREIGN KEY ({}) REFERENCES {} ({})",
                    ind.lhs_attrs
                        .iter()
                        .map(|x| ident(x))
                        .collect::<Vec<_>>()
                        .join(", "),
                    ident(&ind.rhs_rel),
                    ind.rhs_attrs
                        .iter()
                        .map(|x| ident(x))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
    }
    DdlStatement::CreateTable {
        table: s.name().to_owned(),
        sql: format!(
            "CREATE TABLE {} (\n{}\n);",
            ident(s.name()),
            lines.join(",\n")
        ),
    }
}

/// A SQL boolean expression equivalent to the single-tuple null constraint
/// (used for SQL-92 `CHECK`s and inside trigger/rule bodies).
#[must_use]
pub fn check_expr(c: &NullConstraint) -> String {
    let total = |attrs: &[String]| -> String {
        attrs
            .iter()
            .map(|a| format!("{} IS NOT NULL", ident(a)))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    let all_null = |attrs: &[String]| -> String {
        attrs
            .iter()
            .map(|a| format!("{} IS NULL", ident(a)))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    match c {
        NullConstraint::NullExistence { lhs, rhs, .. } => {
            if lhs.is_empty() {
                total(rhs)
            } else {
                format!("NOT ({}) OR ({})", total(lhs), total(rhs))
            }
        }
        NullConstraint::NullSync { attrs, .. } => {
            format!("({}) OR ({})", total(attrs), all_null(attrs))
        }
        NullConstraint::PartNull { groups, .. } => groups
            .iter()
            .map(|g| format!("({})", total(g)))
            .collect::<Vec<_>>()
            .join(" OR "),
        NullConstraint::TotalEquality { lhs, rhs, .. } => {
            let eqs = lhs
                .iter()
                .zip(rhs)
                .map(|(y, z)| {
                    format!(
                        "({} IS NULL OR {} IS NULL OR {} = {})",
                        ident(y),
                        ident(z),
                        ident(y),
                        ident(z)
                    )
                })
                .collect::<Vec<_>>();
            eqs.join(" AND ")
        }
    }
}

fn trigger_for_null(c: &NullConstraint, i: usize) -> DdlStatement {
    let table = ident(c.rel());
    DdlStatement::Trigger {
        table: c.rel().to_owned(),
        sql: format!(
            "CREATE TRIGGER {table}_nc{i}\nON {table}\nFOR INSERT, UPDATE\nAS\n\
             IF EXISTS (SELECT 1 FROM inserted WHERE NOT ({expr}))\nBEGIN\n\
             \x20 RAISERROR 20001 'null constraint violated: {c}'\n\
             \x20 ROLLBACK TRANSACTION\nEND",
            expr = check_expr(c),
        ),
    }
}

fn rule_for_null(c: &NullConstraint, i: usize) -> DdlStatement {
    let table = ident(c.rel());
    DdlStatement::Rule {
        table: c.rel().to_owned(),
        sql: format!(
            "CREATE PROCEDURE {table}_nc{i}_check AS\nBEGIN\n\
             \x20 RAISE ERROR 20001 'null constraint violated: {c}';\nEND;\n\
             CREATE RULE {table}_nc{i} AFTER INSERT, UPDATE OF {table}\n\
             WHERE NOT ({expr})\nEXECUTE PROCEDURE {table}_nc{i}_check;",
            expr = check_expr(c),
        ),
    }
}

fn trigger_for_ind(ind: &InclusionDep, i: usize) -> DdlStatement {
    let lhs = ident(&ind.lhs_rel);
    let rhs = ident(&ind.rhs_rel);
    let join_cond = ind
        .lhs_attrs
        .iter()
        .zip(&ind.rhs_attrs)
        .map(|(l, r)| format!("inserted.{} = {}.{}", ident(l), rhs, ident(r)))
        .collect::<Vec<_>>()
        .join(" AND ");
    let lhs_total = ind
        .lhs_attrs
        .iter()
        .map(|l| format!("inserted.{} IS NOT NULL", ident(l)))
        .collect::<Vec<_>>()
        .join(" AND ");
    DdlStatement::Trigger {
        table: ind.lhs_rel.clone(),
        sql: format!(
            "CREATE TRIGGER {lhs}_fk{i}\nON {lhs}\nFOR INSERT, UPDATE\nAS\n\
             IF EXISTS (SELECT 1 FROM inserted\n\
             \x20          WHERE {lhs_total}\n\
             \x20            AND NOT EXISTS (SELECT 1 FROM {rhs} WHERE {join_cond}))\nBEGIN\n\
             \x20 RAISERROR 20002 'inclusion dependency violated: {ind}'\n\
             \x20 ROLLBACK TRANSACTION\nEND",
        ),
    }
}

fn rule_for_ind(ind: &InclusionDep, i: usize) -> DdlStatement {
    let lhs = ident(&ind.lhs_rel);
    let rhs = ident(&ind.rhs_rel);
    let params = ind
        .lhs_attrs
        .iter()
        .map(|l| format!("{} = NEW.{}", ident(l), ident(l)))
        .collect::<Vec<_>>()
        .join(", ");
    DdlStatement::Rule {
        table: ind.lhs_rel.clone(),
        sql: format!(
            "CREATE PROCEDURE {lhs}_fk{i}_check ({decl}) AS\nBEGIN\n\
             \x20 IF NOT EXISTS (SELECT 1 FROM {rhs} WHERE {cond}) THEN\n\
             \x20   RAISE ERROR 20002 'inclusion dependency violated: {ind}';\n\
             \x20 ENDIF;\nEND;\n\
             CREATE RULE {lhs}_fk{i} AFTER INSERT, UPDATE OF {lhs}\n\
             EXECUTE PROCEDURE {lhs}_fk{i}_check ({params});",
            decl = ind
                .lhs_attrs
                .iter()
                .map(|l| format!("{} INTEGER", ident(l)))
                .collect::<Vec<_>>()
                .join(", "),
            cond = ind
                .lhs_attrs
                .iter()
                .zip(&ind.rhs_attrs)
                .map(|(l, r)| format!("{}.{} = :{}", rhs, ident(r), ident(l)))
                .collect::<Vec<_>>()
                .join(" AND "),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Attribute, Domain, InclusionDep, RelationScheme};

    fn schema() -> RelationalSchema {
        let a = |n: &str, d: Domain| Attribute::new(n, d);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new("COURSE", vec![a("C.NR", Domain::Int)], &["C.NR"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "OFFER",
                vec![a("O.C.NR", Domain::Int), a("O.D.NAME", Domain::Text)],
                &["O.C.NR"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("COURSE", &["C.NR"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("OFFER", &["O.C.NR"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::ns("OFFER", &["O.C.NR", "O.D.NAME"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs
    }

    #[test]
    fn db2_declarative_plus_warnings() {
        let script = generate(&schema(), Dialect::Db2).unwrap();
        let text = script.render();
        assert!(text.contains("CREATE TABLE COURSE"));
        assert!(text.contains("C_NR INTEGER NOT NULL"));
        assert!(text.contains("PRIMARY KEY (C_NR)"));
        assert!(text.contains("FOREIGN KEY (O_C_NR) REFERENCES COURSE (C_NR)"));
        // The NS constraint is unmaintainable on DB2.
        assert_eq!(script.unsupported().len(), 1);
        assert!(text.contains("-- UNSUPPORTED on DB2"));
        assert_eq!(script.procedural_count(), 0);
    }

    #[test]
    fn sybase_triggers() {
        let script = generate(&schema(), Dialect::Sybase40).unwrap();
        let text = script.render();
        // FK and NS both become triggers; keys become unique indexes.
        assert!(text.contains("CREATE TRIGGER OFFER_fk0"));
        assert!(text.contains("CREATE TRIGGER OFFER_nc"));
        assert!(text.contains("CREATE UNIQUE INDEX"));
        assert!(text.contains("ROLLBACK TRANSACTION"));
        assert!(script.unsupported().is_empty());
        assert_eq!(script.procedural_count(), 2);
    }

    #[test]
    fn ingres_rules() {
        let script = generate(&schema(), Dialect::Ingres63).unwrap();
        let text = script.render();
        assert!(text.contains("CREATE RULE OFFER_fk0"));
        assert!(text.contains("CREATE RULE OFFER_nc"));
        assert!(text.contains("EXECUTE PROCEDURE"));
        assert!(script.unsupported().is_empty());
    }

    #[test]
    fn sql92_checks() {
        let script = generate(&schema(), Dialect::Sql92).unwrap();
        let text = script.render();
        assert!(text.contains("ADD CONSTRAINT nc2 CHECK"));
        assert!(text.contains("O_C_NR IS NOT NULL AND O_D_NAME IS NOT NULL"));
        assert!(text.contains("O_C_NR IS NULL AND O_D_NAME IS NULL"));
        assert!(script.unsupported().is_empty());
        assert_eq!(script.procedural_count(), 0);
    }

    #[test]
    fn check_expressions_cover_all_constraint_forms() {
        assert_eq!(
            check_expr(&NullConstraint::nna("R", &["A"])),
            "A IS NOT NULL"
        );
        assert_eq!(
            check_expr(&NullConstraint::ne("R", &["A"], &["B"])),
            "NOT (A IS NOT NULL) OR (B IS NOT NULL)"
        );
        assert_eq!(
            check_expr(&NullConstraint::ns("R", &["A", "B"])),
            "(A IS NOT NULL AND B IS NOT NULL) OR (A IS NULL AND B IS NULL)"
        );
        assert_eq!(
            check_expr(&NullConstraint::pn("R", &[&["A"], &["B"]])),
            "(A IS NOT NULL) OR (B IS NOT NULL)"
        );
        assert_eq!(
            check_expr(&NullConstraint::te("R", &["A"], &["B"])),
            "(A IS NULL OR B IS NULL OR A = B)"
        );
    }

    #[test]
    fn tables_created_in_dependency_order() {
        let script = generate(&schema(), Dialect::Db2).unwrap();
        let text = script.render();
        let course = text.find("CREATE TABLE COURSE").unwrap();
        let offer = text.find("CREATE TABLE OFFER").unwrap();
        assert!(
            course < offer,
            "referenced table must be created before its referencer"
        );
    }

    #[test]
    fn cyclic_references_fall_back_gracefully() {
        let a = |n: &str| Attribute::new(n, Domain::Int);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("X", vec![a("X.K"), a("X.R")], &["X.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("Y", vec![a("Y.K"), a("Y.R")], &["Y.K"]).unwrap())
            .unwrap();
        rs.add_ind(InclusionDep::new("X", &["X.R"], "Y", &["Y.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Y", &["Y.R"], "X", &["X.K"]))
            .unwrap();
        let script = generate(&rs, Dialect::Sql92).unwrap();
        // Both tables are still emitted.
        let text = script.render();
        assert!(text.contains("CREATE TABLE X"));
        assert!(text.contains("CREATE TABLE Y"));
    }

    #[test]
    fn self_reference_does_not_block_ordering() {
        let a = |n: &str| Attribute::new(n, Domain::Int);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("E", vec![a("E.K"), a("E.BOSS")], &["E.K"]).unwrap())
            .unwrap();
        rs.add_ind(InclusionDep::new("E", &["E.BOSS"], "E", &["E.K"]))
            .unwrap();
        let script = generate(&rs, Dialect::Db2).unwrap();
        assert!(script.render().contains("CREATE TABLE E"));
    }

    #[test]
    fn alternative_keys_emit_unique() {
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
        let script = generate(&rs, Dialect::Sql92).unwrap();
        assert!(script.render().contains("UNIQUE (R_ALT)"));
        let sybase = generate(&rs, Dialect::Sybase40).unwrap();
        assert!(sybase.render().contains("R_key1"));
    }
}
