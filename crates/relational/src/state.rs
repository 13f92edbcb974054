//! Database states and consistency checking (paper Definition 2.1).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Error, Result};
use crate::fxhash::FxHashSet;
use crate::relation::Relation;
use crate::schema::RelationalSchema;
use crate::value::{Tuple, Value};

/// A reason a database state fails to be consistent with its schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A key dependency `rel : key → all` is violated.
    Key {
        /// The relation-scheme.
        rel: String,
        /// The violated candidate key.
        key: Vec<String>,
    },
    /// An explicit functional dependency is violated.
    Fd(String),
    /// An inclusion dependency is violated.
    Ind(String),
    /// A null constraint is violated.
    Null(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Key { rel, key } => {
                write!(f, "key violation on {rel} ({})", key.join(","))
            }
            Violation::Fd(s) => write!(f, "FD violation: {s}"),
            Violation::Ind(s) => write!(f, "IND violation: {s}"),
            Violation::Null(s) => write!(f, "null-constraint violation: {s}"),
        }
    }
}

/// A database state `r` of a relational schema: one relation per
/// relation-scheme (paper §2).
///
/// Relations are stored by scheme name in a [`BTreeMap`] so iteration — and
/// hence all diagnostics, display output, and test assertions — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatabaseState {
    relations: BTreeMap<String, Relation>,
}

impl DatabaseState {
    /// The empty state (no relations at all).
    #[must_use]
    pub fn new() -> Self {
        DatabaseState::default()
    }

    /// A state with one empty relation per scheme of `schema`.
    pub fn empty_for(schema: &RelationalSchema) -> Result<Self> {
        let mut state = DatabaseState::new();
        for s in schema.schemes() {
            state
                .relations
                .insert(s.name().to_owned(), Relation::new(s.attrs().to_vec())?);
        }
        Ok(state)
    }

    /// Sets (or replaces) the relation for `name`.
    pub fn set_relation(&mut self, name: impl Into<String>, r: Relation) {
        self.relations.insert(name.into(), r);
    }

    /// The relation associated with scheme `name`.
    #[must_use]
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The relation for `name`, failing with [`Error::StateMismatch`].
    pub fn relation_required(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::StateMismatch {
                detail: format!("state has no relation for scheme `{name}`"),
            })
    }

    /// Mutable access to the relation for `name`.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Inserts a tuple into the relation for `rel`.
    pub fn insert(&mut self, rel: &str, t: Tuple) -> Result<bool> {
        self.relations
            .get_mut(rel)
            .ok_or_else(|| Error::StateMismatch {
                detail: format!("state has no relation for scheme `{rel}`"),
            })?
            .insert(t)
    }

    /// Iterates `(scheme name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Moves the `(scheme name, relation)` pairs out, in name order.
    pub fn into_relations(self) -> impl Iterator<Item = (String, Relation)> {
        self.relations.into_iter()
    }

    /// Names of the relations present.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Total number of tuples across all relations.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// All violations of `schema`'s dependencies and constraints by this
    /// state. Empty means the state is **consistent** (paper §2).
    pub fn violations(&self, schema: &RelationalSchema) -> Result<Vec<Violation>> {
        let mut out = Vec::new();
        // Every scheme must have a relation with a matching header.
        for s in schema.schemes() {
            let r = self.relation_required(s.name())?;
            if r.header() != s.attrs() {
                return Err(Error::StateMismatch {
                    detail: format!(
                        "relation for `{}` has header ({}) but scheme declares ({})",
                        s.name(),
                        r.attr_names().join(","),
                        s.attr_names().join(",")
                    ),
                });
            }
        }
        // Key dependencies (every candidate key).
        for s in schema.schemes() {
            let r = self.relation_required(s.name())?;
            for key in s.candidate_keys() {
                let fd = crate::fd::Fd::new(s.name(), &key, &s.attr_names());
                if !fd.satisfied_by(r)? {
                    out.push(Violation::Key {
                        rel: s.name().to_owned(),
                        key: key.iter().map(|k| (*k).to_owned()).collect(),
                    });
                }
            }
        }
        // Explicit FDs.
        for fd in schema.extra_fds() {
            let r = self.relation_required(&fd.rel)?;
            if !fd.satisfied_by(r)? {
                out.push(Violation::Fd(fd.to_string()));
            }
        }
        // Inclusion dependencies.
        for ind in schema.inds() {
            let lhs = self.relation_required(&ind.lhs_rel)?;
            let rhs = self.relation_required(&ind.rhs_rel)?;
            if !ind.satisfied_by(lhs, rhs)? {
                out.push(Violation::Ind(ind.to_string()));
            }
        }
        // Null constraints.
        for c in schema.null_constraints() {
            let r = self.relation_required(c.rel())?;
            if !c.satisfied_by(r)? {
                out.push(Violation::Null(c.to_string()));
            }
        }
        Ok(out)
    }

    /// Whether the state satisfies all of `schema`'s dependencies and
    /// constraints.
    pub fn is_consistent(&self, schema: &RelationalSchema) -> Result<bool> {
        Ok(self.violations(schema)?.is_empty())
    }

    /// The non-null data values of every tuple of the state, with repeats.
    fn data_values(&self) -> impl Iterator<Item = &Value> {
        self.relations
            .values()
            .flat_map(Relation::iter)
            .flat_map(|t| t.values().iter())
            .filter(|v| !v.is_null())
    }

    /// Whether the data values of `self` are included in those of `other`
    /// (Definition 2.1, condition 4 direction `φ(r) ⊆ r`): a state mapping
    /// φ *preserves the data values* of `r` iff every non-null value of
    /// `φ(r)` appears in `r`. Checked against one set of `other`'s values,
    /// borrowed where they are stored.
    #[must_use]
    pub fn values_included_in(&self, other: &DatabaseState) -> bool {
        let known: FxHashSet<&Value> = other.data_values().collect();
        self.data_values().all(|v| known.contains(v))
    }

    /// State equality restricted to the relations named in `names` — used
    /// by round-trip checks that only the merged relations changed.
    #[must_use]
    pub fn eq_on(&self, other: &DatabaseState, names: &[&str]) -> bool {
        names
            .iter()
            .all(|n| match (self.relation(n), other.relation(n)) {
                (Some(a), Some(b)) => a.set_eq(b),
                _ => false,
            })
    }
}

impl fmt::Display for DatabaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, r) in &self.relations {
            write!(f, "{name} {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::domain::Domain;
    use crate::ind::InclusionDep;
    use crate::nullcon::NullConstraint;
    use crate::scheme::RelationScheme;

    fn schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new(
                "EMP",
                vec![
                    Attribute::new("E.SSN", Domain::Int),
                    Attribute::new("E.NAME", Domain::Text),
                ],
                &["E.SSN"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new(
                "MGR",
                vec![Attribute::new("M.SSN", Domain::Int)],
                &["M.SSN"],
            )
            .unwrap(),
        )
        .unwrap();
        rs.add_ind(InclusionDep::new("MGR", &["M.SSN"], "EMP", &["E.SSN"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("EMP", &["E.SSN"]))
            .unwrap();
        rs
    }

    #[test]
    fn empty_state_is_consistent() {
        let rs = schema();
        let st = DatabaseState::empty_for(&rs).unwrap();
        assert!(st.is_consistent(&rs).unwrap());
        assert_eq!(st.total_tuples(), 0);
    }

    #[test]
    fn key_violation_detected() {
        let rs = schema();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::text("a")]))
            .unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::text("b")]))
            .unwrap();
        let v = st.violations(&rs).unwrap();
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::Key { rel, .. } if rel == "EMP")));
    }

    #[test]
    fn ind_violation_detected() {
        let rs = schema();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("MGR", Tuple::new([Value::Int(9)])).unwrap();
        let v = st.violations(&rs).unwrap();
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::Ind(_)));
        st.insert("EMP", Tuple::new([Value::Int(9), Value::text("x")]))
            .unwrap();
        assert!(st.is_consistent(&rs).unwrap());
    }

    #[test]
    fn null_violation_detected() {
        let rs = schema();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Null, Value::text("x")]))
            .unwrap();
        let v = st.violations(&rs).unwrap();
        assert!(v.iter().any(|v| matches!(v, Violation::Null(_))));
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let rs = schema();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.set_relation(
            "EMP",
            Relation::new(vec![Attribute::new("WRONG", Domain::Int)]).unwrap(),
        );
        assert!(st.violations(&rs).is_err());
    }

    #[test]
    fn data_values_and_inclusion() {
        let rs = schema();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::Null]))
            .unwrap();
        // Nulls are no data values: a state holding only 1 holds all of
        // `st`'s.
        let mut ones = DatabaseState::empty_for(&rs).unwrap();
        ones.insert("MGR", Tuple::new([Value::Int(1)])).unwrap();
        assert!(st.values_included_in(&ones));
        assert!(ones.values_included_in(&st));
        let bigger = {
            let mut s2 = st.clone();
            s2.insert("EMP", Tuple::new([Value::Int(2), Value::text("z")]))
                .unwrap();
            s2
        };
        assert!(st.values_included_in(&bigger));
        assert!(!bigger.values_included_in(&st));
    }

    #[test]
    fn eq_on_selected_relations() {
        let rs = schema();
        let mut a = DatabaseState::empty_for(&rs).unwrap();
        let mut b = DatabaseState::empty_for(&rs).unwrap();
        a.insert("EMP", Tuple::new([Value::Int(1), Value::text("a")]))
            .unwrap();
        b.insert("EMP", Tuple::new([Value::Int(1), Value::text("a")]))
            .unwrap();
        b.insert("MGR", Tuple::new([Value::Int(1)])).unwrap();
        assert!(a.eq_on(&b, &["EMP"]));
        assert!(!a.eq_on(&b, &["EMP", "MGR"]));
        assert!(!a.eq_on(&b, &["MISSING"]));
    }
}
