//! Relation-schemes with primary and candidate keys.

use std::collections::HashSet;
use std::fmt;

use crate::attribute::{self, Attribute};
use crate::error::{Error, Result};

/// A relation-scheme `Ri(Xi)` together with its declared keys.
///
/// Paper §2: *"A relation-scheme can be associated with several candidate
/// keys from which one primary key is chosen."* The primary key is the first
/// entry of `candidate_keys`. Key dependencies `Ri : Ki → Xi` are implicit
/// in the declaration and materialized by [`crate::fd::FdSet::from_schemes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationScheme {
    name: String,
    attrs: Vec<Attribute>,
    /// Candidate keys as lists of attribute names; index 0 is the primary key.
    candidate_keys: Vec<Vec<String>>,
}

impl RelationScheme {
    /// Creates a scheme with a single (primary) key.
    pub fn new(
        name: impl Into<String>,
        attrs: Vec<Attribute>,
        primary_key: &[&str],
    ) -> Result<Self> {
        Self::with_candidate_keys(name, attrs, &[primary_key])
    }

    /// Creates a scheme with several candidate keys; the first is primary.
    pub fn with_candidate_keys(
        name: impl Into<String>,
        attrs: Vec<Attribute>,
        keys: &[&[&str]],
    ) -> Result<Self> {
        let name = name.into();
        let mut seen = HashSet::with_capacity(attrs.len());
        for a in &attrs {
            if !seen.insert(a.name()) {
                return Err(Error::DuplicateAttribute(a.name().to_owned()));
            }
        }
        if keys.is_empty() {
            return Err(Error::MissingPrimaryKey(name));
        }
        let mut candidate_keys = Vec::with_capacity(keys.len());
        for key in keys {
            if key.is_empty() {
                return Err(Error::MalformedKey {
                    scheme: name,
                    detail: "empty key".to_owned(),
                });
            }
            let mut key_names = Vec::with_capacity(key.len());
            for k in *key {
                if attribute::position(&attrs, k).is_none() {
                    return Err(Error::MalformedKey {
                        scheme: name,
                        detail: format!("key attribute `{k}` not in scheme"),
                    });
                }
                if key_names.iter().any(|n| n == k) {
                    return Err(Error::MalformedKey {
                        scheme: name,
                        detail: format!("key attribute `{k}` repeated"),
                    });
                }
                key_names.push((*k).to_owned());
            }
            candidate_keys.push(key_names);
        }
        Ok(RelationScheme {
            name,
            attrs,
            candidate_keys,
        })
    }

    /// The scheme name `Ri`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute set `Xi`, in declaration order.
    #[must_use]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute names, in declaration order.
    #[must_use]
    pub fn attr_names(&self) -> Vec<&str> {
        self.attrs.iter().map(Attribute::name).collect()
    }

    /// The primary key `Ki` as attribute names.
    #[must_use]
    pub fn primary_key(&self) -> Vec<&str> {
        self.candidate_keys[0].iter().map(String::as_str).collect()
    }

    /// The primary-key attributes, with domains, in key order.
    #[must_use]
    pub fn primary_key_attrs(&self) -> Vec<Attribute> {
        self.candidate_keys[0]
            .iter()
            .map(|k| self.attr(k).expect("validated at construction").clone())
            .collect()
    }

    /// All candidate keys (primary first), as name lists.
    #[must_use]
    pub fn candidate_keys(&self) -> Vec<Vec<&str>> {
        self.candidate_keys
            .iter()
            .map(|k| k.iter().map(String::as_str).collect())
            .collect()
    }

    /// Looks up an attribute by name.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&Attribute> {
        self.attrs.iter().find(|a| a.name() == name)
    }

    /// Whether `name` is one of this scheme's attributes.
    #[must_use]
    pub fn has_attr(&self, name: &str) -> bool {
        self.attr(name).is_some()
    }

    /// Whether `names` is exactly the primary key (order-insensitive).
    #[must_use]
    pub fn is_primary_key<S: AsRef<str>>(&self, names: &[S]) -> bool {
        let pk = &self.candidate_keys[0];
        names.len() == pk.len() && names.iter().all(|n| pk.iter().any(|k| k == n.as_ref()))
    }

    /// The non-key attributes `Xi − Ki` (declaration order).
    #[must_use]
    pub fn non_key_attrs(&self) -> Vec<&Attribute> {
        let pk = &self.candidate_keys[0];
        self.attrs
            .iter()
            .filter(|a| !pk.iter().any(|k| k == a.name()))
            .collect()
    }

    /// Whether this scheme's primary key is *pairwise compatible* with
    /// `other`'s (paper §3: equal arity, pairwise-compatible domains under
    /// the key order) — the precondition for being merged together.
    #[must_use]
    pub fn key_compatible(&self, other: &RelationScheme) -> bool {
        let a = self.primary_key_attrs();
        let b = other.primary_key_attrs();
        attribute::compatible_sets(&a, &b)
    }

    /// Returns a copy with `extra` attributes appended (used by `Merge`).
    pub fn extended(&self, extra: &[Attribute]) -> Result<RelationScheme> {
        let mut attrs = self.attrs.clone();
        attrs.extend_from_slice(extra);
        let keys: Vec<Vec<&str>> = self
            .candidate_keys
            .iter()
            .map(|k| k.iter().map(String::as_str).collect())
            .collect();
        let key_refs: Vec<&[&str]> = keys.iter().map(Vec::as_slice).collect();
        RelationScheme::with_candidate_keys(self.name.clone(), attrs, &key_refs)
    }
}

impl fmt::Display for RelationScheme {
    /// Prints in the paper's figure notation: `NAME (KEY1, KEY2, other, …)`
    /// with the primary key first (the figures underline it; we list it
    /// first instead).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pk: Vec<&str> = self.primary_key();
        let rest: Vec<&str> = self
            .attrs
            .iter()
            .map(Attribute::name)
            .filter(|n| !pk.contains(n))
            .collect();
        let mut parts: Vec<String> = pk.iter().map(|s| format!("_{s}_")).collect();
        parts.extend(rest.iter().map(|s| (*s).to_owned()));
        write!(f, "{} ({})", self.name, parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    fn works() -> RelationScheme {
        RelationScheme::new(
            "WORKS",
            vec![
                Attribute::new("W.SSN", Domain::Int),
                Attribute::new("W.NR", Domain::Int),
                Attribute::new("W.DATE", Domain::Date),
            ],
            &["W.SSN", "W.NR"],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let w = works();
        assert_eq!(w.name(), "WORKS");
        assert_eq!(w.primary_key(), ["W.SSN", "W.NR"]);
        assert_eq!(w.attr_names(), ["W.SSN", "W.NR", "W.DATE"]);
        assert_eq!(
            w.non_key_attrs()
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>(),
            ["W.DATE"]
        );
        assert!(w.is_primary_key(&["W.NR", "W.SSN"]));
        assert!(!w.is_primary_key(&["W.SSN"]));
    }

    #[test]
    fn rejects_bad_keys() {
        let attrs = || vec![Attribute::new("A", Domain::Int)];
        assert!(matches!(
            RelationScheme::new("R", attrs(), &["B"]),
            Err(Error::MalformedKey { .. })
        ));
        assert!(matches!(
            RelationScheme::new("R", attrs(), &[]),
            Err(Error::MalformedKey { .. })
        ));
        assert!(matches!(
            RelationScheme::new(
                "R",
                vec![
                    Attribute::new("A", Domain::Int),
                    Attribute::new("A", Domain::Int)
                ],
                &["A"]
            ),
            Err(Error::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn candidate_keys_primary_first() {
        let r = RelationScheme::with_candidate_keys(
            "R",
            vec![
                Attribute::new("A", Domain::Int),
                Attribute::new("B", Domain::Int),
            ],
            &[&["A"], &["B"]],
        )
        .unwrap();
        assert_eq!(r.primary_key(), ["A"]);
        assert_eq!(r.candidate_keys().len(), 2);
    }

    #[test]
    fn key_compatibility_is_positional_on_domains() {
        let a = RelationScheme::new(
            "A",
            vec![
                Attribute::new("A.K1", Domain::Int),
                Attribute::new("A.K2", Domain::Text),
            ],
            &["A.K1", "A.K2"],
        )
        .unwrap();
        let b = RelationScheme::new(
            "B",
            vec![
                Attribute::new("B.K1", Domain::Int),
                Attribute::new("B.K2", Domain::Text),
            ],
            &["B.K1", "B.K2"],
        )
        .unwrap();
        let c =
            RelationScheme::new("C", vec![Attribute::new("C.K", Domain::Int)], &["C.K"]).unwrap();
        assert!(a.key_compatible(&b));
        assert!(!a.key_compatible(&c));
    }

    #[test]
    fn extended_appends_attrs() {
        let w = works()
            .extended(&[Attribute::new("EXTRA", Domain::Int)])
            .unwrap();
        assert_eq!(w.attr_names().len(), 4);
        assert_eq!(w.primary_key(), ["W.SSN", "W.NR"]);
    }

    #[test]
    fn display_marks_key() {
        let w = works();
        assert_eq!(w.to_string(), "WORKS (_W.SSN_, _W.NR_, W.DATE)");
    }
}
