//! Relations: headers plus sets of tuples.

use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasher;

use crate::attribute::{self, Attribute};
use crate::error::{Error, Result};
use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, Slots};
use crate::value::Tuple;

/// A relation: an ordered attribute header and a *set* of tuples.
///
/// Set semantics follow the paper (§2 treats relations as sets). Each
/// tuple is stored once, in insertion order, which fixes display and
/// iteration order. An index from each row's hash to the positions of the
/// rows with that hash makes duplicate elimination and membership tests
/// O(1) without a second copy of any row.
#[derive(Debug, Clone)]
pub struct Relation {
    header: Vec<Attribute>,
    rows: Vec<Tuple>,
    /// Row hash → positions in `rows` of the rows with that hash.
    index: FxHashMap<u64, Slots>,
}

fn row_hash(t: &Tuple) -> u64 {
    FxBuildHasher::default().hash_one(t)
}

impl Relation {
    /// Creates an empty relation over `header`.
    ///
    /// Attribute names within one header must be distinct.
    pub fn new(header: Vec<Attribute>) -> Result<Self> {
        let mut seen = HashSet::with_capacity(header.len());
        for a in &header {
            if !seen.insert(a.name()) {
                return Err(Error::DuplicateAttribute(a.name().to_owned()));
            }
        }
        Ok(Relation {
            header,
            rows: Vec::new(),
            index: FxHashMap::default(),
        })
    }

    /// Creates a relation and inserts every tuple of `rows`.
    pub fn with_rows(
        header: Vec<Attribute>,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self> {
        let mut r = Relation::new(header)?;
        let rows = rows.into_iter();
        let (expected, _) = rows.size_hint();
        r.rows.reserve(expected);
        r.index.reserve(expected);
        for t in rows {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The header attributes, in order.
    #[must_use]
    pub fn header(&self) -> &[Attribute] {
        &self.header
    }

    /// Attribute names of the header, in order.
    #[must_use]
    pub fn attr_names(&self) -> Vec<&str> {
        self.header.iter().map(Attribute::name).collect()
    }

    /// Arity (number of attributes).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.header.len()
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// The tuples as a slice, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Whether `t` is a member of the relation.
    #[must_use]
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(row_hash(t), t).is_some()
    }

    /// Position in `rows` of the row equal to `t`, whose hash is `hash`.
    fn find(&self, hash: u64, t: &Tuple) -> Option<usize> {
        self.index
            .get(&hash)?
            .as_slice()
            .iter()
            .copied()
            .find(|&p| self.rows[p] == *t)
    }

    /// Position of attribute `name` in the header.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<usize> {
        attribute::position(&self.header, name)
    }

    /// Positions of each of `names` in the header, failing on unknown names.
    pub fn positions(&self, names: &[&str]) -> Result<Vec<usize>> {
        attribute::positions(&self.header, names, "relation")
    }

    /// Inserts a tuple; returns `Ok(true)` if it was new, `Ok(false)` if the
    /// relation already contained it (set semantics), or an error when the
    /// tuple's arity or value domains do not match the header.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.header.len() {
            return Err(Error::TupleMismatch {
                detail: format!(
                    "arity {} does not match header arity {}",
                    t.arity(),
                    self.header.len()
                ),
            });
        }
        for (v, a) in t.values().iter().zip(&self.header) {
            if !v.fits(a.domain()) {
                return Err(Error::TupleMismatch {
                    detail: format!(
                        "value {v} does not fit domain {} of attribute `{}`",
                        a.domain(),
                        a.name()
                    ),
                });
            }
        }
        let pos = self.rows.len();
        match self.index.entry(row_hash(&t)) {
            Entry::Vacant(e) => {
                e.insert(Slots::One(pos));
            }
            Entry::Occupied(mut e) => {
                if e.get().as_slice().iter().any(|&p| self.rows[p] == t) {
                    return Ok(false);
                }
                e.get_mut().push(pos);
            }
        }
        self.rows.push(t);
        Ok(true)
    }

    /// Removes a tuple; returns whether it was present. The remaining
    /// tuples keep their order.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        let hash = row_hash(t);
        let Some(pos) = self.find(hash, t) else {
            return false;
        };
        if let Entry::Occupied(mut e) = self.index.entry(hash) {
            if e.get_mut().remove(pos) {
                e.remove();
            }
        }
        self.rows.remove(pos);
        for p in self.index.values_mut().flat_map(Slots::as_mut_slice) {
            if *p > pos {
                *p -= 1;
            }
        }
        true
    }

    /// Two relations are *equal as sets* if their headers match (same names
    /// and domains, same order) and they contain the same tuples.
    #[must_use]
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.header == other.header
            && self.rows.len() == other.rows.len()
            && self.rows.iter().all(|t| other.contains(t))
    }

    /// Set equality up to column order: reorders `other`'s columns to match
    /// `self`'s header by name before comparing. Returns `false` when the
    /// headers are not a permutation of one another.
    #[must_use]
    pub fn set_eq_unordered(&self, other: &Relation) -> bool {
        if self.arity() != other.arity() || self.len() != other.len() {
            return false;
        }
        let Ok(perm) = other.positions(&self.attr_names()) else {
            return false;
        };
        if self
            .header
            .iter()
            .zip(&perm)
            .any(|(a, &i)| a.domain() != other.header[i].domain())
        {
            return false;
        }
        let reordered: FxHashSet<Tuple> = other.rows.iter().map(|t| t.project(&perm)).collect();
        self.rows.iter().all(|t| reordered.contains(t))
    }

    /// Total size in values (arity × cardinality): the paper's §4.2 argument
    /// that `Remove` "reduces the size of the relations" is measured in
    /// these units.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.arity() * self.len()
    }

    /// Number of stored values that are null; `Remove` shrinks this.
    #[must_use]
    pub fn null_count(&self) -> usize {
        self.rows
            .iter()
            .map(|t| t.values().iter().filter(|v| v.is_null()).count())
            .sum()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({})",
            self.header
                .iter()
                .map(|a| a.name().to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        )?;
        writeln!(f, " [{} tuples]", self.rows.len())?;
        for t in &self.rows {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::value::Value;

    fn header() -> Vec<Attribute> {
        vec![
            Attribute::new("A", Domain::Int),
            Attribute::new("B", Domain::Text),
        ]
    }

    #[test]
    fn rejects_duplicate_header_names() {
        let h = vec![
            Attribute::new("A", Domain::Int),
            Attribute::new("A", Domain::Text),
        ];
        assert!(matches!(
            Relation::new(h),
            Err(Error::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn set_semantics_dedupe() {
        let mut r = Relation::new(header()).unwrap();
        let t = Tuple::new([Value::Int(1), Value::text("x")]);
        assert!(r.insert(t.clone()).unwrap());
        assert!(!r.insert(t.clone()).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t));
    }

    #[test]
    fn insert_validates_arity_and_domain() {
        let mut r = Relation::new(header()).unwrap();
        assert!(r.insert(Tuple::new([Value::Int(1)])).is_err());
        assert!(r
            .insert(Tuple::new([Value::text("no"), Value::text("x")]))
            .is_err());
        // Nulls fit anywhere.
        assert!(r.insert(Tuple::new([Value::Null, Value::Null])).is_ok());
    }

    #[test]
    fn remove_keeps_index_in_sync() {
        let mut r = Relation::new(header()).unwrap();
        let t1 = Tuple::new([Value::Int(1), Value::text("x")]);
        let t2 = Tuple::new([Value::Int(2), Value::text("y")]);
        r.insert(t1.clone()).unwrap();
        r.insert(t2.clone()).unwrap();
        assert!(r.remove(&t1));
        assert!(!r.remove(&t1));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&t1));
        assert!(r.contains(&t2));
    }

    #[test]
    fn rows_sharing_a_hash_are_kept_found_and_removed_apart() {
        use crate::fxhash::{K, ROTATE};
        // A pair (a, b) hashes as rotate((P(a) + b) * K), where P(a) is the
        // state after every word but b. K is odd, so its inverse undoes the
        // multiply; then b2 = b1 + P(a1) - P(a2) makes (a2, b2) collide
        // with (a1, b1).
        let pair = |a: i64, b: u64| Tuple::new([Value::Int(a), Value::Int(b as i64)]);
        let k_inv = (0..6).fold(K, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(x)))
        });
        assert_eq!(K.wrapping_mul(k_inv), 1);
        let state_before_b = |a: i64| {
            row_hash(&pair(a, 0))
                .rotate_right(ROTATE)
                .wrapping_mul(k_inv)
        };
        let b1: u64 = 5;
        let b2 = b1
            .wrapping_add(state_before_b(1))
            .wrapping_sub(state_before_b(2));
        let (t1, t2) = (pair(1, b1), pair(2, b2));
        assert_ne!(t1, t2);
        assert_eq!(row_hash(&t1), row_hash(&t2), "the pair must collide");

        let mut r = Relation::new(vec![
            Attribute::new("A", Domain::Int),
            Attribute::new("B", Domain::Int),
        ])
        .unwrap();
        let t0 = pair(0, 0);
        assert!(r.insert(t0.clone()).unwrap());
        assert!(r.insert(t1.clone()).unwrap());
        assert!(r.insert(t2.clone()).unwrap(), "a colliding row is kept");
        assert!(!r.insert(t2.clone()).unwrap(), "and deduplicated");
        assert_eq!(r.len(), 3);
        assert!(r.contains(&t1) && r.contains(&t2));
        assert!(!r.contains(&pair(2, b1)));
        // Removing one colliding row leaves the other findable, and the
        // row before them keeps its place.
        assert!(r.remove(&t1));
        assert!(!r.contains(&t1));
        assert!(r.contains(&t2) && r.contains(&t0));
        assert_eq!(r.rows(), &[t0.clone(), t2.clone()]);
        assert!(r.remove(&t0));
        assert!(r.contains(&t2));
        assert!(r.remove(&t2));
        assert!(r.is_empty());
        assert!(r.insert(t1.clone()).unwrap());
        assert!(r.contains(&t1) && !r.contains(&t2));
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let t1 = Tuple::new([Value::Int(1), Value::text("x")]);
        let t2 = Tuple::new([Value::Int(2), Value::text("y")]);
        let r1 = Relation::with_rows(header(), [t1.clone(), t2.clone()]).unwrap();
        let r2 = Relation::with_rows(header(), [t2, t1]).unwrap();
        assert!(r1.set_eq(&r2));
        assert_eq!(r1, r2);
    }

    #[test]
    fn set_eq_unordered_permutes_columns() {
        let r1 =
            Relation::with_rows(header(), [Tuple::new([Value::Int(1), Value::text("x")])]).unwrap();
        let flipped = vec![
            Attribute::new("B", Domain::Text),
            Attribute::new("A", Domain::Int),
        ];
        let r2 =
            Relation::with_rows(flipped, [Tuple::new([Value::text("x"), Value::Int(1)])]).unwrap();
        assert!(r1.set_eq_unordered(&r2));
        assert!(!r1.set_eq(&r2));
    }

    #[test]
    fn size_metrics() {
        let mut r = Relation::new(header()).unwrap();
        r.insert(Tuple::new([Value::Int(1), Value::Null])).unwrap();
        r.insert(Tuple::new([Value::Int(2), Value::text("y")]))
            .unwrap();
        assert_eq!(r.value_count(), 4);
        assert_eq!(r.null_count(), 1);
    }
}
