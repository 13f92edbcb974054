//! Relations: headers plus sets of tuples.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::attribute::{self, Attribute};
use crate::error::{Error, Result};
use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet, Slots};
use crate::value::Tuple;

/// Row hash → positions in `rows` of the rows with that hash.
type RowIndex = FxHashMap<u64, Slots>;

/// A relation: an ordered attribute header and a *set* of tuples.
///
/// Set semantics follow the paper (§2 treats relations as sets). Each
/// tuple is stored once, in insertion order, which fixes display and
/// iteration order. An index from each row's hash to the positions of the
/// rows with that hash makes duplicate elimination and membership tests
/// O(1) without a second copy of any row. The index is built on the first
/// membership question (`contains`, `insert`, `remove`, `==`): at once by
/// [`Relation::with_rows`], which deduplicates as it inserts, and only
/// when asked for a relation made by [`Relation::from_distinct_rows`],
/// whose rows are distinct already.
#[derive(Debug, Clone)]
pub struct Relation {
    header: Vec<Attribute>,
    rows: Vec<Tuple>,
    index: OnceLock<RowIndex>,
}

fn row_hash(t: &Tuple) -> u64 {
    FxBuildHasher::default().hash_one(t)
}

/// The index of `rows`, which are pairwise distinct.
fn index_rows(rows: &[Tuple]) -> RowIndex {
    let mut index = RowIndex::with_capacity_and_hasher(rows.len(), FxBuildHasher::default());
    for (pos, t) in rows.iter().enumerate() {
        match index.entry(row_hash(t)) {
            Entry::Vacant(e) => {
                e.insert(Slots::One(pos));
            }
            Entry::Occupied(mut e) => e.get_mut().insert(pos),
        }
    }
    index
}

/// `index`, built from `rows` first if it is not yet.
fn built<'a>(index: &'a mut OnceLock<RowIndex>, rows: &[Tuple]) -> &'a mut RowIndex {
    index.get_or_init(|| index_rows(rows));
    index.get_mut().expect("initialized above")
}

/// Fails unless `t` has `header`'s arity and each value fits its
/// attribute's domain: the check every row of a relation has passed.
pub fn check_fits(header: &[Attribute], t: &Tuple) -> Result<()> {
    if t.arity() != header.len() {
        return Err(Error::TupleMismatch {
            detail: format!(
                "arity {} does not match header arity {}",
                t.arity(),
                header.len()
            ),
        });
    }
    for (v, a) in t.values().iter().zip(header) {
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
    Ok(())
}

impl Relation {
    /// Creates an empty relation over `header`.
    ///
    /// Attribute names within one header must be distinct.
    pub fn new(header: Vec<Attribute>) -> Result<Self> {
        // Pair by pair, without hashing or allocating: a header is short.
        for (i, a) in header.iter().enumerate() {
            if header[..i].iter().any(|b| b.name() == a.name()) {
                return Err(Error::DuplicateAttribute(a.name().to_owned()));
            }
        }
        Ok(Relation {
            header,
            rows: Vec::new(),
            index: OnceLock::new(),
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
        built(&mut r.index, &r.rows).reserve(expected);
        for t in rows {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Creates a relation over `header` holding `rows` in their order,
    /// without hashing them: the caller guarantees that every row fits the
    /// header and that no two rows are equal (a key join over stored sets,
    /// a table's live rows). The header is checked as [`Relation::new`]
    /// checks it. The index is left unbuilt until a membership question
    /// needs it, and the relation then answers every question as
    /// [`Relation::with_rows`] over the same rows would.
    ///
    /// # Panics
    ///
    /// In debug builds, when a row does not fit the header or two rows are
    /// equal. The check builds a throwaway set and leaves the index
    /// unbuilt; release builds trust the caller.
    pub fn from_distinct_rows(header: Vec<Attribute>, rows: Vec<Tuple>) -> Result<Self> {
        let mut r = Relation::new(header)?;
        #[cfg(debug_assertions)]
        {
            let mut seen =
                FxHashSet::with_capacity_and_hasher(rows.len(), FxBuildHasher::default());
            for t in &rows {
                if let Err(e) = check_fits(&r.header, t) {
                    panic!("from_distinct_rows: {e}");
                }
                assert!(seen.insert(t), "from_distinct_rows: row {t} occurs twice");
            }
        }
        r.rows = rows;
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

    /// The header and the tuples, in insertion order, moved out without a
    /// copy; the set index, if built, is dropped.
    #[must_use]
    pub fn into_parts(self) -> (Vec<Attribute>, Vec<Tuple>) {
        (self.header, self.rows)
    }

    /// Whether `t` is a member of the relation.
    #[must_use]
    pub fn contains(&self, t: &Tuple) -> bool {
        self.find(row_hash(t), t).is_some()
    }

    /// Position in `rows` of the row equal to `t`, whose hash is `hash`.
    fn find(&self, hash: u64, t: &Tuple) -> Option<usize> {
        self.index
            .get_or_init(|| index_rows(&self.rows))
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
        check_fits(&self.header, &t)?;
        let pos = self.rows.len();
        match built(&mut self.index, &self.rows).entry(row_hash(&t)) {
            Entry::Vacant(e) => {
                e.insert(Slots::One(pos));
            }
            Entry::Occupied(mut e) => {
                if e.get().as_slice().iter().any(|&p| self.rows[p] == t) {
                    return Ok(false);
                }
                e.get_mut().insert(pos);
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
        let index = built(&mut self.index, &self.rows);
        if let Entry::Occupied(mut e) = index.entry(hash) {
            if e.get_mut().remove(pos) {
                e.remove();
            }
        }
        self.rows.remove(pos);
        for p in index.values_mut().flat_map(Slots::as_mut_slice) {
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
            Relation::new(h.clone()),
            Err(Error::DuplicateAttribute(_))
        ));
        assert!(matches!(
            Relation::from_distinct_rows(h, Vec::new()),
            Err(Error::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn the_first_repeated_name_is_reported() {
        // Names `N0..N{len}` with `N{a}` repeated at `b` and `N{c}` at `d`:
        // the error names whichever repeat comes first.
        for len in [5, 40] {
            let cases = [
                (0, 2, 1, len - 1),
                (1, len - 1, 0, 3),
                (2, len - 2, 0, len - 1),
            ];
            for (a, b, c, d) in cases {
                let mut names: Vec<String> = (0..len).map(|i| format!("N{i}")).collect();
                names[b] = format!("N{a}");
                names[d] = format!("N{c}");
                let h: Vec<Attribute> = names
                    .iter()
                    .map(|n| Attribute::new(n.as_str(), Domain::Int))
                    .collect();
                let want = names[b.min(d)].clone();
                match Relation::new(h) {
                    Err(Error::DuplicateAttribute(got)) => assert_eq!(got, want, "len {len}"),
                    other => panic!("len {len}: {other:?}"),
                }
            }
            let distinct: Vec<Attribute> = (0..len)
                .map(|i| Attribute::new(format!("N{i}"), Domain::Int))
                .collect();
            assert!(Relation::new(distinct).is_ok());
        }
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

    fn int_pair(a: i64, b: i64) -> Tuple {
        Tuple::new([Value::Int(a), Value::Int(b)])
    }

    fn int_header() -> Vec<Attribute> {
        vec![
            Attribute::new("A", Domain::Int),
            Attribute::new("B", Domain::Int),
        ]
    }

    /// Two distinct `(A, B)` rows with one row hash.
    fn colliding_pair() -> (Tuple, Tuple) {
        use crate::fxhash::{K, ROTATE};
        // A pair (a, b) hashes as rotate((P(a) + b) * K), where P(a) is the
        // state after every word but b. K is odd, so its inverse undoes the
        // multiply; then b2 = b1 + P(a1) - P(a2) makes (a2, b2) collide
        // with (a1, b1).
        let k_inv = (0..6).fold(K, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(x)))
        });
        assert_eq!(K.wrapping_mul(k_inv), 1);
        let state_before_b = |a: i64| {
            row_hash(&int_pair(a, 0))
                .rotate_right(ROTATE)
                .wrapping_mul(k_inv)
        };
        let b1: u64 = 5;
        let b2 = b1
            .wrapping_add(state_before_b(1))
            .wrapping_sub(state_before_b(2));
        let (t1, t2) = (int_pair(1, b1 as i64), int_pair(2, b2 as i64));
        assert_ne!(t1, t2);
        assert_eq!(row_hash(&t1), row_hash(&t2), "the pair must collide");
        (t1, t2)
    }

    #[test]
    fn rows_sharing_a_hash_are_kept_found_and_removed_apart() {
        let (t1, t2) = colliding_pair();
        let mut r = Relation::new(int_header()).unwrap();
        let t0 = int_pair(0, 0);
        assert!(r.insert(t0.clone()).unwrap());
        assert!(r.insert(t1.clone()).unwrap());
        assert!(r.insert(t2.clone()).unwrap(), "a colliding row is kept");
        assert!(!r.insert(t2.clone()).unwrap(), "and deduplicated");
        assert_eq!(r.len(), 3);
        assert!(r.contains(&t1) && r.contains(&t2));
        assert!(!r.contains(&int_pair(2, 5)));
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

    /// Asks `r` and `want` the same questions, in the same order, and
    /// asserts the same answers and rows.
    fn assert_answers_alike(mut r: Relation, mut want: Relation, ts: &[Tuple]) {
        assert_eq!(r.rows(), want.rows());
        for t in ts {
            assert_eq!(r.contains(t), want.contains(t), "{t}");
        }
        // Both orders: `==` builds its right-hand operand's index.
        assert_eq!(want, r);
        assert_eq!(r, want);
        for t in ts {
            assert_eq!(
                r.insert(t.clone()).unwrap(),
                want.insert(t.clone()).unwrap()
            );
            assert_eq!(r.rows(), want.rows());
        }
        for t in ts.iter().chain(ts) {
            assert_eq!(r.remove(t), want.remove(t), "{t}");
            assert_eq!(r.rows(), want.rows());
        }
        assert!(r.is_empty());
    }

    #[test]
    fn distinct_rows_answer_as_deduplicated_rows() {
        // A colliding pair makes the lazily built index share a bucket.
        let (t1, t2) = colliding_pair();
        let ts = [int_pair(0, 0), t1, t2, int_pair(3, 3)];
        let given = ts[..3].to_vec();
        let reference = Relation::with_rows(int_header(), given.clone()).unwrap();
        // Each membership question may be the one that builds the index.
        type Question = fn(&mut Relation, &[Tuple]) -> bool;
        let first_questions: [Question; 5] = [
            |r, ts| r.contains(&ts[1]),
            |r, ts| Relation::with_rows(int_header(), ts[..3].to_vec()).unwrap() == *r,
            |r, ts| r.insert(ts[2].clone()).unwrap(),
            |r, ts| r.insert(ts[3].clone()).unwrap(),
            |r, ts| r.remove(&ts[1]),
        ];
        for ask in first_questions {
            let mut r = Relation::from_distinct_rows(int_header(), given.clone()).unwrap();
            let mut want = reference.clone();
            let before = r.clone();
            assert_eq!(ask(&mut r, &ts), ask(&mut want, &ts));
            let after = r.clone();
            // A clone taken before the question answers as the rows given;
            // the relation and a clone taken after it, as `want`.
            assert_eq!(before.rows(), given.as_slice());
            assert_answers_alike(before, reference.clone(), &ts);
            assert_answers_alike(after, want.clone(), &ts);
            assert_answers_alike(r, want, &ts);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "occurs twice")]
    fn distinct_rows_with_a_duplicate_panic_in_debug_builds() {
        let t = Tuple::new([Value::Int(1), Value::text("x")]);
        let _ = Relation::from_distinct_rows(header(), vec![t.clone(), t]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "does not fit")]
    fn distinct_rows_that_do_not_fit_panic_in_debug_builds() {
        let t = Tuple::new([Value::text("no"), Value::text("x")]);
        let _ = Relation::from_distinct_rows(header(), vec![t]);
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
