//! Null constraints (paper §3): null-existence, nulls-not-allowed,
//! null-synchronization sets, part-null, and total-equality constraints —
//! with satisfaction checking and inference engines.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use crate::attribute::{self, Attribute};
use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::scheme::RelationScheme;
use crate::value::Tuple;

/// A single-tuple restriction on where and how nulls may appear in a
/// relation (paper §3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NullConstraint {
    /// Null-existence constraint `R : Y ⊑ Z` — *"t\[Y\] is total only if
    /// t\[Z\] is total"*. With empty `Y` this is the **nulls-not-allowed**
    /// constraint `R : ∅ ⊑ Z` (every `t[Z]` must be total), the only form
    /// all relational DBMSs support declaratively (§5.1).
    NullExistence {
        /// Relation-scheme the constraint applies to.
        rel: String,
        /// Left-hand side `Y` (empty for nulls-not-allowed).
        lhs: Vec<String>,
        /// Right-hand side `Z`.
        rhs: Vec<String>,
    },
    /// Null-synchronization set `R : NS(Y)` — every `t[Y]` is either total
    /// or entirely null. Semantically the set `{R : A ⊑ Y | A ∈ Y}`, but
    /// kept first-class because `Merge` generates it and the figures print
    /// it as `NS(…)`.
    NullSync {
        /// Relation-scheme the constraint applies to.
        rel: String,
        /// The synchronized attribute set `Y`.
        attrs: Vec<String>,
    },
    /// Part-null constraint `R : PN(Y₁, …, Yₘ)` — in every tuple at least
    /// one subtuple `t[Yⱼ]` is total.
    PartNull {
        /// Relation-scheme the constraint applies to.
        rel: String,
        /// The groups `Y₁ … Yₘ`.
        groups: Vec<Vec<String>>,
    },
    /// Total-equality constraint `R : Y =⊥ Z` — whenever `t[Y]` and `t[Z]`
    /// are both total they are equal (positionally).
    TotalEquality {
        /// Relation-scheme the constraint applies to.
        rel: String,
        /// Left attribute list `Y`.
        lhs: Vec<String>,
        /// Right attribute list `Z` (same arity, compatible).
        rhs: Vec<String>,
    },
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_owned()).collect()
}

impl NullConstraint {
    /// Null-existence constraint `rel : lhs ⊑ rhs`.
    pub fn ne(rel: impl Into<String>, lhs: &[&str], rhs: &[&str]) -> Self {
        NullConstraint::NullExistence {
            rel: rel.into(),
            lhs: owned(lhs),
            rhs: owned(rhs),
        }
    }

    /// Nulls-not-allowed constraint `rel : ∅ ⊑ attrs`.
    pub fn nna(rel: impl Into<String>, attrs: &[&str]) -> Self {
        Self::ne(rel, &[], attrs)
    }

    /// Null-synchronization set `rel : NS(attrs)`.
    pub fn ns(rel: impl Into<String>, attrs: &[&str]) -> Self {
        NullConstraint::NullSync {
            rel: rel.into(),
            attrs: owned(attrs),
        }
    }

    /// Part-null constraint `rel : PN(groups…)`.
    pub fn pn(rel: impl Into<String>, groups: &[&[&str]]) -> Self {
        NullConstraint::PartNull {
            rel: rel.into(),
            groups: groups.iter().map(|g| owned(g)).collect(),
        }
    }

    /// Total-equality constraint `rel : lhs =⊥ rhs`.
    pub fn te(rel: impl Into<String>, lhs: &[&str], rhs: &[&str]) -> Self {
        NullConstraint::TotalEquality {
            rel: rel.into(),
            lhs: owned(lhs),
            rhs: owned(rhs),
        }
    }

    /// The relation-scheme this constraint is scoped to.
    #[must_use]
    pub fn rel(&self) -> &str {
        match self {
            NullConstraint::NullExistence { rel, .. }
            | NullConstraint::NullSync { rel, .. }
            | NullConstraint::PartNull { rel, .. }
            | NullConstraint::TotalEquality { rel, .. } => rel,
        }
    }

    /// Whether this is a nulls-not-allowed constraint (`∅ ⊑ Z`) — the only
    /// form with declarative support in every DBMS the paper surveys.
    #[must_use]
    pub fn is_nna(&self) -> bool {
        matches!(self, NullConstraint::NullExistence { lhs, .. } if lhs.is_empty())
    }

    /// All attributes mentioned by the constraint.
    #[must_use]
    pub fn attrs(&self) -> BTreeSet<&str> {
        match self {
            NullConstraint::NullExistence { lhs, rhs, .. }
            | NullConstraint::TotalEquality { lhs, rhs, .. } => {
                lhs.iter().chain(rhs).map(String::as_str).collect()
            }
            NullConstraint::NullSync { attrs, .. } => attrs.iter().map(String::as_str).collect(),
            NullConstraint::PartNull { groups, .. } => {
                groups.iter().flatten().map(String::as_str).collect()
            }
        }
    }

    /// Whether the constraint is trivially satisfied by every relation and
    /// can be dropped (paper, proof of Prop 5.2: *"null-existence
    /// constraints with empty right-hand sides are trivially satisfied"*).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        match self {
            NullConstraint::NullExistence { lhs, rhs, .. } => {
                rhs.is_empty() || rhs.iter().all(|z| lhs.contains(z))
            }
            NullConstraint::NullSync { attrs, .. } => attrs.len() <= 1,
            NullConstraint::PartNull { groups, .. } => {
                groups.is_empty() || groups.iter().any(Vec::is_empty)
            }
            NullConstraint::TotalEquality { lhs, rhs, .. } => lhs.is_empty() || lhs == rhs,
        }
    }

    /// Whether `r` satisfies the constraint: [`NullConstraint::satisfied_by_rows`]
    /// over its header and rows.
    pub fn satisfied_by(&self, r: &Relation) -> Result<bool> {
        self.satisfied_by_rows(r.header(), r.iter())
    }

    /// Whether every one of `rows`, read over `header`, satisfies the
    /// constraint. Every kind is a predicate on one tuple at a time, so
    /// the rows need not form a set: a repeated row answers as it does
    /// once, and a caller can check rows where they are stored. Each row
    /// must have `header`'s arity.
    pub fn satisfied_by_rows<'t>(
        &self,
        header: &[Attribute],
        rows: impl IntoIterator<Item = &'t Tuple>,
    ) -> Result<bool> {
        let mut rows = rows.into_iter();
        match self {
            NullConstraint::NullExistence { lhs, rhs, .. } => {
                let lpos = positions(header, lhs)?;
                let rpos = positions(header, rhs)?;
                Ok(rows.all(|t| !t.is_total_at(&lpos) || t.is_total_at(&rpos)))
            }
            NullConstraint::NullSync { attrs, .. } => {
                let pos = positions(header, attrs)?;
                Ok(rows.all(|t| t.is_total_at(&pos) || t.is_all_null_at(&pos)))
            }
            NullConstraint::PartNull { groups, .. } => {
                let group_pos: Vec<Vec<usize>> = groups
                    .iter()
                    .map(|g| positions(header, g))
                    .collect::<Result<_>>()?;
                Ok(rows.all(|t| group_pos.iter().any(|g| t.is_total_at(g))))
            }
            NullConstraint::TotalEquality { lhs, rhs, .. } => {
                let lpos = positions(header, lhs)?;
                let rpos = positions(header, rhs)?;
                Ok(rows.all(|t| {
                    !(t.is_total_at(&lpos) && t.is_total_at(&rpos)) || t.eq_at(&lpos, &rpos)
                }))
            }
        }
    }

    /// Validates attribute references (and, for total-equality, arity and
    /// domain compatibility) against the scheme.
    pub fn validate(&self, scheme: &RelationScheme) -> Result<()> {
        for a in self.attrs() {
            if !scheme.has_attr(a) {
                return Err(Error::MalformedConstraint {
                    detail: format!("null constraint `{self}` mentions unknown attribute `{a}`"),
                });
            }
        }
        if let NullConstraint::TotalEquality { lhs, rhs, .. } = self {
            if lhs.len() != rhs.len() {
                return Err(Error::MalformedConstraint {
                    detail: format!("total-equality `{self}` has mismatched arity"),
                });
            }
            for (y, z) in lhs.iter().zip(rhs) {
                let (ya, za) = (
                    scheme.attr(y).expect("checked above"),
                    scheme.attr(z).expect("checked above"),
                );
                if !ya.compatible(za) {
                    return Err(Error::MalformedConstraint {
                        detail: format!("total-equality `{self}`: `{y}` / `{z}` incompatible"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Expands a null-synchronization set into its defining null-existence
    /// constraints `{R : A ⊑ Y | A ∈ Y}`; other constraints expand to
    /// themselves.
    #[must_use]
    pub fn expand(&self) -> Vec<NullConstraint> {
        match self {
            NullConstraint::NullSync { rel, attrs } => attrs
                .iter()
                .map(|a| NullConstraint::NullExistence {
                    rel: rel.clone(),
                    lhs: vec![a.clone()],
                    rhs: attrs.clone(),
                })
                .collect(),
            other => vec![other.clone()],
        }
    }

    /// Projects the constraint onto the attributes that survive removal of
    /// `removed` (the `Remove` procedure's step 4a). Returns `None` when
    /// the surviving constraint is trivial.
    #[must_use]
    pub fn remove_attrs(&self, removed: &HashSet<&str>) -> Option<NullConstraint> {
        let keep = |v: &[String]| -> Vec<String> {
            v.iter()
                .filter(|a| !removed.contains(a.as_str()))
                .cloned()
                .collect()
        };
        let out = match self {
            NullConstraint::NullExistence { rel, lhs, rhs } => NullConstraint::NullExistence {
                rel: rel.clone(),
                lhs: keep(lhs),
                rhs: keep(rhs),
            },
            NullConstraint::NullSync { rel, attrs } => NullConstraint::NullSync {
                rel: rel.clone(),
                attrs: keep(attrs),
            },
            NullConstraint::PartNull { rel, groups } => NullConstraint::PartNull {
                rel: rel.clone(),
                groups: groups.iter().map(|g| keep(g)).collect(),
            },
            // Total-equality constraints are removed wholesale by step 4b,
            // never projected; keep them intact if untouched.
            NullConstraint::TotalEquality { rel, lhs, rhs } => {
                if lhs.iter().chain(rhs).any(|a| removed.contains(a.as_str())) {
                    return None;
                }
                NullConstraint::TotalEquality {
                    rel: rel.clone(),
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                }
            }
        };
        if out.is_trivial() {
            None
        } else {
            Some(out)
        }
    }
}

fn positions(header: &[Attribute], names: &[String]) -> Result<Vec<usize>> {
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    attribute::positions(header, &refs, "relation")
}

impl fmt::Display for NullConstraint {
    /// Renders in the paper's notation: `R: Y E-> Z` (⊑ spelled `E->`),
    /// `R: 0 E-> Z` for nulls-not-allowed, `R: NS(...)`, `R: PN({..},{..})`,
    /// `R: Y =# Z` for total equality (`=⊥` spelled `=#`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NullConstraint::NullExistence { rel, lhs, rhs } => {
                let l = if lhs.is_empty() {
                    "0".to_owned()
                } else {
                    lhs.join(",")
                };
                write!(f, "{rel}: {l} E-> {}", rhs.join(","))
            }
            NullConstraint::NullSync { rel, attrs } => {
                write!(f, "{rel}: NS({})", attrs.join(","))
            }
            NullConstraint::PartNull { rel, groups } => {
                let gs: Vec<String> = groups
                    .iter()
                    .map(|g| format!("{{{}}}", g.join(",")))
                    .collect();
                write!(f, "{rel}: PN({})", gs.join(", "))
            }
            NullConstraint::TotalEquality { rel, lhs, rhs } => {
                write!(f, "{rel}: {} =# {}", lhs.join(","), rhs.join(","))
            }
        }
    }
}

/// Inference engine for **null-existence** constraints.
///
/// Paper §3: *"Inference axioms for null-existence constraints have the form
/// of the inference axioms for functional dependencies"* — reflexivity,
/// augmentation, transitivity. We therefore reuse the attribute-closure
/// fixed point: `closure(Y)` is the largest `Z` with `Y ⊑ Z` derivable.
/// Null-synchronization sets participate through their expansion.
#[must_use]
pub fn ne_closure(constraints: &[NullConstraint], rel: &str, start: &[&str]) -> BTreeSet<String> {
    let expanded: Vec<NullConstraint> = constraints
        .iter()
        .filter(|c| c.rel() == rel)
        .flat_map(NullConstraint::expand)
        .collect();
    let mut closure: BTreeSet<String> = start.iter().map(|s| (*s).to_owned()).collect();
    loop {
        let mut grew = false;
        for c in &expanded {
            if let NullConstraint::NullExistence { lhs, rhs, .. } = c {
                if lhs.iter().all(|a| closure.contains(a)) {
                    for z in rhs {
                        if closure.insert(z.clone()) {
                            grew = true;
                        }
                    }
                }
            }
        }
        if !grew {
            return closure;
        }
    }
}

/// Whether the null-existence constraint `rel : lhs ⊑ rhs` is implied by
/// `constraints` (reflexivity + augmentation + transitivity closure).
#[must_use]
pub fn ne_implies(constraints: &[NullConstraint], rel: &str, lhs: &[&str], rhs: &[&str]) -> bool {
    let closure = ne_closure(constraints, rel, lhs);
    rhs.iter().all(|z| closure.contains(*z) || lhs.contains(z))
}

/// Inference engine for **total-equality** constraints.
///
/// Paper §3: analogous to Klug's equality constraints — reflexive,
/// symmetric, transitive on attribute pairs. In the presence of nulls,
/// however, *unrestricted* transitivity is unsound: from `A =⊥ B` and
/// `B =⊥ C`, the tuple `(A=0, B=null, C=1)` satisfies both premises but
/// not `A =⊥ C`. The transitive step is sound only when the pivot
/// attribute (`B`) is known non-null — which is exactly the situation in
/// `Merge`'s output, where every generated constraint pivots on the
/// nulls-not-allowed key `Km`. The closure therefore takes the set of
/// non-null attributes and derives `a =⊥ b` only along paths whose
/// *interior* vertices are all non-null.
#[derive(Debug)]
pub struct TotalEqualityClosure {
    attrs: Vec<String>,
    /// Adjacency: declared (symmetric) pairs.
    edges: Vec<Vec<usize>>,
    /// Whether each attribute may be chained *through*.
    non_null: Vec<bool>,
}

impl TotalEqualityClosure {
    /// Builds the closure of all total-equality constraints on `rel`,
    /// allowing transitive chaining only through the attributes named in
    /// `non_null` (typically those under nulls-not-allowed constraints).
    #[must_use]
    pub fn new_with_non_null(
        constraints: &[NullConstraint],
        rel: &str,
        non_null: &BTreeSet<String>,
    ) -> Self {
        let mut attrs: Vec<String> = Vec::new();
        let index = |attrs: &mut Vec<String>, name: &str| -> usize {
            if let Some(i) = attrs.iter().position(|a| a == name) {
                i
            } else {
                attrs.push(name.to_owned());
                attrs.len() - 1
            }
        };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for c in constraints.iter().filter(|c| c.rel() == rel) {
            if let NullConstraint::TotalEquality { lhs, rhs, .. } = c {
                for (y, z) in lhs.iter().zip(rhs) {
                    let yi = index(&mut attrs, y);
                    let zi = index(&mut attrs, z);
                    pairs.push((yi, zi));
                }
            }
        }
        let mut edges = vec![Vec::new(); attrs.len()];
        for (a, b) in pairs {
            edges[a].push(b);
            edges[b].push(a);
        }
        let non_null = attrs.iter().map(|a| non_null.contains(a)).collect();
        TotalEqualityClosure {
            attrs,
            edges,
            non_null,
        }
    }

    /// Builds a closure that performs **no** transitive chaining (no
    /// attribute assumed non-null): only declared pairs and reflexivity.
    #[must_use]
    pub fn new(constraints: &[NullConstraint], rel: &str) -> Self {
        Self::new_with_non_null(constraints, rel, &BTreeSet::new())
    }

    /// Whether `a =⊥ b` is implied: reflexivity, a declared (symmetric)
    /// pair, or a path whose interior vertices are all non-null.
    #[must_use]
    pub fn equivalent(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let (Some(start), Some(goal)) = (
            self.attrs.iter().position(|x| x == a),
            self.attrs.iter().position(|x| x == b),
        ) else {
            return false;
        };
        // BFS; a vertex may be *expanded* (used as an interior pivot) only
        // if it is non-null. The goal may be reached regardless.
        let mut visited = vec![false; self.attrs.len()];
        let mut frontier = vec![start];
        visited[start] = true;
        while let Some(v) = frontier.pop() {
            for &next in &self.edges[v] {
                if next == goal {
                    return true;
                }
                if !visited[next] && self.non_null[next] {
                    visited[next] = true;
                    frontier.push(next);
                }
            }
        }
        false
    }

    /// Whether the pairwise constraint `lhs =⊥ rhs` is implied.
    #[must_use]
    pub fn implies(&self, lhs: &[&str], rhs: &[&str]) -> bool {
        lhs.len() == rhs.len() && lhs.iter().zip(rhs).all(|(y, z)| self.equivalent(y, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::domain::Domain;
    use crate::value::{Tuple, Value};

    fn r4(rows: &[[Value; 4]]) -> Relation {
        Relation::with_rows(
            vec![
                Attribute::new("A", Domain::Int),
                Attribute::new("B", Domain::Int),
                Attribute::new("C", Domain::Int),
                Attribute::new("D", Domain::Int),
            ],
            rows.iter().map(|r| Tuple::new(r.to_vec())),
        )
        .unwrap()
    }

    const N: Value = Value::Null;
    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn null_existence_semantics() {
        // A ⊑ B: non-null A requires non-null B (paper: DATE E-> NR).
        let c = NullConstraint::ne("R", &["A"], &["B"]);
        assert!(c.satisfied_by(&r4(&[[i(1), i(2), N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[N, N, N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[N, i(2), N, N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[i(1), N, N, N]])).unwrap());
    }

    #[test]
    fn nna_semantics() {
        let c = NullConstraint::nna("R", &["A", "B"]);
        assert!(c.is_nna());
        assert!(c.satisfied_by(&r4(&[[i(1), i(2), N, N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[i(1), N, N, N]])).unwrap());
    }

    #[test]
    fn null_sync_semantics() {
        let c = NullConstraint::ns("R", &["A", "B"]);
        assert!(c.satisfied_by(&r4(&[[i(1), i(2), N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[N, N, i(3), N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[i(1), N, N, N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[N, i(2), N, N]])).unwrap());
    }

    #[test]
    fn part_null_semantics() {
        let c = NullConstraint::pn("R", &[&["A", "B"], &["C", "D"]]);
        assert!(c.satisfied_by(&r4(&[[i(1), i(2), N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[N, N, i(3), i(4)]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[i(1), i(2), i(3), i(4)]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[i(1), N, i(3), N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[N, N, N, N]])).unwrap());
    }

    #[test]
    fn total_equality_semantics() {
        let c = NullConstraint::te("R", &["A"], &["B"]);
        assert!(c.satisfied_by(&r4(&[[i(1), i(1), N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[i(1), N, N, N]])).unwrap());
        assert!(c.satisfied_by(&r4(&[[N, i(2), N, N]])).unwrap());
        assert!(!c.satisfied_by(&r4(&[[i(1), i(2), N, N]])).unwrap());
    }

    #[test]
    fn ns_expansion() {
        let c = NullConstraint::ns("R", &["A", "B"]);
        let expanded = c.expand();
        assert_eq!(expanded.len(), 2);
        assert!(expanded.contains(&NullConstraint::ne("R", &["A"], &["A", "B"])));
        assert!(expanded.contains(&NullConstraint::ne("R", &["B"], &["A", "B"])));
        // Expansion is semantically equivalent.
        for rel in [
            r4(&[[i(1), i(2), N, N]]),
            r4(&[[N, N, N, N]]),
            r4(&[[i(1), N, N, N]]),
        ] {
            let direct = c.satisfied_by(&rel).unwrap();
            let via_expansion = expanded.iter().all(|e| e.satisfied_by(&rel).unwrap());
            assert_eq!(direct, via_expansion);
        }
    }

    #[test]
    fn triviality_rules() {
        assert!(NullConstraint::ne("R", &["A"], &[]).is_trivial());
        assert!(NullConstraint::ne("R", &["A", "B"], &["A"]).is_trivial());
        assert!(!NullConstraint::nna("R", &["A"]).is_trivial());
        assert!(NullConstraint::ns("R", &["A"]).is_trivial());
        assert!(!NullConstraint::ns("R", &["A", "B"]).is_trivial());
        assert!(NullConstraint::pn("R", &[&["A"], &[]]).is_trivial());
        assert!(!NullConstraint::pn("R", &[&["A"], &["B"]]).is_trivial());
        assert!(NullConstraint::te("R", &["A"], &["A"]).is_trivial());
    }

    #[test]
    fn remove_attrs_projects_constraints() {
        // The Figure 6 simplifications.
        let removed: HashSet<&str> = ["O.C.NR", "T.C.NR", "A.C.NR"].into();
        let ns = NullConstraint::ns("C", &["O.C.NR", "O.D.NAME"]);
        assert_eq!(ns.remove_attrs(&removed), None); // singleton → trivial
        let ne = NullConstraint::ne("C", &["T.C.NR", "T.F.SSN"], &["O.C.NR", "O.D.NAME"]);
        assert_eq!(
            ne.remove_attrs(&removed),
            Some(NullConstraint::ne("C", &["T.F.SSN"], &["O.D.NAME"]))
        );
        let nna = NullConstraint::nna("C", &["C.NR"]);
        assert_eq!(nna.remove_attrs(&removed), Some(nna.clone()));
        let te = NullConstraint::te("C", &["C.NR"], &["O.C.NR"]);
        assert_eq!(te.remove_attrs(&removed), None);
    }

    #[test]
    fn ne_inference_closure() {
        let cons = vec![
            NullConstraint::ne("R", &["A"], &["B"]),
            NullConstraint::ne("R", &["B"], &["C"]),
            NullConstraint::ne("S", &["C"], &["D"]),
        ];
        let c = ne_closure(&cons, "R", &["A"]);
        assert!(c.contains("C"));
        assert!(!c.contains("D"));
        assert!(ne_implies(&cons, "R", &["A"], &["C"]));
        assert!(!ne_implies(&cons, "R", &["C"], &["A"]));
        // Reflexivity.
        assert!(ne_implies(&cons, "R", &["A"], &["A"]));
    }

    #[test]
    fn nna_in_closure() {
        let cons = vec![NullConstraint::nna("R", &["K"])];
        // ∅ ⊑ K means K is in every closure, even of the empty set.
        assert!(ne_implies(&cons, "R", &[], &["K"]));
        assert!(ne_implies(&cons, "R", &["X"], &["K"]));
    }

    #[test]
    fn total_equality_inference_needs_non_null_pivot() {
        let cons = vec![
            NullConstraint::te("R", &["A"], &["B"]),
            NullConstraint::te("R", &["B"], &["C"]),
        ];
        // Without knowing B is non-null, transitivity would be unsound:
        // the tuple (A=0, B=null, C=1) satisfies both premises but not
        // A =# C. The closure must therefore refuse it.
        let naive = TotalEqualityClosure::new(&cons, "R");
        assert!(!naive.equivalent("A", "C"));
        assert!(naive.equivalent("A", "B")); // declared pair
        assert!(naive.equivalent("B", "A")); // symmetry
        assert!(naive.equivalent("D", "D")); // reflexivity

        // With B declared non-null, the pivot is safe.
        let non_null: BTreeSet<String> = ["B".to_owned()].into();
        let closure = TotalEqualityClosure::new_with_non_null(&cons, "R", &non_null);
        assert!(closure.equivalent("A", "C"));
        assert!(closure.equivalent("C", "A"));
        assert!(!closure.equivalent("A", "D"));
        assert!(closure.implies(&["A", "B"], &["C", "C"]));
        assert!(!closure.implies(&["A"], &["D"]));
    }

    #[test]
    fn total_equality_transitivity_counterexample() {
        // The concrete witness that unrestricted transitivity fails.
        let r = r4(&[[i(0), N, i(1), N]]);
        let ab = NullConstraint::te("R", &["A"], &["B"]);
        let bc = NullConstraint::te("R", &["B"], &["C"]);
        let ac = NullConstraint::te("R", &["A"], &["C"]);
        assert!(ab.satisfied_by(&r).unwrap());
        assert!(bc.satisfied_by(&r).unwrap());
        assert!(!ac.satisfied_by(&r).unwrap());
    }

    #[test]
    fn display_notation() {
        assert_eq!(
            NullConstraint::ne("W", &["DATE"], &["NR"]).to_string(),
            "W: DATE E-> NR"
        );
        assert_eq!(
            NullConstraint::nna("P", &["SSN"]).to_string(),
            "P: 0 E-> SSN"
        );
        assert_eq!(
            NullConstraint::ns("A", &["T.CN", "T.FN"]).to_string(),
            "A: NS(T.CN,T.FN)"
        );
        assert_eq!(
            NullConstraint::te("A", &["T.CN"], &["O.CN"]).to_string(),
            "A: T.CN =# O.CN"
        );
        assert_eq!(
            NullConstraint::pn("A", &[&["X"], &["Y"]]).to_string(),
            "A: PN({X}, {Y})"
        );
    }
}
