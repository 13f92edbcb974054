//! Boolean-expression optimization for [`Predicate`] trees: iterative
//! rule-driven simplification producing a canonical normal form, plus the
//! conjunct splitting the executor's cross-operator pushdown feeds on.
//!
//! The engine does **not** model three-valued logic: every predicate is a
//! total boolean function over the row (`Eq` on a null operand is simply
//! false, and `Eq(a, Null)` is `IsNull(a)` under the identical-nulls
//! regime — see [`Predicate`]). Classical boolean rewrites are therefore
//! sound row-by-row, including on null-padded outer-join rows; the only
//! placement rule that needs care is pushing a conjunct *below* an outer
//! join, and that lives in the executor, not here.
//!
//! The rule catalog (applied to a fixpoint):
//!
//! * **NNF conversion** — negations are pushed to the leaves (double
//!   negation, De Morgan, `Not(IsNull) ↔ NotNull`); `Not(Eq)` remains as
//!   a negated-equality leaf.
//! * **Null-literal normalization** — `Eq(a, Null) → IsNull(a)`.
//! * **Flattening + canonical order** — `And`/`Or` chains flatten into
//!   n-ary connectives whose children are sorted and deduplicated
//!   (idempotence), so equivalent parenthesizations and permutations
//!   normalize identically.
//! * **Constant folding** — `true`/`false` children collapse, empty
//!   connectives fold to their identity.
//! * **Contradiction / tautology detection** — `IsNull(a) ∧ NotNull(a)`,
//!   `Eq(a,v) ∧ Eq(a,w)` (`v ≠ w`), `Eq(a,v) ∧ IsNull(a)`, and
//!   `p ∧ ¬p` fold to `false`; the duals fold `Or`s to `true`.
//! * **Implication pruning** — a conjunct implied by a sibling is dropped
//!   (`Eq(a,v) ∧ NotNull(a) → Eq(a,v)`; dually
//!   `Eq(a,v) ∨ NotNull(a) → NotNull(a)`), and `x ∧ (x ∨ y) → x` /
//!   `x ∨ (x ∧ y) → x` (absorption).

use std::collections::BTreeSet;

use relmerge_relational::Value;

use crate::query::Predicate;

/// The result of optimizing a predicate: either a constant verdict
/// (the predicate accepts every row, or no row) or a simplified,
/// canonically ordered predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Optimized {
    /// The predicate folded to a constant: `Always(true)` accepts every
    /// row, `Always(false)` rejects every row.
    Always(bool),
    /// The simplified predicate (canonical child order, no redundant
    /// conjuncts, negations at the leaves).
    Pred(Predicate),
}

/// Simplifies `p` to a fixpoint under the module's rule catalog. The
/// result is row-by-row equivalent to `p` on every header that resolves
/// all of `p`'s attributes (predicates are total boolean functions —
/// there is no third truth value to preserve).
#[must_use]
pub fn optimize(p: &Predicate) -> Optimized {
    finish(simplify_fix(to_expr(p, false)))
}

/// Splits `p` into its top-level conjuncts (the CNF-ish split: `And`
/// chains are walked, everything else is a single conjunct). Run
/// [`optimize`] first to get a canonical, maximally split form.
#[must_use]
pub fn conjuncts(p: &Predicate) -> Vec<Predicate> {
    let mut out = Vec::new();
    collect_conjuncts(p, &mut out);
    out
}

fn collect_conjuncts(p: &Predicate, out: &mut Vec<Predicate>) {
    match p {
        Predicate::And(a, b) => {
            collect_conjuncts(a, out);
            collect_conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Re-joins conjuncts into one predicate (left fold over `AND`).
/// Returns `None` for an empty slice.
#[must_use]
pub fn conjoin(cs: &[Predicate]) -> Option<Predicate> {
    let mut it = cs.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, Predicate::and))
}

/// Every attribute name `p` mentions, in deterministic order.
#[must_use]
pub fn attrs(p: &Predicate) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_attrs(p, &mut out);
    out
}

fn collect_attrs(p: &Predicate, out: &mut BTreeSet<String>) {
    match p {
        Predicate::Eq(a, _) | Predicate::IsNull(a) | Predicate::NotNull(a) => {
            out.insert(a.clone());
        }
        Predicate::And(x, y) | Predicate::Or(x, y) => {
            collect_attrs(x, out);
            collect_attrs(y, out);
        }
        Predicate::Not(x) => collect_attrs(x, out),
    }
}

/// The internal n-ary NNF representation the rules operate on. `NotEq`
/// is the one surviving negation (`Not(Eq(a, v))`); every other `Not`
/// is pushed through at conversion. Derived `Ord` gives the canonical
/// child order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Expr {
    Const(bool),
    Eq(String, Value),
    NotEq(String, Value),
    IsNull(String),
    NotNull(String),
    And(Vec<Expr>),
    Or(Vec<Expr>),
}

/// NNF conversion: `neg` is the parity of enclosing `Not`s.
fn to_expr(p: &Predicate, neg: bool) -> Expr {
    match p {
        Predicate::Eq(a, v) => {
            if v.is_null() {
                // Identical-nulls regime: `a = Null` holds exactly when
                // `a` is null.
                if neg {
                    Expr::NotNull(a.clone())
                } else {
                    Expr::IsNull(a.clone())
                }
            } else if neg {
                Expr::NotEq(a.clone(), v.clone())
            } else {
                Expr::Eq(a.clone(), v.clone())
            }
        }
        Predicate::IsNull(a) => {
            if neg {
                Expr::NotNull(a.clone())
            } else {
                Expr::IsNull(a.clone())
            }
        }
        Predicate::NotNull(a) => {
            if neg {
                Expr::IsNull(a.clone())
            } else {
                Expr::NotNull(a.clone())
            }
        }
        // De Morgan under odd parity.
        Predicate::And(x, y) => {
            let cs = vec![to_expr(x, neg), to_expr(y, neg)];
            if neg {
                Expr::Or(cs)
            } else {
                Expr::And(cs)
            }
        }
        Predicate::Or(x, y) => {
            let cs = vec![to_expr(x, neg), to_expr(y, neg)];
            if neg {
                Expr::And(cs)
            } else {
                Expr::Or(cs)
            }
        }
        Predicate::Not(x) => to_expr(x, !neg),
    }
}

/// Runs [`simplify`] to a fixpoint (the rule set shrinks the tree, so a
/// handful of passes always suffices; the cap is sheer paranoia).
fn simplify_fix(mut e: Expr) -> Expr {
    for _ in 0..16 {
        let next = simplify(e.clone());
        if next == e {
            break;
        }
        e = next;
    }
    e
}

/// One bottom-up simplification pass.
fn simplify(e: Expr) -> Expr {
    match e {
        Expr::And(cs) => simplify_connective(cs, true),
        Expr::Or(cs) => simplify_connective(cs, false),
        leaf => leaf,
    }
}

/// Shared n-ary engine: `conj` selects `And` (true) or `Or` (false);
/// the dual rules mirror each other with `absorbing` = the constant that
/// annihilates the connective.
fn simplify_connective(children: Vec<Expr>, conj: bool) -> Expr {
    let absorbing = !conj; // false annihilates And; true annihilates Or.
    let mut flat: Vec<Expr> = Vec::with_capacity(children.len());
    for c in children {
        match simplify(c) {
            Expr::Const(b) if b == absorbing => return Expr::Const(absorbing),
            Expr::Const(_) => {} // identity element: drop.
            Expr::And(inner) if conj => flat.extend(inner),
            Expr::Or(inner) if !conj => flat.extend(inner),
            other => flat.push(other),
        }
    }
    flat.sort();
    flat.dedup(); // idempotence: x ∧ x → x, x ∨ x → x.

    if has_annihilating_pair(&flat, conj) {
        return Expr::Const(absorbing);
    }
    let keep: Vec<Expr> = flat
        .iter()
        .enumerate()
        .filter(|&(i, c)| !is_redundant(c, i, &flat, conj))
        .map(|(_, c)| c.clone())
        .collect();

    match keep.len() {
        0 => Expr::Const(conj), // empty And is true, empty Or is false.
        1 => keep.into_iter().next().expect("len checked"),
        _ => {
            if conj {
                Expr::And(keep)
            } else {
                Expr::Or(keep)
            }
        }
    }
}

/// Detects a pair of siblings that annihilates the whole connective: a
/// contradiction under `And`, a tautology under `Or`.
fn has_annihilating_pair(cs: &[Expr], conj: bool) -> bool {
    for (i, a) in cs.iter().enumerate() {
        for b in &cs[i + 1..] {
            let hit = match (a, b) {
                // p ∧ ¬p / p ∨ ¬p (order-normalized by the sort).
                (Expr::Eq(x, v), Expr::NotEq(y, w)) | (Expr::NotEq(y, w), Expr::Eq(x, v)) => {
                    x == y && v == w
                }
                (Expr::IsNull(x), Expr::NotNull(y)) | (Expr::NotNull(y), Expr::IsNull(x)) => x == y,
                _ if conj => match (a, b) {
                    // A non-null column can't equal two distinct values.
                    (Expr::Eq(x, v), Expr::Eq(y, w)) => x == y && v != w,
                    // Eq(a, v) with v non-null implies the column is
                    // non-null.
                    (Expr::Eq(x, v), Expr::IsNull(y)) | (Expr::IsNull(y), Expr::Eq(x, v)) => {
                        x == y && !v.is_null()
                    }
                    _ => false,
                },
                // ¬(a=v) ∨ ¬(a=w) with v ≠ w covers every row (a row
                // matches at most one of the two literals).
                _ => match (a, b) {
                    (Expr::NotEq(x, v), Expr::NotEq(y, w)) => x == y && v != w,
                    _ => false,
                },
            };
            if hit {
                return true;
            }
        }
    }
    false
}

/// True when `cs[i]` is implied by (under `Or`) or implies and is
/// subsumed by (under `And`) some sibling, so dropping it preserves the
/// connective's value.
fn is_redundant(c: &Expr, i: usize, cs: &[Expr], conj: bool) -> bool {
    cs.iter().enumerate().any(|(j, s)| {
        if i == j {
            return false;
        }
        if conj {
            // Under And: drop c when some sibling s implies c.
            implies(s, c) && !implies(c, s)
                // Absorption: x ∧ (x ∨ y) → x.
                || matches!(c, Expr::Or(inner) if inner.contains(s))
        } else {
            // Under Or: drop c when c implies some sibling s.
            implies(c, s) && !implies(s, c)
                // Absorption: x ∨ (x ∧ y) → x.
                || matches!(c, Expr::And(inner) if inner.contains(s))
        }
    })
}

/// Leaf-level implication: does `a` holding force `b` to hold?
fn implies(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        // a = v (v non-null) forces the column non-null…
        (Expr::Eq(x, v), Expr::NotNull(y)) => x == y && !v.is_null(),
        // …and forces a ≠ w for any other literal w.
        (Expr::Eq(x, v), Expr::NotEq(y, w)) => x == y && v != w,
        // a IS NULL forces a ≠ v for non-null v (Eq on null is false).
        (Expr::IsNull(x), Expr::NotEq(y, w)) => x == y && !w.is_null(),
        _ => false,
    }
}

/// Converts the simplified [`Expr`] back to the public surface.
fn finish(e: Expr) -> Optimized {
    match e {
        Expr::Const(b) => Optimized::Always(b),
        other => Optimized::Pred(from_expr(&other)),
    }
}

fn from_expr(e: &Expr) -> Predicate {
    match e {
        Expr::Const(_) => unreachable!("constants are folded before conversion"),
        Expr::Eq(a, v) => Predicate::Eq(a.clone(), v.clone()),
        Expr::NotEq(a, v) => Predicate::Eq(a.clone(), v.clone()).negate(),
        Expr::IsNull(a) => Predicate::IsNull(a.clone()),
        Expr::NotNull(a) => Predicate::NotNull(a.clone()),
        Expr::And(cs) => cs
            .iter()
            .map(from_expr)
            .reduce(Predicate::and)
            .expect("connectives keep ≥ 2 children"),
        Expr::Or(cs) => cs
            .iter()
            .map(from_expr)
            .reduce(Predicate::or)
            .expect("connectives keep ≥ 2 children"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(a: &str, v: i64) -> Predicate {
        Predicate::eq(a, Value::Int(v))
    }

    #[test]
    fn double_negation_and_de_morgan_normalize() {
        let p = eq("A", 1).negate().negate();
        assert_eq!(optimize(&p), Optimized::Pred(eq("A", 1)));
        // ¬(x ∧ y) ≡ ¬x ∨ ¬y; both sides reach one canonical form.
        let lhs = eq("A", 1).and(Predicate::is_null("B")).negate();
        let rhs = eq("A", 1).negate().or(Predicate::not_null("B"));
        assert_eq!(optimize(&lhs), optimize(&rhs));
    }

    #[test]
    fn constant_folding_detects_contradictions_and_tautologies() {
        let contra = Predicate::is_null("A").and(Predicate::not_null("A"));
        assert_eq!(optimize(&contra), Optimized::Always(false));
        let taut = Predicate::is_null("A").or(Predicate::not_null("A"));
        assert_eq!(optimize(&taut), Optimized::Always(true));
        // Distinct literals on one column can't both hold.
        let two = eq("A", 1).and(eq("A", 2));
        assert_eq!(optimize(&two), Optimized::Always(false));
        // Eq on a non-null literal contradicts IS NULL.
        let eqnull = eq("A", 1).and(Predicate::is_null("A"));
        assert_eq!(optimize(&eqnull), Optimized::Always(false));
        // p ∧ ¬p.
        let pnp = eq("A", 1).and(eq("A", 1).negate());
        assert_eq!(optimize(&pnp), Optimized::Always(false));
    }

    #[test]
    fn idempotence_absorption_and_implication_pruning() {
        let dup = eq("A", 1).and(eq("A", 1));
        assert_eq!(optimize(&dup), Optimized::Pred(eq("A", 1)));
        // x ∧ (x ∨ y) → x.
        let absorb = eq("A", 1).and(eq("A", 1).or(eq("B", 2)));
        assert_eq!(optimize(&absorb), Optimized::Pred(eq("A", 1)));
        // Eq implies NotNull, so the conjunct NotNull is redundant…
        let imp = eq("A", 1).and(Predicate::not_null("A"));
        assert_eq!(optimize(&imp), Optimized::Pred(eq("A", 1)));
        // …and dually Eq is subsumed under Or.
        let imp_or = eq("A", 1).or(Predicate::not_null("A"));
        assert_eq!(optimize(&imp_or), Optimized::Pred(Predicate::not_null("A")));
    }

    #[test]
    fn null_literal_eq_is_isnull() {
        let p = Predicate::eq("A", Value::Null);
        assert_eq!(optimize(&p), Optimized::Pred(Predicate::is_null("A")));
        let n = Predicate::eq("A", Value::Null).negate();
        assert_eq!(optimize(&n), Optimized::Pred(Predicate::not_null("A")));
    }

    #[test]
    fn operand_order_is_canonical() {
        let ab = eq("A", 1).and(eq("B", 2));
        let ba = eq("B", 2).and(eq("A", 1));
        assert_eq!(optimize(&ab), optimize(&ba));
        let nested = eq("A", 1).and(eq("B", 2).and(eq("C", 3)));
        let flat = eq("C", 3).and(eq("A", 1)).and(eq("B", 2));
        assert_eq!(optimize(&nested), optimize(&flat));
    }

    #[test]
    fn conjunct_split_walks_and_chains() {
        let p = eq("A", 1).and(eq("B", 2)).and(eq("C", 3).or(eq("D", 4)));
        let cs = conjuncts(&p);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0], eq("A", 1));
        assert_eq!(conjoin(&cs).unwrap(), p);
        assert_eq!(conjoin(&[]), None);
    }

    #[test]
    fn attrs_are_collected_in_order() {
        let p = eq("B", 1).and(Predicate::is_null("A").or(eq("C", 2).negate()));
        let got: Vec<String> = attrs(&p).into_iter().collect();
        assert_eq!(got, ["A", "B", "C"]);
    }
}
