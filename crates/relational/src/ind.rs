//! Inclusion dependencies and the `Refkey` recursion of Proposition 3.1.

use std::fmt;

use crate::error::{Error, Result};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::relation::Relation;
use crate::scheme::RelationScheme;

/// An inclusion dependency `Ri[Y] ⊆ Rj[Z]` (paper §2).
///
/// `Y` and `Z` are positionally corresponding, compatible attribute lists.
/// When `Z` is the primary key of `Rj` the dependency is **key-based** — a
/// referential integrity constraint, and `Y` is a foreign key in `Ri`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InclusionDep {
    /// Left relation-scheme `Ri`.
    pub lhs_rel: String,
    /// Left attribute list `Y`.
    pub lhs_attrs: Vec<String>,
    /// Right relation-scheme `Rj`.
    pub rhs_rel: String,
    /// Right attribute list `Z`.
    pub rhs_attrs: Vec<String>,
}

impl InclusionDep {
    /// Creates `lhs_rel[lhs_attrs] ⊆ rhs_rel[rhs_attrs]`.
    pub fn new(
        lhs_rel: impl Into<String>,
        lhs_attrs: &[&str],
        rhs_rel: impl Into<String>,
        rhs_attrs: &[&str],
    ) -> Self {
        InclusionDep {
            lhs_rel: lhs_rel.into(),
            lhs_attrs: lhs_attrs.iter().map(|s| (*s).to_owned()).collect(),
            rhs_rel: rhs_rel.into(),
            rhs_attrs: rhs_attrs.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Whether this dependency is **key-based** with respect to `rhs`:
    /// its right-hand side is exactly `rhs`'s primary key.
    #[must_use]
    pub fn is_key_based(&self, rhs: &RelationScheme) -> bool {
        debug_assert_eq!(rhs.name(), self.rhs_rel);
        rhs.is_primary_key(&self.rhs_attrs)
    }

    /// Whether the dependency is satisfied by concrete relations:
    /// `π↓_Y(r_lhs) ⊆ π↓_Z(r_rhs)` (total projections, paper §2).
    pub fn satisfied_by(&self, r_lhs: &Relation, r_rhs: &Relation) -> Result<bool> {
        let y: Vec<&str> = self.lhs_attrs.iter().map(String::as_str).collect();
        let z: Vec<&str> = self.rhs_attrs.iter().map(String::as_str).collect();
        let left = crate::algebra::total_project(r_lhs, &y)?;
        let right = crate::algebra::total_project(r_rhs, &z)?;
        let included = left.iter().all(|t| right.contains(t));
        Ok(included)
    }

    /// Validates attribute existence, arity and compatibility against the
    /// two schemes involved.
    pub fn validate(&self, lhs: &RelationScheme, rhs: &RelationScheme) -> Result<()> {
        if self.lhs_attrs.len() != self.rhs_attrs.len() || self.lhs_attrs.is_empty() {
            return Err(Error::MalformedConstraint {
                detail: format!("IND {self} has mismatched or empty attribute lists"),
            });
        }
        for (y, z) in self.lhs_attrs.iter().zip(&self.rhs_attrs) {
            let (ya, za) = match (lhs.attr(y), rhs.attr(z)) {
                (Some(ya), Some(za)) => (ya, za),
                _ => {
                    return Err(Error::MalformedConstraint {
                        detail: format!("IND {self} mentions unknown attributes"),
                    })
                }
            };
            if !ya.compatible(za) {
                return Err(Error::MalformedConstraint {
                    detail: format!("IND {self}: `{y}` and `{z}` have incompatible domains"),
                });
            }
        }
        Ok(())
    }

    /// Renders in the paper's notation, e.g. `TEACH [T.C.NR] <= OFFER [O.C.NR]`.
    #[must_use]
    pub fn notation(&self) -> String {
        format!(
            "{} [{}] <= {} [{}]",
            self.lhs_rel,
            self.lhs_attrs.join(","),
            self.rhs_rel,
            self.rhs_attrs.join(",")
        )
    }
}

impl fmt::Display for InclusionDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.notation())
    }
}

/// `Refkey(R₀, R̄)` (Proposition 3.1): the schemes of `R̄` whose primary key
/// is declared included in `R₀`'s primary key, i.e. those `Ri ∈ R̄` with
/// `Ri[Ki] ⊆ R₀[K₀] ∈ I`.
#[must_use]
pub fn refkey<'a>(
    r0: &RelationScheme,
    candidates: &[&'a RelationScheme],
    inds: &[InclusionDep],
) -> Vec<&'a RelationScheme> {
    candidates
        .iter()
        .copied()
        .filter(|ri| ri.name() != r0.name())
        .filter(|ri| {
            inds.iter().any(|ind| {
                ind.lhs_rel == ri.name()
                    && ind.rhs_rel == r0.name()
                    && ri.is_primary_key(&ind.lhs_attrs)
                    && r0.is_primary_key(&ind.rhs_attrs)
            })
        })
        .collect()
}

/// `Refkey*(R₀, R̄)`: the transitive closure of [`refkey`] — every scheme of
/// `R̄` reachable from `R₀` through chains of key-to-key inclusion
/// dependencies. Proposition 3.1: `R₀` is a key-relation of `R̄` iff
/// `R̄ = {R₀} ∪ Refkey*(R₀, R̄)`.
///
/// The key-to-key edges into each scheme are built once per call, in
/// candidate order, so the closure costs time linear in `|R̄| + |I|`
/// rather than one [`refkey`] scan of every candidate against every
/// dependency per scheme reached. It returns the schemes that repeated
/// [`refkey`] calls reach, in the same order.
#[must_use]
pub fn refkey_star<'a>(
    r0: &RelationScheme,
    candidates: &[&'a RelationScheme],
    inds: &[InclusionDep],
) -> Vec<&'a RelationScheme> {
    let mut by_lhs: FxHashMap<&str, Vec<&InclusionDep>> = FxHashMap::default();
    for ind in inds {
        by_lhs.entry(&ind.lhs_rel).or_default().push(ind);
    }
    // Per target scheme: the candidates whose primary key some dependency
    // includes in it, with that dependency, in candidate order. Whether
    // the right side is the target's primary key is checked on arrival.
    let mut into: FxHashMap<&str, Vec<(&'a RelationScheme, &InclusionDep)>> = FxHashMap::default();
    for &ri in candidates {
        for &ind in by_lhs.get(ri.name()).into_iter().flatten() {
            if ri.is_primary_key(&ind.lhs_attrs) {
                into.entry(&ind.rhs_rel).or_default().push((ri, ind));
            }
        }
    }
    let mut reached: FxHashSet<&str> = FxHashSet::from_iter([r0.name()]);
    let mut frontier: Vec<&RelationScheme> = vec![r0];
    let mut out: Vec<&'a RelationScheme> = Vec::new();
    while let Some(current) = frontier.pop() {
        for &(ri, ind) in into.get(current.name()).into_iter().flatten() {
            if current.is_primary_key(&ind.rhs_attrs) && reached.insert(ri.name()) {
                out.push(ri);
                frontier.push(ri);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use crate::domain::Domain;
    use crate::value::{Tuple, Value};

    fn scheme(name: &str, attrs: &[&str], key: &[&str]) -> RelationScheme {
        RelationScheme::new(
            name,
            attrs
                .iter()
                .map(|a| Attribute::new(*a, Domain::Int))
                .collect(),
            key,
        )
        .unwrap()
    }

    #[test]
    fn key_based_detection() {
        let course = scheme("COURSE", &["C.NR"], &["C.NR"]);
        let kb = InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]);
        assert!(kb.is_key_based(&course));
        let wide = scheme("OFFER", &["O.C.NR", "O.D"], &["O.C.NR"]);
        let nkb = InclusionDep::new("X", &["A"], "OFFER", &["O.D"]);
        assert!(!nkb.is_key_based(&wide));
    }

    #[test]
    fn satisfaction_uses_total_projections() {
        let lhs = Relation::with_rows(
            vec![Attribute::new("A", Domain::Int)],
            [
                Tuple::new([Value::Int(1)]),
                Tuple::new([Value::Null]), // null subtuple: exempt
            ],
        )
        .unwrap();
        let rhs = Relation::with_rows(
            vec![Attribute::new("B", Domain::Int)],
            [Tuple::new([Value::Int(1)])],
        )
        .unwrap();
        let ind = InclusionDep::new("L", &["A"], "R", &["B"]);
        assert!(ind.satisfied_by(&lhs, &rhs).unwrap());

        let rhs_missing = Relation::with_rows(vec![Attribute::new("B", Domain::Int)], []).unwrap();
        assert!(!ind.satisfied_by(&lhs, &rhs_missing).unwrap());
    }

    #[test]
    fn validate_checks_arity_and_domains() {
        let a = scheme("A", &["A.K"], &["A.K"]);
        let b = scheme("B", &["B.K"], &["B.K"]);
        assert!(InclusionDep::new("A", &["A.K"], "B", &["B.K"])
            .validate(&a, &b)
            .is_ok());
        assert!(InclusionDep::new("A", &["A.K"], "B", &["NOPE"])
            .validate(&a, &b)
            .is_err());
        assert!(InclusionDep::new("A", &[], "B", &[])
            .validate(&a, &b)
            .is_err());
        let text =
            RelationScheme::new("T", vec![Attribute::new("T.K", Domain::Text)], &["T.K"]).unwrap();
        assert!(InclusionDep::new("A", &["A.K"], "T", &["T.K"])
            .validate(&a, &text)
            .is_err());
    }

    /// The paper's Figure 3 chain: TEACH[T.C.NR] <= OFFER[O.C.NR] <=
    /// COURSE[C.NR] — wait, in Fig. 3 only OFFER references COURSE by key;
    /// here we reproduce the COURSE/OFFER/TEACH/ASSIST key chain used in
    /// Figures 4 and 5.
    fn university() -> (Vec<RelationScheme>, Vec<InclusionDep>) {
        let course = scheme("COURSE", &["C.NR"], &["C.NR"]);
        let offer = scheme("OFFER", &["O.C.NR", "O.D.NAME"], &["O.C.NR"]);
        let teach = scheme("TEACH", &["T.C.NR", "T.F.SSN"], &["T.C.NR"]);
        let assist = scheme("ASSIST", &["A.C.NR", "A.S.SSN"], &["A.C.NR"]);
        let inds = vec![
            InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]),
            InclusionDep::new("TEACH", &["T.C.NR"], "OFFER", &["O.C.NR"]),
            InclusionDep::new("ASSIST", &["A.C.NR"], "OFFER", &["O.C.NR"]),
        ];
        (vec![course, offer, teach, assist], inds)
    }

    #[test]
    fn refkey_direct() {
        let (schemes, inds) = university();
        let refs: Vec<&RelationScheme> = schemes.iter().collect();
        let direct = refkey(&schemes[0], &refs, &inds);
        assert_eq!(
            direct.iter().map(|s| s.name()).collect::<Vec<_>>(),
            ["OFFER"]
        );
        let from_offer = refkey(&schemes[1], &refs, &inds);
        let mut names: Vec<&str> = from_offer.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["ASSIST", "TEACH"]);
    }

    #[test]
    fn refkey_star_transitive() {
        let (schemes, inds) = university();
        let refs: Vec<&RelationScheme> = schemes.iter().collect();
        let star = refkey_star(&schemes[0], &refs, &inds);
        let mut names: Vec<&str> = star.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["ASSIST", "OFFER", "TEACH"]);
        // COURSE is a key-relation of the whole set (Prop 3.1).
        assert_eq!(star.len() + 1, schemes.len());
        // OFFER is a key-relation of {OFFER, TEACH, ASSIST}.
        let sub: Vec<&RelationScheme> = schemes[1..].iter().collect();
        let star2 = refkey_star(&schemes[1], &sub, &inds);
        assert_eq!(star2.len() + 1, sub.len());
    }

    /// The closure repeated [`refkey`] calls reach, in their order: the
    /// reference [`refkey_star`] is checked against.
    fn refkey_star_by_refkey<'a>(
        r0: &RelationScheme,
        candidates: &[&'a RelationScheme],
        inds: &[InclusionDep],
    ) -> Vec<&'a str> {
        let mut reached = std::collections::BTreeSet::from([r0.name()]);
        let mut frontier = vec![r0];
        let mut out = Vec::new();
        while let Some(current) = frontier.pop() {
            for ri in refkey(current, candidates, inds) {
                if reached.insert(ri.name()) {
                    out.push(ri.name());
                    frontier.push(ri);
                }
            }
        }
        out
    }

    #[test]
    fn refkey_star_matches_repeated_refkey() {
        use rand::{Rng, SeedableRng};
        for seed in 0..64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..10);
            let attr = |i: usize, key: bool| format!("R{i}.{}", if key { "K" } else { "V" });
            let schemes: Vec<RelationScheme> = (0..n)
                .map(|i| {
                    scheme(
                        &format!("R{i}"),
                        &[&attr(i, true), &attr(i, false)],
                        &[&attr(i, true)],
                    )
                })
                .collect();
            // Mostly key-to-key dependencies, cycles and self-references
            // included, over a random subset of candidates.
            let inds: Vec<InclusionDep> = (0..rng.gen_range(0..2 * n))
                .map(|_| {
                    let (l, r) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let (lk, rk) = (rng.gen_bool(0.8), rng.gen_bool(0.8));
                    InclusionDep::new(
                        format!("R{l}"),
                        &[&attr(l, lk)],
                        format!("R{r}"),
                        &[&attr(r, rk)],
                    )
                })
                .collect();
            let refs: Vec<&RelationScheme> = schemes.iter().filter(|_| rng.gen_bool(0.8)).collect();
            for r0 in &schemes {
                let star: Vec<&str> = refkey_star(r0, &refs, &inds)
                    .iter()
                    .map(|s| s.name())
                    .collect();
                assert_eq!(star, refkey_star_by_refkey(r0, &refs, &inds), "seed {seed}");
            }
        }
    }

    #[test]
    fn refkey_requires_key_to_key() {
        // A non-key LHS does not count.
        let a = scheme("A", &["A.K", "A.V"], &["A.K"]);
        let b = scheme("B", &["B.K"], &["B.K"]);
        let inds = vec![InclusionDep::new("A", &["A.V"], "B", &["B.K"])];
        let schemes = [&a, &b];
        assert!(refkey(&b, &schemes, &inds).is_empty());
    }
}
