//! Syntactic applicability conditions for commercial DBMSs
//! (Propositions 5.1 and 5.2).
//!
//! These predicates are evaluated on the *input* schema and merge set,
//! before `Merge` runs — they predict properties of the output:
//!
//! * [`prop51_inds_key_based`]: whether `I′` will contain only key-based
//!   inclusion dependencies (required by DBMSs without trigger/rule
//!   mechanisms, e.g. DB2);
//! * [`prop51_keys_non_null`]: whether every key attribute of `Rm` will be
//!   nulls-not-allowed (required by DBMSs that treat all nulls as
//!   identical, e.g. SYBASE, INGRES);
//! * [`prop52_nna_only`]: whether, after removing all removable attributes,
//!   `N″` will consist only of declaratively-supported nulls-not-allowed
//!   constraints.

use std::collections::BTreeSet;

use relmerge_relational::ind::refkey_star;
use relmerge_relational::{RelationScheme, RelationalSchema, Result};

use crate::keyrel::find_key_relation;

fn member_schemes<'a>(
    schema: &'a RelationalSchema,
    members: &[&str],
) -> Result<Vec<&'a RelationScheme>> {
    members.iter().map(|m| schema.scheme_required(m)).collect()
}

/// Proposition 5.1(i): `I′` contains only key-based inclusion dependencies
/// iff every member that is not a key-relation is not the target of an
/// inclusion dependency from *outside* the merge set.
///
/// (An external `Rj[Z] ⊆ Ri[Ki]` survives merging as `Rj[Z] ⊆ Rm[Ki]`,
/// and `Ki ≠ Km` is not `Rm`'s primary key — the Figure 4 situation with
/// `ASSIST[A.C.NR] ⊆ COURSE′[O.C.NR]`.)
pub fn prop51_inds_key_based(schema: &RelationalSchema, members: &[&str]) -> Result<bool> {
    let schemes = member_schemes(schema, members)?;
    let key_rel = find_key_relation(schema, &schemes).map(|s| s.name().to_owned());
    Ok(schemes.iter().all(|ri| {
        if Some(ri.name()) == key_rel.as_deref() {
            return true;
        }
        !schema
            .inds()
            .iter()
            .any(|ind| ind.rhs_rel == ri.name() && !members.contains(&ind.lhs_rel.as_str()))
    }))
}

/// Proposition 5.1(ii): the key attributes of `Rm` are all nulls-not-allowed
/// iff every member that is not a key-relation has a *unique* (primary) key
/// — an alternative candidate key of a non-key-relation member becomes a
/// nullable candidate key of `Rm`.
pub fn prop51_keys_non_null(schema: &RelationalSchema, members: &[&str]) -> Result<bool> {
    let schemes = member_schemes(schema, members)?;
    let key_rel = find_key_relation(schema, &schemes).map(|s| s.name().to_owned());
    Ok(schemes
        .iter()
        .all(|ri| Some(ri.name()) == key_rel.as_deref() || ri.candidate_keys().len() == 1))
}

/// A single failed condition of Proposition 5.2, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prop52Failure {
    /// The member the condition failed for.
    pub member: String,
    /// Which of conditions (1)–(4) failed.
    pub condition: u8,
    /// Human-readable explanation.
    pub detail: String,
}

/// Proposition 5.2: after merging and removing every removable attribute,
/// `N″` contains only nulls-not-allowed constraints **if** `R̄` contains a
/// scheme `Rk` such that every other member `Ri` satisfies:
///
/// 1. `Ri[Ki] ⊆ Rk[Kk] ∈ I` (a *direct* key-to-key dependency on `Rk`);
/// 2. `|Xi − Ki| = 1` (exactly one non-key attribute);
/// 3. `Ri` is not the target of any inclusion dependency;
/// 4. beyond `Ri[Ki] ⊆ Rk[Kk]`, `Ri` appears only on the left of
///    dependencies into schemes outside `R̄`, and whenever `Ri[Ki] ⊆ Rj[Kj]`
///    then also `Rk[Kk] ⊆ Rj[Kj]`.
///
/// Returns the empty vector when the conditions hold (for *some* choice of
/// `Rk` — the key-relation found by Proposition 3.1); otherwise the list of
/// failures for the best candidate.
pub fn prop52_nna_only(schema: &RelationalSchema, members: &[&str]) -> Result<Vec<Prop52Failure>> {
    let schemes = member_schemes(schema, members)?;
    let Some(rk) = find_key_relation(schema, &schemes) else {
        return Ok(vec![Prop52Failure {
            member: members.join(","),
            condition: 1,
            detail: "merge set contains no key-relation Rk".to_owned(),
        }]);
    };
    let kk: Vec<&str> = rk.primary_key();
    let mut failures = Vec::new();
    for ri in schemes.iter().filter(|s| s.name() != rk.name()) {
        let ki: Vec<&str> = ri.primary_key();
        // (1) Direct Ri[Ki] ⊆ Rk[Kk].
        let direct = schema.inds().iter().any(|ind| {
            ind.lhs_rel == ri.name()
                && ind.rhs_rel == rk.name()
                && same_set_s(&ind.lhs_attrs, &ki)
                && same_set_s(&ind.rhs_attrs, &kk)
        });
        if !direct {
            failures.push(Prop52Failure {
                member: ri.name().to_owned(),
                condition: 1,
                detail: format!(
                    "no direct inclusion dependency {}[{}] ⊆ {}[{}]",
                    ri.name(),
                    ki.join(","),
                    rk.name(),
                    kk.join(",")
                ),
            });
        }
        // (2) Exactly one non-primary-key attribute.
        let non_key = ri.attrs().len() - ki.len();
        if non_key != 1 {
            failures.push(Prop52Failure {
                member: ri.name().to_owned(),
                condition: 2,
                detail: format!("{non_key} non-key attributes (need exactly 1)"),
            });
        }
        // (3) Ri is not the target of any inclusion dependency.
        if let Some(ind) = schema.inds().iter().find(|ind| ind.rhs_rel == ri.name()) {
            failures.push(Prop52Failure {
                member: ri.name().to_owned(),
                condition: 3,
                detail: format!("targeted by {ind}"),
            });
        }
        // (4) Other appearances of Ri: only LHS of dependencies into schemes
        // outside R̄; and if Ri[Ki] ⊆ Rj[Kj] then Rk[Kk] ⊆ Rj[Kj] too.
        for ind in schema.inds().iter().filter(|i| i.lhs_rel == ri.name()) {
            if ind.rhs_rel == rk.name() && same_set_s(&ind.rhs_attrs, &kk) {
                continue; // the condition-(1) dependency itself
            }
            if members.contains(&ind.rhs_rel.as_str()) {
                failures.push(Prop52Failure {
                    member: ri.name().to_owned(),
                    condition: 4,
                    detail: format!("{ind} stays inside the merge set"),
                });
                continue;
            }
            if same_set_s(&ind.lhs_attrs, &ki) {
                let shared = schema.inds().iter().any(|other| {
                    other.lhs_rel == rk.name()
                        && other.rhs_rel == ind.rhs_rel
                        && same_set_s(&other.lhs_attrs, &kk)
                        && other.rhs_attrs == ind.rhs_attrs
                });
                if !shared {
                    failures.push(Prop52Failure {
                        member: ri.name().to_owned(),
                        condition: 4,
                        detail: format!(
                            "{ind} has no matching dependency from {}[{}]",
                            rk.name(),
                            kk.join(",")
                        ),
                    });
                }
            }
        }
    }
    Ok(failures)
}

/// The key-relation reachability structure used by the merge advisor: all
/// maximal merge sets rooted at each scheme (the scheme plus its
/// `Refkey*` closure within the whole schema).
#[must_use]
pub fn maximal_merge_sets(schema: &RelationalSchema) -> Vec<Vec<String>> {
    let all: Vec<&RelationScheme> = schema.schemes().iter().collect();
    // Only a scheme some dependency targets can reach anything.
    let targets: BTreeSet<&str> = schema.inds().iter().map(|i| i.rhs_rel.as_str()).collect();
    let mut out = Vec::new();
    for root in all.iter().filter(|r| targets.contains(r.name())) {
        let star = refkey_star(root, &all, schema.inds());
        if star.is_empty() {
            continue;
        }
        let mut set: Vec<String> = vec![root.name().to_owned()];
        set.extend(star.iter().map(|s| s.name().to_owned()));
        out.push(set);
    }
    out
}

fn same_set_s(a: &[String], b: &[&str]) -> bool {
    a.len() == b.len() && a.iter().all(|x| b.contains(&x.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::Merge;
    use relmerge_relational::{Attribute, Domain, InclusionDep, NullConstraint};

    fn attr(name: &str) -> Attribute {
        Attribute::new(name, Domain::Int)
    }

    fn scheme(name: &str, attrs: &[&str], key: &[&str]) -> RelationScheme {
        RelationScheme::new(name, attrs.iter().map(|a| attr(a)).collect(), key).unwrap()
    }

    fn nna_all(rs: &mut RelationalSchema) {
        let pairs: Vec<(String, Vec<String>)> = rs
            .schemes()
            .iter()
            .map(|s| {
                (
                    s.name().to_owned(),
                    s.attr_names().iter().map(|a| (*a).to_owned()).collect(),
                )
            })
            .collect();
        for (name, attrs) in pairs {
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            rs.add_null_constraint(NullConstraint::nna(&name, &refs))
                .unwrap();
        }
    }

    /// COURSE ← {OFFER, TEACH, ASSIST} star (the Figure 8(iv) shape): every
    /// relationship relation references COURSE directly.
    fn star_schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("COURSE", &["C.NR"], &["C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("OFFER", &["O.C.NR", "O.D"], &["O.C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("TEACH", &["T.C.NR", "T.F"], &["T.C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("DEPT", &["D.N"], &["D.N"])).unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("TEACH", &["T.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("OFFER", &["O.D"], "DEPT", &["D.N"]))
            .unwrap();
        rs
    }

    /// The Figure 3/4 chain: TEACH references OFFER, not COURSE.
    fn chain_schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("COURSE", &["C.NR"], &["C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("OFFER", &["O.C.NR", "O.D"], &["O.C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("TEACH", &["T.C.NR", "T.F"], &["T.C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("ASSIST", &["A.C.NR", "A.S"], &["A.C.NR"]))
            .unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new(
            "TEACH",
            &["T.C.NR"],
            "OFFER",
            &["O.C.NR"],
        ))
        .unwrap();
        rs.add_ind(InclusionDep::new(
            "ASSIST",
            &["A.C.NR"],
            "OFFER",
            &["O.C.NR"],
        ))
        .unwrap();
        rs
    }

    #[test]
    fn prop51_i_detects_external_reference() {
        let rs = chain_schema();
        // Merging {COURSE, OFFER, TEACH} leaves ASSIST pointing at OFFER's
        // key: non-key-based IND in I′ (the Figure 4 situation).
        assert!(!prop51_inds_key_based(&rs, &["COURSE", "OFFER", "TEACH"]).unwrap());
        // Merging all four removes the external reference.
        assert!(prop51_inds_key_based(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"]).unwrap());
        // And the prediction matches Merge's actual output.
        let m3 = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH"], "M3").unwrap();
        assert!(!m3.schema().key_based_inds_only());
        let m4 = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "M4").unwrap();
        assert!(m4.schema().key_based_inds_only());
    }

    #[test]
    fn prop51_ii_unique_keys() {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("A", &["A.K"], &["A.K"])).unwrap();
        rs.add_scheme(
            RelationScheme::with_candidate_keys(
                "B",
                vec![attr("B.K"), attr("B.ALT")],
                &[&["B.K"], &["B.ALT"]],
            )
            .unwrap(),
        )
        .unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        // B has an alternative candidate key → nullable key in Rm.
        assert!(!prop51_keys_non_null(&rs, &["A", "B"]).unwrap());
        // Matches the actual merge output: B.ALT is a declared candidate
        // key of Rm but is not NNA.
        let m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        let nullable_key_attr = m
            .merged_scheme()
            .candidate_keys()
            .iter()
            .flatten()
            .any(|k| !m.schema().attr_not_null("M", k));
        assert!(nullable_key_attr);
    }

    #[test]
    fn prop52_star_passes_chain_fails() {
        let star = star_schema();
        let failures = prop52_nna_only(&star, &["COURSE", "OFFER", "TEACH"]).unwrap();
        assert!(failures.is_empty(), "{failures:?}");
        // Verify against the actual pipeline: merge, remove everything,
        // check N″ is NNA-only.
        let mut m = Merge::plan(&star, &["COURSE", "OFFER", "TEACH"], "CM").unwrap();
        m.remove_all_removable().unwrap();
        assert!(m.generated_null_constraints().iter().all(|c| c.is_nna()));

        let chain = chain_schema();
        let failures = prop52_nna_only(&chain, &["COURSE", "OFFER", "TEACH", "ASSIST"]).unwrap();
        // TEACH and ASSIST reference OFFER, not COURSE (condition 1), and
        // OFFER is targeted (condition 3).
        assert!(!failures.is_empty());
        assert!(failures
            .iter()
            .any(|f| f.condition == 1 && f.member == "TEACH"));
        assert!(failures
            .iter()
            .any(|f| f.condition == 3 && f.member == "OFFER"));
        // Matches the pipeline: Figure 6 ends with null-existence
        // constraints that are not NNA.
        let mut m = Merge::plan(&chain, &["COURSE", "OFFER", "TEACH", "ASSIST"], "CM").unwrap();
        m.remove_all_removable().unwrap();
        assert!(!m.generated_null_constraints().iter().all(|c| c.is_nna()));
    }

    #[test]
    fn prop52_condition_2_needs_single_non_key_attr() {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("A", &["A.K"], &["A.K"])).unwrap();
        rs.add_scheme(scheme("B", &["B.K", "B.V1", "B.V2"], &["B.K"]))
            .unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        let failures = prop52_nna_only(&rs, &["A", "B"]).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].condition, 2);
        // Indeed, after removal the NS({B.V1, B.V2}) constraint survives.
        let mut m = Merge::plan(&rs, &["A", "B"], "M").unwrap();
        m.remove_all_removable().unwrap();
        assert!(!m.generated_null_constraints().iter().all(|c| c.is_nna()));
    }

    #[test]
    fn prop52_condition_4_shared_external_reference() {
        // B[B.K] ⊆ EXT[E.K] without A[A.K] ⊆ EXT[E.K]: condition 4 fails.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("EXT", &["E.K"], &["E.K"])).unwrap();
        rs.add_scheme(scheme("A", &["A.K"], &["A.K"])).unwrap();
        rs.add_scheme(scheme("B", &["B.K", "B.V"], &["B.K"]))
            .unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("B", &["B.K"], "A", &["A.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("B", &["B.K"], "EXT", &["E.K"]))
            .unwrap();
        let failures = prop52_nna_only(&rs, &["A", "B"]).unwrap();
        assert!(failures.iter().any(|f| f.condition == 4));
        let mut rs2 = rs.clone();
        rs2.add_ind(InclusionDep::new("A", &["A.K"], "EXT", &["E.K"]))
            .unwrap();
        assert!(prop52_nna_only(&rs2, &["A", "B"]).unwrap().is_empty());
    }

    #[test]
    fn maximal_merge_sets_found() {
        let rs = chain_schema();
        let sets = maximal_merge_sets(&rs);
        // COURSE reaches everything; OFFER reaches TEACH and ASSIST.
        assert!(sets.iter().any(|s| s.len() == 4 && s[0] == "COURSE"));
        assert!(sets.iter().any(|s| s.len() == 3 && s[0] == "OFFER"));
    }
}
