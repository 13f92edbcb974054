//! A merge advisor: the automated counterpart of the SDT tool's "use
//! merging" option (paper §6), constrained by DBMS capabilities (§5.1).
//!
//! The advisor enumerates candidate merge sets (schemes with pairwise
//! compatible primary keys connected by key-to-key inclusion dependencies,
//! via `Refkey*`), filters them by the target DBMS's capabilities using the
//! Proposition 5.1 / 5.2 predicates, and greedily applies non-overlapping
//! sets largest-first, running `Remove` to completion after each merge.

use std::collections::BTreeSet;

use relmerge_obs as obs;
use relmerge_relational::{RelationalSchema, Result};

use crate::capability::{DbmsProfile, Mechanism};
use crate::conditions::{
    maximal_merge_sets, prop51_inds_key_based, prop51_keys_non_null, prop52_nna_only,
};
use crate::merge::{Merge, Merged};

/// A candidate merge the advisor evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeProposal {
    /// The merge set `R̄`, key-relation first.
    pub members: Vec<String>,
    /// Joins a query touching all members no longer needs (`|R̄| − 1`).
    pub joins_eliminated: usize,
    /// Observed workload cost (index probes + scanned rows, summed over
    /// every profiled join edge between two members) this merge would
    /// eliminate. `0` for purely static proposals — no evidence, not
    /// "measured as free".
    pub observed_cost: u64,
    /// Proposition 5.1(i): output inclusion dependencies all key-based.
    pub inds_key_based: bool,
    /// Proposition 5.1(ii): output key attributes all non-null.
    pub keys_non_null: bool,
    /// Proposition 5.2: output null constraints all NNA after removal.
    pub nna_only: bool,
    /// Whether the proposal passes the gates the advisor's profile sets.
    pub admissible: bool,
}

/// One applied merge in an advisor run.
#[derive(Debug)]
pub struct AppliedMerge {
    /// The proposal that was applied.
    pub proposal: MergeProposal,
    /// The name of the merged relation-scheme.
    pub merged_name: String,
    /// The merge (after `Remove` ran to completion).
    pub merged: Merged,
}

/// The advisor: instantiate with [`Advisor::new`] and ask it to
/// [`propose_static`](Advisor::propose_static) from the schema alone, or
/// [`propose_from_profile`](Advisor::propose_from_profile) with workload
/// evidence ranking the proposals by the access cost they would
/// eliminate.
pub struct Advisor {
    /// Proposition 5.1(i): output inclusion dependencies must be
    /// key-based.
    require_key_based_inds: bool,
    /// Proposition 5.1(ii): output key attributes must be non-null.
    require_non_null_keys: bool,
    /// Proposition 5.2: output null constraints must all be NNA.
    require_nna_only: bool,
}

impl Advisor {
    /// An advisor proposing only the merges `profile` can maintain
    /// (paper §5.1): a target that cannot maintain non key-based
    /// inclusion dependencies requires Proposition 5.1(i), one that
    /// cannot maintain nullable keys requires 5.1(ii), and one that
    /// cannot maintain general null constraints requires 5.2.
    #[must_use]
    pub fn new(profile: &DbmsProfile) -> Self {
        Advisor {
            require_key_based_inds: profile.non_key_inds == Mechanism::Unsupported,
            require_non_null_keys: !profile.nullable_keys,
            require_nna_only: profile.general_null_constraints == Mechanism::Unsupported,
        }
    }

    /// Evaluates every maximal merge set in `schema` against the
    /// profile's gates, without applying anything. Sorted by
    /// joins eliminated, descending (`observed_cost` stays 0: no
    /// workload evidence was consulted).
    pub fn propose_static(&self, schema: &RelationalSchema) -> Result<Vec<MergeProposal>> {
        self.evaluate(schema, None)
    }

    /// Like [`Advisor::propose_static`], but scores each proposal with
    /// the workload evidence in `snapshot`: a proposal's `observed_cost`
    /// is the cumulative probe + scan cost of every profiled join edge
    /// whose two relations are both members
    /// ([`obs::ProfileSnapshot::cost_between`] summed over member pairs),
    /// i.e. the measured access work the merge would eliminate. Sorted by
    /// observed cost descending, then joins eliminated, then members.
    pub fn propose_from_profile(
        &self,
        snapshot: &obs::ProfileSnapshot,
        schema: &RelationalSchema,
    ) -> Result<Vec<MergeProposal>> {
        self.evaluate(schema, Some(snapshot))
    }

    fn evaluate(
        &self,
        schema: &RelationalSchema,
        evidence: Option<&obs::ProfileSnapshot>,
    ) -> Result<Vec<MergeProposal>> {
        let mut proposals = Vec::new();
        for set in maximal_merge_sets(schema) {
            let refs: Vec<&str> = set.iter().map(String::as_str).collect();
            // The simplifying NNA assumption must hold for the set to be
            // mergeable at all.
            let mergeable = refs.iter().all(|name| {
                schema.scheme(name).is_some_and(|s| {
                    s.attrs()
                        .iter()
                        .all(|a| schema.attr_not_null(name, a.name()))
                })
            });
            if !mergeable {
                continue;
            }
            let inds_key_based = prop51_inds_key_based(schema, &refs)?;
            let keys_non_null = prop51_keys_non_null(schema, &refs)?;
            let nna_only = prop52_nna_only(schema, &refs)?.is_empty();
            let admissible = (!self.require_key_based_inds || inds_key_based)
                && (!self.require_non_null_keys || keys_non_null)
                && (!self.require_nna_only || nna_only);
            let observed_cost = evidence.map_or(0, |ev| {
                let mut cost = 0;
                for (i, a) in refs.iter().enumerate() {
                    for b in &refs[i + 1..] {
                        cost += ev.cost_between(a, b);
                    }
                }
                cost
            });
            proposals.push(MergeProposal {
                joins_eliminated: set.len() - 1,
                members: set,
                observed_cost,
                inds_key_based,
                keys_non_null,
                nna_only,
                admissible,
            });
        }
        proposals.sort_by(|a, b| {
            b.observed_cost
                .cmp(&a.observed_cost)
                .then_with(|| b.joins_eliminated.cmp(&a.joins_eliminated))
                .then_with(|| a.members.cmp(&b.members))
        });
        obs::global()
            .counter("core.advisor.proposals")
            .add(proposals.len() as u64);
        Ok(proposals)
    }

    /// Greedily applies admissible, pairwise-disjoint proposals in
    /// `proposals` order (first come, first merged), running `Remove` to
    /// completion after each merge. Returns the final schema and the
    /// applied merges in order. Pass [`Advisor::propose_static`] output
    /// for the classic largest-first behavior, or
    /// [`Advisor::propose_from_profile`] output to merge hottest-first.
    pub fn apply_proposals(
        &self,
        schema: &RelationalSchema,
        proposals: &[MergeProposal],
    ) -> Result<(RelationalSchema, Vec<AppliedMerge>)> {
        let mut current = schema.clone();
        let mut consumed: BTreeSet<String> = BTreeSet::new();
        let mut applied = Vec::new();
        for proposal in proposals {
            if !proposal.admissible {
                continue;
            }
            if proposal.members.iter().any(|m| consumed.contains(m)) {
                continue;
            }
            let merged_name = format!("{}_M", proposal.members[0]);
            let refs: Vec<&str> = proposal.members.iter().map(String::as_str).collect();
            let mut merged = Merge::plan(&current, &refs, &merged_name)?;
            merged.remove_all_removable()?;
            current = merged.schema().clone();
            consumed.extend(proposal.members.iter().cloned());
            applied.push(AppliedMerge {
                proposal: proposal.clone(),
                merged_name,
                merged,
            });
        }
        obs::global()
            .counter("core.advisor.applied")
            .add(applied.len() as u64);
        Ok((current, applied))
    }

    /// [`Advisor::propose_static`] followed by
    /// [`Advisor::apply_proposals`]: the classic one-call greedy run.
    pub fn greedy(
        &self,
        schema: &RelationalSchema,
    ) -> Result<(RelationalSchema, Vec<AppliedMerge>)> {
        let proposals = self.propose_static(schema)?;
        self.apply_proposals(schema, &proposals)
    }

    /// Like [`Advisor::greedy`], but also assembles the applied merges
    /// into a [`crate::pipeline::MergePipeline`] whose composed state
    /// mappings carry data between the original and final schemas.
    pub fn greedy_pipeline(
        &self,
        schema: &RelationalSchema,
    ) -> Result<(RelationalSchema, crate::pipeline::MergePipeline)> {
        let (final_schema, applied) = self.greedy(schema)?;
        let pipeline = crate::pipeline::MergePipeline::from_steps(
            applied.into_iter().map(|a| a.merged).collect(),
        )?;
        Ok((final_schema, pipeline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Attribute, Domain, InclusionDep, NullConstraint, RelationScheme};

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

    /// Two independent stars: P ← {Q}, X ← {Y, Z}.
    fn two_stars() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("P", &["P.K"], &["P.K"])).unwrap();
        rs.add_scheme(scheme("Q", &["Q.K", "Q.V"], &["Q.K"]))
            .unwrap();
        rs.add_scheme(scheme("X", &["X.K"], &["X.K"])).unwrap();
        rs.add_scheme(scheme("Y", &["Y.K", "Y.V"], &["Y.K"]))
            .unwrap();
        rs.add_scheme(scheme("Z", &["Z.K", "Z.V"], &["Z.K"]))
            .unwrap();
        nna_all(&mut rs);
        rs.add_ind(InclusionDep::new("Q", &["Q.K"], "P", &["P.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Y", &["Y.K"], "X", &["X.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Z", &["Z.K"], "X", &["X.K"]))
            .unwrap();
        rs
    }

    #[test]
    fn proposals_ranked_by_joins_eliminated() {
        let rs = two_stars();
        let proposals = Advisor::new(&DbmsProfile::ideal())
            .propose_static(&rs)
            .unwrap();
        assert_eq!(proposals.len(), 2);
        assert_eq!(proposals[0].members, ["X", "Y", "Z"]);
        assert_eq!(proposals[0].joins_eliminated, 2);
        assert_eq!(proposals[1].members, ["P", "Q"]);
        assert!(proposals.iter().all(|p| p.admissible));
        // Both stars satisfy Prop 5.2 (single non-key attribute, direct
        // references, no external targets).
        assert!(proposals.iter().all(|p| p.nna_only));
    }

    #[test]
    fn greedy_application_merges_both_stars() {
        let rs = two_stars();
        let (final_schema, applied) = Advisor::new(&DbmsProfile::db2()).greedy(&rs).unwrap();
        assert_eq!(applied.len(), 2);
        assert_eq!(final_schema.schemes().len(), 2);
        assert!(final_schema.scheme("X_M").is_some());
        assert!(final_schema.scheme("P_M").is_some());
        // Fully declarative output.
        assert!(final_schema.nna_only());
        assert!(final_schema.key_based_inds_only());
        assert!(final_schema.is_bcnf());
        // After removal, X_M is (X.K, Y.V, Z.V).
        assert_eq!(
            final_schema.scheme("X_M").unwrap().attr_names(),
            ["X.K", "Y.V", "Z.V"]
        );
    }

    #[test]
    fn db2_profile_rejects_chain_merges() {
        // The Figure 3 chain: OFFER is referenced by TEACH/ASSIST, so
        // prop 5.2 fails for the full merge set; on DB2's profile the big
        // merge is inadmissible.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(scheme("COURSE", &["C.NR"], &["C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("OFFER", &["O.C.NR", "O.D"], &["O.C.NR"]))
            .unwrap();
        rs.add_scheme(scheme("TEACH", &["T.C.NR", "T.F"], &["T.C.NR"]))
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
        let advisor = Advisor::new(&DbmsProfile::db2());
        let proposals = advisor.propose_static(&rs).unwrap();
        let big = proposals
            .iter()
            .find(|p| p.members.len() == 3)
            .expect("course chain proposal");
        assert!(!big.nna_only);
        assert!(!big.admissible);
        // The OFFER ← TEACH sub-star *is* admissible… except TEACH's IND
        // into OFFER makes OFFER a target (condition 3 is about Ri ≠ Rk;
        // OFFER is the key-relation here, so it passes).
        let small = proposals
            .iter()
            .find(|p| p.members.len() == 2)
            .expect("offer star proposal");
        assert_eq!(small.members, ["OFFER", "TEACH"]);
        assert!(small.admissible, "{small:?}");
        let (final_schema, applied) = advisor.greedy(&rs).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].merged_name, "OFFER_M");
        assert!(final_schema.nna_only());
    }

    #[test]
    fn ideal_profile_accepts_everything() {
        let rs = two_stars();
        let (final_schema, applied) = Advisor::new(&DbmsProfile::ideal()).greedy(&rs).unwrap();
        assert_eq!(applied.len(), 2);
        assert!(final_schema.is_bcnf());
    }

    /// A workload that only ever joins P with Q must outrank the bigger
    /// (but cold) X star.
    #[test]
    fn profile_evidence_reorders_proposals() {
        let rs = two_stars();
        let profiler = obs::Profiler::new();
        let edge = obs::EdgeCost {
            index_probes: 500,
            rows_scanned: 250,
            ..obs::EdgeCost::default()
        };
        profiler.record([("P", "Q", &["Q.K".to_owned()][..], edge)]);
        let advisor = Advisor::new(&DbmsProfile::ideal());
        let snapshot = profiler.snapshot();
        let proposals = advisor.propose_from_profile(&snapshot, &rs).unwrap();
        assert_eq!(proposals.len(), 2);
        assert_eq!(proposals[0].members, ["P", "Q"]);
        assert_eq!(proposals[0].observed_cost, 750);
        assert_eq!(proposals[1].members, ["X", "Y", "Z"]);
        assert_eq!(proposals[1].observed_cost, 0);
        // With no evidence the static ranking (joins eliminated) returns.
        let cold = advisor
            .propose_from_profile(&obs::ProfileSnapshot::default(), &rs)
            .unwrap();
        assert_eq!(cold[0].members, ["X", "Y", "Z"]);
    }
}
