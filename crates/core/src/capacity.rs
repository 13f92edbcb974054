//! Information-capacity equivalence checking (Definition 2.1).
//!
//! Information-capacity equivalence of two schemas under a pair of state
//! mappings (φ, φ′) demands: both mappings send consistent states to
//! consistent states, both compositions are the identity, and both mappings
//! preserve data values. Proving this for arbitrary schemas is out of reach;
//! what the paper's Propositions 4.1 and 4.2 claim is that the *specific*
//! mappings η/η′ and μ/μ′ witness it. This module machine-checks those
//! claims on concrete states: a [`CapacityReport`] records every condition
//! for one state, and property tests drive it with randomly generated
//! consistent states.

use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, Result};

use crate::merge::Merged;

/// The outcome of checking Definition 2.1's conditions on one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityReport {
    /// Condition 1 (forward): φ maps the consistent input state to a
    /// consistent state of the target schema.
    pub forward_consistent: bool,
    /// Condition 3 (forward): φ′(φ(r)) = r.
    pub forward_round_trip: bool,
    /// Condition 4 (forward): values of φ(r) are included in r.
    pub forward_values_preserved: bool,
    /// Condition 2 (backward): φ′ maps the consistent target state to a
    /// consistent source state. `None` when no target state was checked.
    pub backward_consistent: Option<bool>,
    /// Condition 3 (backward): φ(φ′(r′)) = r′.
    pub backward_round_trip: Option<bool>,
    /// Condition 4 (backward): values of φ′(r′) are included in r′.
    pub backward_values_preserved: Option<bool>,
}

impl CapacityReport {
    /// Whether every checked condition holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.forward_consistent
            && self.forward_round_trip
            && self.forward_values_preserved
            && self.backward_consistent.unwrap_or(true)
            && self.backward_round_trip.unwrap_or(true)
            && self.backward_values_preserved.unwrap_or(true)
    }
}

/// Checks the forward direction of Definition 2.1 for a `Merge`/`Remove`
/// pipeline on one consistent state `r` of the original schema:
/// η(r) consistent, η′(η(r)) = r, and values preserved.
pub fn check_forward(merged: &Merged, state: &DatabaseState) -> Result<CapacityReport> {
    check_forward_image(merged, state, &merged.apply(state)?)
}

/// [`check_forward`] over an `image` the caller already holds, which must
/// be `merged.apply(state)` — for a caller that needs η(r) itself, so it
/// is computed once.
pub fn check_forward_image(
    merged: &Merged,
    state: &DatabaseState,
    image: &DatabaseState,
) -> Result<CapacityReport> {
    let forward_consistent = image.is_consistent(merged.schema())?;
    // `state` on the left: set equality asks the right side's set index,
    // which the reconstruction built as it deduplicated, so no index is
    // built on the caller's state. The reconstruction is gone before the
    // value check.
    let forward_round_trip = *state == merged.invert(image)?;
    let forward_values_preserved = image.values_included_in(state);
    obs::global().counter("core.capacity.checks").inc();
    Ok(CapacityReport {
        forward_consistent,
        forward_round_trip,
        forward_values_preserved,
        backward_consistent: None,
        backward_round_trip: None,
        backward_values_preserved: None,
    })
}

/// Checks both directions: the forward direction on `state` (a consistent
/// state of the original schema) and the backward direction on
/// `merged_state` (a consistent state of the merged schema):
/// η′(r′) consistent, η(η′(r′)) = r′, values preserved.
pub fn check_both(
    merged: &Merged,
    state: &DatabaseState,
    merged_state: &DatabaseState,
) -> Result<CapacityReport> {
    let mut report = check_forward(merged, state)?;
    let back = merged.invert(merged_state)?;
    report.backward_consistent = Some(back.is_consistent(merged.original_schema())?);
    let forward_again = merged.apply(&back)?;
    report.backward_round_trip = Some(&forward_again == merged_state);
    report.backward_values_preserved = Some(back.values_included_in(merged_state));
    Ok(report)
}

/// Convenience: forward equivalence check plus BCNF preservation — the full
/// statement of Proposition 4.1 on one state.
pub fn check_proposition_4_1(merged: &Merged, state: &DatabaseState) -> Result<bool> {
    let report = check_forward(merged, state)?;
    Ok(report.holds() && merged.schema().is_bcnf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::Merge;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Tuple,
        Value,
    };

    fn schema() -> RelationalSchema {
        let a = |n: &str| Attribute::new(n, Domain::Int);
        let mut rs = RelationalSchema::new();
        rs.add_scheme(
            RelationScheme::new("EMP", vec![a("E.SSN"), a("E.GRADE")], &["E.SSN"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(RelationScheme::new("MGR", vec![a("M.SSN"), a("M.NR")], &["M.SSN"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("EMP", &["E.SSN", "E.GRADE"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("MGR", &["M.SSN", "M.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("MGR", &["M.SSN"], "EMP", &["E.SSN"]))
            .unwrap();
        rs
    }

    #[test]
    fn forward_check_passes_on_consistent_state() {
        let rs = schema();
        let m = Merge::plan(&rs, &["EMP", "MGR"], "EMP_M").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::Int(5)]))
            .unwrap();
        st.insert("EMP", Tuple::new([Value::Int(2), Value::Int(6)]))
            .unwrap();
        st.insert("MGR", Tuple::new([Value::Int(1), Value::Int(99)]))
            .unwrap();
        let report = check_forward(&m, &st).unwrap();
        assert!(report.holds(), "{report:?}");
        assert!(check_proposition_4_1(&m, &st).unwrap());
        let image = m.apply(&st).unwrap();
        assert_eq!(check_forward_image(&m, &st, &image).unwrap(), report);
    }

    #[test]
    fn backward_check_on_a_merged_state() {
        let rs = schema();
        let m = Merge::plan(&rs, &["EMP", "MGR"], "EMP_M").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::Int(5)]))
            .unwrap();
        st.insert("MGR", Tuple::new([Value::Int(1), Value::Int(42)]))
            .unwrap();
        // Build a consistent merged state directly: one merged tuple plus an
        // employee with no manager row (nulls in the MGR part).
        let merged_state = {
            let mut s = m.apply(&st).unwrap();
            s.relation_mut("EMP_M")
                .unwrap()
                .insert(Tuple::new([
                    Value::Int(7),
                    Value::Int(3),
                    Value::Null,
                    Value::Null,
                ]))
                .unwrap();
            s
        };
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        let report = check_both(&m, &st, &merged_state).unwrap();
        assert!(report.holds(), "{report:?}");
    }

    #[test]
    fn report_detects_a_broken_mapping() {
        // Feed check_both a merged state whose values round-trip fine but
        // whose claimed "source" state differs, to show the identity check
        // actually bites: use a *different* source state than the one the
        // merged state came from.
        let rs = schema();
        let m = Merge::plan(&rs, &["EMP", "MGR"], "EMP_M").unwrap();
        let mut st = DatabaseState::empty_for(&rs).unwrap();
        st.insert("EMP", Tuple::new([Value::Int(1), Value::Int(5)]))
            .unwrap();
        let report = check_forward(&m, &st).unwrap();
        assert!(report.holds());
        // Tamper: a merged state violating a null constraint is simply not
        // consistent, and the backward check flags the (would-be) image.
        let mut bad = m.apply(&st).unwrap();
        bad.relation_mut("EMP_M")
            .unwrap()
            .insert(Tuple::new([
                Value::Int(2),
                Value::Int(5),
                Value::Int(2),
                Value::Null, // violates NS(M.SSN, M.NR)
            ]))
            .unwrap();
        assert!(!bad.is_consistent(m.schema()).unwrap());
        // Handed in as the forward image, the tampered state fails the
        // consistency condition.
        let forward = check_forward_image(&m, &st, &bad).unwrap();
        assert!(!forward.forward_consistent && !forward.holds());
        // η(η′(bad)) ≠ bad: the partly-null MGR part cannot be rebuilt.
        let report = check_both(&m, &st, &bad).unwrap();
        assert_eq!(report.backward_round_trip, Some(false));
    }
}
