//! Composition of several merges into one end-to-end transformation.
//!
//! The advisor (and the SDT "use merging" option) applies a *sequence* of
//! merges, each planned against the schema the previous one produced. A
//! [`MergePipeline`] owns that sequence and composes the state mappings, so
//! data can be carried from the original schema to the final merged schema
//! and back in one call — with the same information-capacity guarantees,
//! compositionally.

use relmerge_relational::{DatabaseState, Error, RelationalSchema, Result};

use crate::merge::Merged;

/// An ordered sequence of merges; step `i+1` was planned on step `i`'s
/// output schema.
#[derive(Debug, Default)]
pub struct MergePipeline {
    steps: Vec<Merged>,
}

impl MergePipeline {
    /// An empty pipeline (identity transformation).
    #[must_use]
    pub fn new() -> Self {
        MergePipeline::default()
    }

    /// Builds a pipeline from already-chained merges, validating that each
    /// step's original schema is the previous step's output schema.
    pub fn from_steps(steps: Vec<Merged>) -> Result<Self> {
        for pair in steps.windows(2) {
            if pair[1].original_schema() != pair[0].schema() {
                return Err(Error::PreconditionViolated {
                    procedure: "MergePipeline",
                    detail: format!(
                        "step merging into `{}` was not planned on the schema produced \
                         by the step merging into `{}`",
                        pair[1].merged_name(),
                        pair[0].merged_name()
                    ),
                });
            }
        }
        Ok(MergePipeline { steps })
    }

    /// Appends a merge; its original schema must match the pipeline's
    /// current output schema.
    pub fn push(&mut self, merged: Merged) -> Result<()> {
        if let Some(last) = self.steps.last() {
            if merged.original_schema() != last.schema() {
                return Err(Error::PreconditionViolated {
                    procedure: "MergePipeline::push",
                    detail: "step was not planned on the pipeline's output schema".to_owned(),
                });
            }
        }
        self.steps.push(merged);
        Ok(())
    }

    /// The steps, in application order.
    #[must_use]
    pub fn steps(&self) -> &[Merged] {
        &self.steps
    }

    /// Whether the pipeline performs any merging at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The output schema (of the last step), if any.
    #[must_use]
    pub fn output_schema(&self) -> Option<&RelationalSchema> {
        self.steps.last().map(Merged::schema)
    }

    /// The composed forward mapping: η of every step, in order.
    pub fn apply(&self, state: &DatabaseState) -> Result<DatabaseState> {
        let mut current = state.clone();
        for step in &self.steps {
            current = step.apply(&current)?;
        }
        Ok(current)
    }

    /// The composed backward mapping: η′ of every step, in reverse order.
    pub fn invert(&self, state: &DatabaseState) -> Result<DatabaseState> {
        let mut current = state.clone();
        for step in self.steps.iter().rev() {
            current = step.invert(&current)?;
        }
        Ok(current)
    }

    /// Total joins eliminated across all steps (`Σ |R̄ᵢ| − 1`).
    #[must_use]
    pub fn joins_eliminated(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.groups().len().saturating_sub(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::Advisor;
    use crate::capability::DbmsProfile;
    use crate::merge::Merge;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, Tuple, Value,
    };

    fn attr(name: &str) -> Attribute {
        Attribute::new(name, Domain::Int)
    }

    /// Two independent stars: P ← Q and X ← {Y, Z}.
    fn two_stars() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        for (name, attrs, key) in [
            ("P", vec!["P.K"], "P.K"),
            ("Q", vec!["Q.K", "Q.V"], "Q.K"),
            ("X", vec!["X.K"], "X.K"),
            ("Y", vec!["Y.K", "Y.V"], "Y.K"),
            ("Z", vec!["Z.K", "Z.V"], "Z.K"),
        ] {
            rs.add_scheme(
                RelationScheme::new(name, attrs.iter().map(|a| attr(a)).collect(), &[key]).unwrap(),
            )
            .unwrap();
            rs.add_null_constraint(NullConstraint::nna(name, &attrs))
                .unwrap();
        }
        rs.add_ind(InclusionDep::new("Q", &["Q.K"], "P", &["P.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Y", &["Y.K"], "X", &["X.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Z", &["Z.K"], "X", &["X.K"]))
            .unwrap();
        rs
    }

    fn sample_state(rs: &RelationalSchema) -> DatabaseState {
        let mut st = DatabaseState::empty_for(rs).unwrap();
        st.insert("P", Tuple::new([Value::Int(1)])).unwrap();
        st.insert("Q", Tuple::new([Value::Int(1), Value::Int(10)]))
            .unwrap();
        st.insert("X", Tuple::new([Value::Int(5)])).unwrap();
        st.insert("X", Tuple::new([Value::Int(6)])).unwrap();
        st.insert("Y", Tuple::new([Value::Int(5), Value::Int(50)]))
            .unwrap();
        st.insert("Z", Tuple::new([Value::Int(6), Value::Int(60)]))
            .unwrap();
        st
    }

    fn build_pipeline(rs: &RelationalSchema) -> MergePipeline {
        let mut m1 = Merge::plan(rs, &["P", "Q"], "PQ").unwrap();
        m1.remove_all_removable().unwrap();
        let schema1 = m1.schema().clone();
        let mut m2 = Merge::plan(&schema1, &["X", "Y", "Z"], "XYZ").unwrap();
        m2.remove_all_removable().unwrap();
        MergePipeline::from_steps(vec![m1, m2]).unwrap()
    }

    #[test]
    fn composed_round_trip() {
        let rs = two_stars();
        let pipeline = build_pipeline(&rs);
        assert_eq!(pipeline.steps().len(), 2);
        assert_eq!(pipeline.joins_eliminated(), 3);
        assert_eq!(pipeline.output_schema().unwrap().schemes().len(), 2);

        let st = sample_state(&rs);
        let merged = pipeline.apply(&st).unwrap();
        assert!(merged
            .is_consistent(pipeline.output_schema().unwrap())
            .unwrap());
        assert_eq!(merged.relation("PQ").unwrap().len(), 1);
        assert_eq!(merged.relation("XYZ").unwrap().len(), 2);
        let back = pipeline.invert(&merged).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn chaining_validated() {
        let rs = two_stars();
        let m1 = Merge::plan(&rs, &["P", "Q"], "PQ").unwrap();
        // m2 planned on the ORIGINAL schema, not m1's output: rejected.
        let m2 = Merge::plan(&rs, &["X", "Y", "Z"], "XYZ").unwrap();
        assert!(MergePipeline::from_steps(vec![m1, m2]).is_err());
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let rs = two_stars();
        let st = sample_state(&rs);
        let pipeline = MergePipeline::new();
        assert!(pipeline.is_empty());
        assert_eq!(pipeline.apply(&st).unwrap(), st);
        assert_eq!(pipeline.invert(&st).unwrap(), st);
        assert_eq!(pipeline.joins_eliminated(), 0);
    }

    #[test]
    fn advisor_produces_a_valid_pipeline() {
        let rs = two_stars();
        let (final_schema, pipeline) = Advisor::new(&DbmsProfile::db2())
            .greedy_pipeline(&rs)
            .unwrap();
        assert_eq!(pipeline.steps().len(), 2);
        assert_eq!(pipeline.output_schema().unwrap(), &final_schema);
        let st = sample_state(&rs);
        let merged = pipeline.apply(&st).unwrap();
        assert!(merged.is_consistent(&final_schema).unwrap());
        assert_eq!(pipeline.invert(&merged).unwrap(), st);
    }
}
