//! Whole-system property test: the advisor applied to random forest
//! schemas (arbitrary key-reference DAGs with non-key foreign keys), on
//! any built-in capability profile, produces pipelines whose composed
//! mappings preserve information capacity, whatever got merged, and a
//! schema the profile can still host.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge::core::{Advisor, DbmsProfile};
use relmerge::workload::{consistent_state, forest_schema, ForestSpec, StateSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn advisor_pipeline_preserves_capacity_on_forests(
        schemes in 2usize..9,
        key_ref_prob in 0.0f64..=1.0,
        max_non_key in 0usize..4,
        fk_prob in 0.0f64..=1.0,
        rows in 1usize..40,
        coverage in 0.0f64..=1.0,
        profile in 0usize..DbmsProfile::BUILT_IN.len(),
        seed in any::<u64>(),
    ) {
        let spec = ForestSpec { schemes, key_ref_prob, max_non_key, fk_prob };
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = forest_schema(&spec, &mut rng);
        schema.validate().expect("generator output is valid");

        let profile = &DbmsProfile::BUILT_IN[profile];
        let (final_schema, pipeline) =
            Advisor::new(profile).greedy_pipeline(&schema).expect("advisor");
        prop_assert!(final_schema.schemes().len() <= schema.schemes().len());
        prop_assert!(final_schema.is_bcnf());
        // The advisor's gates are the profile's table: a profile that
        // hosts the input hosts every merge it admits.
        if profile.can_host(&schema) {
            prop_assert!(
                profile.can_host(&final_schema),
                "{}: {:?}",
                profile.name,
                profile.hosting_report(&final_schema)
            );
        }

        // Carry a random consistent state through the whole pipeline and
        // back.
        let state = consistent_state(
            &schema,
            &StateSpec { root_rows: rows, coverage },
            &mut rng,
        ).expect("state");
        prop_assert!(state.is_consistent(&schema).expect("check"));
        let merged = pipeline.apply(&state).expect("apply");
        if !pipeline.is_empty() {
            prop_assert!(merged.is_consistent(&final_schema).expect("check"));
        }
        let back = pipeline.invert(&merged).expect("invert");
        prop_assert_eq!(back, state);
    }
}
