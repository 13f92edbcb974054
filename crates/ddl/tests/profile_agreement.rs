//! The DDL generator and the hosting report read one capability table:
//! whatever schema a dialect is handed, `generate` comments out exactly
//! the inclusion dependencies and null constraints whose mechanism in
//! `dialect.profile()` is `Unsupported`, and those are the constraints
//! the profile's hosting report flags (its nullable-key lines aside).

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_core::{Advisor, Mechanism};
use relmerge_ddl::{generate, DdlStatement, Dialect};
use relmerge_eer::{figures, translate};
use relmerge_workload::{random_eer, EerSpec};

#[test]
fn unsupported_statements_match_the_profile() {
    let mut eers = vec![
        figures::fig1_eer(),
        figures::fig7_eer(),
        figures::fig8_i(),
        figures::fig8_ii(),
        figures::fig8_iii(),
        figures::fig8_iv(),
    ];
    for seed in 0..4 {
        eers.push(random_eer(
            &EerSpec::default(),
            &mut StdRng::seed_from_u64(seed),
        ));
    }
    let mut flagged_cases = 0;
    for eer in &eers {
        let base = translate::translate(eer).expect("translation");
        // The 1:1 schema, then the schema each dialect's advisor merges.
        let mut schemas = vec![base.clone()];
        for d in Dialect::ALL {
            schemas.push(Advisor::new(&d.profile()).greedy(&base).expect("advisor").0);
        }
        for schema in &schemas {
            for dialect in Dialect::ALL {
                let profile = dialect.profile();
                let expected: Vec<String> = schema
                    .inds()
                    .iter()
                    .filter(|ind| profile.ind_mechanism(schema, ind) == Mechanism::Unsupported)
                    .map(ToString::to_string)
                    .chain(
                        schema
                            .null_constraints()
                            .iter()
                            .filter(|c| {
                                profile.null_constraint_mechanism(c) == Mechanism::Unsupported
                            })
                            .map(ToString::to_string),
                    )
                    .collect();
                let script = generate(schema, dialect).expect("generate");
                let named: Vec<&str> = script
                    .unsupported()
                    .into_iter()
                    .map(|s| match s {
                        DdlStatement::Unsupported { constraint, .. } => constraint.as_str(),
                        _ => unreachable!("unsupported() returns warnings only"),
                    })
                    .collect();
                assert_eq!(named, expected, "{dialect}");
                let report: Vec<String> = profile
                    .hosting_report(schema)
                    .into_iter()
                    .filter(|line| !line.contains("contains nullable attributes"))
                    .collect();
                assert_eq!(report.len(), named.len(), "{dialect}: {report:?}");
                for (line, c) in report.iter().zip(&named) {
                    assert!(line.ends_with(c), "{dialect}: `{line}` does not name {c}");
                }
                flagged_cases += usize::from(!named.is_empty());
            }
        }
    }
    assert!(
        flagged_cases > 0,
        "no case exercised an unsupported constraint"
    );
}
