//! The merge advisor: given a schema and a target DBMS, find and apply
//! every merge the system can maintain — the paper's SDT option (ii)
//! automated, with Propositions 5.1/5.2 as admissibility gates that the
//! target's capability profile sets.
//!
//! Run with `cargo run --example merge_advisor`.

use relmerge::core::{Advisor, DbmsProfile};
use relmerge::eer::{figures, translate};
use relmerge::workload::{star_schema, StarSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scenario 1: the university schema on every built-in profile.
    let schema = translate(&figures::fig7_eer())?;
    println!(
        "University schema: {} relation-schemes, {} inclusion dependencies\n",
        schema.schemes().len(),
        schema.inds().len()
    );

    for profile in DbmsProfile::BUILT_IN {
        println!("== {} ==", profile.name);
        let advisor = Advisor::new(&profile);
        let proposals = advisor.propose_static(&schema)?;
        for p in &proposals {
            println!(
                "  candidate {:?}: eliminates {} join(s); key-based INDs: {}; \
                 non-null keys: {}; NNA-only: {}; admissible: {}",
                p.members,
                p.joins_eliminated,
                p.inds_key_based,
                p.keys_non_null,
                p.nna_only,
                p.admissible
            );
        }
        let (final_schema, applied) = advisor.greedy(&schema)?;
        println!(
            "  applied {} merge(s): {} -> {} relation-schemes\n",
            applied.len(),
            schema.schemes().len(),
            final_schema.schemes().len()
        );
    }

    // Scenario 2: a wide star — the advisor collapses it to 2 schemes.
    let spec = StarSpec {
        satellites: 6,
        non_key_attrs: 1,
        externals: 1,
    };
    let star = star_schema(&spec);
    println!("Synthetic star: {} schemes -> ", star.schemes().len());
    let (collapsed, applied) = Advisor::new(&DbmsProfile::db2()).greedy(&star)?;
    println!(
        "{} schemes after {} merge(s); final schema:\n{collapsed}",
        collapsed.schemes().len(),
        applied.len()
    );
    Ok(())
}
