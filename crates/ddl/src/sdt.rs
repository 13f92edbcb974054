//! The SDT pipeline: the paper's Schema Definition and Translation tool
//! \[12\] end to end.
//!
//! *"Given an EER schema, SDT generates the corresponding schema definition
//! for various relational DBMSs, such as DB2, SYBASE 4.0, and INGRES 6.3.
//! SDT provides the options of (i) establishing a one-to-one correspondence
//! between the relation-schemes in the relational schema and the
//! object-sets in the EER schema (i.e. not using merging), or (ii) using
//! merging for reducing the number of relation-schemes in the relational
//! schema."* (paper §6)

use relmerge_core::Advisor;
use relmerge_eer::model::EerSchema;
use relmerge_eer::translate;
use relmerge_relational::{RelationalSchema, Result};

use crate::dialect::{DdlScript, Dialect};
use crate::generate;

/// SDT's two translation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdtOption {
    /// Option (i): one relation-scheme per EER object-set.
    OneToOne,
    /// Option (ii): merge relation-schemes to reduce their number,
    /// constrained to merges the target dialect's
    /// [`profile`](Dialect::profile) can maintain.
    Merged,
}

/// The outcome of one SDT run.
#[derive(Debug)]
pub struct SdtOutput {
    /// The relational schema deployed.
    pub schema: RelationalSchema,
    /// The generated DDL.
    pub script: DdlScript,
    /// The number of relation-schemes before and after merging
    /// (equal under [`SdtOption::OneToOne`]).
    pub scheme_count: (usize, usize),
    /// How many merges were applied.
    pub merges_applied: usize,
}

/// Runs SDT: translate the EER schema, optionally merge, and emit DDL for
/// `dialect`.
pub fn run(eer: &EerSchema, option: SdtOption, dialect: Dialect) -> Result<SdtOutput> {
    let base = translate::translate(eer)?;
    let before = base.schemes().len();
    let (schema, merges_applied) = match option {
        SdtOption::OneToOne => (base, 0),
        SdtOption::Merged => {
            let (merged, applied) = Advisor::new(&dialect.profile()).greedy(&base)?;
            (merged, applied.len())
        }
    };
    let script = generate::generate(&schema, dialect)?;
    let after = schema.schemes().len();
    Ok(SdtOutput {
        schema,
        script,
        scheme_count: (before, after),
        merges_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_eer::figures;

    #[test]
    fn one_to_one_preserves_object_sets() {
        let eer = figures::fig7_eer();
        let out = run(&eer, SdtOption::OneToOne, Dialect::Db2).unwrap();
        assert_eq!(out.scheme_count, (8, 8));
        assert_eq!(out.merges_applied, 0);
        // Fig 3 is fully declarative: no warnings even on DB2.
        assert!(out.script.unsupported().is_empty());
    }

    #[test]
    fn merged_option_reduces_scheme_count() {
        let eer = figures::fig8_iv();
        let out = run(&eer, SdtOption::Merged, Dialect::Db2).unwrap();
        // COURSE + OFFER + TEACH merge into one scheme (NNA-only per
        // Proposition 5.2), DEPARTMENT and FACULTY stay.
        assert_eq!(out.scheme_count.0, 5);
        assert_eq!(out.scheme_count.1, 3);
        assert_eq!(out.merges_applied, 1);
        assert!(out.script.unsupported().is_empty());
        assert!(out.schema.nna_only());
    }

    #[test]
    fn dialect_gates_merging() {
        // Figure 7's university schema: the COURSE chain merge needs
        // general null constraints, so DB2 refuses it while SYBASE accepts
        // the sub-merges its triggers can maintain.
        let eer = figures::fig7_eer();
        let db2 = run(&eer, SdtOption::Merged, Dialect::Db2).unwrap();
        let sybase = run(&eer, SdtOption::Merged, Dialect::Sybase40).unwrap();
        assert!(db2.scheme_count.1 >= sybase.scheme_count.1);
        assert!(sybase.scheme_count.1 < sybase.scheme_count.0);
        // Everything SYBASE deploys is maintainable (possibly via
        // triggers).
        assert!(sybase.script.unsupported().is_empty());
        assert!(db2.script.unsupported().is_empty());
    }
}
