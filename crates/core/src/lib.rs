//! The relation-merging technique of Markowitz (ICDE 1992).
//!
//! This crate implements the paper's contribution on top of the
//! `relmerge-relational` substrate:
//!
//! * **key-relations** — Definition 3.1, with Proposition 3.1's syntactic
//!   characterization via `Refkey*` ([`keyrel`]);
//! * the **`Merge(R̄)` procedure** — Definition 4.1, producing the merged
//!   schema `RS′ = (R′, F′ ∪ I′ ∪ N′)` and the state mappings η / η′
//!   ([`merge`]);
//! * the **`Remove(Yi)` procedure** — Definitions 4.2/4.3, dropping
//!   redundant attributes with the state mappings μ / μ′ ([`remove`]);
//! * **information-capacity** checking — Definition 2.1, machine-checking
//!   Propositions 4.1 and 4.2 on concrete states ([`capacity`]);
//! * **DBMS capability profiles** — §5.1's table of which constraint
//!   classes each target maintains, and by which mechanism
//!   ([`capability`]);
//! * **DBMS applicability conditions** — Propositions 5.1 and 5.2
//!   ([`conditions`]);
//! * a **merge advisor** — the SDT tool's automated merging option,
//!   gated by a capability profile ([`advisor`]).
//!
//! The typical pipeline:
//!
//! ```text
//! RelationalSchema ──Merge::plan──▶ Merged ──remove_all_removable──▶ Merged
//!        │                            │  apply (η∘μ)                  │
//!        ▼                            ▼                               ▼
//!  DatabaseState ────────────▶ merged DatabaseState ◀──invert (μ′∘η′)─┘
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod capability;
pub mod capacity;
pub mod conditions;
pub mod keyrel;
pub mod merge;
pub mod pipeline;
pub mod remove;
pub mod report;

pub use advisor::{Advisor, AppliedMerge, MergeProposal};
pub use capability::{DbmsProfile, Mechanism};
pub use capacity::{
    check_both, check_forward, check_forward_image, check_proposition_4_1, CapacityReport,
};
pub use conditions::{
    maximal_merge_sets, prop51_inds_key_based, prop51_keys_non_null, prop52_nna_only, Prop52Failure,
};
pub use keyrel::{find_key_relation, is_key_relation_semantically, KeyRelationSpec};
pub use merge::{Merge, MergeGroup, MergeOptions, Merged};
pub use pipeline::MergePipeline;
pub use remove::NotRemovable;
pub use report::MergeReport;
