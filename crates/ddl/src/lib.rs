//! DDL generation for the ICDE'92 relation-merging reproduction — a
//! reimplementation of the paper's SDT (Schema Definition and Translation)
//! tool \[12\].
//!
//! * [`dialect`] — the four target dialects (DB2, SYBASE 4.0, INGRES 6.3,
//!   SQL-92): each reads its constraint-maintenance mechanisms (§5.1)
//!   from its capability profile and keeps only its syntax;
//! * [`mod@generate`] — `CREATE TABLE` emission with declarative keys,
//!   `NOT NULL`, foreign keys, plus triggers (SYBASE), rules (INGRES) or
//!   `CHECK`s (SQL-92) for the general null constraints and non key-based
//!   inclusion dependencies `Merge` can introduce;
//! * [`sdt`] — the end-to-end pipeline: EER schema → relational schema
//!   (merged or one-to-one) → dialect-specific DDL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dialect;
pub mod generate;
pub mod migration;
pub mod sdt;

pub use dialect::{DdlScript, DdlStatement, Dialect};
pub use generate::{check_expr, generate};
pub use migration::{backward_migration, forward_migration};
pub use sdt::{run as run_sdt, SdtOption, SdtOutput};
