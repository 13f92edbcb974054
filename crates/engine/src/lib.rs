//! A constraint-enforcing in-memory storage engine with DBMS capability
//! profiles and a costed query executor.
//!
//! This crate stands in for the proprietary systems the paper targets
//! (DB2, SYBASE 4.0, INGRES 6.3): each is modelled as a [`DbmsProfile`]
//! describing which constraint classes it maintains and through which
//! mechanism (one table, defined in `relmerge_core` beside the
//! Proposition 5.1/5.2 checkers and re-exported here); [`Database`]
//! enforces a schema's dependencies and null constraints on DML through
//! the corresponding tier, counting the work ([`database`]); [`query`]
//! executes point lookups
//! and joins with cost counters, one query on one thread, quantifying
//! the paper's §1 claim that merging reduces joins and improves access
//! performance — every
//! successful execution also adds its totals to the `engine.query.*`
//! counters and charges each join step to its edge in the workload's
//! join ledger ([`Database::profile_snapshot`]), the evidence the merge
//! advisor reads; and [`batch`]
//! provides the unified [`Statement`] DML path with all-or-nothing batches
//! and deferred, group-validated constraint checking. The [`fault`] module
//! makes failure itself testable: deterministic fault injection and the
//! deep integrity checker behind [`Database::verify_integrity`]. The [`predopt`] module is the boolean
//! predicate optimizer whose canonical conjunct partition drives
//! cross-operator pushdown in the executor. The [`wal`] module adds
//! durability: a checksummed write-ahead log plus periodic snapshots
//! (opt in via [`EngineConfig::durability`]), with crash recovery through
//! [`Database::recover`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod build;
pub mod database;
pub mod fault;
pub mod migrate;
pub mod planner;
pub mod predopt;
pub mod query;
pub mod session;
pub mod wal;

pub use batch::{BatchOutcome, Statement, StatementOutcome};
pub use database::{Database, DmlError, EngineConfig, DEFAULT_BUILD_CACHE_BYTES};
pub use fault::{FaultMode, FaultPlan, IntegrityKind, IntegrityReport, IntegrityViolation};
pub use migrate::{AdvisedMigration, MigrationReport};
pub use planner::{plan, LogicalQuery};
pub use predopt::{conjoin, conjuncts, optimize, Optimized};
pub use query::{
    Access, CompiledPredicate, JoinStep, OpKind, OpStats, OpTrace, Predicate, QueryPlan,
    QueryStats, QueryTrace,
};
pub use relmerge_core::{DbmsProfile, Mechanism};
pub use session::{Session, Snapshot, Store};
pub use wal::{DurabilityConfig, FsyncPolicy, RecoveryReport, DEFAULT_SNAPSHOT_EVERY};
