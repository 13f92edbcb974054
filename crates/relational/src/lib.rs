//! Relational model substrate for the ICDE'92 relation-merging reproduction.
//!
//! This crate implements Section 2 and Section 3 of Markowitz, *"A Relation
//! Merging Technique for Relational Databases"* (ICDE 1992):
//!
//! * typed [`Domain`]s, [`Attribute`]s, null-aware [`Value`]s and [`Tuple`]s;
//! * [`Relation`]s with set semantics and the relational algebra the paper
//!   uses — projection, *total* projection, renaming, union, equi-join, and
//!   the three-part **outer-equi-join** ([`algebra`]);
//! * [`RelationScheme`]s with primary/candidate keys, functional dependencies
//!   with closure and a **BCNF** test ([`fd`]);
//! * inclusion dependencies, the key-based (referential-integrity) subclass,
//!   and the `Refkey`/`Refkey*` recursion of Proposition 3.1 ([`ind`]);
//! * the paper's five null-constraint forms — null-existence,
//!   nulls-not-allowed, null-synchronization sets, part-null and
//!   total-equality — with satisfaction checking and inference engines
//!   ([`nullcon`]);
//! * whole-schema containers and database-state consistency checking
//!   ([`schema`], [`state`]);
//! * the one fast hasher every engine map uses ([`fxhash`]).
//!
//! Everything in the merging crate (`relmerge-core`) is defined in terms of
//! the vocabulary exported here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod attribute;
pub mod domain;
pub mod error;
pub mod fd;
pub mod fxhash;
pub mod ind;
pub mod notation;
pub mod nullcon;
pub mod relation;
pub mod schema;
pub mod scheme;
pub mod state;
pub mod theory;
pub mod value;

pub use attribute::{AttrCorrespondence, Attribute};
pub use domain::Domain;
pub use error::{Error, Result};
pub use fd::{Fd, FdSet};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ind::InclusionDep;
pub use nullcon::NullConstraint;
pub use relation::Relation;
pub use schema::RelationalSchema;
pub use scheme::RelationScheme;
pub use state::DatabaseState;
pub use value::{Tuple, Value};
