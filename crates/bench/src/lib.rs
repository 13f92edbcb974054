//! Shared experiment harnesses behind the `reproduce` binary and the
//! Criterion benches.
//!
//! Each experiment function returns a [`report::Report`]; the binary
//! prints it as the tables recorded in `EXPERIMENTS.md` and writes it as
//! one `BENCH_<name>.json` artifact.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod table;
