//! The experiment harnesses behind the `reproduce` binary, the
//! repository's one timing harness.
//!
//! Each experiment function returns a [`report::Report`]; the binary
//! prints it as the tables recorded in `EXPERIMENTS.md` and writes it as
//! one `BENCH_<name>.json` artifact, stamped with the host's cores, the
//! build profile, the commit and the scale.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod table;
