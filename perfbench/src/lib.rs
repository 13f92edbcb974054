//! The relmerge engine benchmark: one command runs one named workload from
//! a seed and prints every metric by name with its unit.
//!
//! Workloads ([`ops::Workload`]): `oltp` (the paper's join-chain traffic on
//! the unmerged schema, durable), `merged` (the same stream served from the
//! merged `COURSE_M` relation after an online migration) and `analytics`
//! (read-only reports on an in-memory store). Each runs a closed loop with
//! one client thread and one `Session` ([`run`]), and checks every answer
//! against an untimed replay on a plain `Database`.
//!
//! The benchmark measures the engine only through its public API: the
//! layers are the benchmark's own spans around public calls (`trace`),
//! the engine's reports and `obs` registry diffs, and a counting global
//! allocator (`alloc`).

mod alloc;
pub mod ops;
pub mod run;
mod trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
