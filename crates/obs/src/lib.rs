//! Observability for the relmerge workspace: a metrics registry and a
//! join ledger, std-only by design.
//!
//! # Metrics
//!
//! [`Registry`] hands out lock-free [`Counter`], [`Gauge`], and log2-bucketed
//! [`Histogram`] handles by name. Components that need isolated counts (e.g.
//! one `Database` instance, with every session and pin of its store) own a
//! shard registry and register it with [`register_shard`]; [`snapshot_all`]
//! merges the global registry with every live shard, and [`flush_shard`]
//! folds a shard into the global registry once, when its owner drops. A
//! [`Snapshot`] supports [`diff`](Snapshot::diff) /
//! [`merge`](Snapshot::merge) and renders via [`to_text`] or [`to_json`].
//! The registry is always on and only goes up: a reader measures a phase
//! by diffing two snapshots, with nothing to switch on first.
//!
//! # Workload profiling
//!
//! [`Profiler`] is a ledger of join edges: every executed join step is
//! charged to its `(relation pair, probe attrs)` edge. A
//! [`ProfileSnapshot`] is that ledger ranked by cumulative cost, the
//! hot-join ranking that drives relation-merging decisions. Per-query
//! totals are not the profiler's: the engine counts them in its metrics
//! shard. See [`profile`].
//!
//! ```
//! use relmerge_obs as obs;
//!
//! let reg = obs::Registry::new();
//! reg.counter("demo.events").add(2);
//! reg.histogram("demo.latency_ns").record(1_250);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["demo.events"], 2);
//! assert!(obs::to_json(&snap).contains("\"demo.events\":2"));
//! ```

pub mod export;
pub mod metrics;
pub mod profile;

pub use export::{json_escape, to_json, to_text};
pub use metrics::{
    bucket_bounds, bucket_index, elapsed_ns, flush_shard, global, register_shard, snapshot_all,
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use profile::{
    report_to_json, report_to_text, EdgeCost, HotJoin, JoinEdge, ProfileSnapshot, Profiler,
};
