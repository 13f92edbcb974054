//! The workload profiler: per-query-shape aggregation of execution cost.
//!
//! The engine describes each executed query as a [`QueryShape`] — a stable
//! fingerprint plus the join edges behind it — and submits the measured
//! [`QueryCost`] (and per-edge [`EdgeCost`] attribution) to a [`Profiler`].
//! The profiler folds every execution of the same fingerprint into one
//! [`FingerprintProfile`]: per-operator totals, peak intermediate bytes,
//! and a log2 wall-time histogram, with the same snapshot/merge semantics
//! as the metric [`Registry`](crate::Registry).
//!
//! [`report`] then flattens a [`ProfileSnapshot`] into the hot-join
//! ranking the merge advisor consumes: one record per distinct
//! `(left relation, right relation, probe attrs)` edge, ranked by the
//! cumulative probe + scan cost spent on that edge across the whole
//! workload. Everything is deterministic: fingerprints order the
//! snapshot, and the ranking breaks cost ties lexicographically.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::export::json_escape;
use crate::metrics::HistogramSnapshot;

/// One join edge of a query shape: the relation pair and the attributes
/// the right side is probed (or hash-built) on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JoinEdge {
    /// The relation the probe side's attributes come from.
    pub left: String,
    /// The relation being probed / built.
    pub right: String,
    /// The right-side attributes the join matches on.
    pub probe_attrs: Vec<String>,
}

impl JoinEdge {
    /// `LEFT->RIGHT[a,b]` — the edge's display form.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}->{}[{}]",
            self.left,
            self.right,
            self.probe_attrs.join(",")
        )
    }
}

/// The canonical identity of one query shape, as computed by the engine's
/// planner: the fingerprint plus enough structure for reports to stay
/// human-readable without re-planning anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryShape {
    /// The canonical shape hash (root, access, join edges, predicate
    /// structure, chosen strategies).
    pub fingerprint: u64,
    /// Human-readable shape label, e.g. `COURSE + 3 joins`.
    pub label: String,
    /// The root relation.
    pub root: String,
    /// The join edges, in plan order.
    pub edges: Vec<JoinEdge>,
}

/// The measured totals of one query execution (or, inside a
/// [`FingerprintProfile`], the fold of many executions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Rows read by scans (root, build-side, and scan-probe fallbacks).
    pub rows_scanned: u64,
    /// Index probes.
    pub index_probes: u64,
    /// Transient hash builds.
    pub hash_builds: u64,
    /// Rows in the final result.
    pub rows_out: u64,
    /// Morsels executed.
    pub morsels: u64,
    /// Total intermediate bytes materialized (slot rows, output rows,
    /// hash builds). Summed when folded.
    pub intermediate_bytes: u64,
    /// Peak per-operator intermediate bytes. Maxed, not summed, when
    /// folded — the high-water mark across executions.
    pub peak_intermediate_bytes: u64,
    /// Build-side cache hits.
    pub build_cache_hits: u64,
    /// Build-side cache misses.
    pub build_cache_misses: u64,
    /// Bytes evicted from the build cache by this query's inserts.
    pub build_cache_evicted_bytes: u64,
    /// Wall time (ns).
    pub wall_ns: u64,
}

impl QueryCost {
    /// Folds one execution's cost into this aggregate: every field sums
    /// except `peak_intermediate_bytes`, which takes the max.
    pub fn fold(&mut self, other: &QueryCost) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.hash_builds += other.hash_builds;
        self.rows_out += other.rows_out;
        self.morsels += other.morsels;
        self.intermediate_bytes += other.intermediate_bytes;
        self.peak_intermediate_bytes = self
            .peak_intermediate_bytes
            .max(other.peak_intermediate_bytes);
        self.build_cache_hits += other.build_cache_hits;
        self.build_cache_misses += other.build_cache_misses;
        self.build_cache_evicted_bytes += other.build_cache_evicted_bytes;
        self.wall_ns += other.wall_ns;
    }
}

/// Per-join-edge cost attribution for one execution (or the fold of
/// many). Indexed parallel to [`QueryShape::edges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCost {
    /// Index probes charged to this edge.
    pub index_probes: u64,
    /// Rows scanned on this edge (build-side scans, scan-probe
    /// fallbacks).
    pub rows_scanned: u64,
    /// Transient hash builds on this edge.
    pub hash_builds: u64,
    /// Rows the edge emitted.
    pub rows_out: u64,
    /// Intermediate bytes the edge materialized (slot rows + builds).
    pub intermediate_bytes: u64,
}

impl EdgeCost {
    fn fold(&mut self, other: &EdgeCost) {
        self.index_probes += other.index_probes;
        self.rows_scanned += other.rows_scanned;
        self.hash_builds += other.hash_builds;
        self.rows_out += other.rows_out;
        self.intermediate_bytes += other.intermediate_bytes;
    }
}

/// Everything the profiler knows about one query fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintProfile {
    /// The shape this profile aggregates.
    pub shape: QueryShape,
    /// Executions folded in.
    pub executions: u64,
    /// Summed cost (peak bytes maxed).
    pub totals: QueryCost,
    /// Log2 histogram of per-execution wall time (ns).
    pub latency: HistogramSnapshot,
    /// Summed per-edge cost, parallel to `shape.edges`.
    pub edge_costs: Vec<EdgeCost>,
}

impl FingerprintProfile {
    fn new(shape: QueryShape) -> Self {
        let edges = shape.edges.len();
        FingerprintProfile {
            shape,
            executions: 0,
            totals: QueryCost::default(),
            latency: HistogramSnapshot::default(),
            edge_costs: vec![EdgeCost::default(); edges],
        }
    }

    fn fold_execution(&mut self, cost: &QueryCost, edges: &[EdgeCost]) {
        self.executions += 1;
        self.totals.fold(cost);
        self.latency.record(cost.wall_ns);
        for (slot, e) in self.edge_costs.iter_mut().zip(edges) {
            slot.fold(e);
        }
    }

    fn fold_profile(&mut self, other: &FingerprintProfile) {
        self.executions += other.executions;
        self.totals.fold(&other.totals);
        self.latency.merge(&other.latency);
        for (slot, e) in self.edge_costs.iter_mut().zip(&other.edge_costs) {
            slot.fold(e);
        }
    }
}

/// The per-workload aggregator: folds every executed query into its
/// fingerprint's [`FingerprintProfile`]. One lives on each
/// `engine::Database` (shared by clones); the hot path is one mutex
/// acquisition plus integer folds — shape strings are only built for a
/// fingerprint's first execution.
#[derive(Debug, Default)]
pub struct Profiler {
    profiles: Mutex<BTreeMap<u64, FingerprintProfile>>,
}

impl Profiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Folds one execution into the profile of `fingerprint`. `shape`
    /// runs only for the fingerprint's first execution, and must return
    /// a shape with that fingerprint. `edges` attributes cost per join
    /// edge and must be parallel to the shape's edges.
    pub fn record(
        &self,
        fingerprint: u64,
        shape: impl FnOnce() -> QueryShape,
        cost: &QueryCost,
        edges: &[EdgeCost],
    ) {
        let mut profiles = self.profiles.lock().unwrap();
        let profile = profiles.entry(fingerprint).or_insert_with(|| {
            let shape = shape();
            debug_assert_eq!(shape.fingerprint, fingerprint, "shape fingerprint");
            FingerprintProfile::new(shape)
        });
        debug_assert_eq!(profile.edge_costs.len(), edges.len(), "edge attribution");
        profile.fold_execution(cost, edges);
    }

    /// A point-in-time copy of every fingerprint's profile, ordered by
    /// fingerprint (deterministic for equal workloads).
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            queries: self.profiles.lock().unwrap().clone(),
        }
    }

    /// Drains the profiler, returning the final snapshot.
    pub fn take(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            queries: std::mem::take(&mut *self.profiles.lock().unwrap()),
        }
    }
}

/// Point-in-time state of a [`Profiler`]: every fingerprint's profile,
/// keyed (and therefore deterministically ordered) by fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Fingerprint → aggregated profile.
    pub queries: BTreeMap<u64, FingerprintProfile>,
}

impl ProfileSnapshot {
    /// Folds `other` into `self` (matching fingerprints fold field-wise;
    /// new fingerprints are inserted) — the same semantics as
    /// [`Snapshot::merge`](crate::Snapshot::merge).
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (fp, profile) in &other.queries {
            match self.queries.get_mut(fp) {
                Some(existing) => existing.fold_profile(profile),
                None => {
                    self.queries.insert(*fp, profile.clone());
                }
            }
        }
    }

    /// Total executions across every fingerprint.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.queries.values().map(|p| p.executions).sum()
    }
}

/// One record of the hot-join ranking: a distinct join edge and the
/// cumulative access cost the workload spent on it. This is exactly the
/// `(relation pair, probe attrs, cumulative cost)` input the merge
/// advisor consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotJoin {
    /// The join edge (relation pair + probe attrs).
    pub edge: JoinEdge,
    /// Executions that exercised this edge.
    pub executions: u64,
    /// Index probes spent on the edge.
    pub index_probes: u64,
    /// Rows scanned on the edge.
    pub rows_scanned: u64,
    /// Transient hash builds on the edge.
    pub hash_builds: u64,
    /// Rows the edge emitted.
    pub rows_out: u64,
    /// Intermediate bytes the edge materialized.
    pub intermediate_bytes: u64,
    /// The ranking key: `index_probes + rows_scanned` — the access work
    /// merging this edge away would eliminate.
    pub cumulative_cost: u64,
}

/// Ranks every distinct join edge in `snapshot` by cumulative access
/// cost (probes + scanned rows), descending; ties break lexicographically
/// on the edge, so equal workloads produce identical rankings.
#[must_use]
pub fn report(snapshot: &ProfileSnapshot) -> Vec<HotJoin> {
    let mut by_edge: BTreeMap<JoinEdge, HotJoin> = BTreeMap::new();
    for profile in snapshot.queries.values() {
        for (edge, cost) in profile.shape.edges.iter().zip(&profile.edge_costs) {
            let entry = by_edge.entry(edge.clone()).or_insert_with(|| HotJoin {
                edge: edge.clone(),
                executions: 0,
                index_probes: 0,
                rows_scanned: 0,
                hash_builds: 0,
                rows_out: 0,
                intermediate_bytes: 0,
                cumulative_cost: 0,
            });
            entry.executions += profile.executions;
            entry.index_probes += cost.index_probes;
            entry.rows_scanned += cost.rows_scanned;
            entry.hash_builds += cost.hash_builds;
            entry.rows_out += cost.rows_out;
            entry.intermediate_bytes += cost.intermediate_bytes;
        }
    }
    let mut out: Vec<HotJoin> = by_edge
        .into_values()
        .map(|mut h| {
            h.cumulative_cost = h.index_probes + h.rows_scanned;
            h
        })
        .collect();
    // BTreeMap iteration gave lexicographic edge order; the stable sort
    // keeps it as the tie-break under the cost ranking.
    out.sort_by_key(|h| std::cmp::Reverse(h.cumulative_cost));
    out
}

/// The report → advisor bridge: the hot-join ranking of a
/// [`ProfileSnapshot`], packaged with the aggregate queries a merge
/// advisor asks of it — which relations the workload joins at all, and
/// how much access cost it spent between any two of them. Deterministic
/// for a given snapshot (same ordering guarantees as [`report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinEvidence {
    /// Every distinct join edge the workload exercised, hottest first
    /// (exactly [`report`]'s output).
    pub edges: Vec<HotJoin>,
}

impl JoinEvidence {
    /// Distills `snapshot` into ranked per-edge evidence.
    #[must_use]
    pub fn from_snapshot(snapshot: &ProfileSnapshot) -> Self {
        JoinEvidence {
            edges: report(snapshot),
        }
    }

    /// True when the workload exercised no join edge at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The cumulative cost the workload spent joining `a` with `b`, in
    /// either direction, summed across all probe-attribute variants of
    /// the edge.
    #[must_use]
    pub fn cost_between(&self, a: &str, b: &str) -> u64 {
        self.edges
            .iter()
            .filter(|h| {
                (h.edge.left == a && h.edge.right == b) || (h.edge.left == b && h.edge.right == a)
            })
            .map(|h| h.cumulative_cost)
            .sum()
    }

    /// Every relation that appears on some join edge, sorted.
    #[must_use]
    pub fn relations(&self) -> std::collections::BTreeSet<&str> {
        self.edges
            .iter()
            .flat_map(|h| [h.edge.left.as_str(), h.edge.right.as_str()])
            .collect()
    }
}

/// Renders a [`ProfileSnapshot`] as aligned text, one block per
/// fingerprint, ordered by fingerprint.
#[must_use]
pub fn profile_to_text(snapshot: &ProfileSnapshot) -> String {
    let mut out = String::new();
    for profile in snapshot.queries.values() {
        let t = &profile.totals;
        let _ = writeln!(
            out,
            "fingerprint {:016x}  {}  executions={}",
            profile.shape.fingerprint, profile.shape.label, profile.executions
        );
        let _ = writeln!(
            out,
            "  probes={} scanned={} builds={} rows_out={} morsels={}",
            t.index_probes, t.rows_scanned, t.hash_builds, t.rows_out, t.morsels
        );
        let _ = writeln!(
            out,
            "  intermediate_bytes={} peak={} cache hit/miss={}/{} wall mean={}ns",
            t.intermediate_bytes,
            t.peak_intermediate_bytes,
            t.build_cache_hits,
            t.build_cache_misses,
            profile.latency.mean()
        );
        for (edge, cost) in profile.shape.edges.iter().zip(&profile.edge_costs) {
            let _ = writeln!(
                out,
                "  edge {}  probes={} scanned={} builds={} rows_out={} bytes={}",
                edge.label(),
                cost.index_probes,
                cost.rows_scanned,
                cost.hash_builds,
                cost.rows_out,
                cost.intermediate_bytes
            );
        }
    }
    out
}

/// Renders a [`ProfileSnapshot`] as stable JSON (fingerprint order), in
/// the same hand-rolled style as [`to_json`](crate::to_json).
#[must_use]
pub fn profile_to_json(snapshot: &ProfileSnapshot) -> String {
    let mut out = String::from("{\"queries\":[");
    for (i, profile) in snapshot.queries.values().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let t = &profile.totals;
        let _ = write!(
            out,
            "{{\"fingerprint\":\"{:016x}\",\"label\":\"{}\",\"root\":\"{}\",\
             \"executions\":{},\"rows_scanned\":{},\"index_probes\":{},\
             \"hash_builds\":{},\"rows_out\":{},\"morsels\":{},\
             \"intermediate_bytes\":{},\"peak_intermediate_bytes\":{},\
             \"build_cache_hits\":{},\"build_cache_misses\":{},\
             \"build_cache_evicted_bytes\":{},\"wall_ns\":{},\
             \"latency_mean_ns\":{},\"edges\":[",
            profile.shape.fingerprint,
            json_escape(&profile.shape.label),
            json_escape(&profile.shape.root),
            profile.executions,
            t.rows_scanned,
            t.index_probes,
            t.hash_builds,
            t.rows_out,
            t.morsels,
            t.intermediate_bytes,
            t.peak_intermediate_bytes,
            t.build_cache_hits,
            t.build_cache_misses,
            t.build_cache_evicted_bytes,
            t.wall_ns,
            profile.latency.mean(),
        );
        for (j, (edge, cost)) in profile
            .shape
            .edges
            .iter()
            .zip(&profile.edge_costs)
            .enumerate()
        {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"left\":\"{}\",\"right\":\"{}\",\"probe_attrs\":[{}],\
                 \"index_probes\":{},\"rows_scanned\":{},\"hash_builds\":{},\
                 \"rows_out\":{},\"intermediate_bytes\":{}}}",
                json_escape(&edge.left),
                json_escape(&edge.right),
                join_quoted(&edge.probe_attrs),
                cost.index_probes,
                cost.rows_scanned,
                cost.hash_builds,
                cost.rows_out,
                cost.intermediate_bytes
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders a hot-join ranking as aligned text, hottest first.
#[must_use]
pub fn report_to_text(report: &[HotJoin]) -> String {
    let mut out = String::new();
    for (rank, h) in report.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{:<3} {}  cost={} (probes={} scanned={})  executions={} builds={} bytes={}",
            rank + 1,
            h.edge.label(),
            h.cumulative_cost,
            h.index_probes,
            h.rows_scanned,
            h.executions,
            h.hash_builds,
            h.intermediate_bytes
        );
    }
    out
}

/// Renders a hot-join ranking as stable JSON, hottest first — the
/// machine-readable contract with the merge advisor.
#[must_use]
pub fn report_to_json(report: &[HotJoin]) -> String {
    let mut out = String::from("{\"hot_joins\":[");
    for (i, h) in report.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"left\":\"{}\",\"right\":\"{}\",\"probe_attrs\":[{}],\
             \"cumulative_cost\":{},\"index_probes\":{},\"rows_scanned\":{},\
             \"hash_builds\":{},\"rows_out\":{},\"executions\":{},\
             \"intermediate_bytes\":{}}}",
            json_escape(&h.edge.left),
            json_escape(&h.edge.right),
            join_quoted(&h.edge.probe_attrs),
            h.cumulative_cost,
            h.index_probes,
            h.rows_scanned,
            h.hash_builds,
            h.rows_out,
            h.executions,
            h.intermediate_bytes
        );
    }
    out.push_str("]}");
    out
}

fn join_quoted(items: &[String]) -> String {
    items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(fp: u64) -> QueryShape {
        QueryShape {
            fingerprint: fp,
            label: format!("shape-{fp}"),
            root: "COURSE".to_owned(),
            edges: vec![
                JoinEdge {
                    left: "COURSE".to_owned(),
                    right: "OFFER".to_owned(),
                    probe_attrs: vec!["O.C.NR".to_owned()],
                },
                JoinEdge {
                    left: "OFFER".to_owned(),
                    right: "TEACH".to_owned(),
                    probe_attrs: vec!["T.C.NR".to_owned()],
                },
            ],
        }
    }

    fn cost(probes: u64, scanned: u64, bytes: u64, wall: u64) -> QueryCost {
        QueryCost {
            rows_scanned: scanned,
            index_probes: probes,
            hash_builds: 1,
            rows_out: 10,
            morsels: 2,
            intermediate_bytes: bytes,
            peak_intermediate_bytes: bytes / 2,
            build_cache_hits: 1,
            build_cache_misses: 0,
            build_cache_evicted_bytes: 0,
            wall_ns: wall,
        }
    }

    fn edges(probes: u64, scanned: u64) -> Vec<EdgeCost> {
        vec![
            EdgeCost {
                index_probes: probes,
                rows_scanned: 0,
                hash_builds: 0,
                rows_out: 10,
                intermediate_bytes: 160,
            },
            EdgeCost {
                index_probes: 0,
                rows_scanned: scanned,
                hash_builds: 1,
                rows_out: 10,
                intermediate_bytes: 320,
            },
        ]
    }

    #[test]
    fn profiler_folds_totals_and_peaks() {
        let p = Profiler::new();
        p.record(7, || shape(7), &cost(4, 100, 1_000, 500), &edges(4, 100));
        p.record(
            7,
            || unreachable!("built once"),
            &cost(6, 50, 400, 1_500),
            &edges(6, 50),
        );
        let snap = p.snapshot();
        assert_eq!(snap.queries.len(), 1);
        let prof = &snap.queries[&7];
        assert_eq!(prof.executions, 2);
        assert_eq!(prof.totals.index_probes, 10);
        assert_eq!(prof.totals.rows_scanned, 150);
        assert_eq!(prof.totals.intermediate_bytes, 1_400);
        // Peak is maxed across executions, not summed.
        assert_eq!(prof.totals.peak_intermediate_bytes, 500);
        assert_eq!(prof.latency.count, 2);
        assert_eq!(prof.latency.sum, 2_000);
        assert_eq!(prof.edge_costs[0].index_probes, 10);
        assert_eq!(prof.edge_costs[1].rows_scanned, 150);
        assert_eq!(snap.executions(), 2);
    }

    #[test]
    fn snapshot_merge_folds_matching_fingerprints() {
        // Two profilers that split a workload merge into the profile of
        // one profiler that saw all of it.
        let (a, b, whole) = (Profiler::new(), Profiler::new(), Profiler::new());
        for (p, runs) in [(&a, &[(1, 4, 0)][..]), (&b, &[(1, 2, 8), (9, 1, 1)][..])] {
            for &(fp, probes, scanned) in runs {
                let c = cost(probes, scanned, 50, 10);
                p.record(fp, || shape(fp), &c, &edges(probes, scanned));
                whole.record(fp, || shape(fp), &c, &edges(probes, scanned));
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
        assert_eq!(merged.queries[&1].executions, 2);
        assert_eq!(merged.queries[&1].totals.index_probes, 6);
        assert_eq!(merged.queries[&1].latency.count, 2);
        assert_eq!(merged.executions(), 3);
    }

    #[test]
    fn report_ranks_edges_by_cumulative_cost() {
        let p = Profiler::new();
        // Two shapes sharing the COURSE->OFFER edge; TEACH edge is
        // scan-heavy and must rank first.
        p.record(1, || shape(1), &cost(4, 100, 100, 10), &edges(4, 100));
        p.record(2, || shape(2), &cost(4, 100, 100, 10), &edges(4, 100));
        let ranking = report(&p.snapshot());
        assert_eq!(ranking.len(), 2);
        assert_eq!(ranking[0].edge.right, "TEACH");
        assert_eq!(ranking[0].cumulative_cost, 200);
        assert_eq!(ranking[0].hash_builds, 2);
        assert_eq!(ranking[1].edge.right, "OFFER");
        assert_eq!(ranking[1].cumulative_cost, 8);
        assert_eq!(ranking[1].executions, 2);
        // Totals across the ranking equal the per-fingerprint edge sums.
        let total_probes: u64 = ranking.iter().map(|h| h.index_probes).sum();
        assert_eq!(total_probes, 8);
    }

    #[test]
    fn exports_are_stable_and_carry_the_contract_fields() {
        let p = Profiler::new();
        p.record(3, || shape(3), &cost(4, 100, 1_000, 10), &edges(4, 100));
        let snap = p.snapshot();
        let ranking = report(&snap);

        let json = report_to_json(&ranking);
        assert!(json.starts_with("{\"hot_joins\":["));
        assert!(json.contains("\"left\":\"OFFER\""));
        assert!(json.contains("\"right\":\"TEACH\""));
        assert!(json.contains("\"probe_attrs\":[\"T.C.NR\"]"));
        assert!(json.contains("\"cumulative_cost\":100"));
        assert!(json.contains("\"intermediate_bytes\":320"));

        let pj = profile_to_json(&snap);
        assert!(pj.contains("\"fingerprint\":\"0000000000000003\""));
        assert!(pj.contains("\"peak_intermediate_bytes\":500"));
        assert!(pj.contains("\"edges\":["));

        let text = profile_to_text(&snap);
        assert!(text.contains("fingerprint 0000000000000003"), "{text}");
        assert!(text.contains("edge COURSE->OFFER[O.C.NR]"), "{text}");
        let rt = report_to_text(&ranking);
        assert!(rt.starts_with("#1"), "{rt}");

        // Determinism: identical workloads render identically.
        let q = Profiler::new();
        q.record(3, || shape(3), &cost(4, 100, 1_000, 10), &edges(4, 100));
        assert_eq!(report_to_json(&report(&q.snapshot())), json);
    }
}
