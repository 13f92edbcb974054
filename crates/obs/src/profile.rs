//! The workload profiler: a ledger of the join edges a workload executes
//! and the access cost it spent on each.
//!
//! The engine charges every join step of every executed query to its
//! [`JoinEdge`] — `(left relation, right relation, probe attrs)` — in a
//! [`Profiler`]: one [`HotJoin`] entry per distinct edge, summed across
//! the whole workload. A [`ProfileSnapshot`] is that ledger ranked
//! hottest first, by cumulative probe + scan cost; ties break
//! lexicographically on the edge, so equal workloads produce identical
//! rankings. The merge advisor reads one number from it:
//! [`ProfileSnapshot::cost_between`] two relations.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::export::json_escape;

/// One join edge: the relation pair and the attributes the right side is
/// probed (or hash-built) on.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
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

/// What one execution of one join step cost, as the engine charges it to
/// the step's edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCost {
    /// Index probes the step issued.
    pub index_probes: u64,
    /// Rows the step scanned (its hash build's scan).
    pub rows_scanned: u64,
    /// Transient hash builds of the step.
    pub hash_builds: u64,
    /// Rows the step emitted.
    pub rows_out: u64,
    /// Intermediate bytes the step materialized (slot rows + builds).
    pub intermediate_bytes: u64,
}

/// One ledger entry: a distinct join edge and the cumulative access cost
/// the workload spent on it. This is exactly the `(relation pair, probe
/// attrs, cumulative cost)` input the merge advisor consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotJoin {
    /// The join edge (relation pair + probe attrs).
    pub edge: JoinEdge,
    /// Join steps executed on this edge.
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
    /// merging this edge away would eliminate. Set when a snapshot is
    /// ranked.
    pub cumulative_cost: u64,
}

impl HotJoin {
    /// Charges `executions` join steps costing `cost` in total to this
    /// edge.
    fn charge(&mut self, executions: u64, cost: &EdgeCost) {
        self.executions += executions;
        self.index_probes += cost.index_probes;
        self.rows_scanned += cost.rows_scanned;
        self.hash_builds += cost.hash_builds;
        self.rows_out += cost.rows_out;
        self.intermediate_bytes += cost.intermediate_bytes;
    }
}

/// The per-workload join ledger: one [`HotJoin`] per distinct edge. One
/// lives on each `engine::Database` (shared by its forks and snapshot
/// handles until a migration archives it and gives the migrated database
/// a fresh one). Recording takes one lock per query, and an edge already in
/// the ledger is found by its borrowed names, so it allocates nothing.
#[derive(Debug, Default)]
pub struct Profiler {
    ledger: Mutex<Vec<HotJoin>>,
}

impl Profiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Charges one query's join steps to their edges: each step is its
    /// `(left, right, probe_attrs)` and the [`EdgeCost`] it spent.
    pub fn record<'a>(
        &self,
        steps: impl IntoIterator<Item = (&'a str, &'a str, &'a [String], EdgeCost)>,
    ) {
        let mut ledger = self.ledger();
        for (left, right, probe_attrs, cost) in steps {
            let found = ledger.iter().position(|h| {
                h.edge.left == left && h.edge.right == right && h.edge.probe_attrs == probe_attrs
            });
            let i = found.unwrap_or_else(|| {
                ledger.push(HotJoin {
                    edge: JoinEdge {
                        left: left.to_owned(),
                        right: right.to_owned(),
                        probe_attrs: probe_attrs.to_vec(),
                    },
                    ..HotJoin::default()
                });
                ledger.len() - 1
            });
            ledger[i].charge(1, &cost);
        }
    }

    /// A point-in-time copy of the ledger, ranked.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot::ranked(self.ledger().clone())
    }

    /// The ledger, locked. Poisoning is ignored deliberately: a charge
    /// only adds to independent counters, so a ledger poisoned mid-charge
    /// still holds valid entries.
    fn ledger(&self) -> MutexGuard<'_, Vec<HotJoin>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Point-in-time state of a [`Profiler`]: every join edge the workload
/// executed, hottest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// The ledger's entries, by cumulative cost descending; ties break
    /// lexicographically on the edge.
    pub hot_joins: Vec<HotJoin>,
}

impl ProfileSnapshot {
    /// The one place the ranking is made.
    fn ranked(mut hot_joins: Vec<HotJoin>) -> Self {
        for h in &mut hot_joins {
            h.cumulative_cost = h.index_probes + h.rows_scanned;
        }
        hot_joins.sort_by(|a, b| {
            b.cumulative_cost
                .cmp(&a.cumulative_cost)
                .then_with(|| a.edge.cmp(&b.edge))
        });
        ProfileSnapshot { hot_joins }
    }

    /// Folds `other` into `self` (matching edges add field-wise, new edges
    /// are inserted) and re-ranks — the same semantics as
    /// [`Snapshot::merge`](crate::Snapshot::merge).
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        let mut all = std::mem::take(&mut self.hot_joins);
        for h in &other.hot_joins {
            match all.iter_mut().find(|m| m.edge == h.edge) {
                Some(m) => m.charge(
                    h.executions,
                    &EdgeCost {
                        index_probes: h.index_probes,
                        rows_scanned: h.rows_scanned,
                        hash_builds: h.hash_builds,
                        rows_out: h.rows_out,
                        intermediate_bytes: h.intermediate_bytes,
                    },
                ),
                None => all.push(h.clone()),
            }
        }
        *self = ProfileSnapshot::ranked(all);
    }

    /// The cumulative cost the workload spent joining `a` with `b`, in
    /// either direction, summed across all probe-attribute variants of
    /// the edge.
    #[must_use]
    pub fn cost_between(&self, a: &str, b: &str) -> u64 {
        self.hot_joins
            .iter()
            .filter(|h| {
                (h.edge.left == a && h.edge.right == b) || (h.edge.left == b && h.edge.right == a)
            })
            .map(|h| h.cumulative_cost)
            .sum()
    }
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
        let attrs = h
            .edge
            .probe_attrs
            .iter()
            .map(|s| format!("\"{}\"", json_escape(s)))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            "{{\"left\":\"{}\",\"right\":\"{}\",\"probe_attrs\":[{attrs}],\
             \"cumulative_cost\":{},\"index_probes\":{},\"rows_scanned\":{},\
             \"hash_builds\":{},\"rows_out\":{},\"executions\":{},\
             \"intermediate_bytes\":{}}}",
            json_escape(&h.edge.left),
            json_escape(&h.edge.right),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(a: &str) -> Vec<String> {
        vec![a.to_owned()]
    }

    /// One query over COURSE -> OFFER -> TEACH: the OFFER step probes, the
    /// TEACH step scans a build.
    fn run(p: &Profiler, probes: u64, scanned: u64) {
        let (o, t) = (attrs("O.C.NR"), attrs("T.C.NR"));
        p.record([
            (
                "COURSE",
                "OFFER",
                &o[..],
                EdgeCost {
                    index_probes: probes,
                    rows_out: 10,
                    intermediate_bytes: 160,
                    ..EdgeCost::default()
                },
            ),
            (
                "OFFER",
                "TEACH",
                &t[..],
                EdgeCost {
                    rows_scanned: scanned,
                    hash_builds: 1,
                    rows_out: 10,
                    intermediate_bytes: 320,
                    ..EdgeCost::default()
                },
            ),
        ]);
    }

    #[test]
    fn ledger_ranks_edges_by_cumulative_cost() {
        let p = Profiler::new();
        run(&p, 4, 100);
        run(&p, 6, 50);
        let snap = p.snapshot();
        let ranking = &snap.hot_joins;
        assert_eq!(ranking.len(), 2);
        // The scan-heavy TEACH edge ranks first.
        assert_eq!(ranking[0].edge.right, "TEACH");
        assert_eq!(ranking[0].cumulative_cost, 150);
        assert_eq!(ranking[0].hash_builds, 2);
        assert_eq!(ranking[0].intermediate_bytes, 640);
        assert_eq!(ranking[1].edge.right, "OFFER");
        assert_eq!(ranking[1].cumulative_cost, 10);
        assert_eq!(ranking[1].executions, 2);
        assert_eq!(snap.cost_between("TEACH", "OFFER"), 150);
        assert_eq!(snap.cost_between("COURSE", "TEACH"), 0);
        // A probe-attribute variant of an edge is its own entry, and
        // `cost_between` sums the variants.
        p.record([(
            "COURSE",
            "OFFER",
            &attrs("O.D")[..],
            EdgeCost {
                index_probes: 3,
                ..EdgeCost::default()
            },
        )]);
        let snap = p.snapshot();
        assert_eq!(snap.hot_joins.len(), 3);
        assert_eq!(snap.cost_between("OFFER", "COURSE"), 13);
        // Equal costs break ties on the edge's lexicographic order.
        let q = Profiler::new();
        let k = attrs("K");
        let one = EdgeCost {
            index_probes: 1,
            ..EdgeCost::default()
        };
        q.record([("B", "C", &k[..], one), ("A", "C", &k[..], one)]);
        let lefts: Vec<_> = q
            .snapshot()
            .hot_joins
            .iter()
            .map(|h| h.edge.left.clone())
            .collect();
        assert_eq!(lefts, ["A", "B"]);
    }

    #[test]
    fn snapshot_merge_folds_matching_edges() {
        // Two profilers that split a workload merge into the snapshot of
        // one profiler that saw all of it.
        let (a, b, whole) = (Profiler::new(), Profiler::new(), Profiler::new());
        for (p, runs) in [(&a, &[(4, 0)][..]), (&b, &[(2, 8), (1, 1)][..])] {
            for &(probes, scanned) in runs {
                run(p, probes, scanned);
                run(&whole, probes, scanned);
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
        assert_eq!(merged.hot_joins[0].executions, 3);
    }

    #[test]
    fn exports_are_stable_and_carry_the_contract_fields() {
        let p = Profiler::new();
        run(&p, 4, 100);
        let ranking = p.snapshot().hot_joins;

        let json = report_to_json(&ranking);
        assert!(json.starts_with("{\"hot_joins\":["));
        assert!(json.contains("\"left\":\"OFFER\""));
        assert!(json.contains("\"right\":\"TEACH\""));
        assert!(json.contains("\"probe_attrs\":[\"T.C.NR\"]"));
        assert!(json.contains("\"cumulative_cost\":100"));
        assert!(json.contains("\"intermediate_bytes\":320"));
        let rt = report_to_text(&ranking);
        assert!(rt.starts_with("#1"), "{rt}");
        assert!(rt.contains("COURSE->OFFER[O.C.NR]"), "{rt}");

        // Determinism: identical workloads render identically.
        let q = Profiler::new();
        run(&q, 4, 100);
        assert_eq!(report_to_json(&q.snapshot().hot_joins), json);
    }
}
