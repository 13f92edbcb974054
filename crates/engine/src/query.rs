//! A morsel-parallel query executor with cost counters.
//!
//! The point (paper §1): *"decreasing the number of relations in a database
//! by merging relations reduces the need for joining relations, and usually
//! results in a better access performance."* The executor runs the same
//! logical retrieval against merged and unmerged schemas — a point lookup
//! or scan over a single merged relation versus an N-way join — and counts
//! the rows and index probes each needs, so the benches can report the
//! speedup *shape* the paper asserts.
//!
//! # Execution model
//!
//! The root access produces *borrowed* row slots (no tuple is cloned on
//! the scan path). A predicate over root attributes alone is pushed down:
//! it runs before the join pipeline, morsel-parallel on the worker pool,
//! with survivors reassembled in chunk order. The join pipeline is then
//! compiled once: each step picks a strategy via
//! [`crate::planner::choose_join_strategy`] — index-nested-loop for small
//! left inputs with a covering index, hash join (borrowing an index, or
//! building a transient table via the partitioned parallel builder in
//! the crate-private `build` module, reused through the versioned
//! build-side cache)
//! otherwise — and any hash builds happen before fan-out so cost counters
//! are identical at every parallelism level, cache on or off. The root
//! rows are partitioned
//! into fixed-size morsels ([`Database::morsel_rows`]) claimed by up to
//! [`Database::parallelism`] scoped worker threads; intermediate rows are
//! arrays of borrowed slots, materialized exactly once per surviving row.
//! Morsel outputs are reassembled in morsel order, so the result is
//! deterministic and byte-identical to serial execution.
//!
//! [`Database::execute_traced`] additionally returns a [`QueryTrace`]: an
//! EXPLAIN-ANALYZE-style operator breakdown (rows in/out, index probes,
//! rows scanned, hash builds, wall time per access/join/filter/project
//! step) whose per-operator counters sum exactly to the [`QueryStats`]
//! totals — per-worker counters merge back into their operator.

use std::collections::HashMap;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use relmerge_obs::{self as obs};
use relmerge_relational::{Attribute, Error, Relation, Result, Tuple, Value};

use crate::build::{build_owned, BuildKey, OwnedBuild};
use crate::database::Database;
use crate::fault::{panic_message, site, BudgetTracker};
use crate::planner::{choose_build_parallelism, choose_join_strategy, JoinStrategy};

/// A selection predicate over the attributes visible at its evaluation
/// point (the joined row, before projection). Three-valued logic is not
/// modelled: `Eq` on a null operand is simply false (`IsNull` exists for
/// null tests), matching the engine's identical-nulls regime.
///
/// `Eq + Hash` are derived because the exact predicate pushed into a hash
/// build is part of the build-cache key (see `crate::build`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// `attr = value` (false when the attribute is null, unless the value
    /// itself is the null literal).
    Eq(String, Value),
    /// `attr IS NULL`.
    IsNull(String),
    /// `attr IS NOT NULL`.
    NotNull(String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr = value`.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq(attr.into(), value.into())
    }

    /// `attr IS NULL`.
    pub fn is_null(attr: impl Into<String>) -> Self {
        Predicate::IsNull(attr.into())
    }

    /// `attr IS NOT NULL`.
    pub fn not_null(attr: impl Into<String>) -> Self {
        Predicate::NotNull(attr.into())
    }

    /// `self AND other`.
    #[must_use]
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    #[must_use]
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn negate(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Compiles `self` once against `header` for repeated row evaluation.
    /// Convenience for [`CompiledPredicate::compile`].
    pub fn compile(&self, header: &[Attribute]) -> Result<CompiledPredicate> {
        CompiledPredicate::compile(self, header)
    }
}

/// A [`Predicate`] with attribute positions resolved against a header,
/// so workers evaluate it on materialized value rows infallibly. Compile
/// once, evaluate per row.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    node: CompiledNode,
}

/// The resolved tree behind a [`CompiledPredicate`].
#[derive(Debug, Clone)]
enum CompiledNode {
    Eq(usize, Value),
    IsNull(usize),
    NotNull(usize),
    And(Box<CompiledNode>, Box<CompiledNode>),
    Or(Box<CompiledNode>, Box<CompiledNode>),
    Not(Box<CompiledNode>),
}

impl CompiledPredicate {
    /// Resolves every attribute of `p` against `header` (first match
    /// wins), failing with [`Error::UnknownAttribute`] on any miss.
    pub fn compile(p: &Predicate, header: &[Attribute]) -> Result<CompiledPredicate> {
        Ok(CompiledPredicate {
            node: CompiledNode::compile(p, header)?,
        })
    }

    /// Whether `row` (laid out per the compile-time header) satisfies the
    /// predicate.
    #[must_use]
    pub fn matches(&self, row: &[Value]) -> bool {
        self.node.matches(row)
    }
}

impl CompiledNode {
    fn compile(p: &Predicate, header: &[Attribute]) -> Result<CompiledNode> {
        let pos = |attr: &str| -> Result<usize> {
            header
                .iter()
                .position(|a| a.name() == attr)
                .ok_or_else(|| Error::UnknownAttribute {
                    attribute: attr.to_owned(),
                    context: "predicate".to_owned(),
                })
        };
        Ok(match p {
            Predicate::Eq(attr, value) => CompiledNode::Eq(pos(attr)?, value.clone()),
            Predicate::IsNull(attr) => CompiledNode::IsNull(pos(attr)?),
            Predicate::NotNull(attr) => CompiledNode::NotNull(pos(attr)?),
            Predicate::And(a, b) => CompiledNode::And(
                Box::new(Self::compile(a, header)?),
                Box::new(Self::compile(b, header)?),
            ),
            Predicate::Or(a, b) => CompiledNode::Or(
                Box::new(Self::compile(a, header)?),
                Box::new(Self::compile(b, header)?),
            ),
            Predicate::Not(a) => CompiledNode::Not(Box::new(Self::compile(a, header)?)),
        })
    }

    fn matches(&self, row: &[Value]) -> bool {
        match self {
            CompiledNode::Eq(pos, value) => row[*pos] == *value,
            CompiledNode::IsNull(pos) => row[*pos].is_null(),
            CompiledNode::NotNull(pos) => !row[*pos].is_null(),
            CompiledNode::And(a, b) => a.matches(row) && b.matches(row),
            CompiledNode::Or(a, b) => a.matches(row) || b.matches(row),
            CompiledNode::Not(a) => !a.matches(row),
        }
    }
}

/// Counters accumulated by one query execution. Identical at every
/// [`Database::parallelism`] level: join strategies and hash builds are
/// decided before fan-out, and per-morsel counters merge commutatively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows read by scans (root scans and hash build-side scans).
    pub rows_scanned: u64,
    /// Hash-index probes issued by index-nested-loop steps and root
    /// lookups.
    pub index_probes: u64,
    /// Join steps performed.
    pub joins: u64,
    /// Rows in the result.
    pub rows_output: u64,
    /// Hash tables built (or borrowed from an index) as join build sides.
    pub hash_builds: u64,
    /// Morsels the root rows were partitioned into.
    pub morsels: u64,
    /// Approximate bytes of intermediate state this query materialized:
    /// borrowed slot rows emitted by join steps, transient hash builds,
    /// and the materialized output rows. Deterministic at every
    /// parallelism level and identical whether a build ran cold or came
    /// from the cache.
    pub intermediate_bytes: u64,
    /// The largest single-operator contribution to `intermediate_bytes` —
    /// the high-water mark a memory budget should reason about. Maxed,
    /// not summed, when stats are merged.
    pub peak_intermediate_bytes: u64,
}

impl QueryStats {
    /// Folds `other` into `self` field-wise (`rows_output` adds too, which
    /// is the useful reading when aggregating a batch of queries).
    pub fn merge(&mut self, other: &QueryStats) {
        *self += *other;
    }
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.rows_scanned += rhs.rows_scanned;
        self.index_probes += rhs.index_probes;
        self.joins += rhs.joins;
        self.rows_output += rhs.rows_output;
        self.hash_builds += rhs.hash_builds;
        self.morsels += rhs.morsels;
        self.intermediate_bytes += rhs.intermediate_bytes;
        self.peak_intermediate_bytes = self
            .peak_intermediate_bytes
            .max(rhs.peak_intermediate_bytes);
    }
}

impl Add for QueryStats {
    type Output = QueryStats;

    fn add(mut self, rhs: QueryStats) -> QueryStats {
        self += rhs;
        self
    }
}

/// How the root relation of a plan is accessed.
#[derive(Debug, Clone)]
pub enum Access {
    /// Read every row.
    FullScan,
    /// Fetch the rows matching `key` over `attrs` (index probe where an
    /// index exists).
    Lookup {
        /// Attribute names of the lookup key.
        attrs: Vec<String>,
        /// The key value.
        key: Tuple,
    },
}

/// One join step: probe `rel` with the values of `left_attrs` from the
/// running result, matching `right_attrs` in `rel`.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// The relation to join in.
    pub rel: String,
    /// Join attributes in the running result.
    pub left_attrs: Vec<String>,
    /// Join attributes in `rel`.
    pub right_attrs: Vec<String>,
    /// `true` keeps unmatched left rows padded with nulls (the outer join
    /// a merged relation encodes implicitly).
    pub outer: bool,
    /// The inclusion dependency that justified deriving this join, when the
    /// planner produced it (notation form, e.g. `OFFER[O.K] ⊆ COURSE[C.K]`).
    pub via_ind: Option<String>,
}

impl JoinStep {
    /// An inner-join step.
    pub fn inner(rel: impl Into<String>, left: &[&str], right: &[&str]) -> Self {
        JoinStep {
            rel: rel.into(),
            left_attrs: left.iter().map(|s| (*s).to_owned()).collect(),
            right_attrs: right.iter().map(|s| (*s).to_owned()).collect(),
            outer: false,
            via_ind: None,
        }
    }

    /// A left-outer-join step.
    pub fn outer(rel: impl Into<String>, left: &[&str], right: &[&str]) -> Self {
        let mut step = Self::inner(rel, left, right);
        step.outer = true;
        step
    }

    /// Records the inclusion dependency that justified this join.
    #[must_use]
    pub fn via(mut self, ind: impl Into<String>) -> Self {
        self.via_ind = Some(ind.into());
        self
    }
}

/// A left-deep query plan: access the root, then fold join steps, then
/// optionally project.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The root relation.
    pub root: String,
    /// Root access path.
    pub access: Access,
    /// Join steps, applied left to right.
    pub joins: Vec<JoinStep>,
    /// Selection applied to the joined rows, before projection.
    pub filter: Option<Predicate>,
    /// Output attributes (empty = all).
    pub project: Vec<String>,
}

impl QueryPlan {
    /// A full-scan plan over one relation.
    pub fn scan(root: impl Into<String>) -> Self {
        QueryPlan {
            root: root.into(),
            access: Access::FullScan,
            joins: Vec::new(),
            filter: None,
            project: Vec::new(),
        }
    }

    /// A key-lookup plan over one relation.
    pub fn lookup(root: impl Into<String>, attrs: &[&str], key: Tuple) -> Self {
        QueryPlan {
            root: root.into(),
            access: Access::Lookup {
                attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
                key,
            },
            joins: Vec::new(),
            filter: None,
            project: Vec::new(),
        }
    }

    /// Appends a join step.
    #[must_use]
    pub fn join(mut self, step: JoinStep) -> Self {
        self.joins.push(step);
        self
    }

    /// Sets the output projection.
    #[must_use]
    pub fn select(mut self, attrs: &[&str]) -> Self {
        self.project = attrs.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Sets the selection predicate (applied after joins, before
    /// projection).
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.filter = Some(predicate);
        self
    }
}

/// What one operator in a [`QueryTrace`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Root full scan.
    Scan,
    /// Root index lookup.
    Lookup,
    /// One join step (index-nested-loop or hash, see the label).
    Join,
    /// Selection predicate.
    Filter,
    /// Output projection.
    Project,
}

/// Per-operator counters in an EXPLAIN-ANALYZE trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Rows flowing into the operator.
    pub rows_in: u64,
    /// Rows flowing out of the operator.
    pub rows_out: u64,
    /// Rows this operator read by scanning.
    pub rows_scanned: u64,
    /// Hash-index probes this operator issued.
    pub index_probes: u64,
    /// Hash tables this operator built (or borrowed) as a build side.
    pub hash_builds: u64,
    /// Approximate intermediate bytes this operator materialized (slot
    /// rows for joins, transient build tables, output tuples for the
    /// materialize/filter step).
    pub intermediate_bytes: u64,
    /// Wall time spent in this operator (summed across workers).
    pub wall_ns: u64,
}

/// One operator of an executed plan, with its measured cost.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// The operator kind.
    pub kind: OpKind,
    /// Human-readable label, e.g. `Lookup COURSE [C.K]`.
    pub label: String,
    /// Measured counters.
    pub stats: OpStats,
}

/// An EXPLAIN-ANALYZE-style breakdown of one query execution: the
/// operators in execution order (root access first), each with rows
/// in/out, probes, scanned rows, and wall time. [`QueryTrace::totals`]
/// reconstructs the [`QueryStats`] the run reported — the per-operator
/// counters sum exactly to them, with per-worker (morsel) contributions
/// merged back into their operator.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Operators in execution order.
    pub ops: Vec<OpTrace>,
    /// Morsels the root rows were partitioned into.
    pub morsels: u64,
}

impl QueryTrace {
    /// Total wall time across operators.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.ops.iter().map(|o| o.stats.wall_ns).sum()
    }

    /// The [`QueryStats`] equivalent of this trace: scanned rows, index
    /// probes, and hash builds sum over operators, `joins` counts the join
    /// operators, and `rows_output` is the last operator's output
    /// cardinality.
    #[must_use]
    pub fn totals(&self) -> QueryStats {
        QueryStats {
            rows_scanned: self.ops.iter().map(|o| o.stats.rows_scanned).sum(),
            index_probes: self.ops.iter().map(|o| o.stats.index_probes).sum(),
            joins: self.ops.iter().filter(|o| o.kind == OpKind::Join).count() as u64,
            rows_output: self.ops.last().map_or(0, |o| o.stats.rows_out),
            hash_builds: self.ops.iter().map(|o| o.stats.hash_builds).sum(),
            morsels: self.morsels,
            intermediate_bytes: self.ops.iter().map(|o| o.stats.intermediate_bytes).sum(),
            peak_intermediate_bytes: self
                .ops
                .iter()
                .map(|o| o.stats.intermediate_bytes)
                .max()
                .unwrap_or(0),
        }
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for QueryTrace {
    /// EXPLAIN-ANALYZE layout: the outermost (last-executed) operator
    /// first, each input indented below it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (indent, op) in self.ops.iter().rev().enumerate() {
            let s = &op.stats;
            write!(
                f,
                "{}{}  (rows_in={} rows_out={}",
                "  ".repeat(indent),
                op.label,
                s.rows_in,
                s.rows_out
            )?;
            if s.index_probes > 0 {
                write!(f, " probes={}", s.index_probes)?;
            }
            if s.rows_scanned > 0 {
                write!(f, " scanned={}", s.rows_scanned)?;
            }
            if s.hash_builds > 0 {
                write!(f, " hash_builds={}", s.hash_builds)?;
            }
            if s.intermediate_bytes > 0 {
                write!(f, " bytes={}", s.intermediate_bytes)?;
            }
            writeln!(f, " time={})", format_ns(s.wall_ns))?;
        }
        Ok(())
    }
}

impl Database {
    /// Executes `plan`, returning the result relation and the cost
    /// counters.
    pub fn execute(&self, plan: &QueryPlan) -> Result<(Relation, QueryStats)> {
        let (relation, stats, _) = execute_impl(self, plan, false)?;
        Ok((relation, stats))
    }

    /// Executes `plan` like [`Database::execute`], additionally returning
    /// an EXPLAIN-ANALYZE-style [`QueryTrace`] whose per-operator counters
    /// sum to the returned [`QueryStats`].
    pub fn execute_traced(&self, plan: &QueryPlan) -> Result<(Relation, QueryStats, QueryTrace)> {
        let (relation, stats, trace) = execute_impl(self, plan, true)?;
        Ok((relation, stats, trace.expect("tracing requested")))
    }
}

/// How one compiled join step reaches its right-hand rows. Borrowed
/// variants point straight into the database's storage; `HashOwned` shares
/// a transient table built by scanning the right relation once (possibly
/// partition-parallel, possibly reused through the build-side cache).
enum RightAccess<'a> {
    /// Index-nested-loop through a unique index: one counted probe per
    /// total left row.
    Unique {
        map: &'a HashMap<Tuple, usize>,
        rows: &'a [Option<Tuple>],
    },
    /// Index-nested-loop through a secondary lookup index.
    Lookup {
        map: &'a HashMap<Tuple, Vec<usize>>,
        rows: &'a [Option<Tuple>],
    },
    /// Index-nested-loop with no covering index. The planner picks it
    /// only for a left side estimated at zero rows, which is provably
    /// empty, so it neither scans nor builds and no row ever probes it.
    Empty,
    /// Hash join borrowing a unique index as the prebuilt build side:
    /// probes are amortized by the build and not counted.
    HashUnique {
        map: &'a HashMap<Tuple, usize>,
        rows: &'a [Option<Tuple>],
    },
    /// Hash join borrowing a secondary lookup index as the build side.
    HashLookup {
        map: &'a HashMap<Tuple, Vec<usize>>,
        rows: &'a [Option<Tuple>],
    },
    /// Hash join over a transient table built by scanning the right
    /// relation once (counted as that one scan, whether the build ran cold
    /// or came from the versioned cache). The build maps keys to row
    /// *slots*, resolved against the borrowed storage rows at probe time.
    HashOwned {
        build: Arc<OwnedBuild>,
        rows: &'a [Option<Tuple>],
    },
}

/// One join step compiled against the database: strategy chosen, build
/// side ready, left attribute positions resolved to (source, column)
/// slots. Compilation happens before fan-out, so workers share it
/// immutably.
struct CompiledJoin<'a> {
    access: RightAccess<'a>,
    /// (source, column) of each left join attribute in the slot row.
    left_locs: Vec<(usize, usize)>,
    outer: bool,
    /// Build-side costs (hash builds, build scans, build wall time),
    /// attributed to this join's operator in the trace.
    build: OpStats,
    label: String,
    /// The strategy the planner chose — part of the query fingerprint.
    strategy: JoinStrategy,
    /// Build-cache interactions of this step (0/1 hit, 0/1 miss, bytes
    /// evicted by its insert), folded into the query's profile record.
    cache_hits: u64,
    cache_misses: u64,
    cache_evicted_bytes: u64,
    /// A conjunct pushed to this step's *probe side*: applied to every
    /// matched right row before it joins. `None` when the pushed conjunct
    /// was instead folded into the build (`HashOwned` filters while
    /// building) or when nothing was pushed here.
    pushed: Option<CompiledPredicate>,
    /// Post-pushdown selectivity evidence `(kept, live)` from one pass
    /// over the right table, fed to [`estimate_join_output`] so pushdown
    /// can flip the *next* step's strategy. `None` when nothing was
    /// pushed to this step.
    sel: Option<(usize, usize)>,
    /// Rows the pushed conjunct removed while building the hash side
    /// (charged per use, hit or cold, so the counter is cache-independent).
    build_pruned: u64,
}

/// An intermediate row: one borrowed slot per plan source (root, then one
/// per join step); `None` is an outer-join null pad.
type Row<'a> = Vec<Option<&'a Tuple>>;

/// What one morsel produced: materialized (and filtered) rows plus the
/// per-operator counters accumulated while producing them.
struct MorselOut {
    rows: Vec<Tuple>,
    /// Probe-side counters per join step (build costs live in
    /// [`CompiledJoin::build`]).
    per_join: Vec<OpStats>,
    /// Materialize + filter counters (`rows_in`/`rows_out`/`wall_ns`).
    filter: OpStats,
    /// Probe-key `Tuple` allocations avoided by probing with the borrowed
    /// value slice (one per total-key probe; the B10 summary reports the
    /// sum).
    saved_allocs: u64,
    /// Right rows removed by probe-side pushed conjuncts in this morsel.
    pruned: u64,
}

impl MorselOut {
    /// Intermediate bytes this morsel materialized (slot rows emitted by
    /// its join steps plus its materialized output rows) — what the
    /// intermediate-memory budget charges at the morsel boundary.
    fn intermediate_bytes(&self) -> u64 {
        self.per_join
            .iter()
            .map(|o| o.intermediate_bytes)
            .sum::<u64>()
            + self.filter.intermediate_bytes
    }
}

/// Runs the compiled join → materialize → filter pipeline over one morsel
/// of root rows. Infallible: every name was resolved at compile time.
fn run_morsel<'a>(
    morsel: &[&'a Tuple],
    joins: &[CompiledJoin<'a>],
    filter: Option<&CompiledPredicate>,
    widths: &[usize],
) -> MorselOut {
    let mut cur: Vec<Row<'a>> = morsel
        .iter()
        .map(|t| {
            let mut parts: Row<'a> = Vec::with_capacity(widths.len());
            parts.push(Some(*t));
            parts
        })
        .collect();
    let mut per_join = Vec::with_capacity(joins.len());
    let mut key_vals: Vec<Value> = Vec::new();
    let mut matches: Vec<&'a Tuple> = Vec::new();
    let mut saved_allocs: u64 = 0;
    let mut pruned: u64 = 0;
    for (ji, join) in joins.iter().enumerate() {
        let t0 = Instant::now();
        let mut op = OpStats {
            rows_in: cur.len() as u64,
            ..OpStats::default()
        };
        let mut next: Vec<Row<'a>> = Vec::with_capacity(cur.len());
        for mut row in cur {
            // Extract the left key; an outer-join pad or a null component
            // makes it non-total (no probe, old behavior).
            key_vals.clear();
            let mut total = true;
            for &(src, col) in &join.left_locs {
                match row[src] {
                    Some(t) if !t.get(col).is_null() => key_vals.push(t.get(col).clone()),
                    _ => {
                        total = false;
                        break;
                    }
                }
            }
            if !total {
                if join.outer {
                    row.push(None);
                    next.push(row);
                }
                continue;
            }
            // Probe with the borrowed value slice — `Tuple` hashes and
            // compares like its slice (`Borrow<[Value]>`), so no key tuple
            // is allocated; `key_vals` keeps its capacity across rows.
            saved_allocs += 1;
            let key = key_vals.as_slice();
            matches.clear();
            match &join.access {
                RightAccess::Unique { map, rows } => {
                    op.index_probes += 1;
                    matches.extend(map.get(key).and_then(|&s| rows[s].as_ref()));
                }
                RightAccess::HashUnique { map, rows } => {
                    matches.extend(map.get(key).and_then(|&s| rows[s].as_ref()));
                }
                RightAccess::Lookup { map, rows } => {
                    op.index_probes += 1;
                    if let Some(slots) = map.get(key) {
                        matches.extend(slots.iter().filter_map(|&s| rows[s].as_ref()));
                    }
                }
                RightAccess::HashLookup { map, rows } => {
                    if let Some(slots) = map.get(key) {
                        matches.extend(slots.iter().filter_map(|&s| rows[s].as_ref()));
                    }
                }
                RightAccess::Empty => {}
                RightAccess::HashOwned { build, rows } => {
                    if let Some(slots) = build.probe(key) {
                        matches.extend(slots.iter().filter_map(|&s| rows[s].as_ref()));
                    }
                }
            }
            // Apply the pushed conjunct at the probe site: a match that
            // fails it behaves exactly as if the index had never returned
            // it (an outer join null-pads instead). Soundness of placing a
            // conjunct here — including below an outer join — is decided
            // at plan time in `plan_pushdown`.
            if let Some(cp) = &join.pushed {
                let before = matches.len();
                matches.retain(|t| cp.matches(t.values()));
                pruned += (before - matches.len()) as u64;
            }
            if matches.is_empty() {
                if join.outer {
                    row.push(None);
                    next.push(row);
                }
            } else {
                let (last, rest) = matches.split_last().expect("non-empty");
                for &m in rest {
                    let mut r = row.clone();
                    r.push(Some(m));
                    next.push(r);
                }
                row.push(Some(*last));
                next.push(row);
            }
        }
        op.rows_out = next.len() as u64;
        // Slot-row footprint of this step's output: one borrowed slot per
        // source seen so far (root + ji + 1 joins). Depends only on
        // `rows_out`, so the sum across morsels is identical at every
        // worker count.
        op.intermediate_bytes =
            op.rows_out * ((ji + 2) * std::mem::size_of::<Option<&Tuple>>()) as u64;
        op.wall_ns = obs::elapsed_ns(t0);
        per_join.push(op);
        cur = next;
    }
    // Materialize each surviving row exactly once, applying the filter on
    // the freshly built values.
    let t0 = Instant::now();
    let mut fop = OpStats {
        rows_in: cur.len() as u64,
        ..OpStats::default()
    };
    let total_width: usize = widths.iter().sum();
    let mut out = Vec::with_capacity(cur.len());
    for parts in cur {
        let mut vals: Vec<Value> = Vec::with_capacity(total_width);
        for (si, w) in widths.iter().enumerate() {
            match parts[si] {
                Some(t) => vals.extend_from_slice(t.values()),
                None => vals.extend(std::iter::repeat_with(|| Value::Null).take(*w)),
            }
        }
        if let Some(p) = filter {
            if !p.matches(&vals) {
                continue;
            }
        }
        out.push(Tuple::new(vals));
    }
    fop.rows_out = out.len() as u64;
    // Materialized-output footprint: each surviving row owns a `Tuple`
    // holding `total_width` values.
    fop.intermediate_bytes = fop.rows_out
        * (std::mem::size_of::<Tuple>() + total_width * std::mem::size_of::<Value>()) as u64;
    fop.wall_ns = obs::elapsed_ns(t0);
    MorselOut {
        rows: out,
        per_join,
        filter: fop,
        saved_allocs,
        pruned,
    }
}

/// The evolving layout of the flattened join output: the combined
/// header, each attribute's (source slot, column) location, and the
/// width of every source relation. Seeded from the root scan and
/// extended by [`compile_join`] once per step.
struct FlatLayout {
    header: Vec<Attribute>,
    locs: Vec<(usize, usize)>,
    widths: Vec<usize>,
}

/// Compiles one join step: resolves the left attributes against the
/// evolving header, picks the strategy, and prepares (or borrows) the
/// build side. A transient build goes through the versioned cache — a hit
/// reuses the stored build and charges its stored costs, so `QueryStats`
/// are identical cold and warm; a miss builds (fanning out past
/// [`Database::build_parallel_threshold`]) and inserts. Extends
/// `layout` with the right relation's attributes.
///
/// `pushed` is the conjunction of filter conjuncts the pushdown planner
/// assigned to this step's right relation. A transient hash build folds
/// it into the build itself (fewer keys, fewer bytes, and a cache key
/// that records the predicate so a filtered build is never served to an
/// unfiltered probe); every other access path keeps it as a probe-side
/// check in [`CompiledJoin::pushed`].
fn compile_join<'a>(
    db: &'a Database,
    step: &JoinStep,
    layout: &mut FlatLayout,
    left_estimate: usize,
    pushed: Option<&Predicate>,
    budget: &BudgetTracker,
) -> Result<CompiledJoin<'a>> {
    let left_locs: Vec<(usize, usize)> = step
        .left_attrs
        .iter()
        .map(|n| {
            layout
                .header
                .iter()
                .position(|a| a.name() == n.as_str())
                .map(|p| layout.locs[p])
                .ok_or_else(|| Error::UnknownAttribute {
                    attribute: n.clone(),
                    context: format!("join input of `{}`", step.rel),
                })
        })
        .collect::<Result<_>>()?;
    let table = db
        .tables
        .get(&step.rel)
        .ok_or_else(|| Error::UnknownScheme(step.rel.clone()))?;
    let pos = table.positions(&step.right_attrs)?;
    let strategy = choose_join_strategy(db, &step.rel, &step.right_attrs, left_estimate)?;
    let cp = pushed
        .map(|p| CompiledPredicate::compile(p, &table.header))
        .transpose()?;
    // One pass over the stored rows measures the pushed conjunct's
    // selectivity, so the next step's strategy choice sees the shrunken
    // stream. Pre-fan-out and data-dependent only — deterministic across
    // morsel sizes and worker counts.
    let sel = cp.as_ref().map(|c| {
        let kept = table
            .rows
            .iter()
            .flatten()
            .filter(|t| c.matches(t.values()))
            .count();
        (kept, table.live)
    });
    let t0 = Instant::now();
    let mut build = OpStats::default();
    let mut build_note: Option<String> = None;
    let (mut cache_hits, mut cache_misses, mut cache_evicted_bytes) = (0u64, 0u64, 0u64);
    let access = match strategy {
        JoinStrategy::IndexNestedLoop => {
            if let Some((_, map)) = table.unique.iter().find(|(p, _)| *p == pos) {
                RightAccess::Unique {
                    map,
                    rows: &table.rows,
                }
            } else if let Some((_, map)) = table.lookups.get(&step.right_attrs) {
                RightAccess::Lookup {
                    map,
                    rows: &table.rows,
                }
            } else {
                RightAccess::Empty
            }
        }
        JoinStrategy::Hash => {
            build.hash_builds = 1;
            if let Some((_, map)) = table.unique.iter().find(|(p, _)| *p == pos) {
                RightAccess::HashUnique {
                    map,
                    rows: &table.rows,
                }
            } else if let Some((_, map)) = table.lookups.get(&step.right_attrs) {
                RightAccess::HashLookup {
                    map,
                    rows: &table.rows,
                }
            } else {
                // Transient build, through the versioned cache: a version
                // match proves the cached build still describes the stored
                // rows, so hits skip the scan entirely. The cache lock is
                // never held across the build or a fault site.
                let key = BuildKey {
                    rel: step.rel.clone(),
                    attrs: step.right_attrs.clone(),
                    version: table.version,
                    filter: pushed.cloned(),
                };
                let cached = db.build_cache_lock().get(&key);
                let owned = match cached {
                    Some(owned) => {
                        db.metrics.build_cache_hits.inc();
                        cache_hits = 1;
                        build_note = Some("build: cached".to_owned());
                        owned
                    }
                    None => {
                        db.metrics.build_cache_misses.inc();
                        cache_misses = 1;
                        let workers = choose_build_parallelism(db, table.live);
                        let owned = Arc::new(build_owned(
                            &table.rows,
                            &pos,
                            workers,
                            cp.as_ref(),
                            || db.fault_check(site::HASH_BUILD),
                        )?);
                        if owned.workers() > 1 {
                            db.metrics.parallel_builds.inc();
                            build_note = Some(format!("build: {} workers", owned.workers()));
                        } else {
                            build_note = Some("build: serial".to_owned());
                        }
                        // The insert-side fault site fires *before* the
                        // cache is touched: an injected error or panic
                        // fails this query and leaves the cache unmodified
                        // — never a poisoned entry.
                        catch_unwind(AssertUnwindSafe(|| {
                            db.fault_check(site::BUILD_CACHE_INSERT)
                        }))
                        .unwrap_or_else(|payload| {
                            Err(Error::ExecutionPanic {
                                context: panic_message(payload),
                            })
                        })?;
                        let (evicted, evicted_bytes) =
                            db.build_cache_lock().insert(key, Arc::clone(&owned));
                        db.metrics.build_cache_evictions.add(evicted);
                        db.metrics.cache_insert.inc();
                        db.metrics.cache_evicted_bytes.add(evicted_bytes as i64);
                        cache_evicted_bytes = evicted_bytes;
                        owned
                    }
                };
                // Hits charge the same scan count and bytes the cold build
                // did, keeping stats and budgets independent of cache state.
                budget.charge_build_bytes(owned.bytes())?;
                build.rows_scanned = owned.rows_scanned();
                build.intermediate_bytes = owned.bytes();
                RightAccess::HashOwned {
                    build: owned,
                    rows: &table.rows,
                }
            }
        }
    };
    build.wall_ns = obs::elapsed_ns(t0);
    let verb = match (step.outer, strategy) {
        (false, JoinStrategy::IndexNestedLoop) => "Join",
        (true, JoinStrategy::IndexNestedLoop) => "OuterJoin",
        (false, JoinStrategy::Hash) => "HashJoin",
        (true, JoinStrategy::Hash) => "OuterHashJoin",
    };
    let mut label = format!(
        "{verb} {} ON {}={}",
        step.rel,
        step.left_attrs.join(","),
        step.right_attrs.join(",")
    );
    if let Some(ind) = &step.via_ind {
        label.push_str(" via ");
        label.push_str(ind);
    }
    if let Some(note) = build_note {
        label.push_str(" [");
        label.push_str(&note);
        label.push(']');
    }
    if pushed.is_some() {
        label.push_str(" [pushed]");
    }
    let source = layout.widths.len();
    for (i, a) in table.header.iter().enumerate() {
        layout.header.push(a.clone());
        layout.locs.push((source, i));
    }
    layout.widths.push(table.header.len());
    // A transient hash build already filtered while building, so the
    // probe side re-checks nothing; every other access path carries the
    // compiled conjunct to the probe site.
    let (pushed_probe, build_pruned) = match &access {
        RightAccess::HashOwned { build, .. } => (None, build.pruned()),
        _ => (cp, 0),
    };
    Ok(CompiledJoin {
        access,
        left_locs,
        outer: step.outer,
        build,
        label,
        strategy,
        cache_hits,
        cache_misses,
        cache_evicted_bytes,
        pushed: pushed_probe,
        sel,
        build_pruned,
    })
}

/// Estimates a compiled join's output cardinality from its left estimate
/// and the access path's fan-out, so the *next* step's strategy choice
/// sees this step's output rather than the root cardinality. Unique
/// accesses match at most one row per left row; lookup and built hash
/// accesses multiply by the index's average bucket size; the empty access
/// only ever sees a zero estimate and carries it through.
/// Outer joins never shrink the left side. The estimate is 0 only when
/// the output is provably empty (an empty left side, or a pushed conjunct
/// that keeps no right row), since rule 1 of
/// [`crate::planner::choose_join_strategy`] trusts it. Everything here
/// reads pre-fan-out state only, keeping strategy choice deterministic
/// across morsel sizes and worker counts.
fn estimate_join_output(join: &CompiledJoin<'_>, left: usize) -> usize {
    let avg_bucket = |keys: usize, slots: usize| {
        if keys == 0 {
            1
        } else {
            slots.div_ceil(keys).max(1)
        }
    };
    let fanout = match &join.access {
        RightAccess::Unique { .. } | RightAccess::HashUnique { .. } => 1,
        RightAccess::Lookup { map, .. } | RightAccess::HashLookup { map, .. } => {
            avg_bucket(map.len(), map.values().map(Vec::len).sum())
        }
        RightAccess::HashOwned { build, .. } => avg_bucket(build.keys(), build.slots()),
        RightAccess::Empty => 1,
    };
    let mut estimate = left.saturating_mul(fanout);
    // A pushed conjunct shrinks the matched stream by its measured
    // selectivity, so downstream strategy choices see the post-pushdown
    // cardinality — a selective pushed filter can flip the next step from
    // a hash build to index nested loops. A nonzero product never floors
    // to 0: that would claim an empty left side for the next step.
    if let Some((kept, live)) = join.sel {
        let product = estimate.saturating_mul(kept);
        if let Some(scaled) = product.checked_div(live) {
            estimate = scaled.max(usize::from(product > 0));
        }
    }
    if join.outer {
        estimate.max(left)
    } else {
        estimate
    }
}

/// Evaluates a root-only predicate over the scanned rows *before* the
/// join pipeline. Past one worker the rows are split into
/// [`Database::morsel_rows`]-sized contiguous chunks claimed by scoped
/// workers, and survivors are reassembled in chunk order — so the
/// surviving slots, and everything downstream, are identical at every
/// worker count. A panicking worker fails only this query, as a typed
/// error.
fn prefilter_root<'a>(
    db: &Database,
    rows: Vec<&'a Tuple>,
    cp: &CompiledPredicate,
) -> Result<Vec<&'a Tuple>> {
    let chunk_rows = db.morsel_rows().max(1);
    let workers = db
        .parallelism()
        .clamp(1, rows.len().div_ceil(chunk_rows).max(1));
    if workers <= 1 {
        return Ok(rows
            .into_iter()
            .filter(|t| cp.matches(t.values()))
            .collect());
    }
    let chunks: Vec<&[&Tuple]> = rows.chunks(chunk_rows).collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<&'a Tuple>>> = Vec::new();
    slots.resize_with(chunks.len(), || None);
    let mut failure: Option<Error> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, chunks) = (&next, &chunks);
                scope.spawn(move || {
                    let mut done: Vec<(usize, Vec<&'a Tuple>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else { break };
                        let kept = chunk
                            .iter()
                            .copied()
                            .filter(|t| cp.matches(t.values()))
                            .collect();
                        done.push((i, kept));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, kept) in done {
                        slots[i] = Some(kept);
                    }
                }
                Err(payload) => {
                    if failure.is_none() {
                        failure = Some(Error::ExecutionPanic {
                            context: panic_message(payload),
                        });
                    }
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .flat_map(|s| s.expect("every chunk claimed exactly once"))
        .collect())
}

/// Where each conjunct of the query filter will run, decided once per
/// query before any data is touched. Produced by [`plan_pushdown`] from
/// the [`crate::predopt`] optimizer's canonical conjunct partition, or by
/// [`PushdownPlan::unoptimized`] when pushdown is off or its planning
/// failed.
struct PushdownPlan {
    /// Conjunction of the root-only conjuncts, compiled against the root
    /// header; evaluated by [`prefilter_root`] right after root access.
    root: Option<CompiledPredicate>,
    /// A root `Eq` conjunct upgraded to an index point-lookup: root
    /// access becomes one counted probe instead of a full scan.
    root_lookup: Option<(String, Value)>,
    /// Per join step (parallel to `plan.joins`), the conjunction pushed
    /// to that step's right relation.
    per_join: Vec<Option<Predicate>>,
    /// What must still run on the joined row: multi-relation conjuncts,
    /// plus copies of conjuncts pushed below an outer join.
    residual: Option<Predicate>,
    /// The optimizer proved the filter constant: `Some(false)` empties
    /// the result before the pipeline, `Some(true)` drops the filter.
    verdict: Option<bool>,
    /// How many conjuncts were placed somewhere cheaper than the
    /// post-join filter (the `engine.query.pushed_conjuncts` increment).
    pushed: u64,
    /// Whether the optimizer made this placement. Only its placements
    /// feed the pushdown counters.
    optimized: bool,
}

impl PushdownPlan {
    /// The placement without the optimizer: the whole filter becomes the
    /// root prefilter when it compiles against the root header of a full
    /// scan, and the residual otherwise — where an unknown attribute
    /// surfaces as the query's error.
    fn unoptimized(plan: &QueryPlan, root_header: &[Attribute]) -> PushdownPlan {
        let root = match (&plan.access, &plan.filter) {
            (Access::FullScan, Some(p)) => CompiledPredicate::compile(p, root_header).ok(),
            _ => None,
        };
        let residual = if root.is_some() {
            None
        } else {
            plan.filter.clone()
        };
        PushdownPlan {
            root,
            root_lookup: None,
            per_join: vec![None; plan.joins.len()],
            residual,
            verdict: None,
            pushed: 0,
            optimized: false,
        }
    }
}

/// Partitions the optimized filter's conjuncts across the plan's
/// relations. Returns `None` on *any* internal inconsistency — an
/// attribute that resolves to no relation, a compile failure — so the
/// caller falls back to [`PushdownPlan::unoptimized`] and surfaces
/// exactly the errors it always did. Placement rules:
///
/// - root-only conjunct → root prefilter (or an index point-lookup for
///   one `Eq` on an indexed attribute under a full scan), dropped from
///   the residual — root rows are never null-padded;
/// - single-relation conjunct under an **inner** join → that step's
///   build or probe side, dropped from the residual;
/// - single-relation conjunct under an **outer** join → pushed only if
///   null-rejecting (false on an all-null right row, so a pruned match
///   and a never-matched row null-pad identically), and *kept* in the
///   residual: a left row whose matches were all pruned resurfaces
///   null-padded, and only the residual copy can reject that pad;
/// - multi-relation conjunct → residual.
fn plan_pushdown(
    db: &Database,
    plan: &QueryPlan,
    filter: &Predicate,
    root_header: &[Attribute],
) -> Option<PushdownPlan> {
    // headers[0] is the root; headers[k] is join step k-1's relation.
    let mut headers: Vec<&[Attribute]> = Vec::with_capacity(plan.joins.len() + 1);
    headers.push(root_header);
    for step in &plan.joins {
        headers.push(db.header(&step.rel).ok()?);
    }
    let source_of = |attr: &str| -> Option<usize> {
        headers
            .iter()
            .position(|h| h.iter().any(|a| a.name() == attr))
    };
    // Every attribute of the *original* predicate must resolve, otherwise
    // the unoptimized placement must surface its unknown-attribute error.
    for attr in crate::predopt::attrs(filter) {
        source_of(&attr)?;
    }
    let mut out = PushdownPlan {
        root: None,
        root_lookup: None,
        per_join: vec![None; plan.joins.len()],
        residual: None,
        verdict: None,
        pushed: 0,
        optimized: true,
    };
    let canonical = match crate::predopt::optimize(filter) {
        crate::predopt::Optimized::Always(b) => {
            out.verdict = Some(b);
            out.pushed = 1;
            return Some(out);
        }
        crate::predopt::Optimized::Pred(q) => q,
    };
    let mut root_conjuncts: Vec<Predicate> = Vec::new();
    let mut per_join: Vec<Vec<Predicate>> = vec![Vec::new(); plan.joins.len()];
    let mut residual: Vec<Predicate> = Vec::new();
    for c in crate::predopt::conjuncts(&canonical) {
        let mut sources = std::collections::BTreeSet::new();
        for a in crate::predopt::attrs(&c) {
            sources.insert(source_of(&a)?);
        }
        let src = match (sources.len(), sources.iter().next()) {
            (1, Some(&s)) => s,
            _ => {
                // Multi-relation (or, unreachably, attribute-free).
                residual.push(c);
                continue;
            }
        };
        if src == 0 {
            // Root-only. One `Eq` on an indexed root attribute upgrades a
            // full scan to a point lookup; everything else prefilters.
            if out.root_lookup.is_none() && matches!(plan.access, Access::FullScan) {
                if let Some(hit) = crate::planner::choose_root_lookup(db, &plan.root, &c) {
                    out.root_lookup = Some(hit);
                    out.pushed += 1;
                    continue;
                }
            }
            root_conjuncts.push(c);
            out.pushed += 1;
        } else {
            let step = &plan.joins[src - 1];
            let cp = CompiledPredicate::compile(&c, headers[src]).ok()?;
            let null_rejecting = !cp.matches(&vec![Value::Null; headers[src].len()]);
            if step.outer && !null_rejecting {
                residual.push(c);
            } else {
                if step.outer {
                    residual.push(c.clone());
                }
                per_join[src - 1].push(c);
                out.pushed += 1;
            }
        }
    }
    out.root = crate::predopt::conjoin(&root_conjuncts)
        .map(|p| CompiledPredicate::compile(&p, root_header))
        .transpose()
        .ok()?;
    for (slot, cs) in out.per_join.iter_mut().zip(&per_join) {
        *slot = crate::predopt::conjoin(cs);
    }
    out.residual = crate::predopt::conjoin(&residual);
    Some(out)
}

/// Thin classification wrapper over [`execute_core`]: a failed execution
/// bumps the matching abort counter before the error propagates, so
/// injected faults, contained panics, and budget trips are visible in the
/// metrics snapshot.
fn execute_impl(
    db: &Database,
    plan: &QueryPlan,
    traced: bool,
) -> Result<(Relation, QueryStats, Option<QueryTrace>)> {
    let result = execute_core(db, plan, traced);
    if let Err(e) = &result {
        match e {
            Error::Injected { .. } => db.metrics.injected_aborts.inc(),
            Error::ExecutionPanic { .. } => db.metrics.panic_aborts.inc(),
            Error::BudgetExceeded { .. } => db.metrics.budget_aborts.inc(),
            _ => {}
        }
    }
    result
}

fn execute_core(
    db: &Database,
    plan: &QueryPlan,
    traced: bool,
) -> Result<(Relation, QueryStats, Option<QueryTrace>)> {
    let t_exec = Instant::now();
    let mut span = obs::span("engine.query.execute");
    span.add_field("root", &plan.root);
    span.add_field("joins", plan.joins.len());
    let mut stats = QueryStats::default();
    let budget = db.query_budget().start();

    let root_header = db.header(&plan.root)?;

    // Pushdown planning runs before any data is touched, under the
    // `engine.query.pushdown` fault site: an injected error or panic —
    // like any internal planning failure — is contained here and drops
    // the query onto the unoptimized placement, byte-identical in results
    // (the fallback counter records it).
    let pd = match (&plan.filter, db.predicate_pushdown()) {
        (Some(filter), true) => {
            let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<Option<PushdownPlan>> {
                db.fault_check(site::PUSHDOWN)?;
                Ok(plan_pushdown(db, plan, filter, root_header))
            }));
            match attempt {
                Ok(Ok(Some(p))) => p,
                Ok(Ok(None)) | Ok(Err(_)) | Err(_) => {
                    db.metrics.pushdown_fallbacks.inc();
                    PushdownPlan::unoptimized(plan, root_header)
                }
            }
        }
        _ => PushdownPlan::unoptimized(plan, root_header),
    };

    // Root access (serial, borrowed slots — nothing is cloned). A pushed
    // root `Eq` on an indexed attribute turns the full scan into one
    // counted probe.
    let t_root = Instant::now();
    let mut root_rows: Vec<&Tuple> = Vec::new();
    match (&plan.access, &pd.root_lookup) {
        (Access::FullScan, Some((attr, value))) => {
            db.probe_slots(
                &plan.root,
                std::slice::from_ref(attr),
                &Tuple::new(vec![value.clone()]),
                &mut stats,
                &mut root_rows,
            )?;
        }
        (Access::FullScan, None) => {
            let (_, scanned) = db.scan(&plan.root)?;
            stats.rows_scanned += scanned.len() as u64;
            root_rows = scanned;
        }
        (Access::Lookup { attrs, key }, _) => {
            db.probe_slots(&plan.root, attrs, key, &mut stats, &mut root_rows)?;
        }
    }
    let root_op = traced.then(|| {
        let (kind, label) = match (&plan.access, &pd.root_lookup) {
            (Access::FullScan, Some((attr, _))) => (
                OpKind::Lookup,
                format!("Lookup {} [{}] (pushed Eq)", plan.root, attr),
            ),
            (Access::FullScan, None) => (OpKind::Scan, format!("Scan {}", plan.root)),
            (Access::Lookup { attrs, .. }, _) => (
                OpKind::Lookup,
                format!("Lookup {} [{}]", plan.root, attrs.join(",")),
            ),
        };
        OpTrace {
            kind,
            label,
            stats: OpStats {
                rows_in: 0,
                rows_out: root_rows.len() as u64,
                rows_scanned: stats.rows_scanned,
                index_probes: stats.index_probes,
                hash_builds: 0,
                intermediate_bytes: 0,
                wall_ns: obs::elapsed_ns(t_root),
            },
        }
    });

    // Root-side filtering, as the placement decided.
    let mut pruned_rows: u64 = 0;
    let mut pushed_op: Option<OpStats> = None;
    if pd.verdict == Some(false) {
        // The optimizer proved the filter constant-false: nothing can
        // survive, so the pipeline sees no rows at all.
        let t0 = Instant::now();
        let rows_in = root_rows.len() as u64;
        pruned_rows += rows_in;
        root_rows.clear();
        pushed_op = Some(OpStats {
            rows_in,
            rows_out: 0,
            wall_ns: obs::elapsed_ns(t0),
            ..OpStats::default()
        });
    } else if let Some(cp) = &pd.root {
        let t0 = Instant::now();
        let rows_in = root_rows.len() as u64;
        root_rows = prefilter_root(db, root_rows, cp)?;
        pruned_rows += rows_in - root_rows.len() as u64;
        pushed_op = Some(OpStats {
            rows_in,
            rows_out: root_rows.len() as u64,
            wall_ns: obs::elapsed_ns(t0),
            ..OpStats::default()
        });
    }
    budget.charge_rows(root_rows.len() as u64)?;

    // Compile the join pipeline. Strategy choice starts from the root
    // cardinality (known exactly after root access) and carries each
    // step's estimated *output* cardinality forward as the next step's
    // left estimate, so a selective chain that fans out picks hash joins
    // per-step instead of from the root alone. Estimates derive only from
    // pre-fan-out state (root rows plus index fan-outs), and hash builds
    // happen here, before fan-out, so strategies and counters are
    // identical at every parallelism level.
    let mut layout = FlatLayout {
        header: root_header.to_vec(),
        locs: (0..root_header.len()).map(|i| (0, i)).collect(),
        widths: vec![root_header.len()],
    };
    let mut left_estimate = root_rows.len();
    let mut joins: Vec<CompiledJoin<'_>> = Vec::with_capacity(plan.joins.len());
    for (step, pushed) in plan.joins.iter().zip(&pd.per_join) {
        stats.joins += 1;
        let compiled = compile_join(
            db,
            step,
            &mut layout,
            left_estimate,
            pushed.as_ref(),
            &budget,
        )?;
        left_estimate = estimate_join_output(&compiled, left_estimate);
        joins.push(compiled);
    }
    // Residual filter: what the placement left for the joined row.
    let filter = pd
        .residual
        .as_ref()
        .map(|p| CompiledPredicate::compile(p, &layout.header))
        .transpose()?;

    // Partition into morsels and fan out; each worker claims the next
    // unprocessed morsel until none remain.
    let morsel_rows = db.morsel_rows().max(1);
    let morsels: Vec<&[&Tuple]> = root_rows.chunks(morsel_rows).collect();
    stats.morsels = morsels.len() as u64;
    let workers = db.parallelism().clamp(1, morsels.len().max(1));
    span.add_field("morsels", morsels.len());
    span.add_field("workers", workers);
    // Each morsel boundary is a cancellation point: the budget is polled
    // before a morsel is claimed and charged after it completes, and a
    // panicking worker (injected or genuine) is contained — it fails only
    // this query, as a typed error, leaving the database untouched (the
    // executor never mutates; workers hold only borrowed rows).
    let outs: Vec<MorselOut> = if workers <= 1 {
        let mut outs = Vec::with_capacity(morsels.len());
        for m in &morsels {
            budget.checkpoint()?;
            let out = catch_unwind(AssertUnwindSafe(|| -> Result<MorselOut> {
                db.fault_check(site::MORSEL_WORKER)?;
                Ok(run_morsel(m, &joins, filter.as_ref(), &layout.widths))
            }))
            .unwrap_or_else(|payload| {
                Err(Error::ExecutionPanic {
                    context: panic_message(payload),
                })
            })?;
            budget.charge_morsel(out.rows.len() as u64)?;
            budget.charge_intermediate_bytes(out.intermediate_bytes())?;
            outs.push(out);
        }
        outs
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<MorselOut>> = Vec::new();
        slots.resize_with(morsels.len(), || None);
        let mut failure: Option<Error> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, morsels, joins) = (&next, &morsels, &joins);
                    let (filter, widths, budget) = (filter.as_ref(), &layout.widths, &budget);
                    scope.spawn(move || -> Result<Vec<(usize, MorselOut)>> {
                        let mut done: Vec<(usize, MorselOut)> = Vec::new();
                        loop {
                            // Cooperative cancellation: a budget tripped by
                            // any worker stops the others at their next
                            // claim.
                            budget.checkpoint()?;
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(m) = morsels.get(i) else { break };
                            db.fault_check(site::MORSEL_WORKER)?;
                            let out = run_morsel(m, joins, filter, widths);
                            budget.charge_morsel(out.rows.len() as u64)?;
                            budget.charge_intermediate_bytes(out.intermediate_bytes())?;
                            done.push((i, out));
                        }
                        Ok(done)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Ok(done)) => {
                        for (i, out) in done {
                            slots[i] = Some(out);
                        }
                    }
                    Ok(Err(e)) => {
                        if failure.is_none() {
                            failure = Some(e);
                        }
                    }
                    Err(payload) => {
                        if failure.is_none() {
                            failure = Some(Error::ExecutionPanic {
                                context: panic_message(payload),
                            });
                        }
                    }
                }
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every morsel claimed exactly once"))
            .collect()
    };

    // Reassemble in morsel order — deterministic and byte-identical to the
    // serial path — and merge per-worker counters into their operators.
    let mut per_join: Vec<OpStats> = joins.iter().map(|j| j.build).collect();
    let mut filter_op = OpStats::default();
    let mut rows: Vec<Tuple> = Vec::with_capacity(outs.iter().map(|o| o.rows.len()).sum());
    let mut saved_allocs: u64 = 0;
    for out in outs {
        saved_allocs += out.saved_allocs;
        pruned_rows += out.pruned;
        for (agg, op) in per_join.iter_mut().zip(&out.per_join) {
            agg.rows_in += op.rows_in;
            agg.rows_out += op.rows_out;
            agg.rows_scanned += op.rows_scanned;
            agg.index_probes += op.index_probes;
            agg.intermediate_bytes += op.intermediate_bytes;
            agg.wall_ns += op.wall_ns;
        }
        filter_op.rows_in += out.filter.rows_in;
        filter_op.rows_out += out.filter.rows_out;
        filter_op.intermediate_bytes += out.filter.intermediate_bytes;
        filter_op.wall_ns += out.filter.wall_ns;
        rows.extend(out.rows);
    }
    for op in &per_join {
        stats.rows_scanned += op.rows_scanned;
        stats.index_probes += op.index_probes;
        stats.hash_builds += op.hash_builds;
        stats.intermediate_bytes += op.intermediate_bytes;
    }
    stats.intermediate_bytes += filter_op.intermediate_bytes;
    stats.peak_intermediate_bytes = per_join
        .iter()
        .map(|op| op.intermediate_bytes)
        .chain(std::iter::once(filter_op.intermediate_bytes))
        .max()
        .unwrap_or(0);
    db.metrics.probe_saved_allocs.add(saved_allocs);
    if pd.optimized {
        pruned_rows += joins.iter().map(|j| j.build_pruned).sum::<u64>();
        db.metrics.pushed_conjuncts.add(pd.pushed);
        db.metrics.pushdown_pruned_rows.add(pruned_rows);
    }

    // Projection (central, so set semantics dedup once).
    let t_proj = Instant::now();
    let rows_in_proj = rows.len() as u64;
    let result = if plan.project.is_empty() {
        Relation::with_rows(layout.header, rows)?
    } else {
        let wanted: Vec<&str> = plan.project.iter().map(String::as_str).collect();
        let full = Relation::with_rows(layout.header, rows)?;
        relmerge_relational::algebra::project(&full, &wanted)?
    };
    stats.rows_output = result.len() as u64;

    let trace = traced.then(|| {
        let mut tr = QueryTrace {
            ops: Vec::with_capacity(joins.len() + 3),
            morsels: stats.morsels,
        };
        tr.ops.push(root_op.expect("recorded when traced"));
        if let Some(op) = pushed_op {
            tr.ops.push(OpTrace {
                kind: OpKind::Filter,
                label: "Filter (pushed to scan)".to_owned(),
                stats: op,
            });
        }
        for (cj, op) in joins.iter().zip(&per_join) {
            tr.ops.push(OpTrace {
                kind: OpKind::Join,
                label: cj.label.clone(),
                stats: *op,
            });
        }
        let mut proj_wall = obs::elapsed_ns(t_proj);
        let mut proj_bytes = 0;
        if filter.is_some() {
            tr.ops.push(OpTrace {
                kind: OpKind::Filter,
                label: "Filter".to_owned(),
                stats: filter_op,
            });
        } else {
            // No filter operator: materialization time (and its byte
            // accounting) folds into the projection it feeds.
            proj_wall += filter_op.wall_ns;
            proj_bytes = filter_op.intermediate_bytes;
        }
        let label = if plan.project.is_empty() {
            "Project *".to_owned()
        } else {
            format!("Project [{}]", plan.project.join(","))
        };
        tr.ops.push(OpTrace {
            kind: OpKind::Project,
            label,
            stats: OpStats {
                rows_in: rows_in_proj,
                rows_out: stats.rows_output,
                intermediate_bytes: proj_bytes,
                wall_ns: proj_wall,
                ..OpStats::default()
            },
        });
        tr
    });
    span.add_field("rows_out", stats.rows_output);

    // Fold this execution into the shared workload profiler: the shape
    // (fingerprinted with the strategies the planner actually chose), the
    // per-query cost, and per-edge attribution from the aggregated join
    // operators — so per-fingerprint totals sum exactly to the
    // `QueryStats` each execution reported.
    let strategies: Vec<JoinStrategy> = joins.iter().map(|j| j.strategy).collect();
    let edges: Vec<obs::JoinEdge> = plan
        .joins
        .iter()
        .zip(&joins)
        .map(|(step, cj)| obs::JoinEdge {
            // The probe side's relation: the source the first left
            // attribute resolves to (source 0 is the root; source k is
            // join step k-1's relation).
            left: match cj.left_locs.first().map(|&(src, _)| src) {
                Some(0) | None => plan.root.clone(),
                Some(s) => plan.joins[s - 1].rel.clone(),
            },
            right: step.rel.clone(),
            probe_attrs: step.right_attrs.clone(),
        })
        .collect();
    let access_word = match &plan.access {
        Access::FullScan => "scan",
        Access::Lookup { .. } => "lookup",
    };
    let shape = obs::QueryShape {
        fingerprint: crate::planner::fingerprint(plan, &strategies),
        label: format!("{access_word} {} + {} joins", plan.root, plan.joins.len()),
        root: plan.root.clone(),
        edges,
    };
    let cost = obs::QueryCost {
        rows_scanned: stats.rows_scanned,
        index_probes: stats.index_probes,
        hash_builds: stats.hash_builds,
        rows_out: stats.rows_output,
        morsels: stats.morsels,
        intermediate_bytes: stats.intermediate_bytes,
        peak_intermediate_bytes: stats.peak_intermediate_bytes,
        build_cache_hits: joins.iter().map(|j| j.cache_hits).sum(),
        build_cache_misses: joins.iter().map(|j| j.cache_misses).sum(),
        build_cache_evicted_bytes: joins.iter().map(|j| j.cache_evicted_bytes).sum(),
        wall_ns: obs::elapsed_ns(t_exec),
    };
    let edge_costs: Vec<obs::EdgeCost> = per_join
        .iter()
        .map(|op| obs::EdgeCost {
            index_probes: op.index_probes,
            rows_scanned: op.rows_scanned,
            hash_builds: op.hash_builds,
            rows_out: op.rows_out,
            intermediate_bytes: op.intermediate_bytes,
        })
        .collect();
    db.profiler().record(&shape, &cost, &edge_costs);
    Ok((result, stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::DbmsProfile;
    use relmerge_relational::{
        Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Value,
    };

    fn a(n: &str) -> Attribute {
        Attribute::new(n, Domain::Int)
    }

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    /// COURSE(C.K) ← OFFER(O.K → C.K, O.D).
    fn db() -> Database {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("COURSE", vec![a("C.K")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("OFFER", vec![a("O.K"), a("O.D")], &["O.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("COURSE", &["C.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("OFFER", &["O.K", "O.D"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("OFFER", &["O.K"], "COURSE", &["C.K"]))
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        for k in 0..10 {
            db.insert("COURSE", tup(&[k])).unwrap();
            if k % 2 == 0 {
                db.insert("OFFER", tup(&[k, k * 100])).unwrap();
            }
        }
        db
    }

    #[test]
    fn full_scan_counts_rows() {
        let db = db();
        let (result, stats) = db.execute(&QueryPlan::scan("COURSE")).unwrap();
        assert_eq!(result.len(), 10);
        assert_eq!(stats.rows_scanned, 10);
        assert_eq!(stats.index_probes, 0);
    }

    #[test]
    fn key_lookup_uses_unique_index() {
        let db = db();
        let plan = QueryPlan::lookup("OFFER", &["O.K"], tup(&[4]));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 1);
        assert!(result.contains(&tup(&[4, 400])));
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::inner("OFFER", &["C.K"], &["O.K"]));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 5); // even courses only
        assert_eq!(stats.joins, 1);
        assert!(stats.index_probes >= 10); // one probe per outer row
    }

    #[test]
    fn outer_join_pads_with_nulls() {
        let db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]));
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 10);
        assert!(result.contains(&Tuple::new([Value::Int(1), Value::Null, Value::Null])));
    }

    #[test]
    fn projection_applies() {
        let db = db();
        let plan = QueryPlan::scan("OFFER").select(&["O.D"]);
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.attr_names(), ["O.D"]);
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn lookup_then_join_point_query() {
        // The canonical unmerged point query: course 4 with its offer.
        let db = db();
        let plan = QueryPlan::lookup("COURSE", &["C.K"], tup(&[4])).join(JoinStep::inner(
            "OFFER",
            &["C.K"],
            &["O.K"],
        ));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(stats.index_probes, 2); // root lookup + join probe
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn predicate_filtering() {
        let db = db();
        // Offered courses with O.D = 400.
        let plan = QueryPlan::scan("OFFER").filter(Predicate::eq("O.D", 400i64));
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 1);
        assert!(result.contains(&tup(&[4, 400])));
        // Courses with no offer: outer join + IS NULL.
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::is_null("O.K"))
            .select(&["C.K"]);
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 5); // odd courses
        assert!(result.contains(&tup(&[3])));
        // Compound predicates.
        let plan = QueryPlan::scan("OFFER")
            .filter(Predicate::eq("O.K", 2i64).or(Predicate::eq("O.K", 4i64)));
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 2);
        let plan = QueryPlan::scan("OFFER")
            .filter(Predicate::not_null("O.K").and(Predicate::eq("O.K", 2i64).negate()));
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 4);
        // Unknown attribute errors.
        let plan = QueryPlan::scan("OFFER").filter(Predicate::eq("NOPE", 1i64));
        assert!(db.execute(&plan).is_err());
    }

    #[test]
    fn secondary_index_probe_avoids_scan() {
        // OFFER[O.K] appears on both sides of the IND, so a lookup index
        // exists on COURSE[C.K] (rhs) and OFFER[O.K] (lhs, also unique).
        // Probe COURSE by C.K via its unique index, and probe OFFER by a
        // non-key attribute set that only has a lookup index: use the IND
        // lhs attrs of a fresh schema with a non-key FK.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![a("C.K"), a("C.FK")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        db.insert("P", tup(&[1])).unwrap();
        db.insert("P", tup(&[2])).unwrap();
        for k in 0..20 {
            db.insert("C", tup(&[k, 1 + (k % 2)])).unwrap();
        }
        // Probing C by its non-key FK column hits the secondary index —
        // no scan.
        let plan = QueryPlan::lookup("C", &["C.FK"], tup(&[1]));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 10);
        assert_eq!(stats.rows_scanned, 0, "secondary index must be used");
        assert_eq!(stats.index_probes, 1);
        // Deleting a row keeps the index correct.
        db.delete_by_key("C", &tup(&[0])).unwrap();
        let (result, _) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 9);
    }

    #[test]
    fn traced_execution_sums_to_stats() {
        let db = db();
        // Lookup → outer join → filter → project: every operator kind.
        let plan = QueryPlan::lookup("COURSE", &["C.K"], tup(&[4]))
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]).via("OFFER[O.K] ⊆ COURSE[C.K]"))
            .filter(Predicate::not_null("O.D"))
            .select(&["O.D"]);
        let (result, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(trace.totals(), stats, "operator counters sum to totals");
        assert_eq!(trace.ops.len(), 4);
        assert_eq!(trace.ops[0].kind, OpKind::Lookup);
        assert_eq!(trace.ops[1].kind, OpKind::Join);
        assert_eq!(trace.ops[2].kind, OpKind::Filter);
        assert_eq!(trace.ops[3].kind, OpKind::Project);
        assert!(trace.ops[1].label.contains("via OFFER[O.K] ⊆ COURSE[C.K]"));
        // The rendered form leads with the outermost operator.
        let text = trace.to_string();
        assert!(text.starts_with("Project [O.D]"), "{text}");
        assert!(text.contains("OuterJoin OFFER"), "{text}");
        // Traced and untraced runs agree.
        let (plain_result, plain_stats) = db.execute(&plan).unwrap();
        assert_eq!(plain_stats, stats);
        assert!(plain_result.set_eq_unordered(&result));
    }

    #[test]
    fn traced_scan_sums_to_stats() {
        let db = db();
        let (_, stats, trace) = db.execute_traced(&QueryPlan::scan("COURSE")).unwrap();
        assert_eq!(trace.totals(), stats);
        assert_eq!(trace.ops.len(), 2); // Scan + Project *
        assert_eq!(trace.ops[0].stats.rows_scanned, 10);
    }

    #[test]
    fn query_stats_add_and_merge() {
        let a = QueryStats {
            rows_scanned: 1,
            index_probes: 2,
            joins: 3,
            rows_output: 4,
            hash_builds: 5,
            morsels: 6,
            intermediate_bytes: 7,
            peak_intermediate_bytes: 8,
        };
        let b = QueryStats {
            rows_scanned: 10,
            index_probes: 20,
            joins: 30,
            rows_output: 40,
            hash_builds: 50,
            morsels: 60,
            intermediate_bytes: 70,
            peak_intermediate_bytes: 3,
        };
        let sum = a + b;
        assert_eq!(sum.rows_scanned, 11);
        assert_eq!(sum.rows_output, 44);
        assert_eq!(sum.hash_builds, 55);
        assert_eq!(sum.morsels, 66);
        assert_eq!(sum.intermediate_bytes, 77);
        // Peak is a high-water mark: maxed, never summed.
        assert_eq!(sum.peak_intermediate_bytes, 8);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m, sum);
        let mut aa = a;
        aa += b;
        assert_eq!(aa, sum);
    }

    #[test]
    fn execution_reports_intermediate_bytes() {
        let db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]));
        let (_, stats, trace) = db.execute_traced(&plan).unwrap();
        assert!(stats.intermediate_bytes > 0, "{stats:?}");
        assert!(stats.peak_intermediate_bytes > 0);
        assert!(stats.peak_intermediate_bytes <= stats.intermediate_bytes);
        assert_eq!(trace.totals(), stats);
        // The accounting is deterministic across worker counts and morsel
        // sizes.
        let mut small = db.fork();
        small.configure(small.config().parallelism(4));
        small.configure(small.config().morsel_rows(1));
        let (_, par_stats) = small.execute(&plan).unwrap();
        assert_eq!(par_stats.intermediate_bytes, stats.intermediate_bytes);
        assert_eq!(
            par_stats.peak_intermediate_bytes,
            stats.peak_intermediate_bytes
        );
    }

    #[test]
    fn executions_fold_into_the_shared_profiler() {
        let db = db();
        let lookup = |k: i64| {
            QueryPlan::lookup("COURSE", &["C.K"], tup(&[k])).join(JoinStep::inner(
                "OFFER",
                &["C.K"],
                &["O.K"],
            ))
        };
        let (_, s1) = db.execute(&lookup(2)).unwrap();
        let (_, s2) = db.execute(&lookup(4)).unwrap();
        // Different constants, same shape: one fingerprint, two executions.
        let snap = db.profile_snapshot();
        assert_eq!(snap.queries.len(), 1);
        let prof = snap.queries.values().next().unwrap();
        assert_eq!(prof.executions, 2);
        assert_eq!(prof.shape.root, "COURSE");
        assert_eq!(prof.shape.edges.len(), 1);
        assert_eq!(prof.shape.edges[0].left, "COURSE");
        assert_eq!(prof.shape.edges[0].right, "OFFER");
        // Profiler totals are exactly the sum of the per-query stats.
        let total = s1 + s2;
        assert_eq!(prof.totals.index_probes, total.index_probes);
        assert_eq!(prof.totals.rows_scanned, total.rows_scanned);
        assert_eq!(prof.totals.rows_out, total.rows_output);
        assert_eq!(prof.totals.intermediate_bytes, total.intermediate_bytes);
        assert_eq!(
            prof.totals.peak_intermediate_bytes,
            total.peak_intermediate_bytes
        );
        assert_eq!(prof.latency.count, 2);
        // A fork shares the profiler; a different shape adds a
        // fingerprint.
        let fork = db.fork();
        fork.execute(&QueryPlan::scan("OFFER")).unwrap();
        assert_eq!(db.profiler().len(), 2);
        // The hot-join report attributes this workload's probe cost to
        // the COURSE->OFFER edge.
        let ranking = obs::report(&db.profile_snapshot());
        assert_eq!(ranking.len(), 1);
        assert_eq!(ranking[0].edge.label(), "COURSE->OFFER[O.K]");
        assert_eq!(ranking[0].executions, 2);
        assert!(ranking[0].cumulative_cost > 0);
    }

    #[test]
    fn intermediate_byte_budget_trips() {
        let mut db = db();
        db.configure(
            db.config().query_budget(
                crate::fault::QueryBudget::unlimited().with_max_intermediate_bytes(1),
            ),
        );
        let plan = QueryPlan::scan("COURSE").join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]));
        let err = db.execute(&plan).unwrap_err();
        assert!(
            matches!(err, Error::BudgetExceeded { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("intermediate-memory cap"), "{err}");
        // Unlimited budget executes fine.
        db.configure(
            db.config()
                .query_budget(crate::fault::QueryBudget::unlimited()),
        );
        db.execute(&plan).unwrap();
    }

    #[test]
    fn unknown_join_attr_errors() {
        let db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::inner("OFFER", &["NOPE"], &["O.K"]));
        assert!(db.execute(&plan).is_err());
    }

    #[test]
    fn morsels_counted_independent_of_workers() {
        let mut db = db();
        db.configure(db.config().morsel_rows(3));
        for workers in [1, 4] {
            db.configure(db.config().parallelism(workers));
            let (_, stats) = db.execute(&QueryPlan::scan("COURSE")).unwrap();
            assert_eq!(stats.morsels, 4, "10 rows / 3-row morsels");
        }
        // An empty root partitions into zero morsels.
        let plan = QueryPlan::lookup("COURSE", &["C.K"], tup(&[999])).join(JoinStep::inner(
            "OFFER",
            &["C.K"],
            &["O.K"],
        ));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 0);
        assert_eq!(stats.morsels, 0);
    }

    #[test]
    fn parallel_execution_is_byte_identical() {
        let mut db = db();
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::not_null("C.K"));
        db.configure(db.config().morsel_rows(1)); // every row its own morsel
        db.configure(db.config().parallelism(1));
        let (serial, serial_stats) = db.execute(&plan).unwrap();
        for workers in 2..=4 {
            db.configure(db.config().parallelism(workers));
            let (parallel, parallel_stats) = db.execute(&plan).unwrap();
            assert_eq!(parallel, serial, "byte-identical at {workers} workers");
            assert_eq!(parallel_stats, serial_stats);
            let (traced, traced_stats, trace) = db.execute_traced(&plan).unwrap();
            assert_eq!(traced, serial);
            assert_eq!(traced_stats, serial_stats);
            assert_eq!(trace.totals(), traced_stats);
        }
    }

    #[test]
    fn hash_join_over_threshold_replaces_probes_with_one_build() {
        let mut db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::inner("OFFER", &["C.K"], &["O.K"]));
        // Force the hash strategy: the OFFER unique index becomes the
        // build side, so no per-row probes are counted.
        db.configure(db.config().hash_join_threshold(0));
        let (hashed, hash_stats) = db.execute(&plan).unwrap();
        assert_eq!(hash_stats.hash_builds, 1);
        assert_eq!(hash_stats.index_probes, 0);
        // Force index-nested-loop: the pre-morsel counters.
        db.configure(db.config().hash_join_threshold(usize::MAX));
        let (inl, inl_stats) = db.execute(&plan).unwrap();
        assert_eq!(inl_stats.hash_builds, 0);
        assert_eq!(inl_stats.index_probes, 10);
        assert_eq!(hashed, inl, "strategy changes cost, not the result");
    }

    #[test]
    fn outer_hash_join_pads_like_inl() {
        let mut db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]));
        db.configure(db.config().hash_join_threshold(usize::MAX));
        let (inl, _) = db.execute(&plan).unwrap();
        db.configure(db.config().hash_join_threshold(0));
        let (hashed, stats) = db.execute(&plan).unwrap();
        assert_eq!(stats.hash_builds, 1);
        assert_eq!(hashed, inl);
        assert!(hashed.contains(&Tuple::new([Value::Int(1), Value::Null, Value::Null])));
    }

    #[test]
    fn hash_join_without_covering_index_builds_from_one_scan() {
        // Join on the *non-indexed* V columns: no unique or lookup index
        // covers them, so the hash strategy scans R once to build, even
        // for a left input below the threshold.
        let mut db = lr_db(12);
        db.configure(db.config().hash_join_threshold(64));
        let (hashed, hash_stats) = db.execute(&lr_plan()).unwrap();
        assert_eq!(hash_stats.hash_builds, 1);
        assert_eq!(
            hash_stats.rows_scanned,
            12 + 12,
            "root scan + one build scan"
        );
        let state = db.snapshot().unwrap();
        let (l, r) = (state.relation("L").unwrap(), state.relation("R").unwrap());
        let want = relmerge_relational::algebra::equi_join(l, r, &[("L.V", "R.V")]).unwrap();
        assert!(hashed.set_eq_unordered(&want));
        // `usize::MAX` only keeps covered joins on index-nested-loop.
        db.configure(db.config().hash_join_threshold(usize::MAX));
        let (again, again_stats) = db.execute(&lr_plan()).unwrap();
        assert_eq!(again, hashed);
        assert_eq!(again_stats, hash_stats);
    }

    /// L(L.K, L.V) / R(R.K, R.V): no index covers the V columns, so a
    /// hash join on them needs a transient build.
    fn lr_db(rows: i64) -> Database {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("L", vec![a("L.K"), a("L.V")], &["L.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("R", vec![a("R.K"), a("R.V")], &["R.K"]).unwrap())
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        for k in 0..rows {
            db.insert("L", tup(&[k, k % 3])).unwrap();
            db.insert("R", tup(&[k, k % 4])).unwrap();
        }
        db.configure(db.config().hash_join_threshold(0));
        db
    }

    fn lr_plan() -> QueryPlan {
        QueryPlan::scan("L").join(JoinStep::inner("R", &["L.V"], &["R.V"]))
    }

    #[test]
    fn root_filter_pushdown_is_equivalent_and_traced() {
        let mut db = db();
        db.configure(db.config().morsel_rows(2));
        // A root-only predicate on a full scan runs pre-join,
        // morsel-parallel, without changing results or stats.
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::not_null("C.K").and(Predicate::eq("C.K", 4i64).negate()));
        db.configure(db.config().parallelism(1));
        let (serial, serial_stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(serial.len(), 9);
        assert_eq!(trace.totals(), serial_stats);
        assert_eq!(trace.ops[1].kind, OpKind::Filter);
        assert_eq!(trace.ops[1].label, "Filter (pushed to scan)");
        assert_eq!(trace.ops[1].stats.rows_in, 10);
        assert_eq!(trace.ops[1].stats.rows_out, 9);
        for workers in [2, 4] {
            db.configure(db.config().parallelism(workers));
            let (parallel, parallel_stats) = db.execute(&plan).unwrap();
            assert_eq!(parallel, serial, "pushdown byte-identical at {workers}");
            assert_eq!(parallel_stats, serial_stats);
        }
        // Pushdown off takes the unoptimized placement: the root-only
        // filter still runs ahead of the joins, with the same result and
        // stats, but no optimizer placement feeds the pushdown counters.
        let pushdown_counters = |db: &Database| {
            let snap = db.metrics_registry().snapshot();
            (
                snap.counters["engine.query.pushed_conjuncts"],
                snap.counters["engine.query.pushdown_pruned_rows"],
            )
        };
        db.configure(db.config().predicate_pushdown(false));
        let before = pushdown_counters(&db);
        let (off, off_stats, off_trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(off, serial);
        assert_eq!(off_stats, serial_stats);
        assert_eq!(off_trace.ops[1].label, "Filter (pushed to scan)");
        assert_eq!(off_trace.ops[1].stats.rows_out, 9);
        assert_eq!(pushdown_counters(&db), before);
        db.configure(db.config().predicate_pushdown(true));
        // A predicate needing join attributes still runs post-join.
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::is_null("O.K"));
        let (result, _, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(trace.ops[2].kind, OpKind::Filter);
        assert_eq!(trace.ops[2].label, "Filter");
    }

    /// L(50) ⋈ S on its key, with a pushed `Eq(S.W, 7)` keeping 10 of
    /// 1,000 S rows, then ⋈ T on the non-indexed T.V. The estimate after
    /// S is 50·10/1000, which must not floor to 0: a zero estimate would
    /// claim an empty left side for T and skip its build.
    #[test]
    fn floored_selectivity_estimate_keeps_the_hash_join() {
        use relmerge_relational::algebra::{equi_join, select_eq};
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("L", vec![a("L.K"), a("L.S")], &["L.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("S", vec![a("S.K"), a("S.W")], &["S.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("T", vec![a("T.K"), a("T.V")], &["T.K"]).unwrap())
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        db.configure(db.config().parallelism(1));
        for k in 0..50 {
            db.insert("L", tup(&[k, k * 20])).unwrap();
        }
        for k in 0..1000 {
            db.insert("S", tup(&[k, if k % 100 == 0 { 7 } else { 0 }]))
                .unwrap();
            db.insert("T", tup(&[k, k % 100])).unwrap();
        }
        let plan = QueryPlan::scan("L")
            .join(JoinStep::inner("S", &["L.S"], &["S.K"]))
            .join(JoinStep::inner("T", &["L.K"], &["T.V"]))
            .filter(Predicate::eq("S.W", 7i64));
        let (hashed, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(hashed.len(), 100, "10 surviving L rows × 10 T matches");
        assert!(
            trace.ops[2].label.starts_with("HashJoin T"),
            "{}",
            trace.ops[2].label
        );
        assert_eq!(stats.hash_builds, 1);
        assert_eq!(stats.rows_scanned, 50 + 1000, "root scan + one build scan");
        let state = db.snapshot().unwrap();
        let rel = |name: &str| state.relation(name).unwrap();
        let ls = equi_join(rel("L"), rel("S"), &[("L.S", "S.K")]).unwrap();
        let lst = equi_join(&ls, rel("T"), &[("L.K", "T.V")]).unwrap();
        let want = select_eq(&lst, &["S.W"], &tup(&[7])).unwrap();
        assert!(hashed.set_eq_unordered(&want));
    }

    #[test]
    fn build_cache_reuses_transient_builds_until_mutation() {
        let mut db = lr_db(12);
        let plan = lr_plan();
        let counters = |db: &Database| {
            let snap = db.metrics_registry().snapshot();
            (
                snap.counters["engine.query.build_cache.hits"],
                snap.counters["engine.query.build_cache.misses"],
            )
        };
        let (cold, cold_stats, cold_trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(cold.len(), 36);
        assert_eq!(counters(&db), (0, 1));
        assert!(
            cold_trace.ops[1].label.ends_with("[build: serial]"),
            "{}",
            cold_trace.ops[1].label
        );
        assert_eq!(db.build_cache_len(), 1);
        assert!(db.build_cache_bytes() > 0);
        let (warm, warm_stats, warm_trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(counters(&db), (1, 1));
        assert!(
            warm_trace.ops[1].label.ends_with("[build: cached]"),
            "{}",
            warm_trace.ops[1].label
        );
        assert_eq!(warm, cold, "cache changes wall time, never results");
        assert_eq!(warm_stats, cold_stats, "hits charge the stored build costs");
        // A mutation bumps the version: the next run misses and rebuilds
        // against the new rows; the stale entry just ages out via LRU.
        db.insert("R", tup(&[100, 1])).unwrap();
        let (after, _) = db.execute(&plan).unwrap();
        assert_eq!(counters(&db), (1, 2));
        assert_eq!(after.len(), 40, "4 more matches for L.V = 1");
        assert_eq!(db.build_cache_len(), 2);
        db.clear_build_cache();
        assert_eq!(db.build_cache_len(), 0);
        // Capacity 0 disables caching: every run is a cold miss.
        db.configure(db.config().build_cache_capacity(0));
        let (off, _) = db.execute(&plan).unwrap();
        assert_eq!(counters(&db), (1, 3));
        assert_eq!(db.build_cache_len(), 0);
        assert_eq!(off, after);
    }

    #[test]
    fn parallel_builds_are_byte_identical_to_serial() {
        let mut db = lr_db(200);
        let plan = lr_plan();
        db.configure(db.config().parallelism(4));
        db.configure(db.config().build_parallel_threshold(usize::MAX));
        let (serial, serial_stats) = db.execute(&plan).unwrap();
        db.clear_build_cache();
        db.configure(db.config().build_parallel_threshold(8));
        let (parallel, parallel_stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel_stats, serial_stats);
        assert!(
            trace.ops[1].label.ends_with("[build: 4 workers]"),
            "{}",
            trace.ops[1].label
        );
        let snap = db.metrics_registry().snapshot();
        assert_eq!(snap.counters["engine.query.build.parallel"], 1);
    }

    #[test]
    fn build_byte_budget_trips_with_typed_error() {
        use crate::fault::QueryBudget;
        let mut db = lr_db(12);
        let plan = lr_plan();
        db.configure(
            db.config()
                .query_budget(QueryBudget::unlimited().with_max_build_bytes(1)),
        );
        let err = db.execute(&plan).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err}");
        assert_eq!(
            db.metrics_registry().snapshot().counters["engine.query.aborts.budget"],
            1
        );
        // A roomy cap passes, and the cached build charges the same bytes
        // on the warm run.
        db.configure(
            db.config()
                .query_budget(QueryBudget::unlimited().with_max_build_bytes(1 << 20)),
        );
        let (cold, _) = db.execute(&plan).unwrap();
        let (warm, _) = db.execute(&plan).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn build_faults_never_poison_the_cache() {
        use crate::fault::{FaultMode, FaultPlan};
        let mut db = lr_db(12);
        let plan = lr_plan();
        let (baseline, _) = db.execute(&plan).unwrap();
        for (site_name, mode) in [
            (site::HASH_BUILD, FaultMode::Error),
            (site::HASH_BUILD, FaultMode::Panic),
            (site::BUILD_CACHE_INSERT, FaultMode::Error),
            (site::BUILD_CACHE_INSERT, FaultMode::Panic),
        ] {
            db.clear_build_cache();
            db.set_fault_plan(FaultPlan::new().fail_at(site_name, 0, mode));
            let err = db.execute(&plan).unwrap_err();
            match mode {
                FaultMode::Error => {
                    assert!(matches!(err, Error::Injected { .. }), "{site_name}: {err}");
                }
                FaultMode::Panic => {
                    assert!(
                        matches!(err, Error::ExecutionPanic { .. }),
                        "{site_name}: {err}"
                    );
                }
            }
            assert_eq!(db.build_cache_len(), 0, "{site_name}: no poisoned entry");
            db.clear_fault_plan();
            let (recovered, _) = db.execute(&plan).unwrap();
            assert_eq!(recovered, baseline, "{site_name}: clean recovery");
        }
    }

    #[test]
    fn probe_key_allocations_are_counted_saved() {
        let db = db();
        let plan = QueryPlan::scan("COURSE").join(JoinStep::inner("OFFER", &["C.K"], &["O.K"]));
        db.execute(&plan).unwrap();
        let snap = db.metrics_registry().snapshot();
        assert_eq!(
            snap.counters["engine.query.probe_key.saved_allocs"], 10,
            "one saved key allocation per probed left row"
        );
    }

    #[test]
    fn hash_join_label_in_trace() {
        let mut db = db();
        db.configure(db.config().hash_join_threshold(0));
        let plan = QueryPlan::scan("COURSE").join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]));
        let (_, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(trace.totals(), stats);
        assert_eq!(trace.ops[1].kind, OpKind::Join);
        assert!(
            trace.ops[1].label.starts_with("OuterHashJoin OFFER"),
            "{}",
            trace.ops[1].label
        );
        assert_eq!(trace.ops[1].stats.hash_builds, 1);
        assert!(trace.to_string().contains("hash_builds=1"));
    }
}
