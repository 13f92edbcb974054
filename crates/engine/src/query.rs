//! A serial, morsel-at-a-time query executor with cost counters.
//!
//! The point (paper §1): *"decreasing the number of relations in a database
//! by merging relations reduces the need for joining relations, and usually
//! results in a better access performance."* The executor runs the same
//! logical retrieval against merged and unmerged schemas — a point lookup
//! or scan over a single merged relation versus an N-way join — and counts
//! the rows and index probes each needs, so the benches can report the
//! speedup *shape* the paper asserts. A merge saves work, not threads, so
//! one query runs on one thread.
//!
//! # Execution model
//!
//! A query looks up each relation its plan names once, and sizes its
//! header, slot buffers and per-step counters once from the plan. The
//! root access produces *borrowed* row slots (no tuple is cloned on
//! the scan path). A predicate over root attributes alone is pushed down:
//! it drops root rows in place before the join pipeline. An inner step's
//! indexed `Eq` may instead drive a full-scan root through the step's join
//! key (a semi-join reduction): the root access then reads only the root
//! rows that step can keep, in scan order. The join pipeline is then
//! compiled once: index coverage alone picks each step's access —
//! index-nested-loop probes through a covering index, or else a hash join
//! over a transient table built by one scan of the right relation (the
//! crate-private `build` module, reused through the versioned build-side
//! cache) — so cost counters are identical cache on or off. The root rows
//! then run through the pipeline in morsels of 1,024 rows, in order, in
//! one loop: each join step writes its intermediate rows into one flat
//! buffer of borrowed slots, each surviving row is materialized exactly
//! once, into the one vector that becomes the answer, and each morsel
//! folds its counters into its operators as it finishes. A morsel is the unit of the
//! `engine.query.morsel_worker` fault site, and it bounds the flat join
//! buffers. A stream proved empty at compile time runs no morsel. A plan
//! without join steps builds no slot row: each root row the filter keeps
//! is copied once, straight into the answer.
//!
//! The answer is assembled once: a key join over stored sets emits no row
//! twice, so the joined rows become the answer through
//! [`Relation::from_distinct_rows`], unhashed, and only a projection, which
//! can merge rows, deduplicates (DESIGN §6, "Assemble once").
//!
//! [`Database::execute_traced`] additionally returns a [`QueryTrace`]: an
//! EXPLAIN-ANALYZE-style operator breakdown (rows in/out, index probes,
//! rows scanned, hash builds, wall time per access/join/filter/project
//! step) whose per-operator counters sum exactly to the [`QueryStats`]
//! totals. Only a traced query times its operators: an untraced one reads
//! the clock twice, at its start and for `engine.query.ns`.

use std::fmt;
use std::ops::AddAssign;
use std::sync::Arc;
use std::time::Instant;

use relmerge_obs::{self as obs};
use relmerge_relational::{Attribute, Error, Relation, Result, Tuple, Value};

use crate::build::{build_owned, BuildKey, OwnedBuild};
use crate::database::{Database, KeyIndex, Table};
use crate::fault::{contain, site};
use crate::planner::{choose_root_lookup, choose_semi_join, RootProbe};

/// Root rows per morsel: the `engine.query.morsel_worker` fault site
/// fires as each morsel starts, and a morsel's rows bound the flat join
/// buffers.
const MORSEL_ROWS: usize = 1024;

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
/// so the executor evaluates it on materialized value rows infallibly.
/// Compile once, evaluate per row.
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

/// Counters accumulated by one query execution. Identical whether a hash
/// build ran cold or came from the build cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Rows read by scans (root scans and hash build-side scans).
    pub rows_scanned: u64,
    /// Index probes issued by index-nested-loop steps and root lookups:
    /// one per probed left row, whatever the left side's size.
    pub index_probes: u64,
    /// Join steps performed.
    pub joins: u64,
    /// Rows in the result.
    pub rows_output: u64,
    /// Transient hash tables built as join build sides (a cached build
    /// counts as the build it replays).
    pub hash_builds: u64,
    /// Morsels the root rows were partitioned into (1,024 rows each); 0
    /// when the stream was proved empty before the first morsel.
    pub morsels: u64,
    /// Approximate bytes of intermediate state this query materialized:
    /// borrowed slot rows emitted by join steps, transient hash builds,
    /// and the materialized output rows. Identical whether a build ran
    /// cold or came from the cache.
    pub intermediate_bytes: u64,
    /// The largest single-operator contribution to `intermediate_bytes`:
    /// the query's memory high-water mark. Maxed, not summed, when stats
    /// are folded with `+=`.
    pub peak_intermediate_bytes: u64,
}

/// Folds a query's stats into a running total field-wise (`rows_output`
/// adds too, which is the useful reading for a batch of queries).
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
    /// Transient hash tables this operator built as a build side.
    pub hash_builds: u64,
    /// Approximate intermediate bytes this operator materialized (slot
    /// rows for joins, transient build tables, output tuples for the
    /// materialize/filter step).
    pub intermediate_bytes: u64,
    /// Wall time spent in this operator (summed across morsels).
    pub wall_ns: u64,
}

impl OpStats {
    /// Folds one morsel's probe-side counters into this operator's.
    /// `hash_builds` is left alone: builds happen once, before the first
    /// morsel.
    fn absorb(&mut self, morsel: &OpStats) {
        self.rows_in += morsel.rows_in;
        self.rows_out += morsel.rows_out;
        self.rows_scanned += morsel.rows_scanned;
        self.index_probes += morsel.index_probes;
        self.intermediate_bytes += morsel.intermediate_bytes;
        self.wall_ns += morsel.wall_ns;
    }
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
/// counters, each summed over the morsels, add up exactly to them.
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

/// How one compiled join step reaches its right-hand rows. `Index`
/// points straight into the database's storage; `HashOwned` shares a
/// transient table built by scanning the right relation once (possibly
/// reused through the build-side cache).
enum RightAccess<'a> {
    /// Index-nested-loop through the table index covering the join
    /// attributes: one counted probe per total left row.
    Index {
        index: &'a KeyIndex,
        rows: &'a [Option<Tuple>],
    },
    /// A join no index covers, after a provably empty left side: it
    /// neither scans nor builds, and no row ever probes it.
    Empty,
    /// Hash join over a transient table built by scanning the right
    /// relation once (counted as that one scan, whether the build ran cold
    /// or came from the versioned cache). The build maps keys to row
    /// *slots*, resolved against the borrowed storage rows at probe time.
    HashOwned {
        build: Arc<OwnedBuild>,
        rows: &'a [Option<Tuple>],
    },
}

/// One join step compiled against the database: access chosen, build
/// side ready, left attribute positions resolved to (source, column)
/// slots. Compilation happens once, before the first morsel runs.
struct CompiledJoin<'a> {
    access: RightAccess<'a>,
    /// (source, column) of each left join attribute in the slot row.
    left_locs: Vec<(usize, usize)>,
    outer: bool,
    /// Build-side costs (hash builds, build scans, build wall time),
    /// attributed to this join's operator in the trace.
    build: OpStats,
    /// Whether the transient build came from the build cache (the trace
    /// labels it `[build: cached]`, a cold build `[build: serial]`).
    cached: bool,
    /// A conjunct pushed to this step's *probe side*: applied to every
    /// matched right row before it joins. `None` when the pushed conjunct
    /// was instead folded into the build (`HashOwned` filters while
    /// building) or when nothing was pushed here.
    pushed: Option<CompiledPredicate>,
    /// Whether this step's output is provably empty, so the next step
    /// builds nothing: its left side was empty, or it is an inner step
    /// whose pushed conjunct keeps no right row.
    output_empty: bool,
    /// Rows the pushed conjunct removed while building the hash side
    /// (charged per use, hit or cold, so the counter is cache-independent).
    build_pruned: u64,
}

/// What the morsels produced so far: the materialized (and filtered)
/// rows, in pipeline order, in the one vector that becomes the answer,
/// plus the per-operator counters each morsel folds in as it finishes.
struct PipelineOut {
    rows: Vec<Tuple>,
    /// Per join step: its build costs ([`CompiledJoin::build`]) plus the
    /// probe-side counters of every finished morsel.
    per_join: Vec<OpStats>,
    /// Materialize + filter counters (`rows_in`/`rows_out`/`wall_ns`).
    filter: OpStats,
    /// Probe-key `Tuple` allocations avoided by probing with borrowed
    /// values (one per total-key probe; the B10 summary reports the sum).
    saved_allocs: u64,
    /// Right rows removed by probe-side pushed conjuncts.
    pruned: u64,
}

/// The working buffers of [`run_morsel`], allocated once per query and
/// kept across its morsels: each morsel clears them and reuses what they
/// grew to.
struct MorselBuffers<'a> {
    /// The current step's input rows, flattened (see [`run_morsel`]).
    cur: Vec<Option<&'a Tuple>>,
    /// The current step's output rows, one slot wider.
    next: Vec<Option<&'a Tuple>>,
    /// A transient build's probe key.
    key_vals: Vec<Value>,
    /// One probe's matching right rows.
    matches: Vec<&'a Tuple>,
}

impl MorselBuffers<'_> {
    /// Buffers for morsels of up to `rows` root rows through `steps` join
    /// steps, sized once: each slot buffer holds the widest stream such a
    /// morsel makes when no step fans out (`rows × (steps + 1)` slots), so
    /// a key join never grows them. A plan without join steps runs none.
    fn sized(rows: usize, steps: usize) -> Self {
        let slots = if steps == 0 { 0 } else { rows * (steps + 1) };
        MorselBuffers {
            cur: Vec::with_capacity(slots),
            next: Vec::with_capacity(slots),
            key_vals: Vec::new(),
            matches: Vec::new(),
        }
    }
}

/// A start time, read only for a traced query: an untraced one reads the
/// clock twice, for `engine.query.ns`, and times no operator.
fn clock(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

/// Nanoseconds since `start`; 0 for an untraced query.
fn since(start: Option<Instant>) -> u64 {
    start.map_or(0, obs::elapsed_ns)
}

/// Runs the compiled join → materialize → filter pipeline over one morsel
/// of root rows, appending its surviving rows to `out` and folding its
/// counters in. Infallible: every name was resolved at compile time.
/// `sources` holds the plan's stored relations, root first; `traced` says
/// whether to time each operator.
///
/// A step's intermediate rows live in one flat buffer: row `i` of a
/// stream that has joined `stride` sources is
/// `cur[i * stride..(i + 1) * stride]`, one borrowed slot per source
/// (root first), `None` for an outer-join null pad. Each step appends its
/// output rows, one slot wider, to the other buffer and swaps. The per-row
/// loops count in locals, folded into `out` once per step. A plan with no
/// join step builds no slot row: each root row is copied straight into
/// the answer.
fn run_morsel<'a>(
    morsel: &[&'a Tuple],
    joins: &[CompiledJoin<'a>],
    filter: Option<&CompiledPredicate>,
    sources: &[&Table],
    bufs: &mut MorselBuffers<'a>,
    out: &mut PipelineOut,
    traced: bool,
) {
    let MorselBuffers {
        cur,
        next,
        key_vals,
        matches,
    } = bufs;
    let mut saved_allocs: u64 = 0;
    let mut pruned: u64 = 0;
    if !joins.is_empty() {
        cur.clear();
        cur.extend(morsel.iter().map(|&t| Some(t)));
    }
    for (ji, join) in joins.iter().enumerate() {
        let t0 = clock(traced);
        let stride = ji + 1;
        let mut op = OpStats {
            rows_in: (cur.len() / stride) as u64,
            ..OpStats::default()
        };
        next.clear();
        next.reserve(cur.len() + cur.len() / stride);
        // An index is probed with the left key's values in place; a
        // transient build (keyed by tuples) with a copy in `key_vals`,
        // which keeps its capacity across rows.
        let copies_key = matches!(join.access, RightAccess::HashOwned { .. });
        for row in cur.chunks_exact(stride) {
            // An outer-join pad or a null key component makes the key
            // non-total (no probe).
            key_vals.clear();
            let mut total = true;
            for &(src, col) in &join.left_locs {
                match row[src] {
                    Some(t) if !t.get(col).is_null() => {
                        if copies_key {
                            key_vals.push(t.get(col).clone());
                        }
                    }
                    _ => {
                        total = false;
                        break;
                    }
                }
            }
            if !total {
                if join.outer {
                    next.extend_from_slice(row);
                    next.push(None);
                }
                continue;
            }
            saved_allocs += 1;
            matches.clear();
            match &join.access {
                RightAccess::Index { index, rows } => {
                    op.index_probes += 1;
                    let key = join
                        .left_locs
                        .iter()
                        .map(|&(src, col)| row[src].expect("a total key").get(col));
                    // A plain loop over the bucket: rows whose keys only
                    // share the key's hash are skipped.
                    for &s in index.bucket(key.clone()) {
                        if let Some(t) = &rows[s] {
                            if index.carries(t, key.clone()) {
                                matches.push(t);
                            }
                        }
                    }
                }
                RightAccess::Empty => {}
                RightAccess::HashOwned { build, rows } => {
                    if let Some(slots) = build.probe(key_vals) {
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
                    next.extend_from_slice(row);
                    next.push(None);
                }
            } else {
                for &m in matches.iter() {
                    next.extend_from_slice(row);
                    next.push(Some(m));
                }
            }
        }
        op.rows_out = (next.len() / (stride + 1)) as u64;
        // Slot-row footprint of this step's output: one borrowed slot per
        // source seen so far (root + ji + 1 joins). Depends only on
        // `rows_out`, so the sum across morsels is the whole stream's.
        op.intermediate_bytes =
            op.rows_out * ((ji + 2) * std::mem::size_of::<Option<&Tuple>>()) as u64;
        op.wall_ns = since(t0);
        out.per_join[ji].absorb(&op);
        std::mem::swap(cur, next);
    }
    // Materialize each surviving row exactly once, applying the filter on
    // the freshly built values, straight into the answer's vector.
    let t0 = clock(traced);
    let total_width: usize = sources.iter().map(|t| t.header.len()).sum();
    let rows = &mut out.rows;
    let before = rows.len();
    let rows_in = if joins.is_empty() {
        // A root row is an answer row as it stands: the filter reads it in
        // place, and only a kept row is copied, into a vector the caller
        // sized for every root row.
        let kept = morsel
            .iter()
            .filter(|t| filter.is_none_or(|p| p.matches(t.values())));
        rows.extend(kept.map(|&t| t.clone()));
        morsel.len()
    } else {
        rows.reserve(cur.len() / sources.len());
        for parts in cur.chunks_exact(sources.len()) {
            let mut vals: Vec<Value> = Vec::with_capacity(total_width);
            for (part, source) in parts.iter().zip(sources) {
                match part {
                    Some(t) => vals.extend_from_slice(t.values()),
                    None => vals
                        .extend(std::iter::repeat_with(|| Value::Null).take(source.header.len())),
                }
            }
            if let Some(p) = filter {
                if !p.matches(&vals) {
                    continue;
                }
            }
            rows.push(Tuple::new(vals));
        }
        cur.len() / sources.len()
    };
    let rows_out = (rows.len() - before) as u64;
    // Materialized-output footprint: each surviving row owns a `Tuple`
    // holding `total_width` values.
    let fop = OpStats {
        rows_in: rows_in as u64,
        rows_out,
        intermediate_bytes: rows_out
            * (std::mem::size_of::<Tuple>() + total_width * std::mem::size_of::<Value>()) as u64,
        wall_ns: since(t0),
        ..OpStats::default()
    };
    out.filter.absorb(&fop);
    out.saved_allocs += saved_allocs;
    out.pruned += pruned;
}

/// What is known of a join step's left stream before any morsel runs.
#[derive(Clone, Copy)]
struct LeftStream {
    /// The left side is provably empty, which spares a join no index
    /// covers its build.
    empty: bool,
    /// The root was reduced through this step (a semi-join), so the
    /// step's output is empty exactly when its left side is, and no stored
    /// row need be read to tell.
    reduced: bool,
}

/// Compiles join step `k`: resolves the left attributes against the
/// sources joined before it, picks the access, and borrows the covering
/// index or prepares the transient build side. `sources` holds the plan's
/// stored relations, root first, then one per join step, up to the first
/// step that names no stored relation. A transient build goes through the
/// versioned cache — a hit reuses the stored build and charges its stored
/// costs, so `QueryStats` are identical cold and warm; a miss builds and
/// inserts. `left` is what is known of the step's left stream, and
/// `traced` says whether to time the build.
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
    k: usize,
    sources: &[&'a Table],
    left: LeftStream,
    pushed: Option<&Predicate>,
    traced: bool,
) -> Result<CompiledJoin<'a>> {
    // The first source, in join order, that carries each left attribute.
    let left_locs: Vec<(usize, usize)> = step
        .left_attrs
        .iter()
        .map(|n| {
            sources[..=k]
                .iter()
                .enumerate()
                .find_map(|(src, t)| {
                    let col = t.header.iter().position(|a| a.name() == n.as_str())?;
                    Some((src, col))
                })
                .ok_or_else(|| Error::UnknownAttribute {
                    attribute: n.clone(),
                    context: format!("join input of `{}`", step.rel),
                })
        })
        .collect::<Result<_>>()?;
    let table: &'a Table = sources
        .get(k + 1)
        .ok_or_else(|| Error::UnknownScheme(step.rel.clone()))?;
    // An index matches the right attributes by name; only a join no index
    // covers resolves their positions: its build reads them, and an unknown
    // name fails here even when no row reaches the step.
    let index = table.index(&step.right_attrs);
    let pos = match index {
        Some(_) => Vec::new(),
        None => table.positions(&step.right_attrs)?,
    };
    let cp = pushed
        .map(|p| CompiledPredicate::compile(p, &table.header))
        .transpose()?;
    // An inner step whose pushed conjunct keeps no stored row empties the
    // stream for every later step. The check reads stored rows only, stops
    // at the first kept row and counts the rows it read on
    // `engine.query.empty_check_rows`; a reducing step needs no check,
    // since a conjunct that keeps no row left the root empty.
    let checked = !left.empty && !step.outer && !left.reduced;
    let mut output_empty = left.empty;
    if let Some(c) = cp.as_ref().filter(|_| checked) {
        let mut read = 0;
        output_empty = !table.rows.iter().flatten().any(|t| {
            read += 1;
            c.matches(t.values())
        });
        db.metrics.empty_check_rows.add(read);
    }
    let t0 = clock(traced);
    let mut build = OpStats::default();
    let mut cached = false;
    // Index coverage alone picks the access; a provably empty left side
    // spares only a join no index covers its build.
    let access = match index {
        Some(index) => RightAccess::Index {
            index,
            rows: &table.rows,
        },
        None if left.empty => RightAccess::Empty,
        None => {
            build.hash_builds = 1;
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
            let hit = db.build_cache_lock().get(&key);
            let owned = match hit {
                Some(owned) => {
                    db.metrics.build_cache_hits.inc();
                    cached = true;
                    owned
                }
                None => {
                    db.metrics.build_cache_misses.inc();
                    let owned = contain(|| -> Result<_> {
                        let owned = build_owned(&table.rows, &pos, cp.as_ref(), || {
                            db.fault_check(site::HASH_BUILD)
                        })?;
                        // The insert-side fault site fires *before* the
                        // cache is touched: an injected error or panic
                        // fails this query and leaves the cache
                        // unmodified — never a poisoned entry.
                        db.fault_check(site::BUILD_CACHE_INSERT)?;
                        Ok(Arc::new(owned))
                    })?;
                    let (evicted, evicted_bytes) =
                        db.build_cache_lock().insert(key, Arc::clone(&owned));
                    db.metrics.build_cache_evictions.add(evicted);
                    db.metrics.cache_insert.inc();
                    db.metrics.cache_evicted_bytes.add(evicted_bytes);
                    owned
                }
            };
            // Hits charge the same scan count and bytes the cold build
            // did, keeping stats independent of cache state.
            build.rows_scanned = owned.rows_scanned();
            build.intermediate_bytes = owned.bytes();
            RightAccess::HashOwned {
                build: owned,
                rows: &table.rows,
            }
        }
    };
    build.wall_ns = since(t0);
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
        cached,
        pushed: pushed_probe,
        output_empty,
        build_pruned,
    })
}

/// The trace label of a compiled join step, e.g. `OuterHashJoin R ON
/// L.V=R.V [build: cached] [pushed]`: built only when the query is
/// traced. `pushed` says a conjunct was pushed to the step.
fn join_label(step: &JoinStep, join: &CompiledJoin<'_>, pushed: bool) -> String {
    let hashed = matches!(join.access, RightAccess::HashOwned { .. });
    let verb = match (step.outer, hashed) {
        (false, false) => "Join",
        (true, false) => "OuterJoin",
        (false, true) => "HashJoin",
        (true, true) => "OuterHashJoin",
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
    if hashed {
        label.push_str(if join.cached {
            " [build: cached]"
        } else {
            " [build: serial]"
        });
    }
    if pushed {
        label.push_str(" [pushed]");
    }
    label
}

/// Where each conjunct of the query filter will run, decided once per
/// query before any data is touched. Produced by [`plan_pushdown`] from
/// the [`crate::predopt`] optimizer's canonical conjunct partition.
struct PushdownPlan {
    /// Conjunction of the root-only conjuncts, compiled against the root
    /// header; drops root rows right after root access.
    root: Option<CompiledPredicate>,
    /// The index-driven access that replaces a full-scan root: a root
    /// `Eq` upgraded to one point lookup, or else a semi-join reduction
    /// through an inner step's indexed `Eq`.
    root_probe: Option<RootProbe>,
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
}

impl PushdownPlan {
    /// Nothing placed anywhere: the placement of an unfiltered plan with
    /// `joins` steps.
    fn empty(joins: usize) -> PushdownPlan {
        PushdownPlan {
            root: None,
            root_probe: None,
            per_join: vec![None; joins],
            residual: None,
            verdict: None,
            pushed: 0,
        }
    }
}

/// Partitions the optimized filter's conjuncts across the plan's
/// relations, `sources` (root first, then one per join step, up to the
/// first step that names no stored relation). Fails, before any row is
/// read, with the error the query would meet anyway: a join that names an
/// unknown relation, or a filter attribute that resolves to no relation.
/// Placement rules:
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
///
/// A full-scan root with no `Eq` upgrade is then reduced through the
/// first inner step that [`choose_semi_join`] accepts: the step keeps its
/// pushed conjunct, and the root starts from the rows its kept keys reach.
fn plan_pushdown(plan: &QueryPlan, filter: &Predicate, sources: &[&Table]) -> Result<PushdownPlan> {
    // sources[0] is the root; sources[k] is join step k-1's relation.
    if let Some(step) = plan.joins.get(sources.len() - 1) {
        return Err(Error::UnknownScheme(step.rel.clone()));
    }
    let source_of = |attr: &str| -> Result<usize> {
        sources
            .iter()
            .position(|t| t.header.iter().any(|a| a.name() == attr))
            .ok_or_else(|| Error::UnknownAttribute {
                attribute: attr.to_owned(),
                context: "predicate".to_owned(),
            })
    };
    // Every attribute of the *original* predicate must resolve, even one
    // the optimizer folds away.
    for attr in crate::predopt::attrs(filter) {
        source_of(&attr)?;
    }
    let mut out = PushdownPlan::empty(plan.joins.len());
    let canonical = match crate::predopt::optimize(filter) {
        crate::predopt::Optimized::Always(b) => {
            out.verdict = Some(b);
            out.pushed = 1;
            return Ok(out);
        }
        crate::predopt::Optimized::Pred(q) => q,
    };
    let mut root_conjuncts: Vec<Predicate> = Vec::new();
    let mut per_join: Vec<Vec<Predicate>> = vec![Vec::new(); plan.joins.len()];
    let mut residual: Vec<Predicate> = Vec::new();
    for c in crate::predopt::conjuncts(&canonical) {
        let mut owners = std::collections::BTreeSet::new();
        for a in crate::predopt::attrs(&c) {
            owners.insert(source_of(&a)?);
        }
        let src = match (owners.len(), owners.iter().next()) {
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
            if out.root_probe.is_none() && matches!(plan.access, Access::FullScan) {
                if let Some((attr, value)) = choose_root_lookup(sources[0], &c) {
                    out.root_probe = Some(RootProbe::Eq(attr, value));
                    out.pushed += 1;
                    continue;
                }
            }
            root_conjuncts.push(c);
            out.pushed += 1;
        } else {
            let step = &plan.joins[src - 1];
            let header = &sources[src].header;
            let cp = CompiledPredicate::compile(&c, header)?;
            let null_rejecting = !cp.matches(&vec![Value::Null; header.len()]);
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
    // No root `Eq` upgrade: an inner step's indexed `Eq` may still drive
    // the root through the step's join key.
    if out.root_probe.is_none() && matches!(plan.access, Access::FullScan) {
        out.root_probe = choose_semi_join(plan, sources, &per_join);
    }
    out.root = crate::predopt::conjoin(&root_conjuncts)
        .map(|p| CompiledPredicate::compile(&p, &sources[0].header))
        .transpose()?;
    for (slot, cs) in out.per_join.iter_mut().zip(&per_join) {
        *slot = crate::predopt::conjoin(cs);
    }
    out.residual = crate::predopt::conjoin(&residual);
    Ok(out)
}

/// The root rows of a semi-join reduction through join step `step` (see
/// [`RootProbe::SemiJoin`]), in slot order — the scan's order — with the
/// number of rows the step's pushed conjunct rejected; or `None` when the
/// step keeps no fewer distinct keys than the root has live rows, where
/// the scan is no more work. `sources` holds the plan's stored relations,
/// root first. Probes the step relation's index on `attr` once with
/// `value`, keeps the rows `pushed` (the step's whole pushed conjunct)
/// keeps, and probes the root index on the step's left attributes once
/// per distinct total key of those rows, charging those `1 + keys` probes
/// to `stats`. Keys and rows stay borrowed.
fn semi_join_roots<'a>(
    plan: &QueryPlan,
    sources: &[&'a Table],
    step: usize,
    attr: &[String],
    value: &Value,
    pushed: &Predicate,
    stats: &mut QueryStats,
) -> Result<Option<(Vec<&'a Tuple>, u64)>> {
    let join = &plan.joins[step];
    let (right, root) = (sources[step + 1], sources[0]);
    let (Some(by_value), Some(by_key)) = (right.index(attr), root.index(&join.left_attrs)) else {
        return Ok(None);
    };
    let cp = CompiledPredicate::compile(pushed, &right.header)?;
    let key_pos = right.positions(&join.right_attrs)?;
    let key_of = |t: &'a Tuple| key_pos.iter().map(move |&i| t.get(i));
    let mut kept: Vec<&Tuple> = Vec::new();
    let mut rejected = 0;
    for (_, t) in by_value.find(&right.rows, std::iter::once(value)) {
        if cp.matches(t.values()) {
            kept.push(t);
        } else {
            rejected += 1;
        }
    }
    // An inner join never matches a null key component, so only total
    // keys reach root rows; one row stands for each distinct key.
    kept.retain(|&t| key_of(t).all(|v| !v.is_null()));
    kept.sort_unstable_by(|&a, &b| key_of(a).cmp(key_of(b)));
    kept.dedup_by(|a, b| key_of(a).eq(key_of(b)));
    if kept.len() >= root.live {
        return Ok(None);
    }
    let mut hits: Vec<(usize, &Tuple)> = Vec::new();
    for &t in &kept {
        hits.extend(by_key.find(&root.rows, key_of(t)));
    }
    hits.sort_unstable_by_key(|&(slot, _)| slot);
    stats.index_probes += 1 + kept.len() as u64;
    Ok(Some((hits.into_iter().map(|(_, t)| t).collect(), rejected)))
}

/// Thin classification wrapper over [`execute_core`]: a failed execution
/// bumps the matching abort counter before the error propagates, so
/// injected faults and contained panics are visible in the metrics
/// snapshot.
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
    let mut stats = QueryStats::default();

    // Each relation the plan names is looked up once: the root, then each
    // join step's, up to the first step that names no stored relation —
    // that step fails the query where it is reached, as if looked up there.
    let root: &Table = db
        .tables
        .get(&plan.root)
        .ok_or_else(|| Error::UnknownScheme(plan.root.clone()))?;
    let mut sources: Vec<&Table> = Vec::with_capacity(plan.joins.len() + 1);
    sources.push(root);
    sources.extend(
        plan.joins
            .iter()
            .map_while(|step| db.tables.get(&step.rel).map(|t| &**t)),
    );

    // Filter placement runs before any data is touched, under the
    // `engine.query.pushdown` fault site: an injected error or panic, like
    // a filter naming an unknown attribute, fails the query typed.
    let pd = match &plan.filter {
        Some(filter) => contain(|| {
            db.fault_check(site::PUSHDOWN)?;
            plan_pushdown(plan, filter, &sources)
        })?,
        None => PushdownPlan::empty(plan.joins.len()),
    };

    // Root access (serial, borrowed slots — nothing is cloned). A pushed
    // root `Eq` on an indexed attribute turns the full scan into one
    // counted probe, and a semi-join reduction into `1 + keys` probes
    // unless its step keeps no fewer keys than the root has rows.
    let t_root = clock(traced);
    let mut root_rows: Vec<&Tuple> = Vec::new();
    let mut pruned_rows: u64 = 0;
    let mut reduced_by: Option<usize> = None;
    match (&plan.access, &pd.root_probe) {
        (Access::Lookup { attrs, key }, _) => {
            root.probe_into(attrs, key.values(), &mut stats, &mut root_rows)?;
        }
        (Access::FullScan, Some(RootProbe::Eq(attr, value))) => {
            let (attr, key) = (std::slice::from_ref(attr), std::slice::from_ref(value));
            root.probe_into(attr, key, &mut stats, &mut root_rows)?;
        }
        (Access::FullScan, probe) => {
            if let Some(RootProbe::SemiJoin { step, attr, value }) = probe {
                let pushed = pd.per_join[*step]
                    .as_ref()
                    .expect("the reducing step carries its pushed `Eq`");
                let attr = std::slice::from_ref(attr);
                if let Some((rows, rejected)) =
                    semi_join_roots(plan, &sources, *step, attr, value, pushed, &mut stats)?
                {
                    root_rows = rows;
                    pruned_rows += rejected;
                    reduced_by = Some(*step);
                }
            }
            if reduced_by.is_none() {
                root_rows = root.scan();
                stats.rows_scanned += root_rows.len() as u64;
            }
        }
    }
    let root_op = traced.then(|| {
        let (kind, label) = match (&plan.access, &pd.root_probe, reduced_by) {
            (Access::Lookup { attrs, .. }, _, _) => (
                OpKind::Lookup,
                format!("Lookup {} [{}]", plan.root, attrs.join(",")),
            ),
            (Access::FullScan, Some(RootProbe::Eq(attr, _)), _) => (
                OpKind::Lookup,
                format!("Lookup {} [{}] (pushed Eq)", plan.root, attr),
            ),
            (Access::FullScan, Some(RootProbe::SemiJoin { attr, .. }), Some(step)) => {
                let join = &plan.joins[step];
                let label = format!(
                    "Lookup {} [{}] (semi-join {} [{}])",
                    plan.root,
                    join.left_attrs.join(","),
                    join.rel,
                    attr
                );
                (OpKind::Lookup, label)
            }
            (Access::FullScan, _, _) => (OpKind::Scan, format!("Scan {}", plan.root)),
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
                wall_ns: since(t_root),
            },
        }
    });

    // Root-side filtering, as the placement decided.
    let mut pushed_op: Option<OpStats> = None;
    if pd.verdict == Some(false) {
        // The optimizer proved the filter constant-false: nothing can
        // survive, so the pipeline sees no rows at all.
        let t0 = clock(traced);
        let rows_in = root_rows.len() as u64;
        pruned_rows += rows_in;
        root_rows.clear();
        pushed_op = Some(OpStats {
            rows_in,
            rows_out: 0,
            wall_ns: since(t0),
            ..OpStats::default()
        });
    } else if let Some(cp) = &pd.root {
        let t0 = clock(traced);
        let rows_in = root_rows.len() as u64;
        root_rows.retain(|t| cp.matches(t.values()));
        pruned_rows += rows_in - root_rows.len() as u64;
        pushed_op = Some(OpStats {
            rows_in,
            rows_out: root_rows.len() as u64,
            wall_ns: since(t0),
            ..OpStats::default()
        });
    }

    // Compile the join pipeline. Emptiness of each step's left side (see
    // `CompiledJoin::output_empty`) and every hash build are settled here,
    // before the first morsel runs.
    let mut left_empty = root_rows.is_empty();
    let mut joins: Vec<CompiledJoin<'_>> = Vec::with_capacity(plan.joins.len());
    for (k, (step, pushed)) in plan.joins.iter().zip(&pd.per_join).enumerate() {
        stats.joins += 1;
        let left = LeftStream {
            empty: left_empty,
            reduced: reduced_by == Some(k),
        };
        let compiled = compile_join(db, step, k, &sources, left, pushed.as_ref(), traced)?;
        left_empty = compiled.output_empty;
        joins.push(compiled);
    }
    // The answer's header, every source's attributes in join order, sized
    // once; then the residual filter: what the placement left for the
    // joined row.
    let mut header = Vec::with_capacity(sources.iter().map(|t| t.header.len()).sum());
    for t in &sources {
        header.extend_from_slice(&t.header);
    }
    let filter = pd
        .residual
        .as_ref()
        .map(|p| CompiledPredicate::compile(p, &header))
        .transpose()?;

    // Run the pipeline a morsel at a time; a stream proved empty above
    // runs no morsel. A panic (injected or genuine) is contained — it
    // fails only this query, as a typed error, leaving the database
    // untouched (the executor never mutates; it holds only borrowed rows).
    let live = if left_empty { &[][..] } else { &root_rows[..] };
    let morsels = live.chunks(MORSEL_ROWS);
    stats.morsels = morsels.len() as u64;
    // Without a join step the answer holds at most the root rows, so its
    // vector is sized once for them; a join's answer size is known only
    // morsel by morsel.
    let mut out = PipelineOut {
        rows: Vec::with_capacity(if joins.is_empty() { live.len() } else { 0 }),
        per_join: joins.iter().map(|j| j.build).collect(),
        filter: OpStats::default(),
        saved_allocs: 0,
        pruned: 0,
    };
    let mut bufs = MorselBuffers::sized(live.len().min(MORSEL_ROWS), joins.len());
    contain(|| {
        for morsel in morsels {
            db.fault_check(site::MORSEL_WORKER)?;
            run_morsel(
                morsel,
                &joins,
                filter.as_ref(),
                &sources,
                &mut bufs,
                &mut out,
                traced,
            );
        }
        Ok::<_, Error>(())
    })?;
    let PipelineOut {
        rows,
        per_join,
        filter: filter_op,
        saved_allocs,
        pruned,
    } = out;
    pruned_rows += pruned;
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
    pruned_rows += joins.iter().map(|j| j.build_pruned).sum::<u64>();
    db.metrics.pushed_conjuncts.add(pd.pushed);
    db.metrics.pushdown_pruned_rows.add(pruned_rows);

    // Assemble once. The joined rows are pairwise distinct by
    // construction (DESIGN §6, "Assemble once"), so they become the answer
    // unhashed; only a projection, which can merge rows, deduplicates.
    let t_proj = clock(traced);
    let rows_in_proj = rows.len() as u64;
    let joined = Relation::from_distinct_rows(header, rows)?;
    let result = if plan.project.is_empty() {
        joined
    } else {
        let wanted: Vec<&str> = plan.project.iter().map(String::as_str).collect();
        relmerge_relational::algebra::project(&joined, &wanted)?
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
        for (k, ((step, cj), op)) in plan.joins.iter().zip(&joins).zip(&per_join).enumerate() {
            tr.ops.push(OpTrace {
                kind: OpKind::Join,
                label: join_label(step, cj, pd.per_join[k].is_some()),
                stats: *op,
            });
        }
        let mut proj_wall = since(t_proj);
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

    // The always-on totals, on this database's metrics shard (a pin's is
    // its store's); then each join step's cost, charged to its edge in the
    // workload's join ledger. A step's probe side is the relation its
    // first left attribute resolves to (source 0 is the root; source k is
    // join step k-1's relation).
    db.metrics.record_query(&stats, t_exec);
    if !joins.is_empty() {
        let steps = plan.joins.iter().zip(&joins).zip(&per_join);
        db.profiler.record(steps.map(|((step, cj), op)| {
            let left = match cj.left_locs.first() {
                Some(&(0, _)) | None => plan.root.as_str(),
                Some(&(src, _)) => plan.joins[src - 1].rel.as_str(),
            };
            let cost = obs::EdgeCost {
                index_probes: op.index_probes,
                rows_scanned: op.rows_scanned,
                hash_builds: op.hash_builds,
                rows_out: op.rows_out,
                intermediate_bytes: op.intermediate_bytes,
            };
            (left, step.rel.as_str(), step.right_attrs.as_slice(), cost)
        }));
    }
    Ok((result, stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DbmsProfile;
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
    fn query_stats_fold_field_wise() {
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
        let mut sum = a;
        sum += b;
        assert_eq!(sum.rows_scanned, 11);
        assert_eq!(sum.rows_output, 44);
        assert_eq!(sum.hash_builds, 55);
        assert_eq!(sum.morsels, 66);
        assert_eq!(sum.intermediate_bytes, 77);
        // Peak is a high-water mark: maxed, never summed.
        assert_eq!(sum.peak_intermediate_bytes, 8);
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
    }

    #[test]
    fn executions_charge_the_join_ledger_and_the_query_counters() {
        let db = db();
        let lookup = |k: i64| {
            QueryPlan::lookup("COURSE", &["C.K"], tup(&[k])).join(JoinStep::inner(
                "OFFER",
                &["C.K"],
                &["O.K"],
            ))
        };
        let mut total = QueryStats::default();
        let mut join_probes = 0;
        for k in [2, 4] {
            let (_, stats, trace) = db.execute_traced(&lookup(k)).unwrap();
            total += stats;
            join_probes += trace.ops[1].stats.index_probes;
        }
        // Both executions charge the one COURSE->OFFER edge.
        let snap = db.profile_snapshot();
        assert_eq!(snap.hot_joins.len(), 1);
        let edge = &snap.hot_joins[0];
        assert_eq!(edge.edge.label(), "COURSE->OFFER[O.K]");
        assert_eq!(edge.executions, 2);
        assert_eq!(edge.index_probes, join_probes);
        assert_eq!(edge.cumulative_cost, join_probes);
        // The query counters are exactly the sum of the per-query stats.
        let metrics = db.metrics_registry().snapshot();
        assert_eq!(
            metrics.counters["engine.query.index_probes"],
            total.index_probes
        );
        assert_eq!(
            metrics.counters["engine.query.rows_output"],
            total.rows_output
        );
        assert_eq!(
            metrics.counters["engine.query.intermediate_bytes"],
            total.intermediate_bytes
        );
        assert_eq!(metrics.histograms["engine.query.ns"].count, 2);
        // A fork shares the ledger but counts on its own shard.
        let fork = db.fork();
        fork.execute(&lookup(6)).unwrap();
        assert_eq!(db.profile_snapshot().hot_joins[0].executions, 3);
        assert_eq!(
            db.metrics_registry().snapshot().histograms["engine.query.ns"].count,
            2
        );
    }

    #[test]
    fn a_query_without_joins_leaves_the_ledger_empty() {
        let db = db();
        db.execute(&QueryPlan::scan("COURSE")).unwrap();
        db.execute(&QueryPlan::lookup("COURSE", &["C.K"], tup(&[4])))
            .unwrap();
        assert!(db.profile_snapshot().hot_joins.is_empty());
        // The query counters still count both.
        let metrics = db.metrics_registry().snapshot();
        assert_eq!(metrics.histograms["engine.query.ns"].count, 2);
        assert_eq!(metrics.counters["engine.query.rows_scanned"], 10);
    }

    #[test]
    fn unknown_join_attr_errors() {
        let db = db();
        // An unknown left attribute, right relation or right attribute.
        for step in [
            JoinStep::inner("OFFER", &["NOPE"], &["O.K"]),
            JoinStep::inner("NOPE", &["C.K"], &["O.K"]),
            JoinStep::inner("OFFER", &["C.K"], &["NOPE"]),
        ] {
            let plan = QueryPlan::scan("COURSE").join(step);
            assert!(db.execute(&plan).is_err(), "{plan:?}");
        }
    }

    #[test]
    fn morsels_are_1024_root_rows_each() {
        let mut db = db();
        // COURSE holds 10 rows; grow it across the first morsel boundaries.
        let mut next = 10;
        for (rows, morsels) in [(10, 1), (1_024, 1), (1_025, 2), (2_048, 2), (2_049, 3)] {
            while next < rows {
                db.insert("COURSE", tup(&[next])).unwrap();
                next += 1;
            }
            let (_, stats, trace) = db.execute_traced(&QueryPlan::scan("COURSE")).unwrap();
            assert_eq!(stats.morsels, morsels, "{rows} root rows");
            assert_eq!(trace.totals(), stats);
        }
        // An empty root partitions into zero morsels.
        let plan = QueryPlan::lookup("COURSE", &["C.K"], tup(&[-1])).join(JoinStep::inner(
            "OFFER",
            &["C.K"],
            &["O.K"],
        ));
        let (result, stats) = db.execute(&plan).unwrap();
        assert_eq!(result.len(), 0);
        assert_eq!(stats.morsels, 0);
    }

    #[test]
    fn covered_join_probes_its_index_whatever_the_left_size() {
        use relmerge_relational::algebra::{equi_join, outer_equi_join};
        // 200 courses: however large the left side, every left row is one
        // counted probe of OFFER's unique index, and nothing is built. A
        // provably empty left side (a root lookup of an absent key) probes
        // nothing and builds nothing either.
        let mut db = db();
        for k in 10..200 {
            db.insert("COURSE", tup(&[k])).unwrap();
        }
        let state = db.snapshot().unwrap();
        let (course, offer) = (
            state.relation("COURSE").unwrap(),
            state.relation("OFFER").unwrap(),
        );
        let absent = QueryPlan::lookup("COURSE", &["C.K"], tup(&[-1]));
        for (root, empty) in [(QueryPlan::scan("COURSE"), false), (absent, true)] {
            for outer in [false, true] {
                let step = if outer {
                    JoinStep::outer("OFFER", &["C.K"], &["O.K"])
                } else {
                    JoinStep::inner("OFFER", &["C.K"], &["O.K"])
                };
                let (got, stats, trace) = db.execute_traced(&root.clone().join(step)).unwrap();
                assert_eq!(stats.hash_builds, 0);
                let verb = if outer {
                    "OuterJoin OFFER"
                } else {
                    "Join OFFER"
                };
                assert!(
                    trace.ops[1].label.starts_with(verb),
                    "{}",
                    trace.ops[1].label
                );
                if empty {
                    assert_eq!(stats.index_probes, 1, "the root lookup only");
                    assert_eq!(stats.rows_scanned, 0);
                    assert!(got.is_empty());
                    continue;
                }
                assert_eq!(stats.index_probes, 200);
                assert_eq!(stats.rows_scanned, 200, "the root scan only");
                let want = if outer {
                    outer_equi_join(course, offer, &[("C.K", "O.K")]).unwrap()
                } else {
                    equi_join(course, offer, &[("C.K", "O.K")]).unwrap()
                };
                assert!(got.set_eq_unordered(&want), "outer={outer}");
            }
        }
    }

    #[test]
    fn hash_join_without_covering_index_builds_from_one_scan() {
        // Join on the *non-indexed* V columns: no unique or lookup index
        // covers them, so the hash strategy scans R once to build, however
        // small the left input.
        let db = lr_db(12);
        let (hashed, hash_stats) = db.execute(&lr_plan()).unwrap();
        assert_eq!(hash_stats.hash_builds, 1);
        assert_eq!(hash_stats.index_probes, 0);
        assert_eq!(
            hash_stats.rows_scanned,
            12 + 12,
            "root scan + one build scan"
        );
        let state = db.snapshot().unwrap();
        let (l, r) = (state.relation("L").unwrap(), state.relation("R").unwrap());
        let want = relmerge_relational::algebra::equi_join(l, r, &[("L.V", "R.V")]).unwrap();
        assert!(hashed.set_eq_unordered(&want));
    }

    #[test]
    fn empty_left_side_builds_nothing() {
        // A present key feeds the uncovered join a row, so it builds once;
        // an absent key empties the left side, so it neither scans nor
        // builds. Both charge the one L->R edge.
        let db = lr_db(12);
        for (k, builds) in [(3i64, 1u64), (999, 0)] {
            let plan = lr_plan().filter(Predicate::eq("L.K", k));
            let (_, stats, trace) = db.execute_traced(&plan).unwrap();
            assert_eq!(stats.hash_builds, builds, "L.K = {k}");
            assert_eq!(stats.rows_scanned, 12 * builds, "L.K = {k}");
            assert_eq!(stats.index_probes, 1, "the root lookup only");
            let verb = if builds == 1 { "HashJoin R" } else { "Join R" };
            assert!(
                trace.ops[1].label.starts_with(verb),
                "{}",
                trace.ops[1].label
            );
        }
        let edge = &db.profile_snapshot().hot_joins[0];
        assert_eq!(edge.edge.label(), "L->R[R.V]");
        assert_eq!((edge.executions, edge.hash_builds), (2, 1));
        assert_eq!(edge.rows_scanned, 12);
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
        db
    }

    fn lr_plan() -> QueryPlan {
        QueryPlan::scan("L").join(JoinStep::inner("R", &["L.V"], &["R.V"]))
    }

    #[test]
    fn root_filter_pushdown_is_equivalent_and_traced() {
        let db = db();
        // A root-only predicate on a full scan runs pre-join.
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::not_null("C.K").and(Predicate::eq("C.K", 4i64).negate()));
        let (result, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(result.len(), 9);
        assert_eq!(trace.totals(), stats);
        assert_eq!(trace.ops[1].kind, OpKind::Filter);
        assert_eq!(trace.ops[1].label, "Filter (pushed to scan)");
        assert_eq!(trace.ops[1].stats.rows_in, 10);
        assert_eq!(trace.ops[1].stats.rows_out, 9);
        // A predicate needing join attributes still runs post-join.
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.K"], &["O.K"]))
            .filter(Predicate::is_null("O.K"));
        let (result, _, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(trace.ops[2].kind, OpKind::Filter);
        assert_eq!(trace.ops[2].label, "Filter");
    }

    #[test]
    fn unknown_filter_attribute_fails_before_any_row_is_read() {
        // OFFER joins on its unindexed `O.D`, so a run that got as far as
        // the join would scan and cache one build.
        let db = db();
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::inner("OFFER", &["C.K"], &["O.D"]))
            .filter(Predicate::eq("NOPE", 1i64));
        let err = db.execute(&plan).unwrap_err();
        assert!(
            matches!(&err, Error::UnknownAttribute { attribute, context }
                if attribute == "NOPE" && context == "predicate"),
            "{err:?}"
        );
        assert_eq!(db.build_cache_len(), 0);
        let snap = db.metrics_registry().snapshot();
        assert_eq!(snap.counters["engine.query.build_cache.misses"], 0);
    }

    /// L(50) ⋈ S on its key, with a pushed `Eq(S.W, 7)` keeping 10 of
    /// 1,000 S rows, then ⋈ T on the non-indexed T.V. A selective pushed
    /// conjunct that keeps *some* row must not be taken for an empty left
    /// side: T still builds.
    #[test]
    fn selective_pushed_conjunct_keeps_the_next_build() {
        use relmerge_relational::algebra::{equi_join, select_eq};
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("L", vec![a("L.K"), a("L.S")], &["L.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("S", vec![a("S.K"), a("S.W")], &["S.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("T", vec![a("T.K"), a("T.V")], &["T.K"]).unwrap())
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
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
    fn build_faults_never_poison_the_cache() {
        use crate::fault::{FaultMode, FaultPlan};
        // Each site arrives once per cold build.
        let mut db = lr_db(12);
        let plan = lr_plan();
        let (baseline, _) = db.execute(&plan).unwrap();
        for mode in [FaultMode::Error, FaultMode::Panic] {
            for site_name in [site::HASH_BUILD, site::BUILD_CACHE_INSERT] {
                db.clear_build_cache();
                let armed = db.set_fault_plan(FaultPlan::new().fail_at(site_name, 0, mode));
                let err = db.execute(&plan).unwrap_err();
                assert_eq!(armed.hits(site_name), 1, "{site_name}");
                assert_eq!(armed.total_fired(), 1, "{site_name}");
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
                assert!(db.verify_integrity().is_clean(), "{site_name}");
                db.clear_fault_plan();
                let (recovered, _) = db.execute(&plan).unwrap();
                assert_eq!(recovered, baseline, "{site_name}: clean recovery");
            }
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
        let db = lr_db(12);
        let plan = QueryPlan::scan("L").join(JoinStep::outer("R", &["L.V"], &["R.V"]));
        let (_, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(trace.totals(), stats);
        assert_eq!(trace.ops[1].kind, OpKind::Join);
        assert!(
            trace.ops[1].label.starts_with("OuterHashJoin R"),
            "{}",
            trace.ops[1].label
        );
        assert_eq!(trace.ops[1].stats.hash_builds, 1);
        assert!(trace.to_string().contains("hash_builds=1"));
    }

    /// D(D.K) ← L(L.K, L.V), R(R.K, R.V, R.W, R.U), every `V` and `W`
    /// referencing D: the root's `L.V` and the step's `R.V` and `R.W`
    /// carry non-unique lookup indexes, and `R.U`, a copy of `R.V`, none.
    fn semi_join_db(l_rows: i64) -> Database {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("D", vec![a("D.K")], &["D.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("L", vec![a("L.K"), a("L.V")], &["L.K"]).unwrap())
            .unwrap();
        let r_attrs = vec![a("R.K"), a("R.V"), a("R.W"), a("R.U")];
        let r = RelationScheme::new("R", r_attrs, &["R.K"]).unwrap();
        rs.add_scheme(r).unwrap();
        for (rel, attr) in [("L", "L.V"), ("R", "R.V"), ("R", "R.W")] {
            rs.add_ind(InclusionDep::new(rel, &[attr], "D", &["D.K"]))
                .unwrap();
        }
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        for k in 0..5 {
            db.insert("D", tup(&[k])).unwrap();
        }
        for k in 0..l_rows {
            db.insert("L", tup(&[k, k % 5])).unwrap();
        }
        // R.W = 1 keeps R rows 1, 4 and 7: the join keys R.V = 1, 4, 2.
        for k in 0..10 {
            db.insert("R", tup(&[k, k % 5, k % 3, k % 5])).unwrap();
        }
        db
    }

    /// The plan run unfiltered, with `plan`'s filter applied to its answer
    /// row by row: the reference a placed filter must reproduce, in order.
    fn filtered_at_top(db: &Database, plan: &QueryPlan) -> (Vec<Tuple>, QueryStats) {
        let unfiltered = QueryPlan {
            filter: None,
            ..plan.clone()
        };
        let (all, stats) = db.execute(&unfiltered).unwrap();
        let cp = plan.filter.as_ref().unwrap().compile(all.header()).unwrap();
        let rows = all.iter().filter(|t| cp.matches(t.values())).cloned();
        (rows.collect(), stats)
    }

    #[test]
    fn semi_join_reduction_keeps_scan_order_and_falls_back_to_the_scan() {
        let plan = QueryPlan::scan("L")
            .join(JoinStep::inner("R", &["L.V"], &["R.V"]))
            .filter(Predicate::eq("R.W", 1i64));
        // Tombstone three root rows with L.V = 1 and append two more, so a
        // key's root rows sit on both sides of other keys' rows: only a
        // slot sort restores the scan's order.
        let mut db = semi_join_db(40);
        for k in [1, 6, 11] {
            assert!(db.delete_by_key("L", &tup(&[k])).unwrap());
        }
        db.insert("L", tup(&[100, 1])).unwrap();
        db.insert("L", tup(&[101, 4])).unwrap();
        let (want, top) = filtered_at_top(&db, &plan);
        let (got, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(got.rows(), want.as_slice(), "rows or their order moved");
        assert_eq!(
            got.len(),
            23,
            "8 rows per kept key, three deleted, two added"
        );
        assert_eq!(trace.totals(), stats);
        // The root is reached through L.V's non-unique index: one probe of
        // R.W's index plus one per distinct key, and no root row scanned.
        let root = &trace.ops[0];
        assert_eq!(root.label, "Lookup L [L.V] (semi-join R [R.W])");
        assert_eq!((root.kind, root.stats.index_probes), (OpKind::Lookup, 4));
        assert_eq!((root.stats.rows_scanned, root.stats.rows_out), (0, 23));
        assert_eq!(stats.rows_scanned, 0);
        assert!(stats.index_probes < top.rows_scanned + top.index_probes);
        // A step no index covers builds its filtered hash side, and the
        // root is reduced all the same.
        let hashed = QueryPlan::scan("L")
            .join(JoinStep::inner("R", &["L.V"], &["R.U"]))
            .filter(Predicate::eq("R.W", 1i64));
        let (want, _) = filtered_at_top(&db, &hashed);
        let (got, _, trace) = db.execute_traced(&hashed).unwrap();
        assert_eq!(got.rows(), want.as_slice());
        assert_eq!(got.len(), 23);
        assert_eq!(trace.ops[0].label, "Lookup L [L.V] (semi-join R [R.W])");
        assert!(
            trace.ops[1].label.starts_with("HashJoin R"),
            "{}",
            trace.ops[1].label
        );
        // Two root rows against three kept keys: the scan is no more work,
        // so the root is scanned and charged as the scan alone.
        let db = semi_join_db(2);
        let (want, top) = filtered_at_top(&db, &plan);
        let (got, stats, trace) = db.execute_traced(&plan).unwrap();
        assert_eq!(got.rows(), want.as_slice());
        assert_eq!(got.len(), 1);
        assert_eq!(trace.ops[0].label, "Scan L");
        assert_eq!(trace.ops[0].stats.index_probes, 0);
        assert_eq!(stats.rows_scanned, 2);
        assert!(stats.rows_scanned + stats.index_probes <= top.rows_scanned + top.index_probes);
    }
}
