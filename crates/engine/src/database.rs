//! A constraint-enforcing in-memory database.
//!
//! [`Database`] hosts one relational schema under a [`DbmsProfile`] and
//! enforces every dependency and constraint on DML, through the tier the
//! profile provides:
//!
//! * **declarative** checks — primary keys, nulls-not-allowed, key-based
//!   inclusion dependencies (foreign keys);
//! * **procedural** checks — the trigger/rule tier: general null
//!   constraints, non key-based inclusion dependencies.
//!
//! Every check is metered through a per-instance `relmerge-obs` registry
//! shard: counts per constraint class (`null`, `key`, `ind`, `restrict`)
//! split by [`Mechanism`], latency histograms per tier, and DML outcome
//! counters. [`MaintenanceStats`] is a cheap snapshot view over those
//! counters, letting the benches quantify §5.1's point that merged schemas
//! shift maintenance work into the (more expensive) procedural tier on some
//! systems. Each DML statement also opens an `engine.dml.*` trace span
//! carrying the relation and outcome.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::Arc;
use std::time::Instant;

use relmerge_obs::{self as obs, Counter, Histogram, Registry};
use relmerge_relational::{
    Attribute, DatabaseState, Error, NullConstraint, Relation, RelationalSchema, Result, Tuple,
};

use crate::capability::{DbmsProfile, Mechanism};
use crate::fault::{
    site, FaultPlan, IntegrityKind, IntegrityReport, IntegrityViolation, QueryBudget,
};

/// Why a DML statement was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmlError {
    /// A dependency or constraint would be violated.
    ConstraintViolation(String),
    /// Structural problem (unknown relation, arity mismatch, …).
    Schema(Error),
    /// A statement inside a batch failed; `index` is its zero-based
    /// position in the slice passed to
    /// [`Database::apply_batch`](crate::Database::apply_batch). Deferred
    /// violations detected at commit are attributed to the statement that
    /// introduced the offending row.
    AtStatement {
        /// Zero-based position of the failing statement in the batch.
        index: usize,
        /// The underlying failure.
        source: Box<DmlError>,
    },
}

impl DmlError {
    /// Wraps `error` with the batch position of the statement that caused
    /// it (idempotent: an already-attributed error keeps its index).
    #[must_use]
    pub fn at_statement(index: usize, error: DmlError) -> DmlError {
        match error {
            already @ DmlError::AtStatement { .. } => already,
            other => DmlError::AtStatement {
                index,
                source: Box::new(other),
            },
        }
    }

    /// The batch position of the failing statement, when known.
    #[must_use]
    pub fn statement_index(&self) -> Option<usize> {
        match self {
            DmlError::AtStatement { index, .. } => Some(*index),
            _ => None,
        }
    }

    /// The innermost error, unwrapping any [`DmlError::AtStatement`]
    /// attribution layers — what callers match on to classify a failure
    /// (e.g. injected fault vs. caught panic vs. real violation).
    #[must_use]
    pub fn root_cause(&self) -> &DmlError {
        match self {
            DmlError::AtStatement { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for DmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmlError::ConstraintViolation(s) => write!(f, "constraint violation: {s}"),
            DmlError::Schema(e) => write!(f, "{e}"),
            DmlError::AtStatement { index, source } => {
                write!(f, "statement #{index}: {source}")
            }
        }
    }
}

impl std::error::Error for DmlError {}

impl From<Error> for DmlError {
    fn from(e: Error) -> Self {
        match e {
            Error::ConstraintViolation(s) => DmlError::ConstraintViolation(s),
            other => DmlError::Schema(other),
        }
    }
}

/// The reverse direction of the `?`-friendly pair: a [`DmlError`] folds
/// into the workspace-wide [`Error`], so engine call sites can live inside
/// functions returning the substrate [`Result`]
/// without a second error hierarchy.
impl From<DmlError> for Error {
    fn from(e: DmlError) -> Self {
        match e {
            DmlError::ConstraintViolation(s) => Error::ConstraintViolation(s),
            DmlError::Schema(inner) => inner,
            DmlError::AtStatement { index, source } => match Error::from(*source) {
                Error::ConstraintViolation(s) => {
                    Error::ConstraintViolation(format!("statement #{index}: {s}"))
                }
                other => other,
            },
        }
    }
}

/// Counters for constraint-maintenance work, split by mechanism tier.
///
/// This is a point-in-time *view* over the database's metrics shard
/// (see [`Database::stats`]); the live counters are registry-backed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Successful inserts.
    pub inserts: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Successful updates (each also counts its physical delete + insert).
    pub updates: u64,
    /// Statements rejected by a constraint.
    pub rejected: u64,
    /// Declarative-tier checks performed (PK, NNA, FK).
    pub declarative_checks: u64,
    /// Procedural-tier (trigger/rule) checks performed.
    pub procedural_checks: u64,
    /// Checks that ran as deferred group validations at batch commit
    /// (also counted in their tier's total).
    pub deferred_checks: u64,
    /// Hash-index probes performed by checks.
    pub index_probes: u64,
}

impl MaintenanceStats {
    /// Total checks across both tiers.
    #[must_use]
    pub fn total_checks(&self) -> u64 {
        self.declarative_checks + self.procedural_checks
    }

    /// Folds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &MaintenanceStats) {
        *self += *other;
    }
}

impl AddAssign for MaintenanceStats {
    fn add_assign(&mut self, rhs: MaintenanceStats) {
        self.inserts += rhs.inserts;
        self.deletes += rhs.deletes;
        self.updates += rhs.updates;
        self.rejected += rhs.rejected;
        self.declarative_checks += rhs.declarative_checks;
        self.procedural_checks += rhs.procedural_checks;
        self.deferred_checks += rhs.deferred_checks;
        self.index_probes += rhs.index_probes;
    }
}

impl Add for MaintenanceStats {
    type Output = MaintenanceStats;

    fn add(mut self, rhs: MaintenanceStats) -> MaintenanceStats {
        self += rhs;
        self
    }
}

/// The constraint classes the engine meters, indexing per-class counters.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CheckClass {
    /// Null constraints (NNA/NS/NE/TE) on insert.
    Null = 0,
    /// Candidate-key uniqueness on insert.
    Key = 1,
    /// Outgoing inclusion dependencies (FK existence) on insert.
    Ind = 2,
    /// Incoming inclusion dependencies (RESTRICT) on delete.
    Restrict = 3,
}

const CHECK_CLASSES: usize = 4;
const CLASS_NAMES: [&str; CHECK_CLASSES] = ["null", "key", "ind", "restrict"];

/// Cached handles into one database instance's metrics shard.
pub(crate) struct DbMetrics {
    pub(crate) registry: Arc<Registry>,
    pub(crate) inserts: Arc<Counter>,
    pub(crate) deletes: Arc<Counter>,
    pub(crate) updates: Arc<Counter>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) declarative: Arc<Counter>,
    pub(crate) procedural: Arc<Counter>,
    pub(crate) deferred: Arc<Counter>,
    pub(crate) index_probes: Arc<Counter>,
    pub(crate) batch_commits: Arc<Counter>,
    pub(crate) batch_rollbacks: Arc<Counter>,
    pub(crate) injected_aborts: Arc<Counter>,
    pub(crate) panic_aborts: Arc<Counter>,
    pub(crate) budget_aborts: Arc<Counter>,
    pub(crate) build_cache_hits: Arc<Counter>,
    pub(crate) build_cache_misses: Arc<Counter>,
    pub(crate) build_cache_evictions: Arc<Counter>,
    pub(crate) parallel_builds: Arc<Counter>,
    pub(crate) probe_saved_allocs: Arc<Counter>,
    /// Predicate-pushdown counters: conjuncts the optimizer placed below
    /// the residual filter position, rows pruned by those placements
    /// (root prefilter, probe filters, filtered hash builds), and queries
    /// where a failed optimize/pushdown fell back to the unoptimized
    /// placement.
    pub(crate) pushed_conjuncts: Arc<Counter>,
    pub(crate) pushdown_pruned_rows: Arc<Counter>,
    pub(crate) pushdown_fallbacks: Arc<Counter>,
    /// Build-cache inserts and the bytes evicted by inserts and capacity
    /// changes (hits, misses and evicted entries count under
    /// `engine.query.build_cache.*`).
    pub(crate) cache_insert: Arc<Counter>,
    pub(crate) cache_evicted_bytes: Arc<obs::Gauge>,
    class_declarative: [Arc<Counter>; CHECK_CLASSES],
    class_procedural: [Arc<Counter>; CHECK_CLASSES],
    declarative_ns: Arc<Histogram>,
    procedural_ns: Arc<Histogram>,
    pub(crate) insert_ns: Arc<Histogram>,
    pub(crate) delete_ns: Arc<Histogram>,
    pub(crate) update_ns: Arc<Histogram>,
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) batch_ns: Arc<Histogram>,
    /// Undo-log footprint per batch (entries and approximate bytes) —
    /// the batch path's intermediate-state accounting.
    pub(crate) undo_entries: Arc<Histogram>,
    pub(crate) undo_bytes: Arc<Histogram>,
    /// Where this shard folds on drop: a session shard folds into its
    /// store's registry; every other shard folds into the process-global
    /// registry (`None`). Exactly-once because the fold runs in
    /// [`Drop::drop`] of the `DbMetrics` itself, which fires when the
    /// *last* `Arc<DbMetrics>` handle (database, session, or pinned
    /// snapshot) goes away, and because a [`Database::fork`] starts a
    /// fresh shard rather than copying this one's counts.
    flush_into: Option<Arc<Registry>>,
}

impl Drop for DbMetrics {
    /// Flushes this shard so its counts survive the weak shard reference:
    /// into the owning store's registry for session shards (no lost or
    /// double-counted constraint/latency counters when sessions come and
    /// go), into the process-global registry otherwise.
    fn drop(&mut self) {
        match &self.flush_into {
            Some(target) => obs::flush_shard_into(&self.registry, target),
            None => obs::flush_shard(&self.registry),
        }
    }
}

impl DbMetrics {
    fn new() -> DbMetrics {
        DbMetrics::with_flush_target(None)
    }

    /// A fresh shard that folds into `target` instead of the global
    /// registry when dropped — the per-session shard constructor
    /// (see [`crate::session::Session`]).
    pub(crate) fn session_shard(target: Arc<Registry>) -> DbMetrics {
        DbMetrics::with_flush_target(Some(target))
    }

    fn with_flush_target(flush_into: Option<Arc<Registry>>) -> DbMetrics {
        let registry = Arc::new(Registry::new());
        obs::register_shard(&registry);
        let per_class = |tier: &str| {
            std::array::from_fn(|i| {
                registry.counter(&format!("engine.check.{}.{tier}", CLASS_NAMES[i]))
            })
        };
        DbMetrics {
            inserts: registry.counter("engine.dml.inserts"),
            deletes: registry.counter("engine.dml.deletes"),
            updates: registry.counter("engine.dml.updates"),
            rejected: registry.counter("engine.dml.rejected"),
            declarative: registry.counter("engine.check.declarative"),
            procedural: registry.counter("engine.check.procedural"),
            deferred: registry.counter("engine.check.deferred"),
            index_probes: registry.counter("engine.check.index_probes"),
            batch_commits: registry.counter("engine.batch.commits"),
            batch_rollbacks: registry.counter("engine.batch.rollbacks"),
            injected_aborts: registry.counter("engine.fault.aborts.injected"),
            panic_aborts: registry.counter("engine.fault.aborts.panic"),
            budget_aborts: registry.counter("engine.query.aborts.budget"),
            build_cache_hits: registry.counter("engine.query.build_cache.hits"),
            build_cache_misses: registry.counter("engine.query.build_cache.misses"),
            build_cache_evictions: registry.counter("engine.query.build_cache.evictions"),
            parallel_builds: registry.counter("engine.query.build.parallel"),
            probe_saved_allocs: registry.counter("engine.query.probe_key.saved_allocs"),
            pushed_conjuncts: registry.counter("engine.query.pushed_conjuncts"),
            pushdown_pruned_rows: registry.counter("engine.query.pushdown_pruned_rows"),
            pushdown_fallbacks: registry.counter("engine.query.pushdown.fallbacks"),
            cache_insert: registry.counter("engine.build_cache.insert"),
            cache_evicted_bytes: registry.gauge("engine.build_cache.evicted_bytes"),
            class_declarative: per_class("declarative"),
            class_procedural: per_class("procedural"),
            declarative_ns: registry.histogram("engine.check.declarative.ns"),
            procedural_ns: registry.histogram("engine.check.procedural.ns"),
            insert_ns: registry.histogram("engine.dml.insert.ns"),
            delete_ns: registry.histogram("engine.dml.delete.ns"),
            update_ns: registry.histogram("engine.dml.update.ns"),
            batch_size: registry.histogram("engine.batch.size"),
            batch_ns: registry.histogram("engine.batch.ns"),
            undo_entries: registry.histogram("engine.batch.undo.entries"),
            undo_bytes: registry.histogram("engine.batch.undo.bytes"),
            registry,
            flush_into,
        }
    }

    /// Records one finished check of `class` under `mechanism`, started at
    /// `start`.
    #[inline]
    pub(crate) fn record_check(&self, class: CheckClass, mechanism: Mechanism, start: Instant) {
        let ns = obs::elapsed_ns(start);
        match mechanism {
            Mechanism::Declarative => {
                self.declarative.inc();
                self.class_declarative[class as usize].inc();
                self.declarative_ns.record(ns);
            }
            Mechanism::Procedural => {
                self.procedural.inc();
                self.class_procedural[class as usize].inc();
                self.procedural_ns.record(ns);
            }
            Mechanism::Unsupported => {}
        }
    }
}

/// A secondary lookup index: attribute positions plus a map from each
/// total subtuple to the live row slots carrying it.
type LookupIndex = (Vec<usize>, HashMap<Tuple, Vec<usize>>);

/// One stored relation with its indexes.
#[derive(Clone)]
pub(crate) struct Table {
    pub(crate) header: Vec<Attribute>,
    pub(crate) rows: Vec<Option<Tuple>>, // tombstoned on delete
    pub(crate) live: usize,
    /// Unique indexes, one per candidate key: positions + map to row slot.
    pub(crate) unique: Vec<(Vec<usize>, HashMap<Tuple, usize>)>,
    /// Secondary lookup indexes keyed by attribute-name list (for foreign
    /// keys, IND targets, and join probes). Values are the live row slots
    /// of each **total** subtuple.
    pub(crate) lookups: BTreeMap<Vec<String>, LookupIndex>,
    /// Monotone modification counter: bumped once per row mutation (every
    /// mutation path funnels through `index_insert`/`index_remove`). Keys
    /// the build-side cache — a version match proves a cached hash build
    /// still describes the stored rows. Never decremented, including on
    /// rollback: undo re-mutates rows, so the version moves forward and
    /// pre-rollback cache entries simply age out.
    pub(crate) version: u64,
}

impl Table {
    fn new(header: Vec<Attribute>) -> Self {
        Table {
            header,
            rows: Vec::new(),
            live: 0,
            unique: Vec::new(),
            lookups: BTreeMap::new(),
            version: 0,
        }
    }

    pub(crate) fn positions(&self, names: &[String]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                self.header
                    .iter()
                    .position(|a| a.name() == n.as_str())
                    .ok_or_else(|| Error::UnknownAttribute {
                        attribute: n.clone(),
                        context: "table".to_owned(),
                    })
            })
            .collect()
    }

    fn add_unique(&mut self, names: &[String]) -> Result<()> {
        let pos = self.positions(names)?;
        if !self.unique.iter().any(|(p, _)| *p == pos) {
            self.unique.push((pos, HashMap::new()));
        }
        Ok(())
    }

    fn add_lookup(&mut self, names: &[String]) -> Result<()> {
        if !self.lookups.contains_key(names) {
            let pos = self.positions(names)?;
            self.lookups.insert(names.to_vec(), (pos, HashMap::new()));
        }
        Ok(())
    }

    fn index_insert(&mut self, t: &Tuple, slot: usize) {
        self.version += 1;
        for (pos, map) in &mut self.unique {
            map.insert(t.project(pos), slot);
        }
        for (pos, map) in self.lookups.values_mut() {
            if t.is_total_at(pos) {
                map.entry(t.project(pos)).or_default().push(slot);
            }
        }
    }

    fn index_remove(&mut self, t: &Tuple, slot: usize) {
        self.version += 1;
        for (pos, map) in &mut self.unique {
            map.remove(&t.project(pos));
        }
        for (pos, map) in self.lookups.values_mut() {
            if t.is_total_at(pos) {
                let key = t.project(pos);
                if let Some(slots) = map.get_mut(&key) {
                    slots.retain(|&s| s != slot);
                    if slots.is_empty() {
                        map.remove(&key);
                    }
                }
            }
        }
    }

    fn to_relation(&self) -> Result<Relation> {
        Relation::with_rows(self.header.clone(), self.rows.iter().flatten().cloned())
    }
}

/// A compiled null-constraint check: single-tuple evaluation plus its tier.
#[derive(Clone)]
pub(crate) struct CompiledNull {
    pub(crate) constraint: NullConstraint,
    pub(crate) mechanism: Mechanism,
}

/// A compiled inclusion-dependency check.
#[derive(Clone)]
pub(crate) struct CompiledInd {
    pub(crate) lhs_rel: String,
    pub(crate) lhs_attrs: Vec<String>,
    pub(crate) rhs_rel: String,
    pub(crate) rhs_attrs: Vec<String>,
    pub(crate) mechanism: Mechanism,
}

/// A constraint-enforcing in-memory database hosting one schema under one
/// DBMS capability profile.
pub struct Database {
    /// The hosted logical schema. Behind an `Arc` so pinned snapshot
    /// handles share it; it is only ever *replaced* (catalog swap), never
    /// mutated in place.
    schema: Arc<RelationalSchema>,
    profile: DbmsProfile,
    /// Stored relations, individually `Arc`-wrapped for copy-on-write
    /// snapshot sharing: a pinned reader handle clones the map (pointer
    /// clones), and the writer's mutation paths go through
    /// [`Arc::make_mut`] — in place while unshared, a one-time table copy
    /// after a snapshot pinned it.
    pub(crate) tables: BTreeMap<String, Arc<Table>>,
    pub(crate) nulls: Arc<BTreeMap<String, Vec<CompiledNull>>>,
    pub(crate) outgoing: Arc<BTreeMap<String, Vec<CompiledInd>>>,
    pub(crate) incoming: Arc<BTreeMap<String, Vec<CompiledInd>>>,
    pub(crate) metrics: Arc<DbMetrics>,
    /// The tuning knobs in force. Its `durability` is always `None` (the
    /// log lives in `wal`) and its cache capacity is never read (the
    /// cache owns it), so cloning it for a snapshot handle allocates
    /// nothing.
    config: EngineConfig,
    /// The versioned build-side cache. Interior-mutable because queries
    /// run through `&self`; the lock is only ever held for map operations,
    /// never across a build or a fault site. Behind an `Arc` so a store's
    /// sessions and pinned snapshots share ONE cache (and its byte cap):
    /// the key carries the relation version, so a hit from any session —
    /// or from an old pinned snapshot — is proof of freshness.
    /// [`Database::fork`] deliberately does NOT share it (a fork's
    /// versions diverge, so shared keys could collide).
    build_cache: Arc<std::sync::Mutex<crate::build::BuildCache>>,
    /// The workload profiler every successful query execution folds into
    /// (shape fingerprint → aggregated cost). Shared by forks — the
    /// profile describes the workload, not one instance's storage.
    profiler: Arc<obs::Profiler>,
    /// Installed fault plan, if any (`None` in production configurations).
    /// Behind an `Arc` so sites can fire from `&self` contexts — validation
    /// and morsel worker threads included — and so callers keep a handle to
    /// inspect hit/fire counts after the run.
    fault: Option<Arc<FaultPlan>>,
    /// The write-ahead log, when this database is durable
    /// (`EngineConfig::durability` set at construction or recovery).
    /// `None` means purely in-memory — the pre-durability behavior.
    wal: Option<crate::wal::Wal>,
}

/// Default left-cardinality at which the executor switches a join step to
/// the hash strategy (see [`crate::planner::choose_join_strategy`]).
pub const DEFAULT_HASH_JOIN_THRESHOLD: usize = 64;

/// Default number of root rows per executor morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Default build-side live-row count at which a transient hash build fans
/// out over the worker pool (see
/// [`crate::planner::choose_build_parallelism`]).
pub const DEFAULT_BUILD_PARALLEL_THRESHOLD: usize = 4096;

/// Default byte capacity of the versioned build-side cache.
pub const DEFAULT_BUILD_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// The compiled physical half of a [`Database`]: per-relation tables with
/// their indexes, plus the null- and inclusion-dependency constraint maps
/// keyed by relation. Built by [`compile_catalog`] for both
/// [`Database::new`] and the online-migration catalog swap.
pub(crate) struct Catalog {
    pub(crate) tables: BTreeMap<String, Arc<Table>>,
    pub(crate) nulls: BTreeMap<String, Vec<CompiledNull>>,
    pub(crate) outgoing: BTreeMap<String, Vec<CompiledInd>>,
    pub(crate) incoming: BTreeMap<String, Vec<CompiledInd>>,
}

/// Validates `schema` against `profile` and compiles its physical catalog:
/// one table per scheme (unique index per candidate key, lookup indexes on
/// both sides of every inclusion dependency) and the compiled constraint
/// maps, each constraint annotated with the maintenance mechanism the
/// profile assigns it (paper §5.1).
pub(crate) fn compile_catalog(
    schema: &RelationalSchema,
    profile: &DbmsProfile,
    procedure: &'static str,
) -> Result<Catalog> {
    schema.validate()?;
    let problems = profile.hosting_report(schema);
    if !problems.is_empty() {
        return Err(Error::PreconditionViolated {
            procedure,
            detail: problems.join("; "),
        });
    }
    let mut tables = BTreeMap::new();
    for s in schema.schemes() {
        let mut table = Table::new(s.attrs().to_vec());
        for key in s.candidate_keys() {
            let names: Vec<String> = key.iter().map(|k| (*k).to_owned()).collect();
            table.add_unique(&names)?;
        }
        tables.insert(s.name().to_owned(), table);
    }
    // Lookup indexes for both sides of every inclusion dependency.
    for ind in schema.inds() {
        tables
            .get_mut(&ind.rhs_rel)
            .expect("validated")
            .add_lookup(&ind.rhs_attrs)?;
        tables
            .get_mut(&ind.lhs_rel)
            .expect("validated")
            .add_lookup(&ind.lhs_attrs)?;
    }
    let tables: BTreeMap<String, Arc<Table>> =
        tables.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
    let mut nulls: BTreeMap<String, Vec<CompiledNull>> = BTreeMap::new();
    for c in schema.null_constraints() {
        nulls
            .entry(c.rel().to_owned())
            .or_default()
            .push(CompiledNull {
                mechanism: profile.null_constraint_mechanism(c),
                constraint: c.clone(),
            });
    }
    let mut outgoing: BTreeMap<String, Vec<CompiledInd>> = BTreeMap::new();
    let mut incoming: BTreeMap<String, Vec<CompiledInd>> = BTreeMap::new();
    for ind in schema.inds() {
        let key_based = schema
            .scheme(&ind.rhs_rel)
            .is_some_and(|rhs| ind.is_key_based(rhs));
        let compiled = CompiledInd {
            lhs_rel: ind.lhs_rel.clone(),
            lhs_attrs: ind.lhs_attrs.clone(),
            rhs_rel: ind.rhs_rel.clone(),
            rhs_attrs: ind.rhs_attrs.clone(),
            mechanism: if key_based {
                profile.referential_integrity
            } else {
                profile.non_key_inds
            },
        };
        outgoing
            .entry(ind.lhs_rel.clone())
            .or_default()
            .push(compiled.clone());
        incoming
            .entry(ind.rhs_rel.clone())
            .or_default()
            .push(compiled);
    }
    Ok(Catalog {
        tables,
        nulls,
        outgoing,
        incoming,
    })
}

/// One `EngineConfig` consolidates every `Database` tuning knob: executor
/// parallelism, join-strategy and parallel-build thresholds, morsel size,
/// pushdown, build-cache capacity, the query budget, and durability. A
/// `Database` stores one, and its knobs change only through a new one.
/// Build one with the fluent setters and hand it to
/// [`Database::new_with_config`] or [`Database::configure`]; read the live
/// values back with [`Database::config`], so a sweep can tweak a single
/// knob:
///
/// ```ignore
/// db.configure(db.config().parallelism(4));
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    parallelism: usize,
    hash_join_threshold: usize,
    morsel_rows: usize,
    predicate_pushdown: bool,
    build_parallel_threshold: usize,
    build_cache_capacity: u64,
    query_budget: QueryBudget,
    /// Durability knobs (`None` = purely in-memory). Unlike the other
    /// knobs this one only takes effect at construction
    /// ([`Database::new_with_config`]) or recovery ([`Database::recover`]);
    /// [`Database::configure`] ignores it — a log cannot be attached or
    /// detached mid-flight.
    durability: Option<crate::wal::DurabilityConfig>,
}

impl Default for EngineConfig {
    /// The defaults `Database::new` ships with: available-parallelism
    /// workers, the documented threshold/morsel constants, a 64 MiB build
    /// cache, and an unlimited query budget.
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            hash_join_threshold: DEFAULT_HASH_JOIN_THRESHOLD,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            predicate_pushdown: true,
            build_parallel_threshold: DEFAULT_BUILD_PARALLEL_THRESHOLD,
            build_cache_capacity: DEFAULT_BUILD_CACHE_BYTES,
            query_budget: QueryBudget::unlimited(),
            durability: None,
        }
    }
}

impl EngineConfig {
    /// The default configuration (same as [`Default::default`]).
    #[must_use]
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Sets the executor's worker-thread budget (clamped to ≥ 1 when
    /// applied). `1` means serial execution, byte-identical to the
    /// parallel result by construction.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Sets the left-input cardinality at which a join step switches from
    /// index-nested-loop to the hash strategy. A join no index covers
    /// hashes whatever the threshold, so `usize::MAX` means
    /// index-nested-loop wherever an index covers; `0` forces hash joins
    /// wherever the left input is non-empty.
    #[must_use]
    pub fn hash_join_threshold(mut self, rows: usize) -> Self {
        self.hash_join_threshold = rows;
        self
    }

    /// Sets the root rows per executor morsel (clamped to ≥ 1 when
    /// applied).
    #[must_use]
    pub fn morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Enables or disables optimizer-driven predicate pushdown (default
    /// on). When off, the filter is placed without the optimizer: as a
    /// whole, ahead of the joins when it compiles against the root header
    /// of a full scan, otherwise on the joined rows. Results are
    /// byte-identical either way; only the scan/probe/build work — and
    /// therefore `QueryStats` — can shrink with pushdown on.
    #[must_use]
    pub fn predicate_pushdown(mut self, on: bool) -> Self {
        self.predicate_pushdown = on;
        self
    }

    /// Sets the build-side live-row count at which a transient hash build
    /// fans out over the worker pool. `usize::MAX` pins every build to
    /// the serial path; `0` fans out any non-trivial build.
    #[must_use]
    pub fn build_parallel_threshold(mut self, rows: usize) -> Self {
        self.build_parallel_threshold = rows;
        self
    }

    /// Sets the build-cache byte capacity (`0` disables caching).
    #[must_use]
    pub fn build_cache_capacity(mut self, bytes: u64) -> Self {
        self.build_cache_capacity = bytes;
        self
    }

    /// Sets the per-query resource limits.
    #[must_use]
    pub fn query_budget(mut self, budget: QueryBudget) -> Self {
        self.query_budget = budget;
        self
    }

    /// The configured worker-thread budget.
    #[must_use]
    pub fn get_parallelism(&self) -> usize {
        self.parallelism
    }

    /// The configured hash-join switchover threshold.
    #[must_use]
    pub fn get_hash_join_threshold(&self) -> usize {
        self.hash_join_threshold
    }

    /// The configured morsel size.
    #[must_use]
    pub fn get_morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Whether optimizer-driven predicate pushdown is enabled.
    #[must_use]
    pub fn get_predicate_pushdown(&self) -> bool {
        self.predicate_pushdown
    }

    /// The configured parallel-build switchover threshold.
    #[must_use]
    pub fn get_build_parallel_threshold(&self) -> usize {
        self.build_parallel_threshold
    }

    /// The configured build-cache byte capacity.
    #[must_use]
    pub fn get_build_cache_capacity(&self) -> u64 {
        self.build_cache_capacity
    }

    /// The configured query budget.
    #[must_use]
    pub fn get_query_budget(&self) -> QueryBudget {
        self.query_budget
    }

    /// Sets (or clears) the durability knobs: data directory, snapshot
    /// cadence, fsync policy. Only honored by
    /// [`Database::new_with_config`] (fresh data dir) and
    /// [`Database::recover`] (existing one); [`Database::configure`]
    /// ignores it.
    #[must_use]
    pub fn durability(mut self, durability: Option<crate::wal::DurabilityConfig>) -> Self {
        self.durability = durability;
        self
    }

    /// The configured durability knobs, if any.
    #[must_use]
    pub fn get_durability(&self) -> Option<&crate::wal::DurabilityConfig> {
        self.durability.as_ref()
    }
}

impl Database {
    /// Creates an empty database for `schema` under `profile`. Fails when
    /// the profile cannot maintain some constraint class the schema needs
    /// (paper §5.1).
    pub fn new(schema: RelationalSchema, profile: DbmsProfile) -> Result<Self> {
        Self::new_with_config(schema, profile, EngineConfig::default())
    }

    /// Like [`Database::new`], but with every tuning knob taken from
    /// `config` instead of the defaults.
    pub fn new_with_config(
        schema: RelationalSchema,
        profile: DbmsProfile,
        mut config: EngineConfig,
    ) -> Result<Self> {
        let Catalog {
            tables,
            nulls,
            outgoing,
            incoming,
        } = compile_catalog(&schema, &profile, "Database::new")?;
        let durability = config.durability.take();
        let mut db = Database {
            schema: Arc::new(schema),
            profile,
            tables,
            nulls: Arc::new(nulls),
            outgoing: Arc::new(outgoing),
            incoming: Arc::new(incoming),
            metrics: Arc::new(DbMetrics::new()),
            build_cache: Arc::new(std::sync::Mutex::new(crate::build::BuildCache::new(
                config.build_cache_capacity,
            ))),
            config,
            profiler: Arc::new(obs::Profiler::new()),
            fault: None,
            wal: None,
        };
        if let Some(durability) = durability {
            // Fresh data dir only: an already-initialized one holds state
            // this empty database would shadow — `Wal::initialize` rejects
            // it and points the caller at `Database::recover`.
            db.wal = Some(crate::wal::Wal::initialize(durability, &db)?);
        }
        Ok(db)
    }

    /// An independent in-memory copy: same schema, same rows and knobs, a
    /// fresh metrics shard whose counters start at zero (so the original
    /// and the fork never count one event twice), and its **own** build
    /// cache (a fork's relation versions diverge from the original's, so
    /// sharing the versioned cache could alias keys across the two
    /// histories). Storage is shared copy-on-write — the fork is O(number
    /// of relations) until one side mutates a table. The fork carries no
    /// WAL: two writers appending to one log would interleave
    /// un-replayably, so a fork's mutations are deliberately not durable.
    ///
    /// To *share* one database across clients instead, build a
    /// [`crate::session::Store`].
    #[must_use]
    pub fn fork(&self) -> Database {
        Database {
            build_cache: Arc::new(std::sync::Mutex::new(self.build_cache_lock().clone())),
            ..self.snapshot_handle(Arc::new(DbMetrics::new()))
        }
    }

    /// A read-only snapshot handle over this database's *current* state:
    /// shares every table `Arc` (so later writer mutations copy-on-write
    /// and never disturb it), the build cache, the profiler, and the fault
    /// plan, but charges its metrics to `metrics` — the per-session shard.
    /// Carries no WAL. The handle is a plain [`Database`] value, so the
    /// whole `&self` read surface (execute, snapshot, verify, versions)
    /// works against it unchanged.
    pub(crate) fn snapshot_handle(&self, metrics: Arc<DbMetrics>) -> Database {
        Database {
            schema: Arc::clone(&self.schema),
            profile: self.profile.clone(),
            tables: self.tables.clone(),
            nulls: Arc::clone(&self.nulls),
            outgoing: Arc::clone(&self.outgoing),
            incoming: Arc::clone(&self.incoming),
            metrics,
            config: self.config.clone(),
            build_cache: Arc::clone(&self.build_cache),
            profiler: Arc::clone(&self.profiler),
            fault: self.fault.clone(),
            wal: None,
        }
    }

    /// The metrics shard handle, for snapshot-handle construction.
    pub(crate) fn metrics_arc(&self) -> Arc<DbMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The current values of every tuning knob, as an [`EngineConfig`]:
    /// the stored knobs plus the live build-cache capacity and, for a
    /// durable database, its log's durability knobs. Combined with the
    /// builder setters this makes single-knob tweaks one-liners:
    /// `db.configure(db.config().morsel_rows(64))`.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            build_cache_capacity: self.build_cache_capacity(),
            durability: self.wal.as_ref().map(|w| w.config().clone()),
            ..self.config.clone()
        }
    }

    /// Applies every knob in `config` to the live database (except
    /// durability, see [`EngineConfig::durability`]). Shrinking the
    /// build-cache capacity evicts least-recently-used entries down to the
    /// new cap (and counts them in the eviction metrics); results never
    /// depend on any of these knobs, and `QueryStats` depend only on the
    /// join-strategy knobs and the pushdown switch (which can only shrink
    /// the scan/probe/build counters), never on worker or morsel
    /// configuration.
    pub fn configure(&mut self, config: EngineConfig) {
        // A no-op when the capacity is unchanged: the cache never holds
        // more than its cap.
        let (evicted, evicted_bytes) = self
            .build_cache_lock()
            .set_capacity(config.build_cache_capacity);
        self.metrics.build_cache_evictions.add(evicted);
        self.metrics.cache_evicted_bytes.add(evicted_bytes as i64);
        self.config = EngineConfig {
            durability: None,
            ..config
        };
    }

    /// Worker threads the query executor may use. Defaults to the
    /// machine's available parallelism; `1` means serial execution,
    /// byte-identical to the parallel result by construction.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
    }

    /// Left-input cardinality at which a join step switches from
    /// index-nested-loop to the hash strategy (see
    /// [`EngineConfig::hash_join_threshold`]).
    #[must_use]
    pub fn hash_join_threshold(&self) -> usize {
        self.config.hash_join_threshold
    }

    /// Root rows per executor morsel (always ≥ 1). Smaller morsels
    /// exercise the reassembly path; the default suits large scans.
    #[must_use]
    pub fn morsel_rows(&self) -> usize {
        self.config.morsel_rows
    }

    /// Whether optimizer-driven predicate pushdown is enabled (default
    /// on). See [`EngineConfig::predicate_pushdown`].
    #[must_use]
    pub fn predicate_pushdown(&self) -> bool {
        self.config.predicate_pushdown
    }

    /// Build-side live-row count at which a transient hash build fans out
    /// over the worker pool. `usize::MAX` pins every build to the serial
    /// path; `0` fans out any non-trivial build.
    #[must_use]
    pub fn build_parallel_threshold(&self) -> usize {
        self.config.build_parallel_threshold
    }

    /// Byte capacity of the versioned build-side cache (`0` = caching
    /// disabled: every transient build is rebuilt cold, and only wall
    /// time changes).
    #[must_use]
    pub fn build_cache_capacity(&self) -> u64 {
        self.build_cache_lock().capacity()
    }

    /// Drops every cached build (capacity is unchanged).
    pub fn clear_build_cache(&mut self) {
        self.build_cache_lock().clear();
    }

    /// Builds currently cached.
    #[must_use]
    pub fn build_cache_len(&self) -> usize {
        self.build_cache_lock().len()
    }

    /// Approximate bytes of cached builds.
    #[must_use]
    pub fn build_cache_bytes(&self) -> u64 {
        self.build_cache_lock().bytes()
    }

    /// The monotone modification version of `rel` (bumped once per row
    /// mutation, rollbacks included). Exposed so tests and benches can
    /// assert cache-invalidation behavior.
    pub fn relation_version(&self, rel: &str) -> Result<u64> {
        Ok(self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?
            .version)
    }

    /// The build cache, locked. Poisoning is ignored deliberately: the
    /// lock is never held across user code or fault sites, so a poisoned
    /// cache is structurally sound and safe to keep using.
    pub(crate) fn build_cache_lock(&self) -> std::sync::MutexGuard<'_, crate::build::BuildCache> {
        self.build_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The workload profiler this database folds every successful query
    /// execution into: per-fingerprint operator totals, intermediate-byte
    /// accounting, and latency histograms. Forks share it (via `Arc`),
    /// so a workload spread over forks still aggregates into one profile;
    /// use [`obs::Profiler::snapshot`] / [`obs::Profiler::take`] and
    /// [`relmerge_obs::report`] to read it.
    #[must_use]
    pub fn profiler(&self) -> &obs::Profiler {
        &self.profiler
    }

    /// A point-in-time [`obs::ProfileSnapshot`] of the workload profiler
    /// — convenience for `self.profiler().snapshot()`.
    #[must_use]
    pub fn profile_snapshot(&self) -> obs::ProfileSnapshot {
        self.profiler.snapshot()
    }

    /// The resource limits queries execute under (default unlimited).
    /// Limits are checked cooperatively at morsel boundaries; a tripped
    /// limit surfaces as [`Error::BudgetExceeded`] with the partial
    /// progress in its detail.
    #[must_use]
    pub fn query_budget(&self) -> QueryBudget {
        self.config.query_budget
    }

    /// Installs `plan` as the active fault plan, replacing any previous
    /// one, and returns a handle for inspecting its hit/fire counts.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Arc<FaultPlan> {
        let plan = Arc::new(plan);
        self.fault = Some(Arc::clone(&plan));
        plan
    }

    /// Removes the active fault plan, if any.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// The active fault plan, if one is installed.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// The write-ahead log, when this database is durable.
    pub(crate) fn wal(&self) -> Option<&crate::wal::Wal> {
        self.wal.as_ref()
    }

    /// Attaches (or detaches) the write-ahead log — recovery wires the
    /// reopened log in through here after replay has been verified.
    pub(crate) fn set_wal(&mut self, wal: Option<crate::wal::Wal>) {
        self.wal = wal;
    }

    /// Whether this database is durable (carries a write-ahead log).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// One branch when no plan is installed; otherwise counts this arrival
    /// at `site` and fires the arm armed for it, if its trigger count is
    /// reached.
    #[inline]
    pub(crate) fn fault_check(&self, site: &'static str) -> Result<()> {
        match &self.fault {
            None => Ok(()),
            Some(plan) => plan.check(site),
        }
    }

    /// The hosted schema.
    #[must_use]
    pub fn schema(&self) -> &RelationalSchema {
        &self.schema
    }

    /// Swaps the live logical schema and physical catalog for `schema` /
    /// `catalog`, returning the previous pair — the online-migration
    /// catalog-rewrite primitive. The caller owns consistency: data must
    /// be (re)loaded into the new tables, and on failure the returned
    /// pair must be swapped back for byte-identical rollback.
    pub(crate) fn swap_catalog(
        &mut self,
        schema: RelationalSchema,
        catalog: Catalog,
    ) -> (RelationalSchema, Catalog) {
        // The live fields sit behind `Arc`s so pinned snapshot handles can
        // share them; the migration caller works with owned values, so
        // unwrap on the way out (cloning only if a snapshot still pins the
        // old catalog — exactly the copy-on-write contract).
        fn unshare<T: Clone>(a: Arc<T>) -> T {
            Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone())
        }
        let old_schema = std::mem::replace(&mut self.schema, Arc::new(schema));
        let old = Catalog {
            tables: std::mem::replace(&mut self.tables, catalog.tables),
            nulls: unshare(std::mem::replace(&mut self.nulls, Arc::new(catalog.nulls))),
            outgoing: unshare(std::mem::replace(
                &mut self.outgoing,
                Arc::new(catalog.outgoing),
            )),
            incoming: unshare(std::mem::replace(
                &mut self.incoming,
                Arc::new(catalog.incoming),
            )),
        };
        (unshare(old_schema), old)
    }

    /// Raises `rel`'s modification version to at least `floor`. The
    /// migration path carries pre-migration versions across a catalog
    /// swap so every relation name's version stays strictly monotonic
    /// over the database's lifetime — the invariant that makes a
    /// build-cache hit proof of freshness.
    pub(crate) fn raise_relation_version(&mut self, rel: &str, floor: u64) {
        if let Some(t) = self.tables.get_mut(rel) {
            let t = Arc::make_mut(t);
            t.version = t.version.max(floor);
        }
    }

    /// The DBMS profile in force.
    #[must_use]
    pub fn profile(&self) -> &DbmsProfile {
        &self.profile
    }

    /// A snapshot of the maintenance counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            inserts: self.metrics.inserts.get(),
            deletes: self.metrics.deletes.get(),
            updates: self.metrics.updates.get(),
            rejected: self.metrics.rejected.get(),
            declarative_checks: self.metrics.declarative.get(),
            procedural_checks: self.metrics.procedural.get(),
            deferred_checks: self.metrics.deferred.get(),
            index_probes: self.metrics.index_probes.get(),
        }
    }

    /// Resets the maintenance counters (and the instance's whole metrics
    /// shard, including per-class counters and latency histograms).
    pub fn reset_stats(&mut self) {
        self.metrics.registry.reset();
    }

    /// Returns the accumulated maintenance counters and resets them — the
    /// one-call replacement for the `reset_stats()`-then-`stats()` dance.
    pub fn take_stats(&mut self) -> MaintenanceStats {
        let out = self.stats();
        self.reset_stats();
        out
    }

    /// The metrics shard backing this instance's counters, for callers
    /// that want per-class counts or latency histograms directly.
    #[must_use]
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// Live row count of `rel`.
    #[must_use]
    pub fn len(&self, rel: &str) -> usize {
        self.tables.get(rel).map_or(0, |t| t.live)
    }

    /// Whether relation `rel` is empty (or absent).
    #[must_use]
    pub fn is_empty(&self, rel: &str) -> bool {
        self.len(rel) == 0
    }

    /// Validates arity and domains of `t` against the header of `rel`.
    pub(crate) fn validate_shape(&self, rel: &str, t: &Tuple) -> std::result::Result<(), DmlError> {
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        if t.arity() != table.header.len() {
            return Err(DmlError::Schema(Error::TupleMismatch {
                detail: format!(
                    "arity {} vs header {} in `{rel}`",
                    t.arity(),
                    table.header.len()
                ),
            }));
        }
        for (v, a) in t.values().iter().zip(&table.header) {
            if !v.fits(a.domain()) {
                return Err(DmlError::Schema(Error::TupleMismatch {
                    detail: format!("value {v} does not fit `{}`", a.name()),
                }));
            }
        }
        Ok(())
    }

    /// Probes every unique index of `rel` for `t`, counting one key check
    /// per index. Returns `Ok(true)` when an identical tuple is already
    /// stored (idempotent no-op), `Ok(false)` when the slot is free, and a
    /// constraint violation for a conflicting duplicate. Key uniqueness is
    /// *never* deferred: the unique indexes must stay consistent while a
    /// batch applies, exactly like SQL's non-deferrable `PRIMARY KEY`.
    pub(crate) fn check_unique(&self, rel: &str, t: &Tuple) -> std::result::Result<bool, DmlError> {
        let table = &self.tables[rel];
        for (pos, map) in &table.unique {
            let t0 = Instant::now();
            self.metrics.index_probes.inc();
            let hit = map.get(&t.project(pos)).copied();
            self.metrics
                .record_check(CheckClass::Key, Mechanism::Declarative, t0);
            if let Some(slot) = hit {
                if table.rows[slot].as_ref() == Some(t) {
                    return Ok(true); // identical tuple: idempotent
                }
                self.metrics.rejected.inc();
                return Err(DmlError::ConstraintViolation(format!(
                    "duplicate key for `{rel}`"
                )));
            }
        }
        Ok(false)
    }

    /// The eagerly-checked single-tuple insert: every constraint is
    /// enforced before the row lands. Returns whether the tuple was new.
    pub(crate) fn insert_inner(
        &mut self,
        rel: &str,
        t: Tuple,
    ) -> std::result::Result<bool, DmlError> {
        self.validate_shape(rel, &t)?;
        // Null constraints: single-tuple checks.
        if let Some(checks) = self.nulls.get(rel).filter(|c| !c.is_empty()) {
            let singleton = singleton_relation(&self.tables[rel].header, &t);
            for c in checks {
                let t0 = Instant::now();
                let ok = c.constraint.satisfied_by(&singleton)?;
                self.metrics.record_check(CheckClass::Null, c.mechanism, t0);
                if !ok {
                    self.metrics.rejected.inc();
                    return Err(DmlError::ConstraintViolation(c.constraint.to_string()));
                }
            }
        }
        // Key uniqueness (declarative).
        if self.check_unique(rel, &t)? {
            return Ok(false);
        }
        // Outgoing inclusion dependencies (FK-style: a total LHS subtuple
        // must exist in the target).
        for c in self
            .outgoing
            .get(rel)
            .map(Vec::as_slice)
            .unwrap_or_default()
        {
            let t0 = Instant::now();
            let lhs_pos = self.tables[rel].positions(&c.lhs_attrs)?;
            if !t.is_total_at(&lhs_pos) {
                self.metrics.record_check(CheckClass::Ind, c.mechanism, t0);
                continue; // partial subtuples are exempt (total-projection semantics)
            }
            let key = t.project(&lhs_pos);
            self.metrics.index_probes.inc();
            // Self-referencing dependency satisfied by the tuple itself.
            if c.rhs_rel == rel {
                let rhs_pos = self.tables[rel].positions(&c.rhs_attrs)?;
                if t.project(&rhs_pos) == key {
                    self.metrics.record_check(CheckClass::Ind, c.mechanism, t0);
                    continue;
                }
            }
            let target = &self.tables[&c.rhs_rel];
            let (_, map) = target
                .lookups
                .get(&c.rhs_attrs)
                .expect("lookup indexes built for every IND");
            let found = map.contains_key(&key);
            self.metrics.record_check(CheckClass::Ind, c.mechanism, t0);
            if !found {
                self.metrics.rejected.inc();
                return Err(DmlError::ConstraintViolation(format!(
                    "`{rel}`[{}] = {key} has no match in `{}`[{}]",
                    c.lhs_attrs.join(","),
                    c.rhs_rel,
                    c.rhs_attrs.join(",")
                )));
            }
        }
        // Commit. The fault site fires *before* any index mutation so an
        // injected failure leaves no partial maintenance behind.
        self.fault_check(site::INDEX_MAINTENANCE)?;
        let table = Arc::make_mut(self.tables.get_mut(rel).expect("checked"));
        let slot = table.rows.len();
        table.index_insert(&t, slot);
        table.rows.push(Some(t));
        table.live += 1;
        self.metrics.inserts.inc();
        Ok(true)
    }

    /// The primary-key attribute names of `rel`.
    pub(crate) fn primary_key_attrs(
        &self,
        rel: &str,
    ) -> std::result::Result<Vec<String>, DmlError> {
        Ok(self
            .schema
            .scheme_required(rel)?
            .primary_key()
            .iter()
            .map(|k| (*k).to_owned())
            .collect())
    }

    /// Locates the row with primary key `key` (one index probe), without
    /// removing it.
    pub(crate) fn find_by_pk(
        &self,
        rel: &str,
        key: &Tuple,
    ) -> std::result::Result<Option<(usize, Tuple)>, DmlError> {
        let pk = self.primary_key_attrs(rel)?;
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let pk_pos = table.positions(&pk)?;
        self.metrics.index_probes.inc();
        let Some((_, map)) = table.unique.iter().find(|(p, _)| *p == pk_pos) else {
            return Err(DmlError::Schema(Error::MissingPrimaryKey(rel.to_owned())));
        };
        Ok(map.get(key).map(|&slot| {
            (
                slot,
                table.rows[slot]
                    .clone()
                    .expect("unique index points at live rows"),
            )
        }))
    }

    /// Removes the row at `slot` with **no** constraint checking.
    pub(crate) fn remove_slot(&mut self, rel: &str, slot: usize, victim: &Tuple) {
        let table = Arc::make_mut(self.tables.get_mut(rel).expect("checked"));
        table.index_remove(victim, slot);
        table.rows[slot] = None;
        table.live -= 1;
    }

    /// The eagerly-checked delete: RESTRICT semantics are enforced before
    /// the row is removed. Returns the victim tuple, if one existed.
    pub(crate) fn delete_inner(
        &mut self,
        rel: &str,
        key: &Tuple,
    ) -> std::result::Result<Option<Tuple>, DmlError> {
        let Some((slot, victim)) = self.find_by_pk(rel, key)? else {
            return Ok(None);
        };
        // RESTRICT: no referencing tuple may be orphaned. The deletion only
        // orphans a reference if no *other* live tuple of `rel` carries the
        // same referenced subtuple.
        for c in self
            .incoming
            .get(rel)
            .map(Vec::as_slice)
            .unwrap_or_default()
        {
            let t0 = Instant::now();
            let rhs_pos = self.tables[rel].positions(&c.rhs_attrs)?;
            if !victim.is_total_at(&rhs_pos) {
                self.metrics
                    .record_check(CheckClass::Restrict, c.mechanism, t0);
                continue;
            }
            let referenced = victim.project(&rhs_pos);
            self.metrics.index_probes.add(2);
            let remaining = self.tables[rel]
                .lookups
                .get(&c.rhs_attrs)
                .and_then(|(_, map)| map.get(&referenced))
                .map_or(0, Vec::len) as u32;
            if remaining > 1 {
                self.metrics
                    .record_check(CheckClass::Restrict, c.mechanism, t0);
                continue; // another tuple still provides the value
            }
            let referencing = self.tables[&c.lhs_rel]
                .lookups
                .get(&c.lhs_attrs)
                .and_then(|(_, map)| map.get(&referenced))
                .map_or(0, Vec::len) as u32;
            // A self-reference by the victim itself does not block.
            let self_ref = if c.lhs_rel == rel {
                let lhs_pos = self.tables[rel].positions(&c.lhs_attrs)?;
                u32::from(victim.is_total_at(&lhs_pos) && victim.project(&lhs_pos) == referenced)
            } else {
                0
            };
            self.metrics
                .record_check(CheckClass::Restrict, c.mechanism, t0);
            if referencing > self_ref {
                self.metrics.rejected.inc();
                return Err(DmlError::ConstraintViolation(format!(
                    "RESTRICT: `{}`[{}] still references {referenced}",
                    c.lhs_rel,
                    c.lhs_attrs.join(",")
                )));
            }
        }
        self.fault_check(site::INDEX_MAINTENANCE)?;
        self.remove_slot(rel, slot, &victim);
        self.metrics.deletes.inc();
        Ok(Some(victim))
    }

    /// Bulk-loads a database state without per-tuple rejection (the state
    /// is assumed consistent, e.g. produced by `Merged::apply`); constraint
    /// counters are not affected. Fails if any tuple is malformed, and —
    /// because "assumed consistent" is an assumption worth auditing when
    /// the state arrives from disk — runs [`Database::verify_integrity`]
    /// over the result, failing with [`Error::StateMismatch`] if the
    /// loaded state violates any constraint or index invariant. The audit
    /// is O(state size). Every touched relation's version is also bumped
    /// strictly past any cached build of it, so seeded or recovered data
    /// can never alias a stale build-cache entry.
    pub fn load_state(&mut self, state: &DatabaseState) -> Result<()> {
        self.load_state_unverified(state)?;
        let report = self.verify_integrity();
        if !report.is_clean() {
            return Err(Error::StateMismatch {
                detail: format!("loaded state failed integrity verification: {report}"),
            });
        }
        Ok(())
    }

    /// [`Database::load_state`] minus the closing integrity audit: just
    /// the bulk load and the build-cache version bumps, O(rows loaded).
    /// For callers that own a coarser verification boundary — crash
    /// recovery replays every logged migration through this path and runs
    /// [`Database::verify_integrity`] exactly once after the whole log
    /// suffix, rather than once per replayed record.
    pub(crate) fn load_state_unverified(&mut self, state: &DatabaseState) -> Result<()> {
        for (name, relation) in state.iter() {
            let table = self
                .tables
                .get_mut(name)
                .map(Arc::make_mut)
                .ok_or_else(|| Error::UnknownScheme(name.to_owned()))?;
            for t in relation.iter() {
                let slot = table.rows.len();
                table.index_insert(t, slot);
                table.rows.push(Some(t.clone()));
                table.live += 1;
            }
        }
        for name in state.names() {
            let cached = self.build_cache_lock().max_version(name);
            if let (Some(cached), Some(table)) = (cached, self.tables.get_mut(name)) {
                let table = Arc::make_mut(table);
                table.version = table.version.max(cached + 1);
            }
        }
        Ok(())
    }

    /// Materializes the current contents as a [`DatabaseState`].
    pub fn snapshot(&self) -> Result<DatabaseState> {
        let mut state = DatabaseState::new();
        for (name, table) in &self.tables {
            state.set_relation(name.clone(), table.to_relation()?);
        }
        Ok(state)
    }

    /// The deep integrity checker: re-validates every constraint the
    /// schema declares against the *stored* rows and cross-checks every
    /// index against its base relation, trusting nothing the DML fast
    /// paths maintain incrementally. Checks performed, per relation:
    ///
    /// * row accounting — the live counter equals the non-tombstoned rows;
    /// * unique (candidate-key) indexes — every entry points at a live row
    ///   carrying that key, every live row is indexed, and no key value
    ///   occurs twice;
    /// * secondary lookup indexes — every entry points at a live row whose
    ///   total subtuple matches, and every total live row is reachable;
    /// * null constraints (NNA/NS/NE/TE) — re-evaluated over all rows;
    /// * inclusion dependencies — every total LHS projection is rebuilt
    ///   and probed against a set recomputed from the RHS *base rows*
    ///   (not its indexes, which are verified separately).
    ///
    /// Returns the structured [`IntegrityReport`]; this function never
    /// fails — structural impossibilities (e.g. rows that no longer form a
    /// valid relation) are themselves reported as violations.
    #[must_use]
    pub fn verify_integrity(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        let mut violations = Vec::new();
        let mut flag = |relation: &str, kind: IntegrityKind, detail: String| {
            violations.push(IntegrityViolation {
                relation: relation.to_owned(),
                kind,
                detail,
            });
        };
        for (name, table) in &self.tables {
            report.relations_checked += 1;
            let live_rows: Vec<(usize, &Tuple)> = table
                .rows
                .iter()
                .enumerate()
                .filter_map(|(slot, row)| row.as_ref().map(|t| (slot, t)))
                .collect();
            if live_rows.len() != table.live {
                flag(
                    name,
                    IntegrityKind::RowAccounting,
                    format!(
                        "live counter says {} but {} rows are stored",
                        table.live,
                        live_rows.len()
                    ),
                );
            }
            // Unique indexes, both directions.
            for (pos, map) in &table.unique {
                for (key, &slot) in map {
                    report.index_entries_checked += 1;
                    match table.rows.get(slot).and_then(|r| r.as_ref()) {
                        Some(t) if t.project(pos) == *key => {}
                        Some(_) => flag(
                            name,
                            IntegrityKind::UniqueIndex,
                            format!("entry {key} points at slot {slot} holding a different key"),
                        ),
                        None => flag(
                            name,
                            IntegrityKind::UniqueIndex,
                            format!("entry {key} points at dead slot {slot}"),
                        ),
                    }
                }
                for &(slot, t) in &live_rows {
                    let key = t.project(pos);
                    match map.get(&key) {
                        Some(&s) if s == slot => {}
                        Some(&s) => flag(
                            name,
                            IntegrityKind::UniqueIndex,
                            format!("key {key} of slot {slot} indexed at slot {s} (duplicate key)"),
                        ),
                        None => flag(
                            name,
                            IntegrityKind::UniqueIndex,
                            format!("slot {slot} with key {key} missing from the index"),
                        ),
                    }
                }
            }
            // Lookup indexes, both directions.
            for (attrs, (pos, map)) in &table.lookups {
                for (key, slots) in map {
                    let mut seen = std::collections::HashSet::new();
                    for &slot in slots {
                        report.index_entries_checked += 1;
                        if !seen.insert(slot) {
                            flag(
                                name,
                                IntegrityKind::LookupIndex,
                                format!(
                                    "[{}] entry {key} lists slot {slot} twice",
                                    attrs.join(",")
                                ),
                            );
                        }
                        match table.rows.get(slot).and_then(|r| r.as_ref()) {
                            Some(t) if t.is_total_at(pos) && t.project(pos) == *key => {}
                            _ => flag(
                                name,
                                IntegrityKind::LookupIndex,
                                format!(
                                    "[{}] entry {key} points at slot {slot} not carrying it",
                                    attrs.join(",")
                                ),
                            ),
                        }
                    }
                }
                for &(slot, t) in &live_rows {
                    if !t.is_total_at(pos) {
                        continue;
                    }
                    let key = t.project(pos);
                    if !map.get(&key).is_some_and(|slots| slots.contains(&slot)) {
                        flag(
                            name,
                            IntegrityKind::LookupIndex,
                            format!(
                                "slot {slot} with [{}] = {key} missing from the index",
                                attrs.join(",")
                            ),
                        );
                    }
                }
            }
            // Null constraints, re-evaluated over the whole stored relation.
            if let Some(checks) = self.nulls.get(name).filter(|c| !c.is_empty()) {
                match table.to_relation() {
                    Ok(relation) => {
                        for c in checks {
                            report.constraints_checked += 1;
                            match c.constraint.satisfied_by(&relation) {
                                Ok(true) => {}
                                Ok(false) => flag(
                                    name,
                                    IntegrityKind::NullConstraint,
                                    c.constraint.to_string(),
                                ),
                                Err(e) => flag(
                                    name,
                                    IntegrityKind::NullConstraint,
                                    format!("check failed to evaluate: {e}"),
                                ),
                            }
                        }
                    }
                    Err(e) => flag(
                        name,
                        IntegrityKind::NullConstraint,
                        format!("stored rows no longer form a relation: {e}"),
                    ),
                }
            }
            // Outgoing inclusion dependencies, base rows against base rows.
            for c in self
                .outgoing
                .get(name)
                .map(Vec::as_slice)
                .unwrap_or_default()
            {
                report.constraints_checked += 1;
                let Ok(lhs_pos) = table.positions(&c.lhs_attrs) else {
                    flag(
                        name,
                        IntegrityKind::InclusionDependency,
                        format!("LHS attributes [{}] unresolvable", c.lhs_attrs.join(",")),
                    );
                    continue;
                };
                let Some(rhs_table) = self.tables.get(&c.rhs_rel) else {
                    flag(
                        name,
                        IntegrityKind::InclusionDependency,
                        format!("RHS relation `{}` missing", c.rhs_rel),
                    );
                    continue;
                };
                let Ok(rhs_pos) = rhs_table.positions(&c.rhs_attrs) else {
                    flag(
                        name,
                        IntegrityKind::InclusionDependency,
                        format!("RHS attributes [{}] unresolvable", c.rhs_attrs.join(",")),
                    );
                    continue;
                };
                let targets: std::collections::HashSet<Tuple> = rhs_table
                    .rows
                    .iter()
                    .flatten()
                    .filter(|t| t.is_total_at(&rhs_pos))
                    .map(|t| t.project(&rhs_pos))
                    .collect();
                for &(slot, t) in &live_rows {
                    if !t.is_total_at(&lhs_pos) {
                        continue;
                    }
                    let key = t.project(&lhs_pos);
                    if !targets.contains(&key) {
                        flag(
                            name,
                            IntegrityKind::InclusionDependency,
                            format!(
                                "slot {slot}: [{}] = {key} has no match in `{}`[{}]",
                                c.lhs_attrs.join(","),
                                c.rhs_rel,
                                c.rhs_attrs.join(",")
                            ),
                        );
                    }
                }
            }
        }
        report.violations = violations;
        report
    }

    /// Probes the lookup index of `rel` over `attrs` for `key`, appending
    /// *borrowed* matches to `out` (scanning only on index miss). The
    /// clone-free variant of the old `probe`: tuples materialize once, at
    /// concat/projection time in the executor, not per probe. Exposed for
    /// the query executor.
    pub(crate) fn probe_slots<'a>(
        &'a self,
        rel: &str,
        attrs: &[String],
        key: &Tuple,
        stats: &mut crate::query::QueryStats,
        out: &mut Vec<&'a Tuple>,
    ) -> Result<()> {
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let pos = table.positions(attrs)?;
        // Unique index?
        if let Some((_, map)) = table.unique.iter().find(|(p, _)| *p == pos) {
            stats.index_probes += 1;
            if let Some(t) = map.get(key).and_then(|&slot| table.rows[slot].as_ref()) {
                out.push(t);
            }
            return Ok(());
        }
        // Secondary lookup index?
        if let Some((_, map)) = table.lookups.get(attrs) {
            stats.index_probes += 1;
            if let Some(slots) = map.get(key) {
                out.extend(slots.iter().filter_map(|&s| table.rows[s].as_ref()));
            }
            return Ok(());
        }
        // Fall back to a scan.
        stats.rows_scanned += table.rows.len() as u64;
        out.extend(
            table
                .rows
                .iter()
                .flatten()
                .filter(|t| t.is_total_at(&pos) && t.project(&pos) == *key),
        );
        Ok(())
    }

    pub(crate) fn scan(&self, rel: &str) -> Result<(&[Attribute], Vec<&Tuple>)> {
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        Ok((&table.header, table.rows.iter().flatten().collect()))
    }

    /// Probes a unique index over `attrs` for `key` (no stats, no scan
    /// fallback). Used by the transaction layer.
    pub(crate) fn unique_lookup(&self, rel: &str, attrs: &[String], key: &Tuple) -> Option<Tuple> {
        let table = self.tables.get(rel)?;
        let pos = table.positions(attrs).ok()?;
        let (_, map) = table.unique.iter().find(|(p, _)| *p == pos)?;
        map.get(key).and_then(|&slot| table.rows[slot].clone())
    }

    /// Re-inserts a tuple with **no** constraint checking — rollback only.
    pub(crate) fn raw_insert(&mut self, rel: &str, t: Tuple) -> Result<()> {
        let table = self
            .tables
            .get_mut(rel)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let slot = table.rows.len();
        table.index_insert(&t, slot);
        table.rows.push(Some(t));
        table.live += 1;
        Ok(())
    }

    /// Removes an exact tuple with **no** constraint checking — rollback
    /// only.
    pub(crate) fn raw_remove(&mut self, rel: &str, t: &Tuple) -> Result<()> {
        let table = self
            .tables
            .get_mut(rel)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let slot = table
            .rows
            .iter()
            .position(|r| r.as_ref() == Some(t))
            .ok_or_else(|| Error::StateMismatch {
                detail: format!("rollback: tuple {t} not found in `{rel}`"),
            })?;
        table.index_remove(t, slot);
        table.rows[slot] = None;
        table.live -= 1;
        Ok(())
    }

    /// Whether a unique or secondary lookup index of `rel` covers exactly
    /// `attrs` (the join-strategy cost model's index question).
    pub(crate) fn index_covers(&self, rel: &str, attrs: &[String]) -> Result<bool> {
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let pos = table.positions(attrs)?;
        Ok(table.unique.iter().any(|(p, _)| *p == pos) || table.lookups.contains_key(attrs))
    }

    pub(crate) fn header(&self, rel: &str) -> Result<&[Attribute]> {
        Ok(&self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?
            .header)
    }
}

pub(crate) fn singleton_relation(header: &[Attribute], t: &Tuple) -> Relation {
    let mut r = Relation::new(header.to_vec()).expect("header already validated");
    r.insert(t.clone()).expect("tuple already validated");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmerge_relational::{Domain, InclusionDep, RelationScheme, Value};

    fn a(n: &str) -> Attribute {
        Attribute::new(n, Domain::Int)
    }

    fn emp_mgr_schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("EMP", vec![a("E.SSN"), a("E.G")], &["E.SSN"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("MGR", vec![a("M.SSN"), a("M.NR")], &["M.SSN"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("EMP", &["E.SSN", "E.G"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("MGR", &["M.SSN", "M.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("MGR", &["M.SSN"], "EMP", &["E.SSN"]))
            .unwrap();
        rs
    }

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    #[test]
    fn insert_enforces_everything() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        // FK violation.
        let err = db.insert("MGR", tup(&[9, 1])).unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)));
        // FK satisfied.
        db.insert("MGR", tup(&[1, 7])).unwrap();
        // Duplicate key.
        let err = db.insert("EMP", tup(&[1, 99])).unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)));
        // Identical tuple is idempotent.
        assert!(!db.insert("EMP", tup(&[1, 10])).unwrap());
        // NNA violation.
        let err = db
            .insert("EMP", Tuple::new([Value::Int(2), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)));
        assert_eq!(db.len("EMP"), 1);
        assert_eq!(db.len("MGR"), 1);
        let stats = db.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.rejected, 3);
        assert!(stats.declarative_checks > 0);
        assert_eq!(stats.procedural_checks, 0);
    }

    #[test]
    fn delete_restrict() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        db.insert("MGR", tup(&[1, 7])).unwrap();
        // EMP(1) is referenced: RESTRICT.
        let err = db.delete_by_key("EMP", &tup(&[1])).unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)));
        // Delete the referencing row first.
        assert!(db.delete_by_key("MGR", &tup(&[1])).unwrap());
        assert!(db.delete_by_key("EMP", &tup(&[1])).unwrap());
        assert_eq!(db.len("EMP"), 0);
        // Deleting a missing key is a no-op.
        assert!(!db.delete_by_key("EMP", &tup(&[1])).unwrap());
    }

    #[test]
    fn procedural_tier_counted() {
        // A merged-style schema with a null-sync constraint: SYBASE
        // maintains it via triggers → procedural counter.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("M", vec![a("K"), a("X"), a("Y")], &["K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("M", &["K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::ns("M", &["X", "Y"]))
            .unwrap();
        let mut db = Database::new(rs.clone(), DbmsProfile::sybase40()).unwrap();
        db.insert("M", Tuple::new([Value::Int(1), Value::Null, Value::Null]))
            .unwrap();
        let err = db
            .insert("M", Tuple::new([Value::Int(2), Value::Int(5), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, DmlError::ConstraintViolation(_)));
        assert!(db.stats().procedural_checks > 0);
        // DB2 cannot host this schema at all.
        assert!(Database::new(rs, DbmsProfile::db2()).is_err());
    }

    #[test]
    fn partial_foreign_keys_exempt() {
        // Nullable FK: a null subtuple is exempt (total-projection
        // semantics), a total dangling one is rejected.
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![a("C.K"), a("C.FK")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("C", &["C.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::db2()).unwrap();
        db.insert("C", Tuple::new([Value::Int(1), Value::Null]))
            .unwrap();
        assert!(db.insert("C", tup(&[2, 77])).is_err());
        db.insert("P", tup(&[77])).unwrap();
        db.insert("C", tup(&[2, 77])).unwrap();
    }

    #[test]
    fn snapshot_round_trip_and_load() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::ideal()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        db.insert("EMP", tup(&[2, 20])).unwrap();
        db.insert("MGR", tup(&[2, 5])).unwrap();
        db.delete_by_key("EMP", &tup(&[1])).unwrap();
        let snap = db.snapshot().unwrap();
        assert_eq!(snap.relation("EMP").unwrap().len(), 1);
        assert!(snap.is_consistent(db.schema()).unwrap());
        // Load into a fresh database and compare.
        let mut db2 = Database::new(emp_mgr_schema(), DbmsProfile::ideal()).unwrap();
        db2.load_state(&snap).unwrap();
        assert_eq!(db2.snapshot().unwrap(), snap);
        // Constraints still enforced on top of the loaded data.
        assert!(db2.insert("MGR", tup(&[2, 6])).is_err()); // dup key
    }

    #[test]
    fn self_referencing_ind_allows_own_tuple() {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("E", vec![a("E.K"), a("E.BOSS")], &["E.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("E", &["E.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("E", &["E.BOSS"], "E", &["E.K"]))
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        // Self-managed root employee.
        db.insert("E", tup(&[1, 1])).unwrap();
        db.insert("E", tup(&[2, 1])).unwrap();
        assert!(db.insert("E", tup(&[3, 9])).is_err());
    }

    #[test]
    fn take_stats_reads_and_resets() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        let taken = db.take_stats();
        assert_eq!(taken.inserts, 1);
        assert!(taken.declarative_checks > 0);
        assert_eq!(db.stats(), MaintenanceStats::default());
        // Counters keep working after the reset.
        db.insert("EMP", tup(&[2, 20])).unwrap();
        assert_eq!(db.stats().inserts, 1);
    }

    #[test]
    fn stats_add_and_merge() {
        let a = MaintenanceStats {
            inserts: 1,
            deletes: 2,
            updates: 7,
            rejected: 3,
            declarative_checks: 4,
            procedural_checks: 5,
            deferred_checks: 8,
            index_probes: 6,
        };
        let b = MaintenanceStats {
            inserts: 10,
            deletes: 20,
            updates: 70,
            rejected: 30,
            declarative_checks: 40,
            procedural_checks: 50,
            deferred_checks: 80,
            index_probes: 60,
        };
        let sum = a + b;
        assert_eq!(sum.inserts, 11);
        assert_eq!(sum.index_probes, 66);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m, sum);
        let mut aa = a;
        aa += b;
        assert_eq!(aa, sum);
    }

    #[test]
    fn cloned_database_has_isolated_counters() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        let mut fork = db.fork();
        assert_eq!(fork.stats(), MaintenanceStats::default(), "fresh shard");
        assert_eq!(fork.len("EMP"), 1, "rows are copied, counts are not");
        fork.insert("EMP", tup(&[2, 20])).unwrap();
        db.insert("EMP", tup(&[3, 30])).unwrap();
        assert_eq!(fork.stats().inserts, 1);
        assert_eq!(db.stats().inserts, 2, "original unaffected by the fork");
        // Three inserts were made; the two shards count each exactly once.
        assert_eq!(db.stats().inserts + fork.stats().inserts, 3);
    }

    #[test]
    fn relation_versions_bump_on_every_mutation() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        let v0 = db.relation_version("EMP").unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        let v1 = db.relation_version("EMP").unwrap();
        assert!(v1 > v0);
        // An idempotent re-insert mutates nothing, so the version holds —
        // a cached build over EMP stays valid.
        assert!(!db.insert("EMP", tup(&[1, 10])).unwrap());
        assert_eq!(db.relation_version("EMP").unwrap(), v1);
        // A rejected statement mutates nothing either.
        assert!(db.insert("EMP", tup(&[1, 99])).is_err());
        assert_eq!(db.relation_version("EMP").unwrap(), v1);
        // Deletes bump; other relations are untouched.
        let mgr_v = db.relation_version("MGR").unwrap();
        db.delete_by_key("EMP", &tup(&[1])).unwrap();
        assert!(db.relation_version("EMP").unwrap() > v1);
        assert_eq!(db.relation_version("MGR").unwrap(), mgr_v);
        assert!(db.relation_version("NOPE").is_err());
    }

    #[test]
    fn build_cache_knobs_round_trip() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        assert_eq!(db.build_cache_capacity(), DEFAULT_BUILD_CACHE_BYTES);
        assert_eq!(
            db.build_parallel_threshold(),
            DEFAULT_BUILD_PARALLEL_THRESHOLD
        );
        assert_eq!((db.build_cache_len(), db.build_cache_bytes()), (0, 0));
        db.configure(db.config().build_cache_capacity(0));
        assert_eq!(db.build_cache_capacity(), 0);
        db.configure(db.config().build_parallel_threshold(usize::MAX));
        assert_eq!(db.build_parallel_threshold(), usize::MAX);
        db.clear_build_cache();
        assert_eq!(db.build_cache_len(), 0);
    }

    #[test]
    fn engine_config_round_trips_every_knob() {
        let cfg = EngineConfig::new()
            .parallelism(3)
            .hash_join_threshold(7)
            .morsel_rows(11)
            .build_parallel_threshold(13)
            .build_cache_capacity(1 << 20);
        let mut db = Database::new_with_config(emp_mgr_schema(), DbmsProfile::db2(), cfg).unwrap();
        assert_eq!(db.parallelism(), 3);
        assert_eq!(db.hash_join_threshold(), 7);
        assert_eq!(db.morsel_rows(), 11);
        assert_eq!(db.build_parallel_threshold(), 13);
        assert_eq!(db.build_cache_capacity(), 1 << 20);
        let read_back = db.config();
        assert_eq!(read_back.get_parallelism(), 3);
        assert_eq!(read_back.get_hash_join_threshold(), 7);
        assert_eq!(read_back.get_morsel_rows(), 11);
        assert_eq!(read_back.get_build_parallel_threshold(), 13);
        assert_eq!(read_back.get_build_cache_capacity(), 1 << 20);
        // Single-knob tweak leaves the rest intact, and zero values clamp
        // where the old setters clamped.
        db.configure(db.config().parallelism(0).morsel_rows(0));
        assert_eq!(db.parallelism(), 1);
        assert_eq!(db.morsel_rows(), 1);
        assert_eq!(db.hash_join_threshold(), 7);
    }

    #[test]
    fn per_class_counters_split_by_mechanism() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        db.insert("MGR", tup(&[1, 7])).unwrap();
        db.delete_by_key("MGR", &tup(&[1])).unwrap();
        // EMP is the IND's RHS, so deleting from it runs the RESTRICT check.
        db.delete_by_key("EMP", &tup(&[1])).unwrap();
        let snap = db.metrics_registry().snapshot();
        // DB2: NNA + PK + FK are declarative.
        assert_eq!(snap.counters["engine.check.null.declarative"], 2);
        assert_eq!(snap.counters["engine.check.key.declarative"], 2);
        assert_eq!(snap.counters["engine.check.ind.declarative"], 1);
        assert_eq!(snap.counters["engine.check.restrict.declarative"], 1);
        // Per-class counts sum to the tier totals the stats view reports.
        let per_class: u64 = CLASS_NAMES
            .iter()
            .map(|c| snap.counters[&format!("engine.check.{c}.declarative")])
            .sum();
        assert_eq!(per_class, db.stats().declarative_checks);
        // Latency histograms saw every declarative check.
        assert_eq!(
            snap.histograms["engine.check.declarative.ns"].count,
            db.stats().declarative_checks
        );
        assert_eq!(db.stats().procedural_checks, 0);
    }
}
