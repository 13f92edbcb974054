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
//! counters. The counters only go up: a reader diffs two snapshots of
//! [`Database::metrics_registry`], which is how the benches quantify
//! §5.1's point that merged schemas shift maintenance work into the (more
//! expensive) procedural tier on some systems. Each DML statement also
//! records its wall time on an `engine.dml.{insert,delete,update}.ns`
//! histogram, whatever its outcome.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use relmerge_obs::{self as obs, Counter, Histogram, Registry};
use relmerge_relational::fxhash::{FxHasher, Slots};
use relmerge_relational::relation::check_fits;
use relmerge_relational::{
    Attribute, DatabaseState, Error, FxHashMap, FxHashSet, NullConstraint, Relation,
    RelationalSchema, Result, Tuple, Value,
};

use crate::fault::{FaultPlan, IntegrityKind, IntegrityReport, IntegrityViolation};
use crate::{DbmsProfile, Mechanism};

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

/// The [`QueryStats`](crate::QueryStats) fields every successful query
/// adds to its `engine.query.<field>` counter, in the order
/// [`DbMetrics::record_query`] lists their values.
const QUERY_TOTALS: [&str; 6] = [
    "rows_scanned",
    "index_probes",
    "hash_builds",
    "rows_output",
    "morsels",
    "intermediate_bytes",
];

/// Cached handles into one database instance's metrics shard. A store's
/// master, its published bases and every pin share one `DbMetrics`, so
/// the store registry shows each session's reads as they happen.
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
    pub(crate) build_cache_hits: Arc<Counter>,
    pub(crate) build_cache_misses: Arc<Counter>,
    pub(crate) build_cache_evictions: Arc<Counter>,
    pub(crate) probe_saved_allocs: Arc<Counter>,
    /// Predicate-pushdown counters: conjuncts the optimizer placed below
    /// the residual filter position, and rows pruned by those placements
    /// (root prefilter, probe filters, filtered hash builds).
    pub(crate) pushed_conjuncts: Arc<Counter>,
    pub(crate) pushdown_pruned_rows: Arc<Counter>,
    /// Stored rows read to prove, before the first morsel, that an inner
    /// step's pushed conjunct keeps no row (kept out of `QueryStats`).
    pub(crate) empty_check_rows: Arc<Counter>,
    /// Build-cache inserts and the bytes evicted by inserts and capacity
    /// changes (hits, misses and evicted entries count under
    /// `engine.query.build_cache.*`).
    pub(crate) cache_insert: Arc<Counter>,
    pub(crate) cache_evicted_bytes: Arc<Counter>,
    /// Per-query totals, one counter per [`QUERY_TOTALS`] field, and the
    /// wall time of each successful execution (`engine.query.ns`).
    query_totals: [Arc<Counter>; QUERY_TOTALS.len()],
    query_ns: Arc<Histogram>,
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
    /// Copy-on-write: tables a mutation had to copy because a snapshot
    /// (or a store's published base) still shared them, and the row slots
    /// those copies held.
    cow_table_copies: Arc<Counter>,
    cow_copied_rows: Arc<Counter>,
    /// Wall time of each [`crate::session::Session::pin`].
    pub(crate) pin_ns: Arc<Histogram>,
    /// Wall time of each store publication: retiring the published base
    /// and freeing what it held.
    pub(crate) publish_ns: Arc<Histogram>,
}

impl Drop for DbMetrics {
    /// Flushes this shard into the process-global registry so its counts
    /// survive the weak shard reference. Exactly once: it runs when the
    /// *last* `Arc<DbMetrics>` handle (a database, a store's published
    /// base or a pin) goes away, and a [`Database::fork`] starts a fresh
    /// shard rather than copying this one's counts.
    fn drop(&mut self) {
        obs::flush_shard(&self.registry);
    }
}

impl DbMetrics {
    fn new() -> DbMetrics {
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
            build_cache_hits: registry.counter("engine.query.build_cache.hits"),
            build_cache_misses: registry.counter("engine.query.build_cache.misses"),
            build_cache_evictions: registry.counter("engine.query.build_cache.evictions"),
            probe_saved_allocs: registry.counter("engine.query.probe_key.saved_allocs"),
            pushed_conjuncts: registry.counter("engine.query.pushed_conjuncts"),
            pushdown_pruned_rows: registry.counter("engine.query.pushdown_pruned_rows"),
            empty_check_rows: registry.counter("engine.query.empty_check_rows"),
            cache_insert: registry.counter("engine.build_cache.insert"),
            cache_evicted_bytes: registry.counter("engine.build_cache.evicted_bytes"),
            query_totals: QUERY_TOTALS.map(|f| registry.counter(&format!("engine.query.{f}"))),
            query_ns: registry.histogram("engine.query.ns"),
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
            cow_table_copies: registry.counter("engine.cow.table_copies"),
            cow_copied_rows: registry.counter("engine.cow.copied_rows"),
            pin_ns: registry.histogram("engine.session.pin.ns"),
            publish_ns: registry.histogram("engine.session.publish.ns"),
            registry,
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

    /// Adds one successful query's stats to the per-query totals and its
    /// wall time, since `start`, to `engine.query.ns`.
    pub(crate) fn record_query(&self, stats: &crate::QueryStats, start: Instant) {
        let values = [
            stats.rows_scanned,
            stats.index_probes,
            stats.hash_builds,
            stats.rows_output,
            stats.morsels,
            stats.intermediate_bytes,
        ];
        for (counter, v) in self.query_totals.iter().zip(values) {
            counter.add(v);
        }
        self.query_ns.record(obs::elapsed_ns(start));
    }
}

/// The hash of a key, fed its values in place: the one hash every table
/// index inserts, removes and probes with, so a key read at a stored row's
/// positions and the same key as a probe slice hash alike.
#[inline]
pub(crate) fn key_hash<'v>(key: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// One table index over the attribute positions `pos`: the hash of each
/// indexed row's key → the slots of the rows whose keys have that hash, in
/// ascending slot order. No key is stored: a probe compares the candidate
/// rows' own values with the key, so a bucket may hold rows of several
/// keys that collide on all 64 bits.
#[derive(Clone)]
pub(crate) struct KeyIndex {
    pos: Vec<usize>,
    map: FxHashMap<u64, Slots>,
}

impl KeyIndex {
    fn new(pos: Vec<usize>) -> Self {
        KeyIndex {
            pos,
            map: FxHashMap::default(),
        }
    }

    /// The key of `t` at this index's positions, read in place.
    fn key_of<'t>(&self, t: &'t Tuple) -> impl Iterator<Item = &'t Value> + Clone + use<'_, 't> {
        self.pos.iter().map(|&i| t.get(i))
    }

    fn insert(&mut self, t: &Tuple, slot: usize) {
        self.map
            .entry(key_hash(self.key_of(t)))
            .and_modify(|slots| slots.insert(slot))
            .or_insert(Slots::One(slot));
    }

    fn remove(&mut self, t: &Tuple, slot: usize) {
        if let Entry::Occupied(mut e) = self.map.entry(key_hash(self.key_of(t))) {
            if e.get_mut().remove(slot) {
                e.remove();
            }
        }
    }

    /// The slots of every row whose key shares `key`'s hash; only those
    /// that [`KeyIndex::carries`] `key` match it.
    #[inline]
    pub(crate) fn bucket<'v>(&self, key: impl IntoIterator<Item = &'v Value>) -> &[usize] {
        self.map.get(&key_hash(key)).map_or(&[], Slots::as_slice)
    }

    /// Whether `row` carries `key` at this index's positions.
    #[inline]
    pub(crate) fn carries<'v>(
        &self,
        row: &Tuple,
        key: impl IntoIterator<Item = &'v Value>,
    ) -> bool {
        self.key_of(row).eq(key)
    }

    /// The live rows of `rows` carrying `key`, with their slots, in slot
    /// order.
    pub(crate) fn find<'r, 'v, K>(
        &'r self,
        rows: &'r [Option<Tuple>],
        key: K,
    ) -> impl Iterator<Item = (usize, &'r Tuple)> + use<'r, 'v, K>
    where
        K: IntoIterator<Item = &'v Value> + Clone,
    {
        self.bucket(key.clone()).iter().filter_map(move |&s| {
            rows[s]
                .as_ref()
                .filter(|t| self.carries(t, key.clone()))
                .map(|t| (s, t))
        })
    }
}

/// One stored relation with its indexes: one index per attribute list.
#[derive(Clone)]
pub(crate) struct Table {
    pub(crate) header: Vec<Attribute>,
    pub(crate) rows: Vec<Option<Tuple>>, // tombstoned on delete
    pub(crate) live: usize,
    /// Unique indexes, one per candidate key, the primary key first. They
    /// index every live row, null key components included.
    unique: Vec<KeyIndex>,
    /// Lookup indexes (inclusion-dependency sides no unique index covers):
    /// they index the live rows whose key is **total**.
    lookups: Vec<KeyIndex>,
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
            lookups: Vec::new(),
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

    /// The index over exactly `attrs`, in that order (a unique one when
    /// both kinds would): the one answer to "which index covers these
    /// attributes".
    pub(crate) fn index(&self, attrs: &[String]) -> Option<&KeyIndex> {
        self.index_holding(attrs, true)
    }

    /// The index over exactly `attrs` that holds every row carrying a key
    /// that is `total` (or, when false, has a null). A lookup index holds
    /// total keys only, so a key with a null can use a unique index alone.
    fn index_holding(&self, attrs: &[String], total: bool) -> Option<&KeyIndex> {
        let lookups = if total { &self.lookups[..] } else { &[] };
        self.unique.iter().chain(lookups).find(|ix| {
            ix.pos.len() == attrs.len()
                && ix
                    .pos
                    .iter()
                    .zip(attrs)
                    .all(|(&p, n)| self.header[p].name() == n)
        })
    }

    /// Appends to `out` the *borrowed* live rows whose values over `attrs`
    /// equal `key`, null equal to null as in the algebra's selection: one
    /// probe of an index that holds every such row, or else a scan. The
    /// attribute positions are resolved only for the scan: an index matches
    /// `attrs` by name already.
    pub(crate) fn probe_into<'a>(
        &'a self,
        attrs: &[String],
        key: &[Value],
        stats: &mut crate::query::QueryStats,
        out: &mut Vec<&'a Tuple>,
    ) -> Result<()> {
        let total = key.iter().all(|v| !v.is_null());
        if let Some(ix) = self.index_holding(attrs, total) {
            stats.index_probes += 1;
            out.extend(ix.find(&self.rows, key).map(|(_, t)| t));
            return Ok(());
        }
        let pos = self.positions(attrs)?;
        stats.rows_scanned += self.rows.len() as u64;
        out.extend(
            self.rows
                .iter()
                .flatten()
                .filter(|t| pos.iter().map(|&i| t.get(i)).eq(key)),
        );
        Ok(())
    }

    /// The live rows, borrowed, in slot order.
    pub(crate) fn scan(&self) -> Vec<&Tuple> {
        let mut rows = Vec::with_capacity(self.live);
        rows.extend(self.rows.iter().flatten());
        rows
    }

    fn add_unique(&mut self, names: &[String]) -> Result<()> {
        if self.index(names).is_none() {
            let pos = self.positions(names)?;
            self.unique.push(KeyIndex::new(pos));
        }
        Ok(())
    }

    /// Adds a lookup index over `names`, unless an index already covers
    /// them.
    fn add_lookup(&mut self, names: &[String]) -> Result<()> {
        if self.index(names).is_none() {
            let pos = self.positions(names)?;
            self.lookups.push(KeyIndex::new(pos));
        }
        Ok(())
    }

    fn index_insert(&mut self, t: &Tuple, slot: usize) {
        self.version += 1;
        for ix in &mut self.unique {
            ix.insert(t, slot);
        }
        for ix in &mut self.lookups {
            if t.is_total_at(&ix.pos) {
                ix.insert(t, slot);
            }
        }
    }

    fn index_remove(&mut self, t: &Tuple, slot: usize) {
        self.version += 1;
        for ix in &mut self.unique {
            ix.remove(t, slot);
        }
        for ix in &mut self.lookups {
            if t.is_total_at(&ix.pos) {
                ix.remove(t, slot);
            }
        }
    }

    /// The live rows as a relation. A table is a set (its primary key is
    /// unique) on every database whose load was accepted, so its rows go
    /// in unhashed; see [`Database::load_state`] for a refused one.
    fn to_relation(&self) -> Result<Relation> {
        let mut rows = Vec::with_capacity(self.live);
        rows.extend(self.rows.iter().flatten().cloned());
        Relation::from_distinct_rows(self.header.clone(), rows)
    }
}

/// `state`'s relations as [`Database::load_rows`] takes them, each one's
/// rows moved out of it.
pub(crate) fn owned_relations(
    state: DatabaseState,
) -> impl Iterator<Item = (String, Vec<Attribute>, Vec<Tuple>)> {
    state.into_relations().map(|(name, relation)| {
        let (header, rows) = relation.into_parts();
        (name, header, rows)
    })
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
    /// clones), and every mutation path goes through
    /// [`Database::table_mut`] — in place while unshared, otherwise a copy
    /// of the whole table. A store's published base keeps every table
    /// shared after a pin, so each commit that follows a pin copies each
    /// table it touches (`engine.cow.table_copies`).
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
    /// The workload's join ledger: every successful query charges each of
    /// its join steps to the step's edge. Shared by forks — the profile
    /// describes the workload, not one instance's storage — until one of
    /// them migrates: [`Database::migrate`] archives the ledger and gives
    /// the migrated database a fresh one.
    pub(crate) profiler: Arc<obs::Profiler>,
    /// Installed fault plan, if any (`None` in production configurations).
    /// Behind an `Arc` so sites can fire from `&self` contexts — validation
    /// worker threads included — and so callers keep a handle to inspect
    /// hit/fire counts after the run.
    fault: Option<Arc<FaultPlan>>,
    /// The write-ahead log, when this database is durable
    /// (`EngineConfig::durability` set at construction or recovery).
    /// `None` means purely in-memory — the pre-durability behavior.
    wal: Option<crate::wal::Wal>,
}

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
/// one table per scheme (unique index per candidate key, a lookup index on
/// each side of every inclusion dependency that no unique index covers —
/// one index per attribute list) and the compiled constraint
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
    // Both sides of every inclusion dependency are indexed; a side that
    // is a candidate key reuses its unique index.
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
        let compiled = CompiledInd {
            lhs_rel: ind.lhs_rel.clone(),
            lhs_attrs: ind.lhs_attrs.clone(),
            rhs_rel: ind.rhs_rel.clone(),
            rhs_attrs: ind.rhs_attrs.clone(),
            mechanism: profile.ind_mechanism(schema, ind),
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

/// One `EngineConfig` consolidates every `Database` tuning knob: the
/// worker-thread budget of deferred batch validation, build-cache
/// capacity, and durability. A `Database` stores one, and its knobs change
/// only through a new one. Build one with the fluent setters and hand it to
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
    build_cache_capacity: u64,
    /// Durability knobs (`None` = purely in-memory). Unlike the other
    /// knobs this one only takes effect at construction
    /// ([`Database::new_with_config`]) or recovery ([`Database::recover`]);
    /// [`Database::configure`] ignores it — a log cannot be attached or
    /// detached mid-flight.
    durability: Option<crate::wal::DurabilityConfig>,
}

impl Default for EngineConfig {
    /// The defaults `Database::new` ships with: available-parallelism
    /// workers, a 64 MiB build cache, and no durability.
    fn default() -> Self {
        EngineConfig {
            parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            build_cache_capacity: DEFAULT_BUILD_CACHE_BYTES,
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

    /// Sets the worker-thread budget (clamped to ≥ 1 when applied) for
    /// the deferred validation of large batches. `1` means serial
    /// validation, with the same outcome by construction. A query always
    /// runs on its caller's thread.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Sets the build-cache byte capacity (`0` disables caching).
    #[must_use]
    pub fn build_cache_capacity(mut self, bytes: u64) -> Self {
        self.build_cache_capacity = bytes;
        self
    }

    /// The configured worker-thread budget.
    #[must_use]
    pub fn get_parallelism(&self) -> usize {
        self.parallelism
    }

    /// The configured build-cache byte capacity.
    #[must_use]
    pub fn get_build_cache_capacity(&self) -> u64 {
        self.build_cache_capacity
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
            metrics: Arc::new(DbMetrics::new()),
            build_cache: Arc::new(std::sync::Mutex::new(self.build_cache_lock().clone())),
            ..self.snapshot_handle()
        }
    }

    /// A read-only snapshot handle over this database's *current* state:
    /// shares every table `Arc` (so later writer mutations copy-on-write
    /// and never disturb it), the metrics shard, the build cache, the
    /// profiler, and the fault plan. Carries no WAL. The handle is a plain
    /// [`Database`] value, so the whole `&self` read surface (execute,
    /// snapshot, verify, versions) works against it unchanged; a store
    /// builds one per commit and every pin at that commit shares it.
    pub(crate) fn snapshot_handle(&self) -> Database {
        Database {
            schema: Arc::clone(&self.schema),
            profile: self.profile.clone(),
            tables: self.tables.clone(),
            nulls: Arc::clone(&self.nulls),
            outgoing: Arc::clone(&self.outgoing),
            incoming: Arc::clone(&self.incoming),
            metrics: Arc::clone(&self.metrics),
            config: self.config.clone(),
            build_cache: Arc::clone(&self.build_cache),
            profiler: Arc::clone(&self.profiler),
            fault: self.fault.clone(),
            wal: None,
        }
    }

    /// The current values of every tuning knob, as an [`EngineConfig`]:
    /// the stored knobs plus the live build-cache capacity and, for a
    /// durable database, its log's durability knobs. Combined with the
    /// builder setters this makes single-knob tweaks one-liners:
    /// `db.configure(db.config().build_cache_capacity(0))`.
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
    /// new cap (and counts them in the eviction metrics). No query answer
    /// or `QueryStats` field depends on any of these knobs.
    pub fn configure(&mut self, config: EngineConfig) {
        // A no-op when the capacity is unchanged: the cache never holds
        // more than its cap.
        let (evicted, evicted_bytes) = self
            .build_cache_lock()
            .set_capacity(config.build_cache_capacity);
        self.metrics.build_cache_evictions.add(evicted);
        self.metrics.cache_evicted_bytes.add(evicted_bytes);
        self.config = EngineConfig {
            durability: None,
            ..config
        };
    }

    /// Worker threads the deferred validation of large batches may use.
    /// Defaults to the machine's available parallelism; `1` means serial
    /// validation, with the same outcome by construction.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
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

    /// A point-in-time [`obs::ProfileSnapshot`] of the workload's join
    /// ledger: every join edge a successful query executed, with the
    /// access cost spent on it, hottest first. Forks share the ledger, so
    /// a workload spread over forks still aggregates into one profile.
    /// Per-query totals are counters on the metrics shard
    /// (`engine.query.*`, see [`Database::metrics_registry`]).
    #[must_use]
    pub fn profile_snapshot(&self) -> obs::ProfileSnapshot {
        self.profiler.snapshot()
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

    /// The write-ahead log, when this database is durable.
    pub(crate) fn wal(&self) -> Option<&crate::wal::Wal> {
        self.wal.as_ref()
    }

    /// Attaches (or detaches) the write-ahead log — recovery wires the
    /// reopened log in through here after replay has been verified.
    pub(crate) fn set_wal(&mut self, wal: Option<crate::wal::Wal>) {
        self.wal = wal;
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
        if let Ok(t) = self.table_mut(rel) {
            t.version = t.version.max(floor);
        }
    }

    /// `rel`'s table, ready to mutate. A table that a snapshot or a
    /// store's published base still shares is copied first, and the copy
    /// is counted in `engine.cow.table_copies` and, by row slots, in
    /// `engine.cow.copied_rows`.
    pub(crate) fn table_mut(&mut self, rel: &str) -> Result<&mut Table> {
        let shared = self
            .tables
            .get_mut(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        let before = Arc::as_ptr(shared);
        let table = Arc::make_mut(shared);
        if !std::ptr::eq(before, table) {
            self.metrics.cow_table_copies.inc();
            self.metrics.cow_copied_rows.add(table.rows.len() as u64);
        }
        Ok(table)
    }

    /// The DBMS profile in force.
    #[must_use]
    pub fn profile(&self) -> &DbmsProfile {
        &self.profile
    }

    /// The metrics shard backing this instance's counters and latency
    /// histograms; a pinned snapshot's is its store's registry. Nothing
    /// lowers them: to count the events of one phase, diff a snapshot
    /// taken after it against one taken before.
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
        for ix in &table.unique {
            let t0 = Instant::now();
            self.metrics.index_probes.inc();
            let hit = ix.find(&table.rows, ix.key_of(t)).next();
            self.metrics
                .record_check(CheckClass::Key, Mechanism::Declarative, t0);
            if let Some((_, stored)) = hit {
                if stored == t {
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

    /// The live row of `rel` with primary key `key`, as its slot and row:
    /// one probe of the primary unique index, which `compile_catalog`
    /// adds first.
    fn primary_row(&self, rel: &str, key: &Tuple) -> Result<Option<(usize, &Tuple)>> {
        let table = self
            .tables
            .get(rel)
            .ok_or_else(|| Error::UnknownScheme(rel.to_owned()))?;
        Ok(table.unique[0].find(&table.rows, key.values()).next())
    }

    /// The slot of the row with primary key `key` (one index probe).
    pub(crate) fn find_by_pk(
        &self,
        rel: &str,
        key: &Tuple,
    ) -> std::result::Result<Option<usize>, DmlError> {
        let row = self.primary_row(rel, key)?;
        self.metrics.index_probes.inc();
        Ok(row.map(|(slot, _)| slot))
    }

    /// Fetches the row with primary key `key`, if present.
    pub fn get_by_key(
        &self,
        rel: &str,
        key: &Tuple,
    ) -> std::result::Result<Option<Tuple>, DmlError> {
        Ok(self.primary_row(rel, key)?.map(|(_, t)| t.clone()))
    }

    /// Takes the live row at `slot` out of `rel` with **no** constraint
    /// checking, leaving a tombstone: a statement's removal step, and the
    /// rollback of a row that landed.
    pub(crate) fn take_slot(&mut self, rel: &str, slot: usize) -> Tuple {
        let table = self.table_mut(rel).expect("checked");
        let row = table.rows[slot].take().expect("a live slot");
        table.index_remove(&row, slot);
        table.live -= 1;
        row
    }

    /// Puts `row` back at its tombstoned `slot` — the rollback of a
    /// removal, which leaves the table exactly as before it.
    pub(crate) fn restore_slot(&mut self, rel: &str, slot: usize, row: Tuple) {
        let table = self.table_mut(rel).expect("checked");
        table.index_insert(&row, slot);
        table.rows[slot] = Some(row);
        table.live += 1;
    }

    /// Bulk-loads a database state without per-tuple rejection (the state
    /// is assumed consistent, e.g. produced by `Merged::apply`); constraint
    /// counters are not affected. Each relation's header must equal its
    /// table's — names and domains, in order — or the load fails with
    /// [`Error::StateMismatch`] before any row lands. Because "assumed
    /// consistent" is an assumption worth auditing, the load then runs
    /// [`Database::verify_integrity`] over the result, O(state size), and
    /// fails with [`Error::StateMismatch`] if the loaded state violates any
    /// constraint or index invariant. On a durable database a clean load
    /// then commits by installing the whole state as the next snapshot
    /// generation. After a failed audit or install the database keeps the
    /// loaded rows, for diagnosis, and must be discarded: only
    /// [`Database::verify_integrity`] is safe on it. A refused state need
    /// not be a set, and [`Database::snapshot`] and `execute` take every
    /// table for one, so they may panic in debug builds and return a
    /// relation with a repeated row in release builds. On disk the
    /// previous generation stays authoritative, so recovery returns the
    /// state before the load. Every touched relation's version is also
    /// bumped strictly past any cached build of it, so seeded or recovered
    /// data can never alias a stale build-cache entry.
    ///
    /// Each row is copied once, into its table; `state` itself is never
    /// cloned.
    pub fn load_state(&mut self, state: &DatabaseState) -> Result<()> {
        self.load_audited(
            state
                .iter()
                .map(|(name, relation)| (name, relation.header(), relation.iter().cloned())),
        )
    }

    /// [`Database::load_state`] over relations given as `(name, header,
    /// rows)`: [`Database::load_rows`], then the audit and the durable
    /// commit. A migration hands it η(r)'s own rows.
    pub(crate) fn load_audited<N, H, R>(
        &mut self,
        relations: impl IntoIterator<Item = (N, H, R)>,
    ) -> Result<()>
    where
        N: AsRef<str>,
        H: AsRef<[Attribute]>,
        R: IntoIterator<Item = Tuple>,
    {
        self.load_rows(relations)?;
        let report = self.verify_integrity();
        if !report.is_clean() {
            return Err(Error::StateMismatch {
                detail: format!("loaded state failed integrity verification: {report}"),
            });
        }
        self.wal_snapshot()
    }

    /// The one bulk loader, behind [`Database::load_state`], a migration
    /// and crash recovery: checks every relation's header against its
    /// table before any row lands, then moves each relation's rows into
    /// its table and bumps its version past any cached build, O(rows
    /// loaded). Rows arrive by value, so a caller that owns them (η(r), a
    /// decoded snapshot) hands them over without a copy. No audit: crash
    /// recovery runs [`Database::verify_integrity`] once, after the whole
    /// log suffix has replayed.
    pub(crate) fn load_rows<N, H, R>(
        &mut self,
        relations: impl IntoIterator<Item = (N, H, R)>,
    ) -> Result<()>
    where
        N: AsRef<str>,
        H: AsRef<[Attribute]>,
        R: IntoIterator<Item = Tuple>,
    {
        let relations: Vec<(N, H, R)> = relations.into_iter().collect();
        for (name, header, _) in &relations {
            let (name, header) = (name.as_ref(), header.as_ref());
            let table = self
                .tables
                .get(name)
                .ok_or_else(|| Error::UnknownScheme(name.to_owned()))?;
            if header != table.header.as_slice() {
                let show = |header: &[Attribute]| {
                    let attrs: Vec<String> = header
                        .iter()
                        .map(|a| format!("{a} {}", a.domain()))
                        .collect();
                    attrs.join(", ")
                };
                return Err(Error::StateMismatch {
                    detail: format!(
                        "relation `{name}` has header ({}), its table ({})",
                        show(header),
                        show(&table.header)
                    ),
                });
            }
        }
        for (name, _, rows) in relations {
            let name = name.as_ref();
            let table = self.table_mut(name)?;
            let rows = rows.into_iter();
            table.rows.reserve(rows.size_hint().0);
            for t in rows {
                let slot = table.rows.len();
                table.index_insert(&t, slot);
                table.rows.push(Some(t));
                table.live += 1;
            }
            let cached = self.build_cache_lock().max_version(name);
            if let Some(cached) = cached {
                self.raise_relation_version(name, cached + 1);
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
            // Every index, both directions, allocating only to report.
            let indexes = (table
                .unique
                .iter()
                .map(|ix| (ix, IntegrityKind::UniqueIndex)))
            .chain(
                table
                    .lookups
                    .iter()
                    .map(|ix| (ix, IntegrityKind::LookupIndex)),
            );
            for (ix, kind) in indexes {
                let unique = kind == IntegrityKind::UniqueIndex;
                let on = || {
                    let attrs: Vec<&str> = ix.pos.iter().map(|&p| table.header[p].name()).collect();
                    format!("[{}]", attrs.join(","))
                };
                // Entries: a bucket lists, in ascending order, live rows
                // whose key has the bucket's hash (and is total, for a
                // lookup index).
                for (&hash, slots) in &ix.map {
                    let slots = slots.as_slice();
                    for (j, &slot) in slots.iter().enumerate() {
                        report.index_entries_checked += 1;
                        if j > 0 && slots[j - 1] >= slot {
                            flag(
                                name,
                                kind,
                                format!("{} bucket lists slot {slot} twice or out of order", on()),
                            );
                        }
                        match table.rows.get(slot).and_then(Option::as_ref) {
                            Some(t)
                                if key_hash(ix.key_of(t)) == hash
                                    && (unique || t.is_total_at(&ix.pos)) => {}
                            Some(t) => flag(
                                name,
                                kind,
                                format!(
                                    "{} entry points at slot {slot} holding a key it does \
                                     not index: {}",
                                    on(),
                                    t.project(&ix.pos)
                                ),
                            ),
                            None => flag(
                                name,
                                kind,
                                format!("{} entry points at dead slot {slot}", on()),
                            ),
                        }
                    }
                }
                // Rows: every row the index covers sits in its key's
                // bucket, and no earlier row holds the same unique key.
                for &(slot, t) in &live_rows {
                    if !unique && !t.is_total_at(&ix.pos) {
                        continue;
                    }
                    let bucket = ix.bucket(ix.key_of(t));
                    let duplicate = || {
                        bucket.iter().take_while(|&&s| s < slot).find(|&&s| {
                            table
                                .rows
                                .get(s)
                                .and_then(Option::as_ref)
                                .is_some_and(|u| ix.carries(u, ix.key_of(t)))
                        })
                    };
                    if bucket.binary_search(&slot).is_err() {
                        flag(
                            name,
                            kind,
                            format!(
                                "slot {slot} with {} = {} missing from the index",
                                on(),
                                t.project(&ix.pos)
                            ),
                        );
                    } else if let Some(s) = duplicate().filter(|_| unique) {
                        flag(
                            name,
                            kind,
                            format!(
                                "slot {slot} repeats key {} = {} of slot {s} (duplicate key)",
                                on(),
                                t.project(&ix.pos)
                            ),
                        );
                    }
                }
            }
            // Null constraints, re-evaluated over the stored rows where they
            // lie. Each kind is a predicate on one row, so no set of the
            // rows is built; a row that does not fit the header (arity,
            // domains) is reported and left out, and duplicate keys are
            // the unique-index pass's to report.
            if let Some(checks) = self.nulls.get(name).filter(|c| !c.is_empty()) {
                let mut misfits = 0;
                for &(slot, t) in &live_rows {
                    if let Err(e) = check_fits(&table.header, t) {
                        misfits += 1;
                        flag(
                            name,
                            IntegrityKind::NullConstraint,
                            format!("stored rows no longer form a relation: slot {slot}: {e}"),
                        );
                    }
                }
                let fitting = || {
                    live_rows
                        .iter()
                        .map(|&(_, t)| t)
                        .filter(|t| misfits == 0 || check_fits(&table.header, t).is_ok())
                };
                for c in checks {
                    report.constraints_checked += 1;
                    match c.constraint.satisfied_by_rows(&table.header, fitting()) {
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
                let targets: FxHashSet<Tuple> = rhs_table
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

    /// Appends a tuple with **no** constraint checking and returns its
    /// slot: a statement's landing step (its checks are the caller's).
    pub(crate) fn raw_insert(&mut self, rel: &str, t: Tuple) -> Result<usize> {
        let table = self.table_mut(rel)?;
        let slot = table.rows.len();
        table.index_insert(&t, slot);
        table.rows.push(Some(t));
        table.live += 1;
        Ok(slot)
    }
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

    /// `db`'s counter `name` so far.
    fn count(db: &Database, name: &str) -> u64 {
        db.metrics_registry().counter(name).get()
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
        assert_eq!(count(&db, "engine.dml.inserts"), 2);
        assert_eq!(count(&db, "engine.dml.rejected"), 3);
        assert!(count(&db, "engine.check.declarative") > 0);
        assert_eq!(count(&db, "engine.check.procedural"), 0);
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
        assert!(count(&db, "engine.check.procedural") > 0);
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
    fn load_state_refuses_a_header_that_is_not_the_tables() {
        // No null constraints, so the audit never rebuilds a `Relation`
        // that would check the rows' shape against the table.
        let (k, v) = (a("P.K"), Attribute::new("P.V", Domain::Text));
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![k.clone(), v.clone()], &["P.K"]).unwrap())
            .unwrap();
        let swapped = Relation::with_rows(
            vec![v, k.clone()],
            [Tuple::new([Value::text("x"), Value::Int(1)])],
        )
        .unwrap();
        let narrow = Relation::with_rows(vec![k], [tup(&[1])]).unwrap();
        for relation in [swapped, narrow] {
            let mut state = DatabaseState::new();
            state.set_relation("P", relation);
            let mut db = Database::new(rs.clone(), DbmsProfile::ideal()).unwrap();
            let err = db.load_state(&state).unwrap_err();
            assert!(matches!(err, Error::StateMismatch { .. }), "{err}");
            assert_eq!(db.len("P"), 0);
            assert_eq!(
                db.snapshot().unwrap(),
                DatabaseState::empty_for(&rs).unwrap()
            );
        }
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
    fn cloned_database_has_isolated_counters() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        let mut fork = db.fork();
        let fresh = fork.metrics_registry().snapshot();
        assert!(fresh.counters.values().all(|&c| c == 0), "fresh shard");
        assert_eq!(fork.len("EMP"), 1, "rows are copied, counts are not");
        fork.insert("EMP", tup(&[2, 20])).unwrap();
        db.insert("EMP", tup(&[3, 30])).unwrap();
        let inserts = |d: &Database| count(d, "engine.dml.inserts");
        assert_eq!(inserts(&fork), 1);
        assert_eq!(inserts(&db), 2, "original unaffected by the fork");
        // Three inserts were made; the two shards count each exactly once.
        assert_eq!(inserts(&db) + inserts(&fork), 3);
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
        assert_eq!((db.build_cache_len(), db.build_cache_bytes()), (0, 0));
        db.configure(db.config().build_cache_capacity(0));
        assert_eq!(db.build_cache_capacity(), 0);
        db.clear_build_cache();
        assert_eq!(db.build_cache_len(), 0);
    }

    #[test]
    fn evicted_bytes_count_each_eviction_once() {
        use crate::query::{JoinStep, QueryPlan};
        // No index covers `E.G`, so the join builds EMP through the cache.
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::db2()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        db.insert("MGR", tup(&[1, 10])).unwrap();
        let plan = QueryPlan::scan("MGR").join(JoinStep::inner("EMP", &["M.NR"], &["E.G"]));
        let build_then_evict = |db: &mut Database| {
            db.execute(&plan).unwrap();
            let bytes = db.build_cache_bytes();
            assert!(bytes > 0, "the join cached its build");
            db.configure(db.config().build_cache_capacity(0));
            db.configure(db.config().build_cache_capacity(DEFAULT_BUILD_CACHE_BYTES));
            bytes
        };
        build_then_evict(&mut db);
        let before = db.metrics_registry().snapshot();
        let second = build_then_evict(&mut db);
        let diff = db.metrics_registry().snapshot().diff(&before);
        assert_eq!(
            diff.counters.get("engine.build_cache.evicted_bytes"),
            Some(&second),
            "a diff over one phase counts that phase's evictions only"
        );
    }

    #[test]
    fn engine_config_round_trips_every_knob() {
        let cfg = EngineConfig::new()
            .parallelism(3)
            .build_cache_capacity(1 << 20);
        let mut db = Database::new_with_config(emp_mgr_schema(), DbmsProfile::db2(), cfg).unwrap();
        assert_eq!(db.parallelism(), 3);
        assert_eq!(db.build_cache_capacity(), 1 << 20);
        let read_back = db.config();
        assert_eq!(read_back.get_parallelism(), 3);
        assert_eq!(read_back.get_build_cache_capacity(), 1 << 20);
        // Single-knob tweak leaves the rest intact, and zero values clamp
        // where the old setters clamped.
        db.configure(db.config().parallelism(0));
        assert_eq!(db.parallelism(), 1);
        assert_eq!(db.build_cache_capacity(), 1 << 20);
    }

    /// P(P.A, P.B) keyed on both attributes; C(C.K, C.A, C.B) references
    /// it through C[C.A, C.B] ⊆ P[P.A, P.B].
    fn pair_key_schema() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.A"), a("P.B")], &["P.A", "P.B"]).unwrap())
            .unwrap();
        rs.add_scheme(
            RelationScheme::new("C", vec![a("C.K"), a("C.A"), a("C.B")], &["C.K"]).unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("P", &["P.A", "P.B"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("C", &["C.K"]))
            .unwrap();
        rs.add_ind(InclusionDep::new(
            "C",
            &["C.A", "C.B"],
            "P",
            &["P.A", "P.B"],
        ))
        .unwrap();
        rs
    }

    #[test]
    fn keys_sharing_a_hash_are_told_apart_by_value() {
        use crate::query::{JoinStep, QueryPlan};
        use relmerge_relational::fxhash::{K, ROTATE};
        // A key (a, b) hashes as rotate((S(a) + b) * K), where S(a) is the
        // state before b's word. K is odd, so its inverse undoes the
        // multiply; then b' = b + S(a) - S(a') makes (a', b') collide with
        // (a, b).
        let k_inv = (0..6).fold(K, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(x)))
        });
        let state_before_b = |a: i64| {
            key_hash(tup(&[a, 0]).values())
                .rotate_right(ROTATE)
                .wrapping_mul(k_inv)
        };
        let colliding = |a: i64| {
            let b = 5u64
                .wrapping_add(state_before_b(1))
                .wrapping_sub(state_before_b(a));
            tup(&[a, b as i64])
        };
        let (k1, k2, k3) = (colliding(1), colliding(2), colliding(3));
        assert_eq!(k1, tup(&[1, 5]));
        assert_eq!(key_hash(k1.values()), key_hash(k2.values()));
        assert_eq!(key_hash(k1.values()), key_hash(k3.values()));

        let mut db = Database::new(pair_key_schema(), DbmsProfile::db2()).unwrap();
        assert!(
            db.tables["P"].lookups.is_empty(),
            "the IND reuses P's unique index"
        );
        assert!(db.insert("P", k1.clone()).unwrap());
        assert!(
            db.insert("P", k2.clone()).unwrap(),
            "a shared hash is no duplicate"
        );
        assert_eq!(db.tables["P"].unique[0].bucket(k1.values()).len(), 2);
        // Each child's IND check finds its own key; a colliding key that
        // no row carries is still dangling.
        db.insert(
            "C",
            Tuple::new([Value::Int(1), k1.get(0).clone(), k1.get(1).clone()]),
        )
        .unwrap();
        db.insert(
            "C",
            Tuple::new([Value::Int(2), k2.get(0).clone(), k2.get(1).clone()]),
        )
        .unwrap();
        let dangling = Tuple::new([Value::Int(3), k3.get(0).clone(), k3.get(1).clone()]);
        assert!(db.insert("C", dangling).is_err());
        // A root lookup and a join probe each return only their own row.
        for key in [&k1, &k2] {
            let (rows, _) = db
                .execute(&QueryPlan::lookup("P", &["P.A", "P.B"], key.clone()))
                .unwrap();
            assert_eq!(rows.rows(), std::slice::from_ref(key));
        }
        let join =
            QueryPlan::scan("C").join(JoinStep::inner("P", &["C.A", "C.B"], &["P.A", "P.B"]));
        let (rows, stats) = db.execute(&join).unwrap();
        assert_eq!(stats.index_probes, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|t| t.get(1) == t.get(3) && t.get(2) == t.get(4)));
        // RESTRICT: the row sharing k2's hash does not provide k2.
        assert!(db.delete_by_key("P", &k2).is_err());
        assert!(db.delete_by_key("C", &tup(&[2])).unwrap());
        assert!(db.delete_by_key("P", &k2).unwrap());
        assert!(
            db.delete_by_key("P", &k1).is_err(),
            "k1 is still referenced"
        );
        assert_eq!(db.len("P"), 1);
        let report = db.verify_integrity();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn integrity_audit_flags_each_corrupt_index() {
        // P ← C through C.FK ⊆ P.K: C carries the unique index [C.K] and
        // the lookup index [C.FK].
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![a("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("C", vec![a("C.K"), a("C.FK")], &["C.K"]).unwrap())
            .unwrap();
        rs.add_ind(InclusionDep::new("C", &["C.FK"], "P", &["P.K"]))
            .unwrap();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        for k in [1, 2] {
            db.insert("P", tup(&[k])).unwrap();
        }
        for (k, fk) in [(10, 1), (11, 1), (12, 2), (13, 2)] {
            db.insert("C", tup(&[k, fk])).unwrap();
        }
        db.delete_by_key("C", &tup(&[13])).unwrap(); // slot 3 is dead
        let clean = db.verify_integrity();
        assert!(clean.is_clean(), "{clean}");
        assert_eq!(clean.index_entries_checked, 2 + 3 + 3);
        let audit = |corrupt: &dyn Fn(&mut Table)| {
            let mut copy = db.fork();
            corrupt(copy.table_mut("C").unwrap());
            copy.verify_integrity().violations
        };
        let flagged = |violations: &[IntegrityViolation], kind: IntegrityKind, what: &str| {
            violations
                .iter()
                .any(|v| v.relation == "C" && v.kind == kind && v.detail.contains(what))
        };
        // An entry pointing at a dead slot.
        let v = audit(&|t| t.lookups[0].insert(&tup(&[13, 2]), 3));
        assert!(
            flagged(&v, IntegrityKind::LookupIndex, "dead slot 3"),
            "{v:?}"
        );
        // An entry at a row carrying another key: slot 0 (C.FK = 1) filed
        // under C.FK = 2.
        let v = audit(&|t| t.lookups[0].insert(&tup(&[12, 2]), 0));
        assert!(
            flagged(&v, IntegrityKind::LookupIndex, "a key it does not index"),
            "{v:?}"
        );
        // A live row missing from its index.
        let v = audit(&|t| t.unique[0].remove(&tup(&[11, 1]), 1));
        assert!(
            flagged(
                &v,
                IntegrityKind::UniqueIndex,
                "slot 1 with [C.K] = (11) missing"
            ),
            "{v:?}"
        );
        // Two live rows sharing one unique key.
        let v = audit(&|t| {
            let twin = tup(&[10, 2]);
            let slot = t.rows.len();
            t.index_insert(&twin, slot);
            t.rows.push(Some(twin));
            t.live += 1;
        });
        assert!(
            flagged(&v, IntegrityKind::UniqueIndex, "duplicate key"),
            "{v:?}"
        );
        assert!(
            v.iter().all(|v| v.kind == IntegrityKind::UniqueIndex),
            "{v:?}"
        );
    }

    #[test]
    fn the_audit_reports_each_row_that_does_not_fit_and_runs_to_the_end() {
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::ideal()).unwrap();
        for k in [1, 2] {
            db.insert("EMP", tup(&[k, 10 * k])).unwrap();
        }
        db.insert("MGR", tup(&[1, 5])).unwrap();
        assert!(db.verify_integrity().is_clean());
        // Rows that land behind every check, indexed as a load would.
        let push = |t: &mut Table, row: Tuple| {
            let slot = t.rows.len();
            t.index_insert(&row, slot);
            t.rows.push(Some(row));
            t.live += 1;
        };
        let mut copy = db.fork();
        let emp = copy.table_mut("EMP").unwrap();
        // One value too many (slot 2), a text where an int belongs (slot
        // 3), and a fitting row that breaks EMP's nulls-not-allowed.
        push(emp, tup(&[3, 30, 0]));
        push(emp, Tuple::new([Value::Int(4), Value::text("x")]));
        push(emp, Tuple::new([Value::Int(5), Value::Null]));
        // MGR, audited after EMP, breaks its own.
        push(
            copy.table_mut("MGR").unwrap(),
            Tuple::new([Value::Int(2), Value::Null]),
        );
        let report = copy.verify_integrity();
        let details: Vec<(&str, &str)> = report
            .violations
            .iter()
            .inspect(|v| assert_eq!(v.kind, IntegrityKind::NullConstraint, "{report}"))
            .map(|v| (v.relation.as_str(), v.detail.as_str()))
            .collect();
        let misfit = "stored rows no longer form a relation";
        assert_eq!(details.len(), 4, "{report}");
        assert_eq!(details[0].0, "EMP");
        assert!(details[0].1.starts_with(&format!("{misfit}: slot 2: ")));
        assert!(details[0].1.contains("arity 3"), "{report}");
        assert_eq!(details[1].0, "EMP");
        assert!(details[1].1.starts_with(&format!("{misfit}: slot 3: ")));
        assert!(details[1].1.contains("does not fit"), "{report}");
        // The rows that fit are still checked, and so is every relation.
        assert_eq!(details[2], ("EMP", "EMP: 0 E-> E.SSN,E.G"));
        assert_eq!(details[3], ("MGR", "MGR: 0 E-> M.SSN,M.NR"));
        assert_eq!(report.relations_checked, 2);
        // EMP's and MGR's nulls-not-allowed, and the inclusion dependency.
        assert_eq!(report.constraints_checked, 3);
    }

    #[test]
    fn a_state_loaded_over_its_own_rows_is_refused_not_trusted() {
        // Loading rows the tables already hold leaves two equal live rows
        // in each. The key audit flags them, and the null-constraint check
        // reads each stored row where it lies, so it never takes the table
        // for a set, and the audit of a refused database still runs to the
        // end.
        let mut db = Database::new(emp_mgr_schema(), DbmsProfile::ideal()).unwrap();
        db.insert("EMP", tup(&[1, 10])).unwrap();
        let state = db.snapshot().unwrap();
        let err = db.load_state(&state).unwrap_err();
        assert!(matches!(err, Error::StateMismatch { .. }), "{err}");
        let report = db.verify_integrity();
        assert!(
            report
                .violations
                .iter()
                .all(|v| v.relation == "EMP" && v.kind == IntegrityKind::UniqueIndex),
            "{report}"
        );
        assert!(report.to_string().contains("duplicate key"), "{report}");
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
        // Per-class counts sum to the tier totals.
        let declarative = snap.counters["engine.check.declarative"];
        let per_class: u64 = CLASS_NAMES
            .iter()
            .map(|c| snap.counters[&format!("engine.check.{c}.declarative")])
            .sum();
        assert_eq!(per_class, declarative);
        // Latency histograms saw every declarative check.
        assert_eq!(
            snap.histograms["engine.check.declarative.ns"].count,
            declarative
        );
        assert_eq!(snap.counters["engine.check.procedural"], 0);
    }
}
