//! A logical-query planner with automatic join derivation.
//!
//! A [`LogicalQuery`] names the attributes it wants and an optional
//! equality filter — *without* naming relations or joins. The planner maps
//! each attribute to its relation-scheme and connects the needed schemes
//! through the schema's inclusion dependencies, emitting one join per
//! edge. Planned against an unmerged schema, a "course detail" query costs
//! three joins; planned against the merged schema, the same query is a
//! single-relation plan — the paper's §1 join-reduction claim, made
//! mechanical.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use relmerge_relational::{Error, RelationalSchema, Result, Tuple, Value};

use crate::database::Database;
use crate::query::{Access, JoinStep, QueryPlan};

/// A schema-independent query: attributes wanted, optional key filter,
/// optional residual predicate.
#[derive(Debug, Clone)]
pub struct LogicalQuery {
    /// Output attribute names (each must belong to exactly one scheme).
    pub wanted: Vec<String>,
    /// Optional equality filter: attribute names and the key value.
    pub filter: Option<(Vec<String>, Tuple)>,
    /// Optional residual predicate, evaluated on the joined rows (its
    /// attributes must be reachable from the query's schemes).
    pub predicate: Option<crate::query::Predicate>,
}

impl LogicalQuery {
    /// A query returning `wanted` for every row.
    pub fn select(wanted: &[&str]) -> Self {
        LogicalQuery {
            wanted: wanted.iter().map(|s| (*s).to_owned()).collect(),
            filter: None,
            predicate: None,
        }
    }

    /// Adds an equality filter.
    #[must_use]
    pub fn filtered(mut self, attrs: &[&str], key: Tuple) -> Self {
        self.filter = Some((attrs.iter().map(|s| (*s).to_owned()).collect(), key));
        self
    }

    /// Adds a residual predicate. Attributes the predicate mentions are
    /// treated as wanted for planning purposes (their schemes join in).
    #[must_use]
    pub fn with_predicate(mut self, predicate: crate::query::Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }
}

/// The attribute names a predicate mentions.
fn predicate_attrs(p: &crate::query::Predicate, out: &mut Vec<String>) {
    use crate::query::Predicate as P;
    match p {
        P::Eq(a, _) | P::IsNull(a) | P::NotNull(a) => out.push(a.clone()),
        P::And(x, y) | P::Or(x, y) => {
            predicate_attrs(x, out);
            predicate_attrs(y, out);
        }
        P::Not(x) => predicate_attrs(x, out),
    }
}

/// Plans `query` against `schema`, deriving the joins from inclusion
/// dependencies. Fails when an attribute resolves to no scheme or the
/// needed schemes are not connected by inclusion dependencies.
pub fn plan(schema: &RelationalSchema, query: &LogicalQuery) -> Result<QueryPlan> {
    let mut span = relmerge_obs::span("engine.plan");
    planner_counters().plans.inc();
    // Resolve every mentioned attribute to its scheme.
    let mut needed: BTreeSet<String> = BTreeSet::new();
    let resolve = |attr: &str| -> Result<String> {
        let scheme = schema
            .scheme_of_attr(attr)
            .ok_or_else(|| Error::UnknownAttribute {
                attribute: attr.to_owned(),
                context: "logical query".to_owned(),
            })?;
        Ok(scheme.name().to_owned())
    };
    for a in &query.wanted {
        needed.insert(resolve(a)?);
    }
    if let Some(p) = &query.predicate {
        let mut mentioned = Vec::new();
        predicate_attrs(p, &mut mentioned);
        for a in &mentioned {
            needed.insert(resolve(a)?);
        }
    }
    let filter_schemes: BTreeSet<String> = match &query.filter {
        Some((attrs, _)) => attrs.iter().map(|a| resolve(a)).collect::<Result<_>>()?,
        None => BTreeSet::new(),
    };
    if let Some(multi) = (filter_schemes.len() > 1).then(|| filter_schemes.clone()) {
        return Err(Error::MalformedConstraint {
            detail: format!("filter attributes span several schemes: {multi:?}"),
        });
    }
    needed.extend(filter_schemes.iter().cloned());
    if needed.is_empty() {
        return Err(Error::MalformedConstraint {
            detail: "query mentions no attributes".to_owned(),
        });
    }

    // The root: the filter's scheme if any, else the scheme of the first
    // wanted attribute.
    let root = filter_schemes
        .iter()
        .next()
        .cloned()
        .unwrap_or_else(|| resolve(&query.wanted[0]).expect("validated above"));
    span.add_field("root", &root);

    // Join graph: for each IND, an edge both ways carrying the join
    // attribute pairs oriented as (attrs-on-from-side, attrs-on-to-side)
    // plus the justifying dependency's notation.
    type Edge = (String, Vec<String>, Vec<String>, String);
    let mut edges: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
    for ind in schema.inds() {
        let notation = ind.to_string();
        edges.entry(ind.lhs_rel.clone()).or_default().push((
            ind.rhs_rel.clone(),
            ind.lhs_attrs.clone(),
            ind.rhs_attrs.clone(),
            notation.clone(),
        ));
        edges.entry(ind.rhs_rel.clone()).or_default().push((
            ind.lhs_rel.clone(),
            ind.rhs_attrs.clone(),
            ind.lhs_attrs.clone(),
            notation,
        ));
    }

    // BFS from the root; record the joining edge for each scheme reached.
    let mut parent: BTreeMap<String, Edge> = BTreeMap::new();
    let mut visited: BTreeSet<String> = BTreeSet::new();
    visited.insert(root.clone());
    let mut queue: VecDeque<String> = VecDeque::new();
    queue.push_back(root.clone());
    while let Some(current) = queue.pop_front() {
        if let Some(nexts) = edges.get(&current) {
            for (to, from_attrs, to_attrs, via) in nexts {
                if visited.insert(to.clone()) {
                    parent.insert(
                        to.clone(),
                        (
                            current.clone(),
                            from_attrs.clone(),
                            to_attrs.clone(),
                            via.clone(),
                        ),
                    );
                    queue.push_back(to.clone());
                }
            }
        }
    }
    if let Some(unreached) = needed.iter().find(|n| !visited.contains(*n)) {
        return Err(Error::MalformedConstraint {
            detail: format!(
                "scheme `{unreached}` is not connected to `{root}` by inclusion dependencies"
            ),
        });
    }

    // The join set: every scheme on a path from the root to a needed
    // scheme (intermediates included), in BFS-discovery order.
    let mut on_path: BTreeSet<String> = BTreeSet::new();
    for n in &needed {
        let mut cur = n.clone();
        while cur != root {
            on_path.insert(cur.clone());
            cur = parent[&cur].0.clone();
        }
    }
    // Order joins so parents come before children.
    let mut ordered: Vec<String> = Vec::new();
    let mut remaining: BTreeSet<String> = on_path.clone();
    while !remaining.is_empty() {
        let ready: Vec<String> = remaining
            .iter()
            .filter(|s| {
                let p = &parent[*s].0;
                p == &root || ordered.contains(p)
            })
            .cloned()
            .collect();
        debug_assert!(!ready.is_empty(), "BFS tree orders its own nodes");
        for r in ready {
            remaining.remove(&r);
            ordered.push(r);
        }
    }

    // Assemble the physical plan.
    let access = match &query.filter {
        Some((attrs, key)) => Access::Lookup {
            attrs: attrs.clone(),
            key: key.clone(),
        },
        None => Access::FullScan,
    };
    let mut plan = QueryPlan {
        root: root.clone(),
        access,
        joins: Vec::new(),
        filter: query.predicate.clone(),
        project: query.wanted.clone(),
    };
    for scheme in ordered {
        let (_, from_attrs, to_attrs, via) = &parent[&scheme];
        let left: Vec<&str> = from_attrs.iter().map(String::as_str).collect();
        let right: Vec<&str> = to_attrs.iter().map(String::as_str).collect();
        // Outer joins throughout: referencing tuples may be absent, and
        // foreign keys may be null — outer semantics match what the merged
        // relation encodes.
        plan = plan.join(JoinStep::outer(scheme, &left, &right).via(via.clone()));
    }
    span.add_field("joins", plan.joins.len());
    planner_counters()
        .joins_derived
        .add(plan.joins.len() as u64);
    Ok(plan)
}

/// Physical strategy for one join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Probe the right relation once per left row through a covering
    /// index. Cheap for small left inputs; without a covering index the
    /// planner picks it only for a provably empty left input, which
    /// probes nothing.
    IndexNestedLoop,
    /// Build (or borrow) a hash table over the right relation once and
    /// probe it per left row. Amortizes the build over a large left input
    /// and serves the no-covering-index case with one build scan.
    Hash,
}

/// Cost-based strategy choice for one join step against `rel` over
/// `right_attrs`, with `left_estimate` rows on the probe side. For the
/// first step the executor passes the root cardinality, known exactly
/// after root access; each later step receives the previous step's
/// estimated output cardinality (left estimate × the access path's
/// average index fan-out), so a selective chain that fans out switches to
/// hash joins per-step. Estimates derive only from pre-fan-out state and
/// are independent of parallelism.
///
/// The rules, in order:
/// 1. An empty left input never builds: index-nested-loop probes nothing.
/// 2. No covering index ⇒ hash (one build scan of the right relation).
/// 3. Left cardinality at or above [`Database::hash_join_threshold`] ⇒
///    hash. A threshold of `usize::MAX` therefore means index-nested-loop
///    wherever an index covers.
/// 4. Otherwise index-nested-loop.
pub fn choose_join_strategy(
    db: &Database,
    rel: &str,
    right_attrs: &[String],
    left_estimate: usize,
) -> Result<JoinStrategy> {
    let covered = db.index_covers(rel, right_attrs)?;
    let strategy = if left_estimate == 0 {
        JoinStrategy::IndexNestedLoop
    } else if !covered || left_estimate >= db.hash_join_threshold() {
        JoinStrategy::Hash
    } else {
        JoinStrategy::IndexNestedLoop
    };
    match strategy {
        JoinStrategy::IndexNestedLoop => planner_counters().strategy_inl.inc(),
        JoinStrategy::Hash => planner_counters().strategy_hash.inc(),
    }
    Ok(strategy)
}

/// Worker count for one transient hash build over `build_rows` live rows.
///
/// A [`Database::build_parallel_threshold`] of `usize::MAX` pins builds
/// to the serial path (the measurement baseline), as does a single-worker
/// executor or a build side smaller than the threshold — chunking tiny
/// builds costs more in thread scaffolding than it saves. Past the
/// threshold the build fans out over at most
/// [`Database::parallelism`] workers, one chunk of at least
/// `threshold` rows each, so worker count grows with the build side
/// instead of jumping straight to the full pool. The decision depends
/// only on knobs and the live-row count, never on timing, so the
/// partition layout — and therefore every downstream counter — is
/// deterministic.
pub fn choose_build_parallelism(db: &Database, build_rows: usize) -> usize {
    let threshold = db.build_parallel_threshold();
    let workers = if db.parallelism() <= 1 || build_rows < threshold {
        1
    } else {
        match build_rows.checked_div(threshold) {
            // Threshold 0 means "always parallel" — the chunk-size
            // heuristic has no meaningful answer, so fan out over the
            // full pool.
            None => db.parallelism(),
            Some(chunks) => db.parallelism().min(chunks.max(1)),
        }
    };
    if workers > 1 {
        planner_counters().build_parallel.inc();
    } else {
        planner_counters().build_serial.inc();
    }
    workers
}

/// Decides whether a pushed root conjunct can upgrade a full-scan root
/// access to an index point-lookup. Eligible when the conjunct is a
/// positive `Eq` on a single attribute of `rel` comparing against a
/// non-null literal, some index (unique or lookup) covers that attribute,
/// and the relation is non-empty — the emptiness guard keeps the
/// scan+probe total monotone: the lookup replaces a scan of `live` rows
/// with one probe, a strict win only when there was something to scan.
///
/// Returns the `(attribute, key value)` pair the executor feeds to its
/// point-lookup path, or `None` when the conjunct must stay a filter.
pub(crate) fn choose_root_lookup(
    db: &Database,
    rel: &str,
    conjunct: &crate::query::Predicate,
) -> Option<(String, Value)> {
    let crate::query::Predicate::Eq(attr, value) = conjunct else {
        return None;
    };
    if value.is_null() {
        return None;
    }
    let covered = db.index_covers(rel, std::slice::from_ref(attr)).ok()?;
    let live = db.tables.get(rel).map(|t| t.live)?;
    if !covered || live == 0 {
        return None;
    }
    Some((attr.clone(), value.clone()))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, continuing from `hash`. Hand-rolled because
/// `std`'s `DefaultHasher` is not stable across Rust releases and the
/// fingerprint must be comparable across recorded profiles.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a length-prefixed string, so concatenations stay unambiguous
/// (`"ab" + "c"` never collides with `"a" + "bc"`).
fn hash_str(hash: u64, s: &str) -> u64 {
    fnv1a(fnv1a(hash, &(s.len() as u64).to_le_bytes()), s.as_bytes())
}

/// Collects the subtree hashes of a same-connective chain (`And` under
/// `And`, `Or` under `Or`), so the connective hashes as one flat N-ary
/// node regardless of how the user parenthesized it.
fn flatten_connective(p: &crate::query::Predicate, is_and: bool, out: &mut Vec<u64>) {
    use crate::query::Predicate as P;
    match (p, is_and) {
        (P::And(x, y), true) | (P::Or(x, y), false) => {
            flatten_connective(x, is_and, out);
            flatten_connective(y, is_and, out);
        }
        _ => out.push(predicate_shape_hash(p)),
    }
}

/// The structural hash of a predicate: operators and attribute names,
/// never literal values. `And`/`Or` chains hash their flattened child
/// hashes in sorted order, so commuting or re-parenthesizing a
/// conjunction does not change the fingerprint.
fn predicate_shape_hash(p: &crate::query::Predicate) -> u64 {
    use crate::query::Predicate as P;
    match p {
        P::Eq(a, _) => hash_str(hash_str(FNV_OFFSET, "eq"), a),
        P::IsNull(a) => hash_str(hash_str(FNV_OFFSET, "isnull"), a),
        P::NotNull(a) => hash_str(hash_str(FNV_OFFSET, "notnull"), a),
        P::And(..) | P::Or(..) => {
            let is_and = matches!(p, P::And(..));
            let mut children = Vec::new();
            flatten_connective(p, is_and, &mut children);
            children.sort_unstable();
            let mut h = hash_str(FNV_OFFSET, if is_and { "and" } else { "or" });
            for c in children {
                h = fnv1a(h, &c.to_le_bytes());
            }
            h
        }
        P::Not(x) => fnv1a(
            hash_str(FNV_OFFSET, "not"),
            &predicate_shape_hash(x).to_le_bytes(),
        ),
    }
}

/// The canonical fingerprint of a query *shape*: a stable FNV-1a 64 hash
/// of the root, the access kind and its lookup attributes (not the key
/// values), every join edge with the strategy the planner chose for it,
/// the predicate's structure (attributes and operators, not literals —
/// `And`/`Or` operands combine commutatively), and the projection.
///
/// Executions that differ only in constants therefore share a
/// fingerprint — the granularity the workload profiler
/// (`relmerge_obs::Profiler`) aggregates at — while any change to the
/// plan's structure or chosen strategies yields a new one. The hash is
/// hand-rolled and versioned, so recorded profiles stay comparable across
/// Rust releases; `relmerge.query.v2` canonicalizes the filter through
/// the predicate optimizer ([`crate::predopt::canonical_shape`]) first,
/// so *equivalent* predicate forms — double negations, De Morgan
/// variants, redundant conjuncts — also share a fingerprint, not just
/// permutations of one form.
#[must_use]
pub fn fingerprint(plan: &QueryPlan, strategies: &[JoinStrategy]) -> u64 {
    let mut h = hash_str(FNV_OFFSET, "relmerge.query.v2");
    h = hash_str(h, &plan.root);
    match &plan.access {
        Access::FullScan => h = hash_str(h, "scan"),
        Access::Lookup { attrs, .. } => {
            h = hash_str(h, "lookup");
            for a in attrs {
                h = hash_str(h, a);
            }
        }
    }
    for (i, step) in plan.joins.iter().enumerate() {
        h = hash_str(h, if step.outer { "outer" } else { "inner" });
        h = hash_str(h, &step.rel);
        for a in &step.left_attrs {
            h = hash_str(h, a);
        }
        for a in &step.right_attrs {
            h = hash_str(h, a);
        }
        h = hash_str(
            h,
            match strategies.get(i) {
                Some(JoinStrategy::Hash) => "hash",
                Some(JoinStrategy::IndexNestedLoop) => "inl",
                None => "unplanned",
            },
        );
    }
    if let Some(p) = &plan.filter {
        h = hash_str(h, "filter");
        h = match crate::predopt::canonical_shape(p) {
            crate::predopt::Optimized::Always(true) => hash_str(h, "always_true"),
            crate::predopt::Optimized::Always(false) => hash_str(h, "always_false"),
            crate::predopt::Optimized::Pred(q) => fnv1a(h, &predicate_shape_hash(&q).to_le_bytes()),
        };
    }
    for a in &plan.project {
        h = hash_str(h, a);
    }
    h
}

/// Process-global planner counters, resolved once.
struct PlannerCounters {
    plans: std::sync::Arc<relmerge_obs::Counter>,
    joins_derived: std::sync::Arc<relmerge_obs::Counter>,
    strategy_inl: std::sync::Arc<relmerge_obs::Counter>,
    strategy_hash: std::sync::Arc<relmerge_obs::Counter>,
    build_parallel: std::sync::Arc<relmerge_obs::Counter>,
    build_serial: std::sync::Arc<relmerge_obs::Counter>,
}

fn planner_counters() -> &'static PlannerCounters {
    static COUNTERS: std::sync::OnceLock<PlannerCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = relmerge_obs::global();
        PlannerCounters {
            plans: reg.counter("engine.plan.count"),
            joins_derived: reg.counter("engine.plan.joins_derived"),
            strategy_inl: reg.counter("engine.plan.strategy.inl"),
            strategy_hash: reg.counter("engine.plan.strategy.hash"),
            build_parallel: reg.counter("engine.plan.build.parallel"),
            build_serial: reg.counter("engine.plan.build.serial"),
        }
    })
}

impl crate::database::Database {
    /// Plans and executes a [`LogicalQuery`] against this database's
    /// schema in one call.
    pub fn query(
        &self,
        q: &LogicalQuery,
    ) -> Result<(relmerge_relational::Relation, crate::query::QueryStats)> {
        let physical = plan(self.schema(), q)?;
        self.execute(&physical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::DbmsProfile;
    use crate::database::Database;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, Value,
    };

    fn a(n: &str) -> Attribute {
        Attribute::new(n, Domain::Int)
    }

    /// COURSE ← OFFER ← TEACH chain.
    fn chain() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("COURSE", vec![a("C.NR")], &["C.NR"]).unwrap())
            .unwrap();
        rs.add_scheme(
            RelationScheme::new("OFFER", vec![a("O.C.NR"), a("O.D")], &["O.C.NR"]).unwrap(),
        )
        .unwrap();
        rs.add_scheme(
            RelationScheme::new("TEACH", vec![a("T.C.NR"), a("T.F")], &["T.C.NR"]).unwrap(),
        )
        .unwrap();
        rs.add_null_constraint(NullConstraint::nna("COURSE", &["C.NR"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("OFFER", &["O.C.NR", "O.D"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("TEACH", &["T.C.NR", "T.F"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("OFFER", &["O.C.NR"], "COURSE", &["C.NR"]))
            .unwrap();
        rs.add_ind(InclusionDep::new(
            "TEACH",
            &["T.C.NR"],
            "OFFER",
            &["O.C.NR"],
        ))
        .unwrap();
        rs
    }

    #[test]
    fn plans_joins_across_the_chain() {
        let rs = chain();
        let q =
            LogicalQuery::select(&["C.NR", "T.F"]).filtered(&["C.NR"], Tuple::new([Value::Int(1)]));
        let p = plan(&rs, &q).unwrap();
        assert_eq!(p.root, "COURSE");
        // OFFER is an intermediate: two joins even though only TEACH's
        // attribute is wanted.
        assert_eq!(p.joins.len(), 2);
        assert_eq!(p.joins[0].rel, "OFFER");
        assert_eq!(p.joins[1].rel, "TEACH");
        // Each derived join records the inclusion dependency justifying it.
        for step in &p.joins {
            let via = step.via_ind.as_deref().expect("planner records provenance");
            assert!(via.contains(&step.rel), "{via} should mention {}", step.rel);
        }
    }

    #[test]
    fn single_scheme_needs_no_joins() {
        let rs = chain();
        let q = LogicalQuery::select(&["O.C.NR", "O.D"]);
        let p = plan(&rs, &q).unwrap();
        assert_eq!(p.root, "OFFER");
        assert!(p.joins.is_empty());
        assert!(matches!(p.access, Access::FullScan));
    }

    #[test]
    fn errors_on_unknown_or_disconnected() {
        let mut rs = chain();
        assert!(plan(&rs, &LogicalQuery::select(&["NOPE"])).is_err());
        // An island scheme is unreachable.
        rs.add_scheme(RelationScheme::new("ISLAND", vec![a("I.K")], &["I.K"]).unwrap())
            .unwrap();
        let q = LogicalQuery::select(&["C.NR", "I.K"]);
        assert!(plan(&rs, &q).is_err());
    }

    #[test]
    fn planned_results_agree_between_merged_and_unmerged() {
        use relmerge_core::Merge;
        let rs = chain();
        let mut db = Database::new(rs.clone(), DbmsProfile::ideal()).unwrap();
        for nr in 0..20i64 {
            db.insert("COURSE", Tuple::new([Value::Int(nr)])).unwrap();
            if nr % 2 == 0 {
                db.insert("OFFER", Tuple::new([Value::Int(nr), Value::Int(nr + 100)]))
                    .unwrap();
            }
            if nr % 4 == 0 {
                db.insert("TEACH", Tuple::new([Value::Int(nr), Value::Int(nr + 200)]))
                    .unwrap();
            }
        }
        let mut m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH"], "COURSE_M").unwrap();
        m.remove_all_removable().unwrap();
        let merged_state = m.apply(&db.snapshot().unwrap()).unwrap();
        let mut mdb = Database::new(m.schema().clone(), DbmsProfile::ideal()).unwrap();
        mdb.load_state(&merged_state).unwrap();

        // Same logical query planned against both schemas. After Remove,
        // the merged schema's surviving attributes are C.NR, O.D, T.F.
        let q = LogicalQuery::select(&["C.NR", "O.D", "T.F"]);
        let unmerged_plan = plan(&rs, &q).unwrap();
        let merged_plan = plan(m.schema(), &q).unwrap();
        assert_eq!(unmerged_plan.joins.len(), 2);
        assert_eq!(merged_plan.joins.len(), 0, "join elimination");
        let (r1, s1) = db.execute(&unmerged_plan).unwrap();
        let (r2, s2) = mdb.execute(&merged_plan).unwrap();
        assert!(r1.set_eq_unordered(&r2), "{r1} vs {r2}");
        assert!(s2.rows_scanned < s1.rows_scanned + s1.index_probes);
    }

    #[test]
    fn database_query_convenience() {
        let rs = chain();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        db.insert("COURSE", Tuple::new([Value::Int(1)])).unwrap();
        db.insert("OFFER", Tuple::new([Value::Int(1), Value::Int(42)]))
            .unwrap();
        let q =
            LogicalQuery::select(&["C.NR", "O.D"]).filtered(&["C.NR"], Tuple::new([Value::Int(1)]));
        let (result, stats) = db.query(&q).unwrap();
        assert_eq!(result.len(), 1);
        assert!(result.contains(&Tuple::new([Value::Int(1), Value::Int(42)])));
        assert!(stats.index_probes >= 1);
    }

    #[test]
    fn logical_query_with_predicate_joins_needed_schemes() {
        use crate::query::Predicate;
        let rs = chain();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        for nr in 0..10i64 {
            db.insert("COURSE", Tuple::new([Value::Int(nr)])).unwrap();
            db.insert("OFFER", Tuple::new([Value::Int(nr), Value::Int(nr % 3)]))
                .unwrap();
        }
        // Predicate mentions O.D even though only C.NR is wanted: OFFER
        // must be joined in.
        let q = LogicalQuery::select(&["C.NR"]).with_predicate(Predicate::eq("O.D", 1i64));
        let (result, _) = db.query(&q).unwrap();
        assert_eq!(result.len(), 3); // nr in {1, 4, 7}
        assert_eq!(result.attr_names(), ["C.NR"]);
    }

    #[test]
    fn join_strategy_cost_model() {
        use crate::database::DEFAULT_HASH_JOIN_THRESHOLD;
        let rs = chain();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        let keyed = vec!["O.C.NR".to_owned()];
        let unindexed = vec!["O.D".to_owned()];
        // Small left input with a covering index: index-nested-loop.
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &keyed, 10).unwrap(),
            JoinStrategy::IndexNestedLoop
        );
        // Crossing the threshold flips to hash.
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &keyed, DEFAULT_HASH_JOIN_THRESHOLD).unwrap(),
            JoinStrategy::Hash
        );
        // No covering index: hash even for a small left input.
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &unindexed, 2).unwrap(),
            JoinStrategy::Hash
        );
        // An empty left input never builds.
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &unindexed, 0).unwrap(),
            JoinStrategy::IndexNestedLoop
        );
        // usize::MAX is an ordinary threshold: index-nested-loop wherever
        // an index covers, and still hash where none does.
        db.configure(db.config().hash_join_threshold(usize::MAX));
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &keyed, 1_000_000).unwrap(),
            JoinStrategy::IndexNestedLoop
        );
        assert_eq!(
            choose_join_strategy(&db, "OFFER", &unindexed, 1_000_000).unwrap(),
            JoinStrategy::Hash
        );
        // Unknown relations and attributes error.
        assert!(choose_join_strategy(&db, "NOPE", &unindexed, 1).is_err());
        assert!(choose_join_strategy(&db, "OFFER", &["NOPE".to_owned()], 1).is_err());
    }

    #[test]
    fn build_parallelism_cost_model() {
        let rs = chain();
        let mut db = Database::new(rs, DbmsProfile::ideal()).unwrap();
        db.configure(db.config().parallelism(4));
        db.configure(db.config().build_parallel_threshold(1_000));
        // Below the threshold: serial.
        assert_eq!(choose_build_parallelism(&db, 999), 1);
        // One threshold's worth of rows per worker, capped by parallelism.
        assert_eq!(choose_build_parallelism(&db, 1_000), 1);
        assert_eq!(choose_build_parallelism(&db, 2_500), 2);
        assert_eq!(choose_build_parallelism(&db, 1_000_000), 4);
        // Single-worker executor never fans out a build.
        db.configure(db.config().parallelism(1));
        assert_eq!(choose_build_parallelism(&db, 1_000_000), 1);
        // The usize::MAX sentinel is the serial measurement baseline.
        db.configure(db.config().parallelism(8));
        db.configure(db.config().build_parallel_threshold(usize::MAX));
        assert_eq!(choose_build_parallelism(&db, 1_000_000), 1);
        // Threshold 0 means "always parallel": the full pool, even for a
        // tiny build (and no division by zero).
        db.configure(db.config().build_parallel_threshold(0));
        assert_eq!(choose_build_parallelism(&db, 3), 8);
        db.configure(db.config().parallelism(1));
        assert_eq!(choose_build_parallelism(&db, 3), 1);
    }

    #[test]
    fn fingerprint_ignores_literals_and_predicate_order() {
        use crate::query::Predicate;
        let base = QueryPlan::lookup("COURSE", &["C.NR"], Tuple::new([Value::Int(1)]))
            .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]));
        let strategies = [JoinStrategy::IndexNestedLoop];
        // Different key constants: same shape, same fingerprint.
        let other_key = QueryPlan::lookup("COURSE", &["C.NR"], Tuple::new([Value::Int(999)]))
            .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]));
        assert_eq!(
            fingerprint(&base, &strategies),
            fingerprint(&other_key, &strategies)
        );
        // A different strategy or join shape changes it.
        assert_ne!(
            fingerprint(&base, &strategies),
            fingerprint(&base, &[JoinStrategy::Hash])
        );
        assert_ne!(
            fingerprint(&base, &strategies),
            fingerprint(&QueryPlan::scan("COURSE"), &[])
        );
        // Predicate literals don't matter; permuting and re-parenthesizing
        // And/Or operands doesn't either; structure does.
        let p = |pred: Predicate| QueryPlan::scan("OFFER").filter(pred);
        let abc = Predicate::eq("O.D", 1i64)
            .and(Predicate::not_null("O.C.NR"))
            .and(Predicate::eq("O.C.NR", 2i64));
        let cba = Predicate::eq("O.C.NR", 7i64)
            .and(Predicate::eq("O.D", 5i64).and(Predicate::not_null("O.C.NR")));
        assert_eq!(fingerprint(&p(abc.clone()), &[]), fingerprint(&p(cba), &[]));
        let or_form = Predicate::eq("O.D", 1i64)
            .or(Predicate::not_null("O.C.NR"))
            .or(Predicate::eq("O.C.NR", 2i64));
        assert_ne!(fingerprint(&p(abc), &[]), fingerprint(&p(or_form), &[]));
    }

    #[test]
    fn filter_spanning_schemes_rejected() {
        let rs = chain();
        let q = LogicalQuery::select(&["C.NR"])
            .filtered(&["C.NR", "O.D"], Tuple::new([Value::Int(1), Value::Int(2)]));
        assert!(plan(&rs, &q).is_err());
    }
}
