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

use crate::database::Table;
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
    planner_counters()
        .joins_derived
        .add(plan.joins.len() as u64);
    Ok(plan)
}

/// An index-driven access that replaces a full-scan root, chosen before
/// any row is read (`plan_pushdown` in `crate::query`).
pub(crate) enum RootProbe {
    /// A pushed root `Eq` upgraded to one point lookup of `(attribute,
    /// value)`.
    Eq(String, Value),
    /// A semi-join reduction through inner join step `step`: probe the
    /// step relation's index on `attr` with `value`, keep the rows the
    /// step's whole pushed conjunct keeps, and probe the root index on the
    /// step's left attributes once per distinct join key of those rows.
    SemiJoin {
        /// The reducing step's position in `QueryPlan::joins`.
        step: usize,
        /// The step relation's indexed attribute the `Eq` names.
        attr: String,
        /// The `Eq`'s literal.
        value: Value,
    },
}

/// Decides whether a pushed conjunct can drive an index point lookup on
/// `table`: the root's own (the root `Eq` upgrade) or an inner join
/// step's (the semi-join reduction, [`choose_semi_join`]). Eligible when
/// the conjunct is a positive `Eq` on a single attribute of the table
/// comparing against a non-null literal, some index (unique or lookup)
/// covers that attribute, and the table is non-empty — the emptiness
/// guard keeps the scan+probe total monotone: the lookup replaces a scan
/// of `live` rows with one probe, a strict win only when there was
/// something to scan.
///
/// Returns the `(attribute, key value)` pair the executor feeds to its
/// point-lookup path, or `None` when the conjunct must stay a filter.
pub(crate) fn choose_root_lookup(
    table: &Table,
    conjunct: &crate::query::Predicate,
) -> Option<(String, Value)> {
    let crate::query::Predicate::Eq(attr, value) = conjunct else {
        return None;
    };
    if value.is_null() || table.live == 0 {
        return None;
    }
    table.index(std::slice::from_ref(attr))?;
    Some((attr.clone(), value.clone()))
}

/// Decides whether a full-scan root with no root `Eq` upgrade can be
/// reduced through an inner join step. `sources` holds the plan's stored
/// relations, root first, then one per join step. The step is the first
/// inner one whose left attributes all lie on the root, which a root
/// index covers in that order, and one of whose pushed conjuncts
/// (`pushed`, parallel to `plan.joins`) [`choose_root_lookup`] accepts on
/// the step's relation. Such a step drops every root row whose key
/// matches no right row its conjunct keeps, so the root may start from
/// the rows those keys reach.
pub(crate) fn choose_semi_join(
    plan: &QueryPlan,
    sources: &[&Table],
    pushed: &[Vec<crate::query::Predicate>],
) -> Option<RootProbe> {
    let root = sources[0];
    let mut joins = plan.joins.iter().zip(pushed).enumerate();
    joins.find_map(|(step, (join, conjuncts))| {
        let on_root = join
            .left_attrs
            .iter()
            .all(|n| root.header.iter().any(|a| a.name() == n.as_str()));
        if join.outer || !on_root {
            return None;
        }
        root.index(&join.left_attrs)?;
        let (attr, value) = conjuncts
            .iter()
            .find_map(|c| choose_root_lookup(sources[step + 1], c))?;
        Some(RootProbe::SemiJoin { step, attr, value })
    })
}

/// Process-global planner counters, resolved once.
struct PlannerCounters {
    plans: std::sync::Arc<relmerge_obs::Counter>,
    joins_derived: std::sync::Arc<relmerge_obs::Counter>,
}

fn planner_counters() -> &'static PlannerCounters {
    static COUNTERS: std::sync::OnceLock<PlannerCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = relmerge_obs::global();
        PlannerCounters {
            plans: reg.counter("engine.plan.count"),
            joins_derived: reg.counter("engine.plan.joins_derived"),
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
    use crate::database::Database;
    use crate::DbmsProfile;
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
    fn filter_spanning_schemes_rejected() {
        let rs = chain();
        let q = LogicalQuery::select(&["C.NR"])
            .filtered(&["C.NR", "O.D"], Tuple::new([Value::Int(1), Value::Int(2)]));
        assert!(plan(&rs, &q).is_err());
    }
}
