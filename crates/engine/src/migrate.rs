//! Online schema migration: executing a planned `Merge(R̄)`/`Remove(Yi)`
//! against a **live** [`Database`].
//!
//! The paper applies merging at schema-design time; this module closes
//! the loop at run time. [`Database::migrate`] takes a
//! [`Merged`] plan (the merged schema plus the η/η′ state mappings of
//! Definition 4.1) and executes it in place:
//!
//! 1. **Guard** — the plan must start from the live schema, and the
//!    forward information-capacity check (Proposition 4.1's state half,
//!    [`check_forward_image`]) must hold on η of the current snapshot,
//!    computed once; a migration that would lose tuples or values is
//!    refused before anything mutates. The snapshot is dropped right
//!    after the check, its last reader.
//! 2. **Catalog rewrite** (fault site `engine.migrate.rewrite`) — the
//!    build cache is dropped, and the physical catalog (tables, indexes,
//!    compiled null/IND constraints, including the merge's generated
//!    null-existence constraints) is recompiled from the merged schema
//!    and swapped in; relation versions carry over so every name stays
//!    strictly monotonic.
//! 3. **Data load** (fault site `engine.migrate.apply`, once, just before
//!    the load) — one audited load of that same η(r), as
//!    [`Database::load_state`] loads a state, except that η(r)'s rows move
//!    into the new tables instead of being copied: a bulk load plus the
//!    deep [`Database::verify_integrity`] audit of every constraint and
//!    index of the new schema. On a durable database the load then commits by
//!    installing the migrated state as the next snapshot generation
//!    (fault site `engine.snapshot.write`); the log carries no migration
//!    record.
//! 4. **Rollback** — any error or panic (injected or genuine) swaps the
//!    saved catalog back and the database is byte-identical to its
//!    pre-migration snapshot; the failure surfaces as a typed error. On
//!    disk the previous generation stays authoritative.
//!
//! Every migration that passes its guard, committed or rolled back, counts
//! on the global `engine.migrate.{applied,aborted}` counters and records
//! its wall time on the database's `engine.migrate.ns` histogram.
//!
//! On success the pre-migration join ledger is archived in the
//! [`MigrationReport`] and the migrated database starts a fresh one, so no
//! stale pre-merge relation names linger in its future profile snapshots.
//! Forks and snapshots pinned before the migration keep the old ledger:
//! they still host the pre-merge relations their queries charge.
//!
//! [`Database::advise_and_migrate`] composes this with the workload-aware
//! advisor, gated by the database's own capability profile: profile
//! evidence in, ranked proposals, hot merges executed online.

use std::time::Instant;

use relmerge_core::{check_forward_image, Advisor, CapacityReport, MergeProposal, Merged};
use relmerge_obs as obs;
use relmerge_relational::{Error, RelationalSchema, Result};

use crate::database::{compile_catalog, owned_relations, Catalog, Database};
use crate::fault::{contain, site};

/// What an online migration did, returned by [`Database::migrate`].
#[derive(Debug)]
pub struct MigrationReport {
    /// The merged relation-scheme's name.
    pub merged_name: String,
    /// The merge set `R̄`, key-relation first.
    pub members: Vec<String>,
    /// Relations present before the migration and absent after it (the
    /// merge's members and every `Remove(Yi)` casualty).
    pub dropped: Vec<String>,
    /// Tuples loaded into the new tables, across all relations.
    pub rows_migrated: usize,
    /// Loads the migrated state took: always 1, since η(r) is loaded in
    /// one audited bulk load.
    pub chunks_applied: usize,
    /// The forward information-capacity report ([`check_forward_image`])
    /// that gated the migration — `holds()` is true by construction.
    pub capacity: CapacityReport,
    /// The pre-migration join ledger, archived at commit. The migrated
    /// database starts a fresh ledger, so stale pre-merge relation names
    /// cannot leak into its post-migration snapshots, whatever forks or
    /// earlier pins still charge to the old one.
    pub pre_profile: obs::ProfileSnapshot,
}

/// One advisor-chosen migration executed by
/// [`Database::advise_and_migrate`]: the proposal (with its observed
/// workload cost) and the migration's report.
#[derive(Debug)]
pub struct AdvisedMigration {
    /// The workload-scored proposal that was applied.
    pub proposal: MergeProposal,
    /// The executed migration.
    pub report: MigrationReport,
}

impl Database {
    /// Executes the planned migration online, all-or-nothing: on success
    /// the database hosts `plan.schema()` with the η-mapped data and
    /// returns a [`MigrationReport`]; on any failure — constraint
    /// violation, injected fault, or panic — the database is rolled back
    /// byte-identical to its pre-migration state and the error surfaces
    /// typed.
    ///
    /// See the [module docs](crate::migrate) for the protocol and its
    /// invariants.
    pub fn migrate(&mut self, plan: &Merged) -> Result<MigrationReport> {
        let start = Instant::now();
        if *plan.original_schema() != *self.schema() {
            return Err(Error::PreconditionViolated {
                procedure: "Database::migrate",
                detail: format!(
                    "plan starts from a different schema than the live database hosts \
                     (plan: {} schemes, live: {} schemes)",
                    plan.original_schema().schemes().len(),
                    self.schema().schemes().len()
                ),
            });
        }
        let pre = self.snapshot()?;
        // η: the merged-schema image of the current state. Proposition
        // 4.1's state half gates the migration on it: refuse any plan that
        // would lose information on the *current* data.
        let migrated = plan.apply(&pre)?;
        let capacity = check_forward_image(plan, &pre, &migrated)?;
        // The gate is the snapshot's last reader: it goes before the load,
        // so the store, η(r) and the new tables are all that is live then.
        let dropped: Vec<String> = pre
            .names()
            .into_iter()
            .filter(|n| plan.schema().scheme(n).is_none())
            .map(str::to_owned)
            .collect();
        drop(pre);
        if !capacity.holds() {
            return Err(Error::PreconditionViolated {
                procedure: "Database::migrate",
                detail: format!("migration would not preserve information capacity: {capacity:?}"),
            });
        }
        let rows_migrated = migrated.total_tuples();
        let new_schema = plan.schema().clone();
        let pre_versions: Vec<(String, u64)> = new_schema
            .schemes()
            .iter()
            .map(|s| s.name().to_owned())
            .map(|name| {
                let floor = if name == plan.merged_name() {
                    // The merged relation inherits the largest member
                    // version, so a reader holding any member's version
                    // pin sees the new name as strictly newer.
                    plan.member_names()
                        .iter()
                        .filter_map(|m| self.relation_version(m).ok())
                        .max()
                        .map_or(0, |v| v + 1)
                } else {
                    self.relation_version(&name).map_or(0, |v| v + 1)
                };
                (name, floor)
            })
            .collect();

        // Everything that mutates runs under `contain`: a panic at
        // any site (injected or genuine) takes the same rollback path an
        // error does and resurfaces typed.
        let mut saved: Option<(RelationalSchema, Catalog)> = None;
        let saved_ref = &mut saved;
        let result = contain(|| -> Result<()> {
            self.fault_check(site::MIGRATION_REWRITE)?;
            let catalog = compile_catalog(&new_schema, self.profile(), "Database::migrate")?;
            // Cached builds describe pre-migration relations; drop them
            // before the swap so no (relation, attrs, version) key can
            // alias across the catalog change.
            self.clear_build_cache();
            *saved_ref = Some(self.swap_catalog(new_schema.clone(), catalog));
            for (name, floor) in &pre_versions {
                self.raise_relation_version(name, *floor);
            }
            self.fault_check(site::MIGRATION_APPLY)?;
            // η(r)'s rows move into the new tables; the audit checks every
            // constraint of the new schema over them, and on a durable
            // database the snapshot install inside is the migration's
            // commit point.
            self.load_audited(owned_relations(migrated))
        });
        self.metrics
            .registry
            .histogram("engine.migrate.ns")
            .record(obs::elapsed_ns(start));
        match result {
            Ok(()) => {
                // Archive the pre-migration ledger and start a fresh one
                // here only: its edge keys name relations this database no
                // longer hosts, while a fork or a snapshot pinned before
                // the migration still hosts them and keeps charging the
                // ledger it shares.
                let pre_profile = self.profiler.snapshot();
                self.profiler = std::sync::Arc::new(obs::Profiler::new());
                obs::global().counter("engine.migrate.applied").inc();
                Ok(MigrationReport {
                    merged_name: plan.merged_name().to_owned(),
                    members: plan
                        .member_names()
                        .iter()
                        .map(|m| (*m).to_owned())
                        .collect(),
                    dropped,
                    rows_migrated,
                    chunks_applied: 1,
                    capacity,
                    pre_profile,
                })
            }
            Err(e) => {
                if let Some((old_schema, old_catalog)) = saved {
                    self.swap_catalog(old_schema, old_catalog);
                    // Readers pinned before the migration share the cache;
                    // drop whatever they cached inside the window too.
                    self.clear_build_cache();
                }
                obs::global().counter("engine.migrate.aborted").inc();
                Err(e)
            }
        }
    }

    /// The full observation → decision → migration loop: snapshots the
    /// live workload profile, asks an [`Advisor`] gated by this database's
    /// [`profile`](Database::profile) for proposals ranked by the access
    /// cost they would eliminate, selects the admissible,
    /// pairwise-disjoint ones with **observed** cost through
    /// [`Advisor::apply_proposals`] (static-only proposals are skipped —
    /// this entry point only merges what the workload demonstrably pays
    /// for), and migrates each selected merge in order. Returns the
    /// executed migrations in application order; an empty vector means
    /// the evidence demanded nothing.
    ///
    /// Every selected merge is planned before the first migration, so a
    /// planning error surfaces before any migration runs; the selection
    /// counts on `core.advisor.applied`.
    pub fn advise_and_migrate(&mut self) -> Result<Vec<AdvisedMigration>> {
        let advisor = Advisor::new(self.profile());
        let snapshot = self.profile_snapshot();
        let observed: Vec<MergeProposal> = advisor
            .propose_from_profile(&snapshot, self.schema())?
            .into_iter()
            .filter(|p| p.observed_cost > 0)
            .collect();
        let (_, applied) = advisor.apply_proposals(self.schema(), &observed)?;
        let mut out = Vec::with_capacity(applied.len());
        for step in applied {
            let report = self.migrate(&step.merged)?;
            out.push(AdvisedMigration {
                proposal: step.proposal,
                report,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultMode, FaultPlan};
    use crate::query::{JoinStep, QueryPlan};
    use crate::DbmsProfile;
    use relmerge_core::Merge;
    use relmerge_relational::{
        Attribute, Domain, InclusionDep, NullConstraint, RelationScheme, RelationalSchema, Tuple,
        Value,
    };

    fn attr(name: &str) -> Attribute {
        Attribute::new(name, Domain::Int)
    }

    /// P(P.K) ← Q(Q.K, Q.V): the minimal mergeable star.
    fn star() -> RelationalSchema {
        let mut rs = RelationalSchema::new();
        rs.add_scheme(RelationScheme::new("P", vec![attr("P.K")], &["P.K"]).unwrap())
            .unwrap();
        rs.add_scheme(RelationScheme::new("Q", vec![attr("Q.K"), attr("Q.V")], &["Q.K"]).unwrap())
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("P", &["P.K"]))
            .unwrap();
        rs.add_null_constraint(NullConstraint::nna("Q", &["Q.K", "Q.V"]))
            .unwrap();
        rs.add_ind(InclusionDep::new("Q", &["Q.K"], "P", &["P.K"]))
            .unwrap();
        rs
    }

    fn plan_star_merge(rs: &RelationalSchema) -> Merged {
        let mut plan = Merge::plan(rs, &["P", "Q"], "P_M").unwrap();
        plan.remove_all_removable().unwrap();
        plan
    }

    fn loaded_db() -> Database {
        let mut db = Database::new(star(), DbmsProfile::ideal()).unwrap();
        for k in 0..20 {
            db.insert("P", Tuple::new([Value::Int(k)])).unwrap();
            db.insert("Q", Tuple::new([Value::Int(k), Value::Int(k * 10)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn migrate_replaces_members_with_merged_relation() {
        let mut db = loaded_db();
        let pre = db.snapshot().unwrap();
        let plan = plan_star_merge(db.schema());
        let report = db.migrate(&plan).unwrap();
        assert_eq!(report.merged_name, "P_M");
        assert_eq!(report.members, ["P", "Q"]);
        assert_eq!(report.dropped, ["P", "Q"]);
        assert_eq!(report.rows_migrated, 20);
        assert!(report.capacity.holds());
        assert!(db.verify_integrity().is_clean());
        // The live state equals the plan's η image of the old state.
        let expect = plan.apply(&pre).unwrap();
        assert_eq!(db.snapshot().unwrap(), expect);
        // Dropped members are gone from the catalog.
        assert!(db.relation_version("P").is_err());
        assert!(db.relation_version("Q").is_err());
        // The migration's wall time is one sample on the database's shard.
        assert_eq!(migrate_samples(&db), 1);
    }

    /// The samples on the database's `engine.migrate.ns` histogram.
    fn migrate_samples(db: &Database) -> u64 {
        let snap = db.metrics_registry().snapshot();
        snap.histograms
            .get("engine.migrate.ns")
            .map_or(0, |h| h.count)
    }

    #[test]
    fn migrate_carries_relation_versions_forward() {
        let mut db = loaded_db();
        let v_p = db.relation_version("P").unwrap();
        let v_q = db.relation_version("Q").unwrap();
        assert!(v_p > 0 && v_q > 0);
        let plan = plan_star_merge(db.schema());
        db.migrate(&plan).unwrap();
        // The merged relation's version sits strictly above both members'
        // pre-migration versions (floor + one bump per migrated row).
        assert!(db.relation_version("P_M").unwrap() > v_p.max(v_q));
    }

    #[test]
    fn migrate_rejects_mismatched_plan() {
        let mut db = loaded_db();
        let mut other = star();
        other
            .add_scheme(RelationScheme::new("S", vec![attr("S.K")], &["S.K"]).unwrap())
            .unwrap();
        other
            .add_null_constraint(NullConstraint::nna("S", &["S.K"]))
            .unwrap();
        let mut plan = Merge::plan(&other, &["P", "Q"], "P_M").unwrap();
        plan.remove_all_removable().unwrap();
        let err = db.migrate(&plan).unwrap_err();
        assert!(matches!(err, Error::PreconditionViolated { .. }), "{err}");
        // Refused at the guard: nothing was migrated, so nothing is timed.
        assert_eq!(migrate_samples(&db), 0);
    }

    #[test]
    fn faults_at_both_migration_sites_roll_back_byte_identical() {
        for site_name in site::MIGRATION {
            for mode in [FaultMode::Error, FaultMode::Panic] {
                let mut db = loaded_db();
                let pre = db.snapshot().unwrap();
                let plan = plan_star_merge(db.schema());
                let probe = db.set_fault_plan(FaultPlan::new().fail_at(site_name, 0, mode));
                let err = db.migrate(&plan).unwrap_err();
                assert_eq!(probe.total_fired(), 1, "{site_name} {mode:?}");
                match mode {
                    FaultMode::Error => {
                        assert!(matches!(err, Error::Injected { .. }), "{err}")
                    }
                    FaultMode::Panic => {
                        assert!(matches!(err, Error::ExecutionPanic { .. }), "{err}")
                    }
                }
                db.clear_fault_plan();
                assert_eq!(db.snapshot().unwrap(), pre, "{site_name} {mode:?}");
                assert!(db.verify_integrity().is_clean(), "{site_name} {mode:?}");
                assert_eq!(migrate_samples(&db), 1, "a rolled-back migration is timed");
                // The rolled-back database still works.
                db.insert("P", Tuple::new([Value::Int(999)])).unwrap();
            }
        }
    }

    #[test]
    fn migrate_archives_profile_and_queries_use_merged_schema() {
        let mut db = loaded_db();
        // Exercise the join so the profiler holds pre-merge edge keys.
        let join = QueryPlan::scan("Q").join(JoinStep::inner("P", &["Q.K"], &["P.K"]));
        db.execute(&join).unwrap();
        let before = db.profile_snapshot();
        assert_eq!(before.hot_joins[0].edge.label(), "Q->P[P.K]");
        let plan = plan_star_merge(db.schema());
        let report = db.migrate(&plan).unwrap();
        // Pre-merge edges were archived into the report, not left live.
        assert_eq!(report.pre_profile, before);
        assert!(db.profile_snapshot().hot_joins.is_empty());
        // The merged relation answers without a join, so fresh traffic
        // charges no edge.
        let (rel, _) = db.execute(&QueryPlan::scan("P_M")).unwrap();
        assert_eq!(rel.len(), 20);
        assert!(db.profile_snapshot().hot_joins.is_empty());
    }

    /// The `Q ⋈ P` join whose edge the tests' ledgers hold.
    fn q_join_p() -> QueryPlan {
        QueryPlan::scan("Q").join(JoinStep::inner("P", &["Q.K"], &["P.K"]))
    }

    #[test]
    fn migrating_a_fork_leaves_the_original_ledger_whole() {
        let mut db = loaded_db();
        db.execute(&q_join_p()).unwrap();
        let before = db.profile_snapshot();
        assert_eq!(before.hot_joins.len(), 1);
        let mut fork = db.fork();
        let report = fork.migrate(&plan_star_merge(fork.schema())).unwrap();
        assert_eq!(report.pre_profile, before);
        assert!(fork.profile_snapshot().hot_joins.is_empty());
        // The original still hosts P and Q, so it keeps their evidence,
        // and its advisor still merges them.
        assert_eq!(db.profile_snapshot(), before);
        assert_eq!(db.advise_and_migrate().unwrap().len(), 1);
    }

    #[test]
    fn a_pin_taken_before_a_migration_charges_only_the_old_ledger() {
        let store = crate::session::Store::new(loaded_db());
        let session = store.session();
        let old = session.pin().unwrap();
        session.migrate(&plan_star_merge(old.schema())).unwrap();
        // The old pin still hosts P and Q: its join charges the ledger it
        // was pinned with, never the migrated store's.
        old.execute(&q_join_p()).unwrap();
        assert_eq!(
            old.profile_snapshot().hot_joins[0].edge.label(),
            "Q->P[P.K]"
        );
        let fresh = session.pin().unwrap();
        assert!(fresh.schema().scheme("P").is_none());
        let ledger = fresh.profile_snapshot().hot_joins;
        assert!(ledger.is_empty(), "a pre-merge edge leaked: {ledger:?}");
    }

    #[test]
    fn advise_and_migrate_merges_the_hot_star() {
        let mut db = loaded_db();
        let join = QueryPlan::scan("Q").join(JoinStep::inner("P", &["Q.K"], &["P.K"]));
        for _ in 0..4 {
            db.execute(&join).unwrap();
        }
        let applied = db.advise_and_migrate().unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].report.merged_name, "P_M");
        assert!(applied[0].proposal.observed_cost > 0);
        assert!(db.schema().scheme("P_M").is_some());
        // A cold database has no evidence — the advisor migrates nothing.
        let mut cold = loaded_db();
        assert!(cold.advise_and_migrate().unwrap().is_empty());
        assert!(cold.schema().scheme("P").is_some());
    }
}
