//! Deterministic fault injection and integrity reports.
//!
//! The paper's preservation claims (Propositions 4.1/4.2/5.1/5.2) are
//! claims about *states*: whatever the maintenance machinery does, every
//! key, inclusion dependency, and null constraint must still hold. This
//! module makes failure a first-class, testable input to the engine:
//!
//! * a [`FaultPlan`] arms named injection **sites** threaded through
//!   statement execution, group validation, index maintenance, batch
//!   commit, and the morsel executor — each site can fire a typed
//!   [`Error::Injected`] or a panic, deterministically on its n-th
//!   arrival;
//! * an [`IntegrityReport`] is the structured output of
//!   [`Database::verify_integrity`](crate::Database::verify_integrity),
//!   the deep checker the torture harness runs after every induced abort;
//! * the crate-private `contain` and `fan_out` are the engine's one panic
//!   boundary and its one thread fan-out: every path that must survive a
//!   panic, and every worker thread, goes through them.
//!
//! Faults are *injected*, never spontaneous: a database with no plan
//! installed pays one branch per site.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use relmerge_obs as obs;
use relmerge_relational::{Error, Result};

/// The named injection sites a [`FaultPlan`] can arm.
///
/// Site names double as metric labels: every fire bumps the process-global
/// counter `engine.fault.fired.<site>`.
pub mod site {
    /// Entry of one statement inside [`Database::apply_batch`]
    /// (fires once per statement, before the statement mutates anything).
    ///
    /// [`Database::apply_batch`]: crate::Database::apply_batch
    pub const STATEMENT_APPLY: &str = "engine.batch.statement_apply";
    /// Group validation: fires once per touched relation at a deferred
    /// commit (possibly on a validation worker thread), and once for each
    /// immediately-checked statement that changes a row. At a deferred
    /// commit a panic here fails only its relation, as a violation at
    /// that relation's earliest statement, at every batch size and worker
    /// count.
    pub const GROUP_VALIDATE: &str = "engine.batch.group_validate";
    /// Index maintenance: just before a row (and its index entries) lands
    /// or is removed on the forward DML path. Never fires during rollback.
    pub const INDEX_MAINTENANCE: &str = "engine.db.index_maintenance";
    /// The batch commit tail, after every deferred validation succeeded.
    pub const COMMIT: &str = "engine.batch.commit";
    /// A morsel of the query executor (fires once per morsel of 1,024
    /// root rows, as it starts).
    pub const MORSEL_WORKER: &str = "engine.query.morsel_worker";
    /// A transient hash build in the query executor (fires once per cold
    /// build, before its serial scan).
    pub const HASH_BUILD: &str = "engine.query.hash_build";
    /// Insertion of a finished transient build into the build-side cache
    /// (fires once per insert, before the cache is mutated).
    pub const BUILD_CACHE_INSERT: &str = "engine.query.build_cache_insert";
    /// Predicate optimization + filter placement (fires once per filtered
    /// query, before the root access path is chosen and any row is read).
    /// A fire — error or panic — fails that query typed and leaves the
    /// build cache untouched.
    pub const PUSHDOWN: &str = "engine.query.pushdown";
    /// The catalog-rewrite phase of an online migration
    /// ([`Database::migrate`]): fires once, after the pre-migration
    /// snapshot is taken but before the live catalog is swapped.
    ///
    /// [`Database::migrate`]: crate::Database::migrate
    pub const MIGRATION_REWRITE: &str = "engine.migrate.rewrite";
    /// The data-load phase of an online migration: fires once, after the
    /// catalog swap and just before the migrated state is loaded with
    /// [`Database::load_state`].
    ///
    /// [`Database::load_state`]: crate::Database::load_state
    pub const MIGRATION_APPLY: &str = "engine.migrate.apply";
    /// A write-ahead-log append, on a durable database (fires once per
    /// committed batch, *before* any bytes are written). A fire fails the
    /// commit, which rolls back through the ordinary undo path — nothing
    /// un-logged ever becomes visible.
    pub const WAL_APPEND: &str = "engine.wal.append";
    /// A snapshot install on a durable database (fires once per install,
    /// before the snapshot is encoded). A fire — error or panic — at a
    /// periodic snapshot is *contained*: the triggering batch stays
    /// committed and durable in the log; only the log truncation is
    /// forgone (counted by `engine.wal.snapshot_failures`). A fire at the
    /// install that commits a durable [`Database::load_state`] fails the
    /// load typed — and so aborts a [`Database::migrate`], which rolls
    /// back — with the previous generation still authoritative on disk.
    ///
    /// [`Database::load_state`]: crate::Database::load_state
    /// [`Database::migrate`]: crate::Database::migrate
    pub const SNAPSHOT_WRITE: &str = "engine.snapshot.write";
    /// Record replay inside [`Database::recover`] (fires once per valid
    /// WAL record, before that record is applied). A fire aborts the
    /// recovery attempt before anything on disk has been modified, so a
    /// retry starts from the same bytes and succeeds.
    ///
    /// [`Database::recover`]: crate::Database::recover
    pub const RECOVERY_REPLAY: &str = "engine.recovery.replay";
    /// Snapshot pin inside [`Session::pin`] (fires once per pin, before
    /// the version vector is captured). A fire — error or panic — is
    /// *contained* to that pin attempt: the session returns a typed error,
    /// the store is untouched, and the next pin succeeds.
    ///
    /// [`Session::pin`]: crate::session::Session::pin
    pub const SESSION_SNAPSHOT: &str = "engine.session.snapshot";
    /// Entry of the serialized writer section (fires once per write
    /// attempt routed through a [`Store`], while the writer lock is held
    /// but before the mutation closure runs). A fire fails that commit
    /// with a typed error; the master state and the published base are
    /// untouched, and concurrently-pinned readers are unaffected.
    ///
    /// [`Store`]: crate::session::Store
    pub const WRITER_COMMIT: &str = "engine.writer.commit";

    /// The sites on the multi-session path (snapshot pin, serialized
    /// writer commit), in firing order.
    pub const SESSION: &[&str] = &[SESSION_SNAPSHOT, WRITER_COMMIT];
    /// The sites on the batched-DML path, in firing order.
    pub const BATCH: &[&str] = &[STATEMENT_APPLY, INDEX_MAINTENANCE, GROUP_VALIDATE, COMMIT];
    /// The sites on the query-execution path, in firing order.
    pub const QUERY: &[&str] = &[PUSHDOWN, HASH_BUILD, BUILD_CACHE_INSERT, MORSEL_WORKER];
    /// The sites on the online-migration path, in firing order.
    pub const MIGRATION: &[&str] = &[MIGRATION_REWRITE, MIGRATION_APPLY];
    /// The sites on the durability path (WAL append, snapshot install,
    /// recovery replay), in firing order over a crash-recover cycle.
    pub const DURABILITY: &[&str] = &[WAL_APPEND, SNAPSHOT_WRITE, RECOVERY_REPLAY];
    /// Every site.
    pub const ALL: &[&str] = &[
        STATEMENT_APPLY,
        INDEX_MAINTENANCE,
        GROUP_VALIDATE,
        COMMIT,
        PUSHDOWN,
        MORSEL_WORKER,
        HASH_BUILD,
        BUILD_CACHE_INSERT,
        MIGRATION_REWRITE,
        MIGRATION_APPLY,
        WAL_APPEND,
        SNAPSHOT_WRITE,
        RECOVERY_REPLAY,
        SESSION_SNAPSHOT,
        WRITER_COMMIT,
    ];
}

/// How an armed site fails when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Return [`Error::Injected`] from the site.
    Error,
    /// Panic at the site (exercising the engine's panic containment).
    Panic,
}

impl FaultMode {
    /// Short label (`"error"` / `"panic"`), used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultMode::Error => "error",
            FaultMode::Panic => "panic",
        }
    }
}

/// One armed site: fires on its `nth` (0-based) arrival, exactly once.
#[derive(Debug)]
struct Arm {
    site: String,
    nth: u64,
    mode: FaultMode,
    hits: AtomicU64,
    fired: AtomicU64,
}

/// A deterministic fault plan: a set of armed sites, each of which fires
/// on a specific arrival count. Counters are atomic so sites can fire from
/// `&self` contexts (validation worker threads included), and
/// the plan is installed behind an [`Arc`](std::sync::Arc) so the caller
/// keeps a handle to inspect [`hits`](FaultPlan::hits) and
/// [`fired`](FaultPlan::fired) after the run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<Arm>,
}

/// One step of the splitmix64 sequence — the plan's own seed expander, so
/// the engine needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no site armed).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `site` to fire `mode` on its `nth` (0-based) arrival.
    #[must_use]
    pub fn fail_at(mut self, site: &str, nth: u64, mode: FaultMode) -> Self {
        self.arms.push(Arm {
            site: site.to_owned(),
            nth,
            mode,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
        self
    }

    /// A single-arm plan derived deterministically from `seed`: picks one
    /// of `sites`, an arrival count below `max_nth`, and a mode. The same
    /// seed always yields the same plan — the property-test entry point.
    #[must_use]
    pub fn seeded(seed: u64, sites: &[&str], max_nth: u64) -> Self {
        let mut s = seed;
        let site = if sites.is_empty() {
            site::STATEMENT_APPLY
        } else {
            sites[(splitmix64(&mut s) % sites.len() as u64) as usize]
        };
        let nth = splitmix64(&mut s) % max_nth.max(1);
        let mode = if splitmix64(&mut s).is_multiple_of(2) {
            FaultMode::Error
        } else {
            FaultMode::Panic
        };
        FaultPlan::new().fail_at(site, nth, mode)
    }

    /// The armed `(site, nth, mode)` triples, for reporting.
    #[must_use]
    pub fn arms(&self) -> Vec<(&str, u64, FaultMode)> {
        self.arms
            .iter()
            .map(|a| (a.site.as_str(), a.nth, a.mode))
            .collect()
    }

    /// Called by the engine each time execution reaches `site`. Counts the
    /// arrival and, when an arm's trigger count is reached, fires it:
    /// returns [`Error::Injected`] or panics, per the arm's mode.
    pub(crate) fn check(&self, site: &str) -> Result<()> {
        for arm in self.arms.iter().filter(|a| a.site == site) {
            let arrival = arm.hits.fetch_add(1, Ordering::Relaxed);
            if arrival == arm.nth {
                arm.fired.fetch_add(1, Ordering::Relaxed);
                obs::global()
                    .counter(&format!("engine.fault.fired.{site}"))
                    .inc();
                match arm.mode {
                    FaultMode::Error => {
                        return Err(Error::Injected {
                            site: site.to_owned(),
                        })
                    }
                    FaultMode::Panic => panic!("injected panic at site `{site}`"),
                }
            }
        }
        Ok(())
    }

    /// Times execution reached `site` (across all arms on it).
    #[must_use]
    pub fn hits(&self, site: &str) -> u64 {
        self.arms
            .iter()
            .filter(|a| a.site == site)
            .map(|a| a.hits.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Times an arm on `site` actually fired.
    #[must_use]
    pub fn fired(&self, site: &str) -> u64 {
        self.arms
            .iter()
            .filter(|a| a.site == site)
            .map(|a| a.fired.load(Ordering::Relaxed))
            .sum()
    }

    /// Total fires across every arm.
    #[must_use]
    pub fn total_fired(&self) -> u64 {
        self.arms
            .iter()
            .map(|a| a.fired.load(Ordering::Relaxed))
            .sum()
    }
}

/// Best-effort extraction of a panic payload's message (the engine's own
/// injected panics carry a `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f`, turning a panic in it — injected at a fault site or genuine —
/// into a typed [`Error::ExecutionPanic`]. The engine's one panic
/// boundary: every path that must survive a panic goes through it.
#[allow(clippy::disallowed_methods, reason = "the engine's one panic boundary")]
pub(crate) fn contain<T, E: From<Error>>(
    f: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(E::from(Error::ExecutionPanic {
            context: panic_message(payload),
        }))
    })
}

/// Runs `f` on every item, each call under [`contain`], over up to
/// `workers` scoped threads, and returns the outputs in item order — or
/// the failure at the lowest item index, which is the error a serial run
/// returns. Workers claim items in order and stop claiming once any call
/// has failed; one worker runs inline, with no thread set-up.
#[allow(clippy::disallowed_methods, reason = "the engine's one fan-out")]
pub(crate) fn fan_out<I: Sync, T: Send>(
    workers: usize,
    items: &[I],
    f: impl Fn(&I) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        let mut outs = Vec::with_capacity(items.len());
        for item in items {
            outs.push(contain(|| f(item))?);
        }
        return Ok(outs);
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // The claimed items are a prefix of `items`, each with its outcome, so
    // in item order the first failure is the one a serial run stops at.
    let mut claimed: Vec<(usize, Result<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let out = contain(|| f(item));
                        if out.is_err() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        done.push((i, out));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a worker runs every call under `contain`"))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, out)| out).collect()
}

/// Which invariant class an [`IntegrityViolation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A table's live-row count disagrees with its stored rows.
    RowAccounting,
    /// A unique (candidate-key) index disagrees with the base rows, or a
    /// key value occurs twice.
    UniqueIndex,
    /// A secondary lookup index disagrees with the base rows.
    LookupIndex,
    /// A null constraint (NNA/NS/NE/TE) does not hold on the stored rows.
    NullConstraint,
    /// An inclusion dependency does not hold between the stored relations.
    InclusionDependency,
}

impl std::fmt::Display for IntegrityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IntegrityKind::RowAccounting => "row-accounting",
            IntegrityKind::UniqueIndex => "unique-index",
            IntegrityKind::LookupIndex => "lookup-index",
            IntegrityKind::NullConstraint => "null-constraint",
            IntegrityKind::InclusionDependency => "inclusion-dependency",
        })
    }
}

/// One invariant the deep checker found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityViolation {
    /// The relation the violation was detected in.
    pub relation: String,
    /// The invariant class broken.
    pub kind: IntegrityKind,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] `{}`: {}", self.kind, self.relation, self.detail)
    }
}

/// The structured output of
/// [`Database::verify_integrity`](crate::Database::verify_integrity): every
/// violation found, plus how much checking was done (so "clean" is
/// distinguishable from "checked nothing").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Every broken invariant found.
    pub violations: Vec<IntegrityViolation>,
    /// Relations examined.
    pub relations_checked: usize,
    /// Null-constraint and inclusion-dependency group checks performed.
    pub constraints_checked: usize,
    /// Index entries cross-checked against base rows.
    pub index_entries_checked: u64,
}

impl IntegrityReport {
    /// Whether no violation was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "integrity: {} violation(s); {} relations, {} constraint checks, {} index entries",
            self.violations.len(),
            self.relations_checked,
            self.constraints_checked,
            self.index_entries_checked
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_on_nth_arrival_exactly_once() {
        let plan = FaultPlan::new().fail_at(site::COMMIT, 2, FaultMode::Error);
        assert!(plan.check(site::COMMIT).is_ok());
        assert!(plan.check(site::COMMIT).is_ok());
        let err = plan.check(site::COMMIT).unwrap_err();
        assert!(matches!(err, Error::Injected { ref site } if site == site::COMMIT));
        assert!(plan.check(site::COMMIT).is_ok(), "fires exactly once");
        assert_eq!(plan.hits(site::COMMIT), 4);
        assert_eq!(plan.fired(site::COMMIT), 1);
        assert_eq!(plan.total_fired(), 1);
        // Other sites are unaffected.
        assert!(plan.check(site::STATEMENT_APPLY).is_ok());
        assert_eq!(plan.fired(site::STATEMENT_APPLY), 0);
    }

    #[test]
    fn panic_mode_panics_with_site_message() {
        let plan = FaultPlan::new().fail_at(site::GROUP_VALIDATE, 0, FaultMode::Panic);
        let err = contain(|| plan.check(site::GROUP_VALIDATE)).unwrap_err();
        assert!(
            matches!(err, Error::ExecutionPanic { ref context } if context.contains(site::GROUP_VALIDATE)),
            "{err}"
        );
        assert_eq!(plan.fired(site::GROUP_VALIDATE), 1);
    }

    #[test]
    fn fan_out_returns_outputs_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in 1..=4 {
            let outs = fan_out(workers, &items, |&i| Ok(i * 10)).unwrap();
            assert_eq!(outs, items.iter().map(|i| i * 10).collect::<Vec<_>>());
            assert!(fan_out(workers, &[] as &[u64], |&i| Ok(i))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn fan_out_returns_the_failure_a_serial_run_returns() {
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..40).collect();
        let f = |&i: &u64| -> Result<u64> {
            calls.fetch_add(1, Ordering::Relaxed);
            match i {
                7 | 23 => Err(Error::Injected {
                    site: format!("item {i}"),
                }),
                31 => panic!("item 31"),
                _ => Ok(i),
            }
        };
        for workers in 1..=4 {
            let err = fan_out(workers, &items, f).unwrap_err();
            assert!(
                matches!(err, Error::Injected { ref site } if site == "item 7"),
                "{workers} workers: {err}"
            );
        }
        // Serially, nothing past the failing item 7 is claimed.
        calls.store(0, Ordering::Relaxed);
        fan_out(1, &items, f).unwrap_err();
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        // A panicking call comes back typed.
        let err = fan_out(2, &items[24..], f).unwrap_err();
        assert!(
            matches!(err, Error::ExecutionPanic { ref context } if context == "item 31"),
            "{err}"
        );
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_inputs() {
        let plan_a = FaultPlan::seeded(42, site::ALL, 10);
        let plan_b = FaultPlan::seeded(42, site::ALL, 10);
        let a = plan_a.arms();
        assert_eq!(a, plan_b.arms());
        let (s, nth, _) = a[0];
        assert!(site::ALL.contains(&s));
        assert!(nth < 10);
        // Different seeds eventually pick different sites and modes.
        let distinct: std::collections::BTreeSet<String> = (0..64)
            .map(|seed| {
                let plan = FaultPlan::seeded(seed, site::ALL, 10);
                let (s, _, m) = plan.arms()[0];
                format!("{s}/{}", m.label())
            })
            .collect();
        assert!(distinct.len() > 4, "{distinct:?}");
        // Degenerate inputs stay total.
        let plan = FaultPlan::seeded(7, &[], 0);
        assert_eq!(plan.arms()[0].1, 0);
    }

    #[test]
    fn integrity_report_renders() {
        let mut report = IntegrityReport {
            relations_checked: 3,
            constraints_checked: 5,
            index_entries_checked: 9,
            ..IntegrityReport::default()
        };
        assert!(report.is_clean());
        report.violations.push(IntegrityViolation {
            relation: "COURSE_M".to_owned(),
            kind: IntegrityKind::UniqueIndex,
            detail: "slot 3 missing from key index".to_owned(),
        });
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("1 violation"), "{text}");
        assert!(text.contains("unique-index"), "{text}");
        assert!(text.contains("COURSE_M"), "{text}");
    }
}
