//! B15: optimizer-driven predicate pushdown versus the unoptimized
//! filter placement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_engine::{Database, DbmsProfile, JoinStep, Predicate, QueryPlan};
use relmerge_workload::{generate_university, University, UniversitySpec};

fn build_university(courses: usize) -> University {
    let mut rng = StdRng::seed_from_u64(42);
    generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .expect("university")
}

fn build_db(u: &University) -> Database {
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal()).expect("database");
    db.load_state(&u.state).expect("load");
    db
}

/// The B15 selective chain: the pushed `Eq(T.F.SSN, ssn)` prunes the
/// stream at the TEACH probe, before the composite non-indexed ASSIST
/// join scans per surviving row (strategy pinned to index-nested-loop so
/// filter placement is the only variable).
fn bench_selective_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushdown_selective_chain");
    group.sample_size(20);
    let plan = QueryPlan::scan("COURSE")
        .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
        .join(JoinStep::inner(
            "ASSIST",
            &["T.C.NR", "T.F.SSN"],
            &["A.C.NR", "A.S.SSN"],
        ))
        .filter(Predicate::eq("T.F.SSN", 10_000_i64));
    for &courses in &[1_000usize, 4_000] {
        let u = build_university(courses);
        let mut db = build_db(&u);
        db.configure(db.config().hash_join_threshold(usize::MAX));
        db.configure(db.config().predicate_pushdown(false));
        group.bench_with_input(
            BenchmarkId::new("filter_at_top", courses),
            &courses,
            |b, _| b.iter(|| db.execute(&plan).expect("query")),
        );
        db.configure(db.config().predicate_pushdown(true));
        group.bench_with_input(
            BenchmarkId::new("pushed_to_probe", courses),
            &courses,
            |b, _| b.iter(|| db.execute(&plan).expect("query")),
        );
    }
    group.finish();
}

/// The B15 root upgrade: `Eq` on the root key turns the full scan into
/// an index point lookup.
fn bench_root_eq_upgrade(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushdown_root_eq_upgrade");
    group.sample_size(20);
    for &courses in &[10_000usize, 40_000] {
        let u = build_university(courses);
        let mut db = build_db(&u);
        let offered = *u.offered_courses.first().expect("offered course");
        let plan = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
            .filter(Predicate::eq("C.NR", offered));
        db.configure(db.config().predicate_pushdown(false));
        group.bench_with_input(
            BenchmarkId::new("prefiltered_scan", courses),
            &courses,
            |b, _| b.iter(|| db.execute(&plan).expect("query")),
        );
        db.configure(db.config().predicate_pushdown(true));
        group.bench_with_input(
            BenchmarkId::new("point_lookup", courses),
            &courses,
            |b, _| b.iter(|| db.execute(&plan).expect("query")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_selective_chain, bench_root_eq_upgrade);
criterion_main!(benches);
