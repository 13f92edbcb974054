//! B13 micro-benchmarks: the cost of the online migration itself — the
//! capacity gate, the catalog swap and one audited load of the merged
//! state — as the state grows, the advisor's profile-driven proposal
//! pass, and the point-query payoff before and after a live merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_bench::experiments;
use relmerge_core::{Advisor, AdvisorConfig, Merge};
use relmerge_engine::{Database, DbmsProfile};
use relmerge_workload::{generate_university, UniversitySpec};

/// A loaded unmerged university database plus the COURSE-chain plan.
fn instance(courses: usize) -> (relmerge_workload::University, relmerge_core::Merged) {
    experiments::university_merge(courses, 42).expect("instance")
}

fn live_db(u: &relmerge_workload::University) -> Database {
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal()).expect("db");
    db.load_state(&u.state).expect("load");
    db
}

fn bench_migrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_migrate");
    group.sample_size(10);
    for &courses in &[500usize, 2_000, 8_000] {
        let (u, m) = instance(courses);
        group.bench_with_input(BenchmarkId::from_parameter(courses), &courses, |b, _| {
            b.iter_batched(
                || live_db(&u),
                |mut db| db.migrate(&m).expect("migrate"),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_propose_from_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("advise_from_profile");
    let (u, _) = instance(2_000);
    let db = live_db(&u);
    // Populate the profiler with a representative read mix.
    for nr in u.offered_courses.iter().take(256) {
        let _ = db
            .execute(&experiments::unmerged_point_query(*nr))
            .expect("probe");
    }
    let snapshot = db.profile_snapshot();
    let advisor = Advisor::new(AdvisorConfig::permissive());
    group.bench_function("propose", |b| {
        b.iter(|| {
            advisor
                .propose_from_profile(&snapshot, &u.schema)
                .expect("propose")
        });
    });
    group.finish();
}

fn bench_point_query_pre_post(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_query_live");
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses: 2_000,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .expect("university");
    let nr = u.offered_courses[0];
    let mut db = live_db(&u);
    group.bench_function("pre_merge", |b| {
        b.iter(|| {
            db.execute(&experiments::unmerged_point_query(nr))
                .expect("q")
        });
    });
    let mut plan = Merge::plan(
        &u.schema,
        &["COURSE", "OFFER", "TEACH", "ASSIST"],
        "COURSE_M",
    )
    .expect("plan");
    plan.remove_all_removable().expect("remove");
    db.migrate(&plan).expect("migrate");
    group.bench_function("post_merge", |b| {
        b.iter(|| db.execute(&experiments::merged_point_query(nr)).expect("q"));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_migrate,
    bench_propose_from_profile,
    bench_point_query_pre_post
);
criterion_main!(benches);
