//! B10: the versioned build-side cache — cold rebuild versus warm hit on
//! the no-covering-index composite join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_bench::experiments::composite_no_index_query;
use relmerge_engine::{Database, DbmsProfile};
use relmerge_workload::{generate_university, UniversitySpec};

fn build_db(courses: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(42);
    let u = generate_university(
        &UniversitySpec {
            courses,
            ..UniversitySpec::default()
        },
        &mut rng,
    )
    .expect("university");
    let mut db = Database::new(u.schema.clone(), DbmsProfile::ideal()).expect("database");
    db.load_state(&u.state).expect("load");
    db
}

/// Cold (cache cleared before every execution, so each one pays the full
/// transient hash build) versus warm (every execution hits the cache).
fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_cache");
    group.sample_size(20);
    for &courses in &[1_000usize, 10_000] {
        let mut db = build_db(courses);
        db.configure(db.config().parallelism(1));
        let plan = composite_no_index_query();
        group.bench_with_input(BenchmarkId::new("cold", courses), &courses, |b, _| {
            b.iter(|| {
                db.clear_build_cache();
                db.execute(&plan).expect("query")
            })
        });
        let _ = db.execute(&plan).expect("populate");
        group.bench_with_input(BenchmarkId::new("warm", courses), &courses, |b, _| {
            b.iter(|| db.execute(&plan).expect("query"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm);
criterion_main!(benches);
