//! B8: the morsel-parallel executor versus serial execution on the large
//! unmerged university chain. The no-covering-index composite join's
//! build is timed by the `build_cache` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_bench::experiments::unmerged_scan_query;
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

/// Serial vs parallel execution of the B1 chain scan (3 outer joins) at
/// every worker count up to the machine's parallelism.
fn bench_chain_scan_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_chain_scan");
    group.sample_size(20);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for &courses in &[10_000usize, 40_000] {
        let mut db = build_db(courses);
        let plan = unmerged_scan_query();
        let mut workers: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&w| w < cores).collect();
        workers.push(cores);
        for w in workers {
            db.configure(db.config().parallelism(w));
            group.bench_with_input(
                BenchmarkId::new(format!("workers_{w}"), courses),
                &courses,
                |b, _| b.iter(|| db.execute(&plan).expect("query")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_chain_scan_workers);
criterion_main!(benches);
