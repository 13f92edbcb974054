//! The three workloads, their seeded operation streams, and the query each
//! read lowers to.

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_bench::experiments::{
    composite_no_index_query, merged_by_faculty_query, merged_point_query,
    unmerged_by_faculty_query, unmerged_point_query, unmerged_scan_query,
};
use relmerge_engine::{JoinStep, Predicate, QueryPlan, Statement};
use relmerge_relational::Value;
use relmerge_workload::{
    merged_statements, university_ops, unmerged_statements, MixSpec, UniversityOp, UniversitySpec,
};

/// One named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's motivating traffic on the unmerged Figure 3 schema,
    /// served from a durable store: join-chain reads plus add/drop
    /// commits. Copy-on-write, index-nested-loop probes, inclusion
    /// dependency checks and WAL appends do most of the work.
    Oltp,
    /// The same operation stream served from the merged `COURSE_M`
    /// relation after an online migration: reads need one probe and no
    /// joins, and writes are one wide row checked by null constraints.
    Merged,
    /// Read-only reports on an in-memory store: hash builds, the build
    /// cache, predicate pushdown and result materialization do the work;
    /// writes, the WAL and copy-on-write are bypassed.
    Analytics,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Oltp, Workload::Merged, Workload::Analytics];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oltp => "oltp",
            Workload::Merged => "merged",
            Workload::Analytics => "analytics",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the store is durable (seeded through the WAL and restarted).
    #[must_use]
    pub fn durable(self) -> bool {
        !matches!(self, Workload::Analytics)
    }

    /// Whether traffic is served from the merged `COURSE_M` relation.
    #[must_use]
    pub fn merged(self) -> bool {
        matches!(self, Workload::Merged)
    }
}

/// The scale every workload runs at: the university instance with
/// `courses` courses and every other field at its default.
#[must_use]
pub(crate) fn university_spec(courses: usize) -> UniversitySpec {
    UniversitySpec {
        courses,
        ..UniversitySpec::default()
    }
}

/// Faculty members the generator creates: 40% of the persons, with SSNs
/// from 10 000 up.
#[must_use]
pub(crate) fn faculty(spec: &UniversitySpec) -> usize {
    spec.persons * 2 / 5
}

/// One report of the analytics mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Report {
    /// OFFER ⟕ TEACH restricted to one department (the `Eq` is pushed to
    /// the root).
    DeptOffers(usize),
    /// ASSIST ⋈ TEACH on the composite `(course, SSN)` key, which no index
    /// covers: a transient hash build that the build cache serves.
    OverlapJoin,
    /// COURSE ⋈ TEACH ⟕ ASSIST restricted to one faculty member (the `Eq`
    /// is pushed down to TEACH).
    FacultyLoad(i64),
    /// The full COURSE → OFFER → TEACH → ASSIST chain scan.
    CourseReport,
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A logical operation of the oltp/merged stream.
    University(UniversityOp),
    /// A report of the analytics stream.
    Report(Report),
}

/// What an operation sends to the engine.
#[derive(Debug)]
pub enum Request {
    /// A query, run on a pinned snapshot.
    Read(QueryPlan),
    /// A statement batch, committed through `Session::apply_batch`.
    Write(Vec<Statement>),
}

impl Op {
    /// Whether the operation commits: it adds or drops a course.
    #[must_use]
    pub(crate) fn is_write(&self) -> bool {
        matches!(
            self,
            Op::University(UniversityOp::AddCourse { .. } | UniversityOp::DropCourse { .. })
        )
    }

    /// Lowers the operation against the merged (`COURSE_M`) or the
    /// unmerged (Figure 3) schema.
    #[must_use]
    pub fn request(&self, merged: bool) -> Request {
        match self {
            Op::University(UniversityOp::CourseDetail { nr }) => Request::Read(if merged {
                merged_point_query(*nr)
            } else {
                unmerged_point_query(*nr)
            }),
            Op::University(UniversityOp::ByFaculty { ssn }) => Request::Read(if merged {
                merged_by_faculty_query(*ssn)
            } else {
                unmerged_by_faculty_query(*ssn)
            }),
            Op::University(op) => Request::Write(if merged {
                merged_statements(op)
            } else {
                unmerged_statements(op)
            }),
            Op::Report(r) => Request::Read(report_query(*r)),
        }
    }
}

/// Operations the oltp/merged stream generates at a time.
const CHUNK: usize = 1024;
/// Course numbers `university_ops` allocates for new courses start here.
const FIRST_NEW_COURSE: i64 = 1_000_000;
/// Each chunk's new course numbers are shifted by this much per chunk, so
/// chunks never add the same course twice.
const CHUNK_COURSE_STRIDE: i64 = 10_000_000;

/// A workload's seeded operation stream, generated a chunk at a time so
/// that its heap stays small however long the loop runs. Two streams with
/// the same workload, seed and scale yield the same operations.
///
/// oltp and merged share one stream: `MixSpec::default()` (80% point
/// reads, 10% reverse lookups, 7% adds, 3% drops), in chunks of 1024
/// operations whose new course numbers are disjoint. The analytics stream
/// is stratified: every block of 20 operations holds exactly 7 department
/// reports (35%), 6 overlap joins (30%), 6 faculty loads (30%) and one
/// chain scan (5%) in seeded order, so each run sees the same class mix
/// and each latency percentile stays inside one query class.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    spec: UniversitySpec,
    // Seeded apart from the instance generator, which takes the seed as is.
    rng: StdRng,
    chunks: i64,
    buf: Vec<Op>,
}

impl OpStream {
    /// The stream of `workload` for `seed` over an instance of `spec`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, spec: &UniversitySpec) -> OpStream {
        OpStream {
            workload,
            spec: *spec,
            rng: StdRng::seed_from_u64(seed ^ 0x6f70_735f_7374_7265),
            chunks: 0,
            buf: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let spec = &self.spec;
        let faculty = faculty(spec);
        let rng = &mut self.rng;
        let mut ops: Vec<Op> = match self.workload {
            Workload::Oltp | Workload::Merged => {
                let shift = self.chunks * CHUNK_COURSE_STRIDE;
                university_ops(
                    &MixSpec::default(),
                    CHUNK,
                    spec.courses,
                    spec.departments,
                    faculty,
                    rng,
                )
                .into_iter()
                .map(|mut op| {
                    if let UniversityOp::AddCourse { nr, .. } | UniversityOp::DropCourse { nr } =
                        &mut op
                    {
                        if *nr >= FIRST_NEW_COURSE {
                            *nr += shift;
                        }
                    }
                    Op::University(op)
                })
                .collect()
            }
            Workload::Analytics => {
                let mut block: Vec<Report> = std::iter::repeat_n(Report::DeptOffers(0), 7)
                    .chain(std::iter::repeat_n(Report::OverlapJoin, 6))
                    .chain(std::iter::repeat_n(Report::FacultyLoad(0), 6))
                    .chain([Report::CourseReport])
                    .collect();
                block.shuffle(rng);
                block
                    .into_iter()
                    .map(|report| {
                        Op::Report(match report {
                            Report::DeptOffers(_) => {
                                Report::DeptOffers(rng.gen_range(0..spec.departments.max(1)))
                            }
                            Report::FacultyLoad(_) => Report::FacultyLoad(
                                10_000 + rng.gen_range(0..faculty.max(1) as i64),
                            ),
                            other => other,
                        })
                    })
                    .collect()
            }
        };
        self.chunks += 1;
        // Served back to front by `next`.
        ops.reverse();
        self.buf = ops;
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.buf.is_empty() {
            self.refill();
        }
        self.buf.pop()
    }
}

/// The query an analytics report runs.
#[must_use]
pub(crate) fn report_query(report: Report) -> QueryPlan {
    match report {
        Report::DeptOffers(dept) => QueryPlan::scan("OFFER")
            .join(JoinStep::outer("TEACH", &["O.C.NR"], &["T.C.NR"]))
            .filter(Predicate::eq(
                "O.D.NAME",
                Value::text(format!("dept{dept}")),
            )),
        Report::OverlapJoin => composite_no_index_query(),
        Report::FacultyLoad(ssn) => QueryPlan::scan("COURSE")
            .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
            .join(JoinStep::outer("ASSIST", &["T.C.NR"], &["A.C.NR"]))
            .filter(Predicate::eq("T.F.SSN", Value::Int(ssn))),
        Report::CourseReport => unmerged_scan_query(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_derive_from_the_seed() {
        let spec = university_spec(500);
        let take = |w, seed| OpStream::new(w, seed, &spec).take(3000).collect::<Vec<_>>();
        for w in Workload::ALL {
            assert_eq!(take(w, 7), take(w, 7));
            assert_ne!(take(w, 7), take(w, 8));
        }
    }

    #[test]
    fn chunks_never_add_a_course_twice() {
        let spec = university_spec(500);
        let mut added = std::collections::HashSet::new();
        for op in OpStream::new(Workload::Oltp, 5, &spec).take(5 * CHUNK) {
            if let Op::University(UniversityOp::AddCourse { nr, .. }) = op {
                assert!(added.insert(nr), "course {nr} added twice");
            }
        }
        assert!(added.len() > 5 * CHUNK / 20);
    }

    #[test]
    fn analytics_blocks_hold_the_exact_mix() {
        let ops: Vec<Op> = OpStream::new(Workload::Analytics, 3, &university_spec(500))
            .take(2000)
            .collect();
        let count = |pred: fn(&Report) -> bool| {
            ops.iter()
                .filter(|op| matches!(op, Op::Report(r) if pred(r)))
                .count()
        };
        assert_eq!(count(|r| matches!(r, Report::DeptOffers(_))), 700);
        assert_eq!(count(|r| matches!(r, Report::OverlapJoin)), 600);
        assert_eq!(count(|r| matches!(r, Report::FacultyLoad(_))), 600);
        assert_eq!(count(|r| matches!(r, Report::CourseReport)), 100);
    }
}
