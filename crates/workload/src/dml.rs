//! Mixed DML/query operation streams for the university workload — the
//! B6 experiment's input: the same logical operation sequence executed
//! against the unmerged (Figure 3) and merged (`COURSE_M`) databases —
//! plus lowering of the write operations into engine [`Statement`]
//! batches for the batched-DML experiment.

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_engine::Statement;
use relmerge_obs as obs;
use relmerge_relational::{Tuple, Value};

/// One logical operation on the university domain, schema-independent.
#[derive(Debug, Clone, PartialEq)]
pub enum UniversityOp {
    /// Read one course with its offer/teacher/assistant.
    CourseDetail {
        /// The course number probed.
        nr: i64,
    },
    /// Reverse lookup: all courses taught by a faculty member.
    ByFaculty {
        /// The faculty SSN probed.
        ssn: i64,
    },
    /// Register a new course, offered by a department, optionally taught.
    AddCourse {
        /// The new course number.
        nr: i64,
        /// The offering department (index into the generated departments).
        dept: usize,
        /// Teacher SSN, if taught.
        teacher: Option<i64>,
    },
    /// Withdraw a course entirely.
    DropCourse {
        /// The course number dropped.
        nr: i64,
    },
}

/// Ratios of the operation mix (need not sum to 1; they are weighted).
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// Weight of [`UniversityOp::CourseDetail`].
    pub point_reads: f64,
    /// Weight of [`UniversityOp::ByFaculty`].
    pub reverse_reads: f64,
    /// Weight of [`UniversityOp::AddCourse`].
    pub inserts: f64,
    /// Weight of [`UniversityOp::DropCourse`].
    pub deletes: f64,
}

impl Default for MixSpec {
    /// A read-mostly mix (80/10/7/3).
    fn default() -> Self {
        MixSpec {
            point_reads: 0.80,
            reverse_reads: 0.10,
            inserts: 0.07,
            deletes: 0.03,
        }
    }
}

impl MixSpec {
    /// A write-only mix (70% inserts, 30% deletes) — every operation
    /// lowers to statements, so torture harnesses get a dense statement
    /// stream without read-op padding.
    #[must_use]
    pub fn write_only() -> Self {
        MixSpec {
            point_reads: 0.0,
            reverse_reads: 0.0,
            inserts: 0.70,
            deletes: 0.30,
        }
    }
}

/// Parameters of a Zipf-skewed read-only stream ([`skewed_reads`]).
#[derive(Debug, Clone, Copy)]
pub struct SkewSpec {
    /// Zipf exponent: rank-`i` keys draw with weight `1/(i+1)^theta`.
    /// `0.0` degenerates to a uniform mix; `~1.0` is classic Zipf.
    pub theta: f64,
    /// Fraction of the stream that are [`UniversityOp::CourseDetail`]
    /// probes; the remainder are [`UniversityOp::ByFaculty`].
    pub point_share: f64,
}

impl Default for SkewSpec {
    /// Hot-key heavy: Zipf `theta = 1.1`, 75% point reads.
    fn default() -> Self {
        SkewSpec {
            theta: 1.1,
            point_share: 0.75,
        }
    }
}

/// Cumulative Zipf weights over ranks `0..k`: `w(i) = 1/(i+1)^theta`.
fn zipf_cdf(k: usize, theta: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..k.max(1))
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            acc
        })
        .collect()
}

/// Draws a rank from the distribution described by `cdf`.
fn sample_rank(cdf: &[f64], rng: &mut StdRng) -> usize {
    let total = *cdf.last().expect("cdf is non-empty");
    let roll = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    cdf.partition_point(|&c| c <= roll).min(cdf.len() - 1)
}

/// Generates `n` read-only operations whose key popularity is
/// Zipf-skewed: low course numbers and low faculty SSNs are hot, with
/// rank-`i` keys drawn with weight `1/(i+1)^theta`. This is the B14
/// profiler workload — a skewed mix makes the hot-join ranking
/// non-trivial while staying deterministic under the seed.
pub fn skewed_reads(
    spec: &SkewSpec,
    n: usize,
    courses: usize,
    faculty: usize,
    rng: &mut StdRng,
) -> Vec<UniversityOp> {
    obs::global()
        .counter("workload.ops_generated")
        .add(n as u64);
    let course_cdf = zipf_cdf(courses, spec.theta);
    let faculty_cdf = zipf_cdf(faculty, spec.theta);
    (0..n)
        .map(|_| {
            if rng.gen_bool(spec.point_share.clamp(0.0, 1.0)) {
                UniversityOp::CourseDetail {
                    nr: sample_rank(&course_cdf, rng) as i64,
                }
            } else {
                UniversityOp::ByFaculty {
                    ssn: 10_000 + sample_rank(&faculty_cdf, rng) as i64,
                }
            }
        })
        .collect()
}

/// Generates `n` operations over a university instance with `courses`
/// base courses, `departments` departments, and `faculty` teachers
/// (SSNs starting at 10 000). New course numbers start above the base
/// range so inserts never collide with generated data.
pub fn university_ops(
    spec: &MixSpec,
    n: usize,
    courses: usize,
    departments: usize,
    faculty: usize,
    rng: &mut StdRng,
) -> Vec<UniversityOp> {
    obs::global()
        .counter("workload.ops_generated")
        .add(n as u64);
    let total = spec.point_reads + spec.reverse_reads + spec.inserts + spec.deletes;
    let mut next_new = 1_000_000i64;
    let mut added: Vec<i64> = Vec::new();
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            if roll < spec.point_reads {
                UniversityOp::CourseDetail {
                    nr: rng.gen_range(0..courses.max(1) as i64),
                }
            } else if roll < spec.point_reads + spec.reverse_reads {
                UniversityOp::ByFaculty {
                    ssn: 10_000 + rng.gen_range(0..faculty.max(1) as i64),
                }
            } else if roll < spec.point_reads + spec.reverse_reads + spec.inserts {
                let nr = next_new;
                next_new += 1;
                added.push(nr);
                UniversityOp::AddCourse {
                    nr,
                    dept: rng.gen_range(0..departments.max(1)),
                    teacher: if rng.gen_bool(0.5) {
                        Some(10_000 + rng.gen_range(0..faculty.max(1) as i64))
                    } else {
                        None
                    },
                }
            } else {
                // Prefer dropping something we added (known droppable).
                match added.pop() {
                    Some(nr) => UniversityOp::DropCourse { nr },
                    None => UniversityOp::CourseDetail {
                        nr: rng.gen_range(0..courses.max(1) as i64),
                    },
                }
            }
        })
        .collect()
}

/// Lowers one logical write op into its statements against the unmerged
/// (Figure 3) schema, parent-first: a course bundle is `COURSE`, `OFFER`,
/// and optionally `TEACH`; a drop deletes children before the course.
/// Read operations lower to no statements.
#[must_use]
pub fn unmerged_statements(op: &UniversityOp) -> Vec<Statement> {
    match op {
        UniversityOp::CourseDetail { .. } | UniversityOp::ByFaculty { .. } => Vec::new(),
        UniversityOp::AddCourse { nr, dept, teacher } => {
            let nrv = Value::Int(*nr);
            let mut stmts = vec![
                Statement::insert("COURSE", Tuple::new([nrv.clone()])),
                Statement::insert(
                    "OFFER",
                    Tuple::new([nrv.clone(), Value::text(format!("dept{dept}"))]),
                ),
            ];
            if let Some(t) = teacher {
                stmts.push(Statement::insert(
                    "TEACH",
                    Tuple::new([nrv, Value::Int(*t)]),
                ));
            }
            stmts
        }
        UniversityOp::DropCourse { nr } => {
            let key = Tuple::new([Value::Int(*nr)]);
            vec![
                Statement::delete("TEACH", key.clone()),
                Statement::delete("ASSIST", key.clone()),
                Statement::delete("OFFER", key.clone()),
                Statement::delete("COURSE", key),
            ]
        }
    }
}

/// Lowers one logical write op into its statements against the merged
/// `COURSE_M` schema: a course bundle is a single wide insert (assistant
/// always null — `AddCourse` does not assign one), a drop a single delete.
#[must_use]
pub fn merged_statements(op: &UniversityOp) -> Vec<Statement> {
    match op {
        UniversityOp::CourseDetail { .. } | UniversityOp::ByFaculty { .. } => Vec::new(),
        UniversityOp::AddCourse { nr, dept, teacher } => {
            vec![Statement::insert(
                "COURSE_M",
                Tuple::new([
                    Value::Int(*nr),
                    Value::text(format!("dept{dept}")),
                    teacher.map_or(Value::Null, Value::Int),
                    Value::Null,
                ]),
            )]
        }
        UniversityOp::DropCourse { nr } => {
            vec![Statement::delete("COURSE_M", Tuple::new([Value::Int(*nr)]))]
        }
    }
}

/// Splits the write statements of `ops` into batches of at most
/// `batch_size` statements (minimum 1), lowering through `merged` or
/// unmerged form. A logical operation's statements are never split across
/// batches, so every batch is applicable atomically; statement order is
/// preserved, keeping the stream equivalent to per-statement execution.
#[must_use]
pub fn write_batches(ops: &[UniversityOp], merged: bool, batch_size: usize) -> Vec<Vec<Statement>> {
    let cap = batch_size.max(1);
    let mut batches: Vec<Vec<Statement>> = Vec::new();
    let mut current: Vec<Statement> = Vec::new();
    for op in ops {
        let stmts = if merged {
            merged_statements(op)
        } else {
            unmerged_statements(op)
        };
        if stmts.is_empty() {
            continue;
        }
        if !current.is_empty() && current.len() + stmts.len() > cap {
            batches.push(std::mem::take(&mut current));
        }
        current.extend(stmts);
    }
    if !current.is_empty() {
        batches.push(current);
    }
    obs::global()
        .counter("workload.batches_generated")
        .add(batches.len() as u64);
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_ratios_roughly_hold() {
        let mut rng = StdRng::seed_from_u64(1);
        let ops = university_ops(&MixSpec::default(), 10_000, 100, 10, 40, &mut rng);
        let reads = ops
            .iter()
            .filter(|o| matches!(o, UniversityOp::CourseDetail { .. }))
            .count();
        let inserts = ops
            .iter()
            .filter(|o| matches!(o, UniversityOp::AddCourse { .. }))
            .count();
        assert!((7_600..8_400).contains(&reads), "{reads}");
        assert!((500..900).contains(&inserts), "{inserts}");
    }

    #[test]
    fn drops_only_follow_adds() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = MixSpec {
            point_reads: 0.0,
            reverse_reads: 0.0,
            inserts: 0.5,
            deletes: 0.5,
        };
        let ops = university_ops(&spec, 1_000, 10, 2, 5, &mut rng);
        let mut live: std::collections::HashSet<i64> = std::collections::HashSet::new();
        for op in &ops {
            match op {
                UniversityOp::AddCourse { nr, .. } => {
                    assert!(live.insert(*nr), "fresh course numbers only");
                }
                UniversityOp::DropCourse { nr } => {
                    assert!(live.remove(nr), "drop only what was added");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn skewed_reads_are_read_only_skewed_and_deterministic() {
        let spec = SkewSpec::default();
        let ops = skewed_reads(&spec, 4_000, 64, 16, &mut StdRng::seed_from_u64(14));
        assert_eq!(ops.len(), 4_000);
        let mut course_hits = vec![0usize; 64];
        for op in &ops {
            match op {
                UniversityOp::CourseDetail { nr } => {
                    assert!((0..64).contains(nr), "{nr}");
                    course_hits[*nr as usize] += 1;
                }
                UniversityOp::ByFaculty { ssn } => {
                    assert!((10_000..10_016).contains(ssn), "{ssn}");
                }
                other => panic!("write op in read stream: {other:?}"),
            }
        }
        // Zipf theta=1.1 over 64 keys gives the rank-0 key ~21% of the
        // mass; a uniform draw would give ~1.6%.
        let total: usize = course_hits.iter().sum();
        assert!(
            course_hits[0] * 10 > total,
            "hot key got {}/{total}",
            course_hits[0]
        );
        assert!(course_hits[0] > course_hits[63], "skew is rank-ordered");
        let again = skewed_reads(&spec, 4_000, 64, 16, &mut StdRng::seed_from_u64(14));
        assert_eq!(ops, again);
        // theta = 0 degenerates to uniform: the hot key loses its edge.
        let flat = SkewSpec {
            theta: 0.0,
            point_share: 1.0,
        };
        let uops = skewed_reads(&flat, 4_000, 64, 16, &mut StdRng::seed_from_u64(14));
        let hot = uops
            .iter()
            .filter(|o| matches!(o, UniversityOp::CourseDetail { nr: 0 }))
            .count();
        assert!(hot * 10 < 4_000, "uniform hot key got {hot}/4000");
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = MixSpec::default();
        let a = university_ops(&spec, 100, 50, 5, 10, &mut StdRng::seed_from_u64(9));
        let b = university_ops(&spec, 100, 50, 5, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn statement_lowering_shapes() {
        let add = UniversityOp::AddCourse {
            nr: 7,
            dept: 3,
            teacher: Some(10_001),
        };
        let unm = unmerged_statements(&add);
        assert_eq!(unm.len(), 3);
        assert_eq!(unm[0].rel(), "COURSE");
        assert_eq!(unm[1].rel(), "OFFER");
        assert_eq!(unm[2].rel(), "TEACH");
        let mrg = merged_statements(&add);
        assert_eq!(mrg.len(), 1);
        assert_eq!(mrg[0].rel(), "COURSE_M");
        // Untaught course: no TEACH statement.
        let untaught = UniversityOp::AddCourse {
            nr: 8,
            dept: 0,
            teacher: None,
        };
        assert_eq!(unmerged_statements(&untaught).len(), 2);
        // Drops delete children before the course.
        let drop = UniversityOp::DropCourse { nr: 7 };
        let dropped = unmerged_statements(&drop);
        let rels: Vec<&str> = dropped.iter().map(Statement::rel).collect();
        assert_eq!(rels, ["TEACH", "ASSIST", "OFFER", "COURSE"]);
        // Reads lower to nothing.
        assert!(unmerged_statements(&UniversityOp::CourseDetail { nr: 1 }).is_empty());
        assert!(merged_statements(&UniversityOp::ByFaculty { ssn: 1 }).is_empty());
    }

    #[test]
    fn write_batches_respect_size_and_op_atomicity() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = MixSpec {
            point_reads: 0.2,
            reverse_reads: 0.0,
            inserts: 0.6,
            deletes: 0.2,
        };
        let ops = university_ops(&spec, 500, 50, 5, 10, &mut rng);
        let batches = write_batches(&ops, false, 16);
        assert!(!batches.is_empty());
        let total: usize = batches.iter().map(Vec::len).sum();
        let expected: usize = ops.iter().map(|o| unmerged_statements(o).len()).sum();
        assert_eq!(total, expected, "no statement lost or duplicated");
        for b in &batches {
            // An op lowers to at most 4 statements, so a batch can only
            // overflow the cap when a whole op would not fit.
            assert!(b.len() <= 16, "batch of {}", b.len());
            assert!(!b.is_empty());
        }
        // Order is preserved across the concatenation.
        let flat: Vec<Statement> = batches.into_iter().flatten().collect();
        let direct: Vec<Statement> = ops.iter().flat_map(unmerged_statements).collect();
        assert_eq!(flat, direct);
        // Degenerate cap still yields whole-op batches.
        let tiny = write_batches(&ops, true, 0);
        assert!(
            tiny.iter().all(|b| b.len() == 1),
            "merged ops are single statements"
        );
    }
}
