//! A scalable instance of the paper's university domain (Figures 3/7):
//! the workload behind the query-speedup and maintenance-cost benches.

use rand::prelude::*;
use rand::rngs::StdRng;

use relmerge_eer::figures;
use relmerge_relational::{DatabaseState, RelationalSchema, Result, Tuple, Value};

/// Scale parameters for the university workload.
#[derive(Debug, Clone, Copy)]
pub struct UniversitySpec {
    /// Number of courses.
    pub courses: usize,
    /// Number of departments.
    pub departments: usize,
    /// Number of persons; 40% become faculty, 60% students.
    pub persons: usize,
    /// Fraction of courses that are offered.
    pub offer_ratio: f64,
    /// Fraction of offered courses that are taught.
    pub teach_ratio: f64,
    /// Fraction of offered courses with assistants.
    pub assist_ratio: f64,
}

impl Default for UniversitySpec {
    fn default() -> Self {
        UniversitySpec {
            courses: 1000,
            departments: 20,
            persons: 500,
            offer_ratio: 0.8,
            teach_ratio: 0.7,
            assist_ratio: 0.4,
        }
    }
}

/// A generated university instance: the Figure 3 schema plus a consistent
/// state at the requested scale.
#[derive(Debug)]
pub struct University {
    /// The Figure 3 relational schema (translated from Figure 7).
    pub schema: RelationalSchema,
    /// A consistent state.
    pub state: DatabaseState,
    /// Course numbers that are offered (for query key sampling).
    pub offered_courses: Vec<i64>,
}

/// Generates the university instance.
pub fn generate(spec: &UniversitySpec, rng: &mut StdRng) -> Result<University> {
    let schema = relmerge_eer::translate(&figures::fig7_eer())?;
    let mut state = DatabaseState::empty_for(&schema)?;

    let dept_names: Vec<Value> = (0..spec.departments)
        .map(|d| Value::text(format!("dept{d}")))
        .collect();
    for d in &dept_names {
        state.insert("DEPARTMENT", Tuple::new([d.clone()]))?;
    }
    let n_faculty = (spec.persons * 2) / 5;
    let mut faculty_ssns: Vec<i64> = Vec::new();
    let mut student_ssns: Vec<i64> = Vec::new();
    for p in 0..spec.persons {
        let ssn = 10_000 + p as i64;
        state.insert("PERSON", Tuple::new([Value::Int(ssn)]))?;
        if p < n_faculty {
            state.insert("FACULTY", Tuple::new([Value::Int(ssn)]))?;
            faculty_ssns.push(ssn);
        } else {
            state.insert("STUDENT", Tuple::new([Value::Int(ssn)]))?;
            student_ssns.push(ssn);
        }
    }
    let mut offered_courses = Vec::new();
    for c in 0..spec.courses {
        let nr = c as i64;
        state.insert("COURSE", Tuple::new([Value::Int(nr)]))?;
        if rng.gen_bool(spec.offer_ratio) {
            let dept = dept_names.choose(rng).expect("departments nonempty");
            state.insert("OFFER", Tuple::new([Value::Int(nr), dept.clone()]))?;
            offered_courses.push(nr);
            if !faculty_ssns.is_empty() && rng.gen_bool(spec.teach_ratio) {
                let f = *faculty_ssns.choose(rng).expect("nonempty");
                state.insert("TEACH", Tuple::new([Value::Int(nr), Value::Int(f)]))?;
            }
            if !student_ssns.is_empty() && rng.gen_bool(spec.assist_ratio) {
                let s = *student_ssns.choose(rng).expect("nonempty");
                state.insert("ASSIST", Tuple::new([Value::Int(nr), Value::Int(s)]))?;
            }
        }
    }
    Ok(University {
        schema,
        state,
        offered_courses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use relmerge_core::Merge;

    #[test]
    fn generated_state_is_consistent() {
        let mut rng = StdRng::seed_from_u64(42);
        let u = generate(
            &UniversitySpec {
                courses: 200,
                departments: 5,
                persons: 100,
                ..UniversitySpec::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(u.state.is_consistent(&u.schema).unwrap());
        assert_eq!(u.state.relation("COURSE").unwrap().len(), 200);
        let offers = u.state.relation("OFFER").unwrap().len();
        assert_eq!(offers, u.offered_courses.len());
        assert!(offers > 100 && offers < 200);
        assert!(u.state.relation("TEACH").unwrap().len() <= offers);
    }

    #[test]
    fn merges_cleanly_at_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = generate(
            &UniversitySpec {
                courses: 300,
                ..UniversitySpec::default()
            },
            &mut rng,
        )
        .unwrap();
        let mut m = Merge::plan(
            &u.schema,
            &["COURSE", "OFFER", "TEACH", "ASSIST"],
            "COURSE_M",
        )
        .unwrap();
        m.remove_all_removable().unwrap();
        let merged_state = m.apply(&u.state).unwrap();
        assert!(merged_state.is_consistent(m.schema()).unwrap());
        assert_eq!(
            merged_state.relation("COURSE_M").unwrap().len(),
            u.state.relation("COURSE").unwrap().len()
        );
        assert_eq!(m.invert(&merged_state).unwrap(), u.state);
    }
}
