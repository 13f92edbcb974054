//! Regenerates every figure and proposition of the paper, plus the
//! measured B1–B15 experiments recorded in `EXPERIMENTS.md`: the one
//! timing harness of the repository.
//!
//! Usage: `reproduce [<experiment>|all]... [--smoke] [--trace]`
//!
//! The experiments are the names in [`EXPERIMENTS`]; no name means `all`.
//! Each prints its report and writes it to `BENCH_<name>.json`: at the
//! repository root, or under `target/smoke/` with `--smoke`, which shrinks
//! B3, B5 and B8–B15 to a CI-sized scale. `--trace` adds the
//! [`Database::execute_traced`] operator tree of one representative query
//! per query-running experiment. Any other argument exits with status 2.

use std::path::PathBuf;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use relmerge_bench::experiments;
use relmerge_bench::report::{Cell, Report, Row};
use relmerge_core::{
    check_both, check_forward, is_key_relation_semantically, prop51_inds_key_based,
    prop51_keys_non_null, prop52_nna_only, Merge, Merged,
};
use relmerge_eer::{
    classify_generalization, classify_many_one_star, figures, repair, translate, translate_teorey,
    Amenability,
};
use relmerge_engine::{Database, JoinStep, Predicate, QueryPlan};
use relmerge_obs as obs;
use relmerge_relational::{DatabaseState, InclusionDep, Result, Tuple, Value};
use relmerge_workload::{consistent_state, star_schema, StarSpec, StateSpec, University};

/// The command-line options every experiment receives.
#[derive(Debug, Clone, Copy, Default)]
struct Scale {
    /// `--smoke`: run at the CI-sized scale.
    smoke: bool,
    /// `--trace`: append representative operator trees to the report.
    trace: bool,
}

impl Scale {
    /// `smoke` under `--smoke`, `full` otherwise.
    fn pick<T>(self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One runnable experiment.
struct Experiment {
    name: &'static str,
    run: fn(Scale) -> Result<Report>,
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig1",
        run: fig1,
    },
    Experiment {
        name: "fig2",
        run: fig2,
    },
    Experiment {
        name: "fig3",
        run: fig3,
    },
    Experiment {
        name: "fig4",
        run: fig4,
    },
    Experiment {
        name: "fig5",
        run: fig5,
    },
    Experiment {
        name: "fig6",
        run: fig6,
    },
    Experiment {
        name: "fig8",
        run: fig8,
    },
    Experiment {
        name: "fig8matrix",
        run: fig8_matrix,
    },
    Experiment {
        name: "props",
        run: props,
    },
    Experiment {
        name: "b1",
        run: b1,
    },
    Experiment {
        name: "b2",
        run: b2,
    },
    Experiment {
        name: "b3",
        run: b3,
    },
    Experiment {
        name: "b4",
        run: b4,
    },
    Experiment {
        name: "b5",
        run: b5,
    },
    Experiment {
        name: "b6",
        run: b6,
    },
    Experiment {
        name: "b7",
        run: b7,
    },
    Experiment {
        name: "b8",
        run: b8,
    },
    Experiment {
        name: "b9",
        run: b9,
    },
    Experiment {
        name: "b10",
        run: b10,
    },
    Experiment {
        name: "b11",
        run: b11,
    },
    Experiment {
        name: "b12",
        run: b12,
    },
    Experiment {
        name: "b13",
        run: b13,
    },
    Experiment {
        name: "b14",
        run: b14,
    },
    Experiment {
        name: "b15",
        run: b15,
    },
];

fn main() -> ExitCode {
    let mut scale = Scale::default();
    let mut picked: Vec<&str> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => scale.smoke = true,
            "--trace" => scale.trace = true,
            "all" => picked.extend(EXPERIMENTS.iter().map(|e| e.name)),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => picked.push(e.name),
                None => {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                    eprintln!(
                        "reproduce: unknown argument `{name}`\n\
                         experiments: {} all\nflags: --smoke --trace",
                        names.join(" ")
                    );
                    return ExitCode::from(2);
                }
            },
        }
    }
    let mut timings = Vec::new();
    for exp in EXPERIMENTS
        .iter()
        .filter(|e| picked.is_empty() || picked.contains(&e.name))
    {
        let t = obs::timer("reproduce.experiment").field("name", exp.name);
        match run(exp, scale) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("reproduce: {} failed: {e}", exp.name);
                return ExitCode::FAILURE;
            }
        }
        let ms = t.stop() as f64 / 1e6;
        timings.push(
            Row::new()
                .cell("experiment", exp.name)
                .cell("wall_ms", Cell::Num(ms, 1)),
        );
    }
    print!("{}", summary(timings).render(scale.smoke));
    ExitCode::SUCCESS
}

/// Runs `exp`, prints its report and writes its artifact.
fn run(exp: &Experiment, scale: Scale) -> std::result::Result<PathBuf, String> {
    let report = (exp.run)(scale).map_err(|e| e.to_string())?;
    print!("{}", report.render(scale.smoke));
    report
        .emit(exp.name, scale.smoke)
        .map_err(|e| format!("writing its artifact: {e}"))
}

/// The closing report: wall time per experiment and the totals of every
/// counter the instrumented pipeline bumped along the way.
fn summary(mut timings: Vec<Row>) -> Report {
    let total: f64 = timings.iter().map(|r| r.num("wall_ms")).sum();
    timings.push(
        Row::new()
            .cell("experiment", "total")
            .cell("wall_ms", Cell::Num(total, 1)),
    );
    let counters = obs::snapshot_all()
        .counters
        .into_iter()
        .map(|(name, total)| Row::new().cell("counter", name).cell("total", total))
        .collect();
    let mut report = Report::new("Summary");
    report.tables = vec![("wall time", timings), ("counters", counters)];
    report
}

/// The 1,000-course university (seed 42) every `--trace` tree runs
/// against: its merge plan and its unmerged and merged databases.
fn trace_fixture() -> Result<(University, Merged, Database, Database)> {
    let (u, m) = experiments::university_merge(1_000, 42)?;
    let (unmerged, merged) = experiments::university_databases(&u, &m)?;
    Ok((u, m, unmerged, merged))
}

/// Appends the traced operator tree of `plan` on `db` to `report`.
fn trace(report: &mut Report, db: &Database, label: &str, plan: &QueryPlan) -> Result<()> {
    let (_, _, tree) = db.execute_traced(plan)?;
    report.text.push(format!("\n-- trace: {label} --\n{tree}"));
    Ok(())
}

/// Figure 1: the modular (BCNF) translation vs. the Teorey baseline, and
/// the semantic inconsistency the baseline admits.
fn fig1(_: Scale) -> Result<Report> {
    let eer = figures::fig1_eer();
    let rs = translate(&eer)?;
    let t = translate_teorey(&eer)?;
    // The paper's complaint: RS' accepts an employee with a non-null DATE
    // and a null project NR; the paper's null constraint W.DATE E-> W.NR
    // rejects it.
    let mut st = DatabaseState::empty_for(&t.schema)?;
    st.insert(
        "WORKS",
        Tuple::new([Value::Int(1), Value::Null, Value::Date(100)]),
    )?;
    let mut r = Report::new("Figure 1: ER schema, RS (modular) vs RS' (Teorey)");
    r.fields = Row::new()
        .cell("modular_bcnf", rs.is_bcnf())
        .cell("teorey_accepts_null_nr", st.is_consistent(&t.schema)?)
        .cell("repaired_accepts_null_nr", st.is_consistent(&repair(&t)?)?);
    r.text = vec![
        eer.to_string(),
        format!("RS (modular):\n{rs}"),
        format!("RS' (Teorey):\n{}", t.schema),
    ];
    Ok(r)
}

/// Figure 2: Merge(OFFER, TEACH) → ASSIGN, with and without a member
/// key-relation.
fn fig2(_: Scale) -> Result<Report> {
    use relmerge_relational::{
        Attribute, Domain, NullConstraint, RelationScheme, RelationalSchema,
    };
    let mut rs = RelationalSchema::new();
    for (rel, key, other) in [("OFFER", "O.CN", "O.DN"), ("TEACH", "T.CN", "T.FN")] {
        let header = vec![
            Attribute::new(key, Domain::Int),
            Attribute::new(other, Domain::Int),
        ];
        rs.add_scheme(RelationScheme::new(rel, header, &[key])?)?;
        rs.add_null_constraint(NullConstraint::nna(rel, &[key, other]))?;
    }
    let m = Merge::plan_with_synthetic_key(&rs, &["OFFER", "TEACH"], "ASSIGN", &["CN"])?;
    let mut with_ind = rs.clone();
    with_ind.add_ind(InclusionDep::new("TEACH", &["T.CN"], "OFFER", &["O.CN"]))?;
    let m2 = Merge::plan(&with_ind, &["OFFER", "TEACH"], "ASSIGN")?;
    let mut r = Report::new("Figure 2: Merge {OFFER, TEACH} -> ASSIGN");
    r.fields = Row::new()
        .cell("synthetic_key_bcnf", m.schema().is_bcnf())
        .cell("key_relation_bcnf", m2.schema().is_bcnf());
    r.text = vec![
        format!("Input:\n{rs}"),
        format!(
            "No key-relation in the set -> synthetic key CN:\n{}",
            m.schema()
        ),
        format!(
            "With TEACH[T.CN] <= OFFER[O.CN], OFFER is the key-relation (Prop 3.1):\n{}",
            m2.schema()
        ),
    ];
    Ok(r)
}

/// Figure 3: the translation of Figure 7.
fn fig3(_: Scale) -> Result<Report> {
    let eer = figures::fig7_eer();
    let rs = translate(&eer)?;
    let mut r = Report::new("Figure 3: relational translation of the Figure 7 EER schema");
    r.fields = Row::new()
        .cell("bcnf", rs.is_bcnf())
        .cell("key_based_inds_only", rs.key_based_inds_only())
        .cell("nna_only", rs.nna_only());
    r.text = vec![eer.to_string(), rs.to_string()];
    Ok(r)
}

/// Figure 4: Merge(COURSE, OFFER, TEACH) on the Figure 3 schema.
fn fig4(_: Scale) -> Result<Report> {
    let rs = translate(&figures::fig7_eer())?;
    let m = Merge::plan(&rs, &["COURSE", "OFFER", "TEACH"], "COURSE'")?;
    let mut r = Report::new("Figure 4: Merge {COURSE, OFFER, TEACH} -> COURSE'");
    // Paper: O.C.NR is not removable — ASSIST still references it.
    r.fields = Row::new().cell("bcnf", m.schema().is_bcnf()).cell(
        "offer_removable_error",
        m.removable("OFFER")
            .err()
            .map_or_else(String::new, |e| e.to_string()),
    );
    r.text = vec![m.schema().to_string()];
    Ok(r)
}

/// The Figure 5 merge of the whole COURSE chain.
fn course_chain_merge() -> Result<Merged> {
    let rs = translate(&figures::fig7_eer())?;
    Merge::plan(&rs, &["COURSE", "OFFER", "TEACH", "ASSIST"], "COURSE''")
}

/// Figure 5: the four-way merge and its removable keys.
fn fig5(_: Scale) -> Result<Report> {
    let m = course_chain_merge()?;
    let mut r = Report::new("Figure 5: Merge {COURSE, OFFER, TEACH, ASSIST} -> COURSE''");
    // Paper: O.C.NR, T.C.NR, A.C.NR.
    r.fields = Row::new().cell("removable_groups", Cell::list(m.removable_groups()));
    r.text = vec![m.schema().to_string()];
    Ok(r)
}

/// Figure 6: the removal cascade, then an information-capacity round trip
/// on a random 100-course university state.
fn fig6(_: Scale) -> Result<Report> {
    let mut m = course_chain_merge()?;
    m.remove_all_removable()?;
    let mut rng = StdRng::seed_from_u64(9);
    let u = relmerge_workload::generate_university(
        &relmerge_workload::UniversitySpec {
            courses: 100,
            ..Default::default()
        },
        &mut rng,
    )?;
    let report = check_forward(&m, &u.state)?;
    let mut r = Report::new("Figure 6: Remove O.C.NR, T.C.NR, A.C.NR from COURSE''");
    r.fields = Row::new()
        .cell("bcnf", m.schema().is_bcnf())
        .cell("consistent", report.forward_consistent)
        .cell("round_trip", report.forward_round_trip)
        .cell("values_preserved", report.forward_values_preserved);
    r.text = vec![m.schema().to_string()];
    Ok(r)
}

/// Figure 8: amenability classification. Paper: (i),(ii) need general
/// null constraints; (iii),(iv) only NNA.
fn fig8(_: Scale) -> Result<Report> {
    let cases = [
        (
            "8(i) generalization, multi-attribute children",
            classify_generalization(&figures::fig8_i(), "VEHICLE"),
        ),
        (
            "8(ii) many-one star with relationship attributes",
            classify_many_one_star(&figures::fig8_ii(), "PRODUCT"),
        ),
        (
            "8(iii) generalization, single-attribute children",
            classify_generalization(&figures::fig8_iii(), "ACCOUNT"),
        ),
        (
            "8(iv) attribute-less many-one star",
            classify_many_one_star(&figures::fig8_iv(), "COURSE"),
        ),
    ];
    let rows = cases
        .into_iter()
        .map(|(label, g)| {
            let g = g.expect("every Figure 8 structure forms a group");
            let regime = match g.amenability {
                Amenability::NnaOnly => "NNA only",
                Amenability::GeneralNullConstraints => "general null constraints",
            };
            Row::new()
                .cell("structure", label)
                .cell("members", Cell::list(&g.members))
                .cell("regime", regime)
                .cell("failed_conditions", g.violations.join("; "))
        })
        .collect();
    let mut r = Report::new("Figure 8: structures amenable to single-relation representation");
    r.tables.push(("structures", rows));
    Ok(r)
}

/// The §5.1 capability matrix: each Figure 8 structure against each DBMS
/// dialect — does SDT's merging option fire, and through which mechanism
/// is the result maintained? Structures (iii)/(iv) merge everywhere
/// (NNA-only, Prop 5.2); (i)/(ii) merge only where a procedural mechanism
/// or CHECKs exist.
fn fig8_matrix(_: Scale) -> Result<Report> {
    use relmerge_ddl::{run_sdt, Dialect, SdtOption};
    let structures = [
        ("8(i)", figures::fig8_i()),
        ("8(ii)", figures::fig8_ii()),
        ("8(iii)", figures::fig8_iii()),
        ("8(iv)", figures::fig8_iv()),
    ];
    let mut rows = Vec::new();
    for (label, eer) in &structures {
        for dialect in Dialect::ALL {
            let out = run_sdt(eer, SdtOption::Merged, dialect)?;
            rows.push(
                Row::new()
                    .cell("structure", *label)
                    .cell("dialect", dialect.name())
                    .cell("schemes_before", out.scheme_count.0)
                    .cell("schemes_after", out.scheme_count.1)
                    .cell("merges", out.merges_applied)
                    .cell("procedural", out.script.procedural_count())
                    .cell("unsupported", out.script.unsupported().len()),
            );
        }
    }
    let mut r = Report::new("Figure 8 x dialect: what merges where, and at what mechanism cost");
    r.tables.push(("matrix", rows));
    Ok(r)
}

/// Propositions 3.1, 4.1, 4.2, 5.1, 5.2 spot-checked on generated inputs.
fn props(_: Scale) -> Result<Report> {
    let rs = translate(&figures::fig7_eer())?;

    // Prop 3.1: COURSE covers the keys of {OFFER,TEACH,ASSIST} when every
    // course is offered.
    let mut rng = StdRng::seed_from_u64(3);
    let u = relmerge_workload::generate_university(
        &relmerge_workload::UniversitySpec {
            courses: 50,
            offer_ratio: 1.0,
            ..Default::default()
        },
        &mut rng,
    )?;
    let prop31 =
        is_key_relation_semantically(&u.schema, &u.state, "COURSE", &["OFFER", "TEACH", "ASSIST"])?;

    // Prop 4.1 / 4.2 on a random star schema.
    let spec = StarSpec {
        satellites: 3,
        non_key_attrs: 2,
        externals: 0,
    };
    let schema = star_schema(&spec);
    let mut rng = StdRng::seed_from_u64(17);
    let state = consistent_state(&schema, &StateSpec::default(), &mut rng)?;
    let mut merged = Merge::plan(&schema, &["ROOT", "S0", "S1", "S2"], "M")?;
    let prop41 = check_forward(&merged, &state)?.holds();
    let prop41_bcnf = merged.schema().is_bcnf();
    let arity_before = merged.apply(&state)?.relation("M").map_or(0, |r| r.arity());
    merged.remove_all_removable()?;
    let removed = merged.apply(&state)?;
    let prop42 = check_both(&merged, &state, &removed)?.holds();

    // Prop 5.1 / 5.2 on the university chain (Figure 4 vs Figure 5 sets).
    // Paper: 5.1(i) fails for the three-way merge and holds for the
    // four-way one; 5.2 fails on the chain (general constraints remain,
    // Figure 6) and passes on Figure 8(iv)'s star.
    let three = ["COURSE", "OFFER", "TEACH"];
    let four = ["COURSE", "OFFER", "TEACH", "ASSIST"];
    let failures = prop52_nna_only(&rs, &four)?;
    let iv = translate(&figures::fig8_iv())?;
    let mut r = Report::new("Propositions 3.1 / 4.1 / 4.2 / 5.1 / 5.2");
    r.fields = Row::new()
        .cell("prop31_course_is_key_relation", prop31)
        .cell("prop41_star_capacity", prop41)
        .cell("prop41_star_bcnf", prop41_bcnf)
        .cell("prop42_star_capacity", prop42)
        .cell("prop42_arity_before", arity_before)
        .cell(
            "prop42_arity_after",
            removed.relation("M").map_or(0, |r| r.arity()),
        )
        .cell(
            "prop51_three_way_key_based",
            prop51_inds_key_based(&rs, &three)?,
        )
        .cell(
            "prop51_four_way_key_based",
            prop51_inds_key_based(&rs, &four)?,
        )
        .cell(
            "prop51_four_way_keys_non_null",
            prop51_keys_non_null(&rs, &four)?,
        )
        .cell(
            "prop52_chain_failures",
            Cell::list(
                failures
                    .iter()
                    .map(|f| format!("({}, cond {})", f.member, f.condition)),
            ),
        )
        .cell(
            "prop52_fig8iv_failures",
            prop52_nna_only(&iv, &["COURSE", "OFFER", "TEACH"])?.len(),
        );
    Ok(r)
}

/// B1: merged-vs-unmerged query cost.
fn b1(scale: Scale) -> Result<Report> {
    let mut r = experiments::query_speedup(&[100, 1_000, 10_000], 2_000)?;
    if scale.trace {
        let (u, _, unmerged, merged) = trace_fixture()?;
        let nr = u.offered_courses[0];
        let plan = experiments::unmerged_point_query(nr);
        trace(&mut r, &unmerged, "b1 unmerged point query", &plan)?;
        let plan = experiments::merged_point_query(nr);
        trace(&mut r, &merged, "b1 merged point query", &plan)?;
    }
    Ok(r)
}

/// B2: constraint-maintenance cost.
fn b2(_: Scale) -> Result<Report> {
    experiments::maintenance_cost(5_000)
}

/// B3: the cost of `Merge`, `Remove`, the advisor, the planner and η/η′.
fn b3(scale: Scale) -> Result<Report> {
    let (satellites, root_rows): (&[usize], &[usize]) = scale.pick(
        (&[2, 8], &[100, 1_000]),
        (&[2, 8, 32, 128], &[100, 1_000, 10_000]),
    );
    experiments::merge_scaling(satellites, root_rows)
}

/// B4: the effect of `Remove`.
fn b4(_: Scale) -> Result<Report> {
    experiments::remove_effect(&[100, 1_000, 10_000])
}

/// B5: the relational substrate.
fn b5(scale: Scale) -> Result<Report> {
    let sizes: &[usize] = scale.pick(&[1_000], &[1_000, 10_000]);
    experiments::substrate(sizes)
}

/// B6: mixed read-mostly workload, merged vs unmerged.
fn b6(scale: Scale) -> Result<Report> {
    let mut r = experiments::mixed_workload(&[1_000, 10_000], 20_000)?;
    if scale.trace {
        let (_, _, unmerged, _) = trace_fixture()?;
        let plan = experiments::unmerged_by_faculty_query(10_000);
        trace(
            &mut r,
            &unmerged,
            "b6 reverse lookup (courses by faculty)",
            &plan,
        )?;
    }
    Ok(r)
}

/// B7: batched DML with deferred checking vs per-statement application.
fn b7(_: Scale) -> Result<Report> {
    experiments::batch_dml(&[1_000, 10_000], 4_000, 64)
}

/// B8: the morsel-parallel executor, each worker count against
/// workers = 1.
fn b8(scale: Scale) -> Result<Report> {
    let (courses, iters) = scale.pick((4_000, 3), (40_000, 5));
    let mut r = experiments::parallel_query(courses, iters)?;
    if scale.trace {
        let (_, _, unmerged, _) = trace_fixture()?;
        let plan = experiments::unmerged_scan_query();
        trace(
            &mut r,
            &unmerged,
            "b8 chain scan (index-nested-loop joins)",
            &plan,
        )?;
        let plan = experiments::composite_no_index_query();
        trace(
            &mut r,
            &unmerged,
            "b8 composite join (transient hash build)",
            &plan,
        )?;
    }
    Ok(r)
}

/// B9: the fault-torture matrix.
fn b9(scale: Scale) -> Result<Report> {
    let (courses, batch_size) = scale.pick((300, 12), (2_000, 24));
    quietly(|| experiments::fault_torture(courses, batch_size, 11))
}

/// B10: the versioned build-side cache. Every warm run must beat its
/// cold run, and at full scale a multi-worker warm run must be ≥ 2× over
/// the serial cold baseline.
fn b10(scale: Scale) -> Result<Report> {
    let (courses, iters) = scale.pick((4_000, 3), (40_000, 5));
    let mut r = experiments::build_cache_speedup(courses, iters)?;
    let rows = r.table("b10");
    assert!(
        rows.iter().all(|r| r.num("warm_ns") < r.num("cold_ns")),
        "every warm run must beat its cold run: {rows:?}"
    );
    if !scale.smoke {
        assert!(
            rows.iter()
                .any(|r| r.int("workers") > 1 && r.num("speedup") >= 2.0),
            "a multi-worker warm run must be >= 2x over the serial cold \
             baseline at full scale: {rows:?}"
        );
    }
    if scale.trace {
        let (_, _, unmerged, _) = trace_fixture()?;
        let plan = experiments::composite_no_index_query();
        let _ = unmerged.execute(&plan)?; // populate the cache
        trace(
            &mut r,
            &unmerged,
            "b10 composite join, warm (cached build)",
            &plan,
        )?;
    }
    Ok(r)
}

/// B11: durability — WAL overhead, crash truncation, fault sites and the
/// recovery curve.
fn b11(scale: Scale) -> Result<Report> {
    let (courses, n_batches, batch_size) = scale.pick((200, 12, 8), (1_000, 48, 16));
    quietly(|| experiments::wal_torture(courses, n_batches, batch_size, 11))
}

/// B12: concurrent sessions over one shared `Store`.
fn b12(scale: Scale) -> Result<Report> {
    let (courses, ops) = scale.pick((150, 64), (800, 320));
    experiments::concurrent_sessions(courses, ops)
}

/// B13: the online merge advisor end to end. In the full-scale release
/// run the post-merge median latency must drop too.
fn b13(scale: Scale) -> Result<Report> {
    let (courses, n_ops) = scale.pick((500, 600), (10_000, 20_000));
    let mut r = quietly(|| experiments::online_merge(courses, n_ops, 13))?;
    if !scale.smoke && cfg!(not(debug_assertions)) {
        let f = &r.fields;
        assert!(
            f.num("post_median_us") < f.num("pre_median_us"),
            "full-scale post-merge median latency must drop: {f:?}"
        );
    }
    if scale.trace {
        let (u, m, mut db, _) = trace_fixture()?;
        db.migrate(&m)?;
        let plan = experiments::merged_point_query(u.offered_courses[0]);
        trace(
            &mut r,
            &db,
            "b13 merged point query (post-migration)",
            &plan,
        )?;
    }
    Ok(r)
}

/// B14: the workload profiler's hot-join ranking.
fn b14(scale: Scale) -> Result<Report> {
    let (courses, n_ops, top_k) = scale.pick((500, 1_000, 5), (10_000, 20_000, 8));
    let mut r = experiments::workload_profile(courses, n_ops, top_k)?;
    if scale.trace {
        let (_, _, unmerged, _) = trace_fixture()?;
        let plan = experiments::unmerged_point_query(0);
        trace(
            &mut r,
            &unmerged,
            "b14 point query (the hot fingerprint)",
            &plan,
        )?;
    }
    Ok(r)
}

/// B15: predicate pushdown. At full scale the selective chain's
/// structural win must also show on the clock.
fn b15(scale: Scale) -> Result<Report> {
    let (courses, iters) = scale.pick((1_500, 3), (8_000, 5));
    let mut r = experiments::predicate_pushdown(courses, iters)?;
    if !scale.smoke {
        let chain = &r.table("b15")[0];
        assert!(
            chain.num("speedup") > 1.0,
            "pushdown must beat the top-of-plan filter on the selective \
             chain at full scale: {chain:?}"
        );
    }
    if scale.trace {
        let (u, _, unmerged, _) = trace_fixture()?;
        let chain = QueryPlan::scan("COURSE")
            .join(JoinStep::inner("TEACH", &["C.NR"], &["T.C.NR"]))
            .join(JoinStep::inner(
                "ASSIST",
                &["T.C.NR", "T.F.SSN"],
                &["A.C.NR", "A.S.SSN"],
            ))
            .filter(Predicate::eq("T.F.SSN", 10_000_i64));
        let label = "b15 selective chain (Eq pushed to the TEACH probe)";
        trace(&mut r, &unmerged, label, &chain)?;
        let root_eq = QueryPlan::scan("COURSE")
            .join(JoinStep::outer("OFFER", &["C.NR"], &["O.C.NR"]))
            .filter(Predicate::eq("C.NR", u.offered_courses[0]));
        trace(
            &mut r,
            &unmerged,
            "b15 root Eq upgrade (scan -> lookup)",
            &root_eq,
        )?;
    }
    Ok(r)
}

/// Runs `f` with the default panic hook silenced: the fault matrices'
/// panic-mode cells panic inside the engine on purpose, and although each
/// panic is caught and typed, the hook would still print a backtrace line
/// per cell.
fn quietly(f: impl FnOnce() -> Result<Report>) -> Result<Report> {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(default_hook);
    out
}
