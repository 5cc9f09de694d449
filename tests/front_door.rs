//! The query layer's front door is `plan_query` → `execute` (+ `explain`,
//! `explain_analyze`) over one `PlanOptions` and one `ExecOptions` value.
//! These tests pin what that buys: the options *compose* — every cell of
//! workers × shards × profile × watchdog × introspection returns the
//! tuples plain `run_query` returns — the pre-options signatures kept for
//! `benchmark/` are exactly their general forms, and a plan runs under the
//! parameters it was planned for or not at all.

use std::sync::Arc;
use textjoin::costmodel::{CalibrationProfile, ReportObs};
use textjoin::obs::{LiveRegistry, Tracer};
use textjoin::prelude::*;
use textjoin::query::executor::{execute_plan, run_query_with_workers};
use textjoin::query::planner::plan_with_workers;
use textjoin::query::{
    execute, execute_plan_introspected, explain, explain_analyze, explain_query, parse, plan,
    plan_query, run_query, ExecOptions, Introspect, Plan, PlanOptions,
};
use textjoin::Error;

const SQL: &str = "Select D.Id, Q.Id From Docs D, Queries Q \
                   Where Q.Id < 40 and D.Body SIMILAR_TO(3) Q.Body";

/// Two relations of 40-word documents over a rotating 200-word vocabulary
/// on 512-byte pages: large enough that every algorithm makes several
/// passes in `sys()`'s buffer, so a zero watchdog budget trips mid-run.
fn catalog() -> Catalog {
    let word = |i: usize| format!("w{:03}", i % 200);
    let mut catalog = Catalog::new(Arc::new(DiskSim::new(512)));
    for (name, rows, stride) in [("Docs", 120, 7), ("Queries", 60, 11)] {
        let mut rel = RelationBuilder::new(name)
            .column("Id", ColumnType::Int)
            .column("Body", ColumnType::Text);
        for r in 0..rows {
            let text: Vec<String> = (0..40).map(|j| word(r * stride + j)).collect();
            rel = rel
                .row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])
                .unwrap();
        }
        catalog.add(rel).unwrap();
    }
    catalog
}

fn sys() -> SystemParams {
    SystemParams {
        buffer_pages: 800,
        page_size: 512,
        alpha: 5.0,
    }
}

fn base() -> PlanOptions<'static> {
    PlanOptions::new(sys(), QueryParams::paper_base(), IoScenario::Dedicated)
}

/// A profile fitted from one measured run of every algorithm on this pair.
fn fitted_profile(catalog: &Catalog) -> CalibrationProfile {
    let measured = explain_analyze(catalog, SQL, &base()).unwrap();
    let observations: Vec<ReportObs> = measured
        .reports
        .iter()
        .map(|r| ReportObs {
            pair: "Docs/Queries".into(),
            algorithm: r.algorithm.to_string(),
            seq_reads: r.pages_read.seq_reads,
            rand_reads: r.pages_read.rand_reads,
            cells: r.cells_touched,
            wall_ns: r.wall_ns,
            predicted_cost: r.predicted_cost,
            measured_cost: r.measured_cost,
        })
        .collect();
    assert_eq!(observations.len(), 4, "every algorithm ran");
    CalibrationProfile::fit(&observations)
}

#[test]
fn every_composition_of_options_returns_run_query_s_tuples() {
    let catalog = catalog();
    let query = parse(SQL).unwrap();
    let want = run_query(
        &catalog,
        SQL,
        sys(),
        QueryParams::paper_base(),
        IoScenario::Dedicated,
    )
    .unwrap();
    assert_eq!(want.rows.len(), 40 * 3);
    let profile = fitted_profile(&catalog);
    let live = LiveRegistry::new();

    for workers in [1, 2] {
        for shards in [1, 2] {
            for profile in [None, Some(&profile)] {
                let po = PlanOptions {
                    workers,
                    shards,
                    profile,
                    ..base()
                };
                let p = plan_query(&catalog, &query, &po).unwrap();
                assert_eq!((p.workers, p.shards), (workers, shards));
                for drift_factor in [None, Some(0.0)] {
                    for introspect in [false, true] {
                        let cell = format!(
                            "workers={workers} shards={shards} profile={} \
                             drift_factor={drift_factor:?} introspect={introspect}",
                            profile.is_some()
                        );
                        let eo = ExecOptions {
                            trace: None,
                            drift_factor,
                            introspect: introspect.then_some(Introspect {
                                live: &live,
                                query: SQL,
                            }),
                        };
                        let got = execute(&catalog, &p, &eo).unwrap();
                        assert_eq!(got.headers, want.headers, "{cell}");
                        assert_eq!(got.rows, want.rows, "{cell}");
                        assert_eq!(got.quality, want.quality, "{cell}");
                        assert_eq!(got.sharded.is_some(), shards > 1, "{cell}");
                        // A zero budget is overrun at the first checkpoint:
                        // the run re-plans. (Sites of a sharded run are
                        // unwatched, so there the choice stands.)
                        let replanned = drift_factor.is_some() && shards == 1;
                        assert_eq!(got.algorithm != p.chosen, replanned, "{cell}");
                        assert!(live.is_empty(), "{cell}: ticket leaked");
                    }
                }
            }
        }
    }
}

fn same_plan(a: &Plan, b: &Plan) {
    assert_eq!(a.chosen, b.chosen);
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!((a.workers, a.shards), (b.workers, b.shards));
    assert_eq!(
        (&a.outer_rows, &a.inner_rows),
        (&b.outer_rows, &b.inner_rows)
    );
    assert_eq!(a.output, b.output);
}

#[test]
fn each_pinned_forward_is_its_general_form() {
    let catalog = catalog();
    let query = parse(SQL).unwrap();
    let (s, qp, sc) = (sys(), QueryParams::paper_base(), IoScenario::Dedicated);
    let two_workers = PlanOptions {
        workers: 2,
        ..base()
    };

    let general = plan_query(&catalog, &query, &base()).unwrap();
    same_plan(&plan(&catalog, &query, s, qp, sc).unwrap(), &general);
    let general_w2 = plan_query(&catalog, &query, &two_workers).unwrap();
    same_plan(
        &plan_with_workers(&catalog, &query, s, qp, sc, 2).unwrap(),
        &general_w2,
    );

    let off = ExecOptions::default();
    let ran = execute(&catalog, &general, &off).unwrap();
    let ran_w2 = execute(&catalog, &general_w2, &off).unwrap();
    for (forward, general) in [
        (run_query(&catalog, SQL, s, qp, sc).unwrap(), &ran),
        (execute_plan(&catalog, &general, s, qp).unwrap(), &ran),
        (
            run_query_with_workers(&catalog, SQL, s, qp, sc, 2).unwrap(),
            &ran_w2,
        ),
    ] {
        assert_eq!(forward.rows, general.rows);
        assert_eq!(forward.algorithm, general.algorithm);
        assert_eq!(forward.stats.io, general.stats.io);
    }

    let live = LiveRegistry::new();
    let introspect = Introspect {
        live: &live,
        query: SQL,
    };
    let (forward_trace, general_trace) = (Tracer::enabled(256), Tracer::enabled(256));
    let forward =
        execute_plan_introspected(&catalog, &general, s, qp, Some(&forward_trace), introspect)
            .unwrap();
    let observed = ExecOptions {
        trace: Some(&general_trace),
        drift_factor: None,
        introspect: Some(introspect),
    };
    let general_run = execute(&catalog, &general, &observed).unwrap();
    assert_eq!(forward.rows, general_run.rows);
    assert_eq!(forward.stats.io, general_run.stats.io);
    let names = |t: &Tracer| -> Vec<&'static str> { t.finished().iter().map(|s| s.name).collect() };
    assert!(!names(&forward_trace).is_empty());
    assert_eq!(names(&forward_trace), names(&general_trace));
    assert!(live.is_empty());

    assert_eq!(
        explain_query(&catalog, SQL, s, qp, sc).unwrap(),
        explain(&catalog, SQL, &base()).unwrap()
    );
}

/// At the parent commit `execute_plan` took `sys` a second time and ran
/// whatever it was handed — silently a different join than the one the
/// plan priced. The plan's own inputs are now what runs.
#[test]
fn a_plan_runs_under_the_parameters_it_was_planned_for_or_not_at_all() {
    let catalog = catalog();
    let qp = QueryParams::paper_base();
    let p = plan_query(&catalog, &parse(SQL).unwrap(), &base()).unwrap();
    let other_sys = SystemParams {
        buffer_pages: 60,
        ..sys()
    };
    let live = LiveRegistry::new();
    let introspect = Introspect {
        live: &live,
        query: SQL,
    };
    for refused in [
        execute_plan(&catalog, &p, other_sys, qp),
        execute_plan(&catalog, &p, sys(), QueryParams { delta: 0.5, ..qp }),
        execute_plan_introspected(&catalog, &p, other_sys, qp, None, introspect),
    ] {
        match refused {
            Err(Error::InvalidArgument(m)) => assert!(m.contains("plan was made for"), "{m}"),
            Err(e) => panic!("expected InvalidArgument, got {e}"),
            Ok(_) => panic!("a disagreeing `sys`/`query` must not run"),
        }
    }
    // λ comes from the query text, so any base λ agrees with the plan.
    assert!(execute_plan(&catalog, &p, sys(), qp.with_lambda(99)).is_ok());
    assert!(live.is_empty());
}

/// `workers` changes how the chosen algorithm runs, never which one is
/// chosen. At the parent commit `workers: 2` ranked on per-worker *elapsed*
/// estimates (the whole join: VVM at 35 pages, where one worker plans FNL
/// at 51) against *summed* measured pages (89), so an armed watchdog fired
/// on a plan that did nothing wrong and the fallback ran outer-partitioned
/// FNL at cost 471 where the sequential run costs 56.
#[test]
fn workers_leave_the_ranking_and_the_watchdog_in_measured_units() {
    let catalog = catalog();
    let whole_join = "Select D.Id, Q.Id From Docs D, Queries Q \
                      Where D.Body SIMILAR_TO(3) Q.Body";
    let two_workers = PlanOptions {
        workers: 2,
        ..base()
    };
    let armed = ExecOptions {
        drift_factor: Some(1.5),
        ..ExecOptions::default()
    };
    let mut chosen = Vec::new();
    for sql in [SQL, whole_join] {
        let query = parse(sql).unwrap();
        let one = plan_query(&catalog, &query, &base()).unwrap();
        let two = plan_query(&catalog, &query, &two_workers).unwrap();
        assert_eq!(two.chosen, one.chosen, "{sql}");
        assert_eq!(two.predictions, one.predictions, "{sql}");

        let ran_one = execute(&catalog, &one, &armed).unwrap();
        let ran_two = execute(&catalog, &two, &armed).unwrap();
        assert_eq!(ran_two.algorithm, two.chosen, "{sql}: the watchdog fired");
        assert_eq!(ran_two.rows, ran_one.rows, "{sql}");
        if two.chosen != Algorithm::Vvm {
            assert_eq!(ran_two.stats.io, ran_one.stats.io, "{sql}");
        }
        chosen.push(two.chosen);
    }
    // Both sides of the knob are covered: VVM splits, FNL does not.
    assert_eq!(chosen, [Algorithm::Vvm, Algorithm::Fnl]);
}

#[test]
fn analyze_renders_scaling_shard_and_calibrated_tables_together() {
    let catalog = catalog();
    let profile = fitted_profile(&catalog);
    let o = PlanOptions {
        workers: 2,
        shards: 2,
        profile: Some(&profile),
        ..base()
    };
    let out = explain_analyze(&catalog, SQL, &o).unwrap();
    // A worker count splits VVM's merge and nothing else: the scaling
    // table exists iff VVM ran, and one line says so otherwise.
    let (scaling, scaling_section): (&[usize], _) = if out.executed == Algorithm::Vvm {
        (&[1, 2], "parallel scaling (")
    } else {
        (&[], "runs one scan on one thread")
    };
    assert_eq!(
        out.scaling.iter().map(|r| r.workers).collect::<Vec<_>>(),
        scaling
    );
    assert_eq!(out.shard_drift.len(), 2);
    assert_eq!(out.sharded.as_ref().map(|s| s.reports.len()), Some(2));
    assert_eq!(out.calibrated.len(), 4);
    assert_eq!(out.drift.len(), 8);
    for section in [
        "shards : S=2",
        "drift (page-cost units",
        "calibrated predictions (",
        scaling_section,
        "shards (S=2, skew-aware",
        "spans (",
    ] {
        assert!(
            out.text.contains(section),
            "no `{section}` in:\n{}",
            out.text
        );
    }
    // The fitted corrections land the calibrated prediction of what ran
    // sequentially on its measurement.
    let row = out
        .calibrated
        .iter()
        .find(|r| r.algorithm == out.executed)
        .unwrap();
    assert!(row.drift_calibrated.unwrap().abs() <= row.drift_raw.unwrap().abs() + 1e-6);
}
