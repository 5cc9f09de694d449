//! The query layer's front door is `plan_query` → `execute` (+ `explain`,
//! `explain_analyze`) over one `PlanOptions` and one `ExecOptions` value.
//! These tests pin what that buys: the options *compose* — every cell of
//! shards × profile × watchdog × introspection returns the tuples plain
//! `run_query` returns — the pre-options signatures kept for `benchmark/`
//! are exactly their general forms (the two that take a worker count
//! ignore it), and a plan runs under the parameters it was planned for or
//! not at all.

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

    for shards in [1, 2] {
        for profile in [None, Some(&profile)] {
            let po = PlanOptions {
                shards,
                profile,
                ..base()
            };
            let p = plan_query(&catalog, &query, &po).unwrap();
            assert_eq!(p.shards, shards);
            for drift_factor in [None, Some(0.0)] {
                for introspect in [false, true] {
                    let cell = format!(
                        "shards={shards} profile={} drift_factor={drift_factor:?} \
                         introspect={introspect}",
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

fn same_plan(a: &Plan, b: &Plan) {
    assert_eq!(a.chosen, b.chosen);
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.shards, b.shards);
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

    // The two forwards that take a worker count ignore it: every algorithm
    // runs on the calling thread, so two workers plan and run as one.
    let general = plan_query(&catalog, &query, &base()).unwrap();
    same_plan(&plan(&catalog, &query, s, qp, sc).unwrap(), &general);
    same_plan(
        &plan_with_workers(&catalog, &query, s, qp, sc, 2).unwrap(),
        &general,
    );

    let ran = execute(&catalog, &general, &ExecOptions::default()).unwrap();
    for forward in [
        run_query(&catalog, SQL, s, qp, sc).unwrap(),
        execute_plan(&catalog, &general, s, qp).unwrap(),
        run_query_with_workers(&catalog, SQL, s, qp, sc, 2).unwrap(),
    ] {
        assert_eq!(forward.rows, ran.rows);
        assert_eq!(forward.algorithm, ran.algorithm);
        assert_eq!(forward.stats.io, ran.stats.io);
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

#[test]
fn analyze_renders_shard_and_calibrated_tables_together() {
    let catalog = catalog();
    let profile = fitted_profile(&catalog);
    let o = PlanOptions {
        shards: 2,
        profile: Some(&profile),
        ..base()
    };
    let out = explain_analyze(&catalog, SQL, &o).unwrap();
    assert_eq!(out.shard_drift.len(), 2);
    assert_eq!(out.sharded.as_ref().map(|s| s.reports.len()), Some(2));
    assert_eq!(out.calibrated.len(), 4);
    assert_eq!(out.drift.len(), 8);
    for section in [
        "shards : S=2",
        "drift (page-cost units",
        "calibrated predictions (",
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
