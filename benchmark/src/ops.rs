//! The operations the benchmark asks of the program — a join forced
//! through one algorithm, or the front door with the planner choosing —
//! and the check every answer goes through.

use crate::workload::{derive, Fixture, Inputs, Rng, View, ORACLE_SAMPLE};
use textjoin_common::{DocId, Result};
use textjoin_core::{
    fnl, hhnl, hvnl, integrated, parallel, reference, vvm, Algorithm, ExecStats, IoScenario,
    JoinOutcome, JoinResult, OuterDocs, Weighting,
};
use textjoin_obs::{LiveRegistry, Tracer};
use textjoin_query::{executor, Introspect, Value};

/// The four algorithms with the names metrics use for them.
pub const ALGORITHMS: [(Algorithm, &str); 4] = [
    (Algorithm::Hhnl, "hhnl"),
    (Algorithm::Hvnl, "hvnl"),
    (Algorithm::Vvm, "vvm"),
    (Algorithm::Fnl, "fnl"),
];

/// The program's own observability, switched on for one call: its tracer
/// and a live-introspection registry to file the query's ticket in.
pub struct Observed<'a> {
    pub tracer: &'a Tracer,
    pub live: &'a LiveRegistry,
}

/// The workload's join forced through `alg` on `workers` threads.
pub fn forced(
    view: &View<'_>,
    alg: Algorithm,
    workers: usize,
    trace: Option<&Tracer>,
) -> Result<JoinOutcome> {
    let mut spec = view.spec();
    if let Some(t) = trace {
        spec = spec.with_trace(t);
    }
    match (alg, workers) {
        (Algorithm::Hhnl, 1) => hhnl::execute(&spec),
        (Algorithm::Hvnl, 1) => hvnl::execute(&spec, view.inner_inv),
        (Algorithm::Vvm, 1) => vvm::execute(&spec, view.inner_inv, view.outer_inv),
        (Algorithm::Fnl, 1) => fnl::execute(&spec, view.fnl),
        (Algorithm::Hhnl, w) => parallel::execute_hhnl(&spec, w),
        (Algorithm::Hvnl, w) => parallel::execute_hvnl(&spec, view.inner_inv, w),
        (Algorithm::Vvm, w) => parallel::execute_vvm(&spec, view.inner_inv, view.outer_inv, w),
        (Algorithm::Fnl, w) => parallel::execute_fnl(&spec, view.fnl, w),
    }
}

/// What the front door returned, reduced to what can be checked.
pub struct FrontDoor {
    pub chosen: Algorithm,
    pub stats: ExecStats,
    answer: Answer,
}

enum Answer {
    Join(JoinResult),
    /// `(D.Id, Q.Id, SIMILARITY)` tuples, as the SQL front door emits them.
    Rows(Vec<(i64, i64, f64)>),
}

fn tuples(rows: &[Vec<Value>]) -> Option<Vec<(i64, i64, f64)>> {
    rows.iter()
        .map(|row| match row.as_slice() {
            [Value::Int(d), Value::Int(q), Value::Int(s)] => Some((*d, *q, *s as f64)),
            [Value::Int(d), Value::Int(q), Value::Float(s)] => Some((*d, *q, *s)),
            _ => None,
        })
        .collect()
}

/// The front door: `integrated::execute_with_index` with the signature
/// index on offer, or `run_query` where the workload speaks SQL.
pub fn front_door(
    fx: &Fixture,
    workers: usize,
    observed: Option<&Observed<'_>>,
) -> Result<FrontDoor> {
    if let Some((catalog, sql)) = fx.sql() {
        let out = match observed {
            None if workers == 1 => {
                textjoin_query::run_query(catalog, sql, fx.sys, fx.query, IoScenario::Dedicated)?
            }
            None => executor::run_query_with_workers(
                catalog,
                sql,
                fx.sys,
                fx.query,
                IoScenario::Dedicated,
                workers,
            )?,
            Some(o) => {
                let parsed = textjoin_query::parse(sql)?;
                let plan = textjoin_query::planner::plan_with_workers(
                    catalog,
                    &parsed,
                    fx.sys,
                    fx.query,
                    IoScenario::Dedicated,
                    workers,
                )?;
                textjoin_query::execute_plan_introspected(
                    catalog,
                    &plan,
                    fx.sys,
                    fx.query,
                    Some(o.tracer),
                    Introspect {
                        live: o.live,
                        query: sql,
                    },
                )?
            }
        };
        let rows = tuples(&out.rows).ok_or_else(|| {
            textjoin_common::Error::InvalidArgument("front door returned malformed tuples".into())
        })?;
        return Ok(FrontDoor {
            chosen: out.algorithm,
            stats: out.stats,
            answer: Answer::Rows(rows),
        });
    }
    let view = fx.view();
    let mut spec = view.spec();
    let guard = observed.map(|o| {
        o.live.register(
            "benchmark front door",
            "inner/outer",
            "auto",
            None,
            None,
            workers as u64,
        )
    });
    if let (Some(o), Some(g)) = (observed, &guard) {
        spec = spec.with_trace(o.tracer).with_ticket(g.ticket());
    }
    let out = integrated::execute_with_index(
        &spec,
        view.inner_inv,
        view.outer_inv,
        Some(view.fnl),
        IoScenario::Dedicated,
        workers,
    )?;
    Ok(FrontDoor {
        chosen: out.chosen,
        stats: out.outcome.stats,
        answer: Answer::Join(out.outcome.result),
    })
}

/// Counts operations and compares every answer with the workload's
/// reference — the first HHNL result, itself checked against the naive
/// oracle on a seeded sample of outer documents.
pub struct Checker {
    reference: JoinResult,
    reference_rows: Vec<(i64, i64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Runs HHNL once to establish the reference and verifies it against
    /// `reference::naive_join` over the generated documents. Raw-count
    /// scores are integers and do not depend on term numbering, so the
    /// oracle's answer must be *equal*, not close — also on `selective`,
    /// where the catalog renumbered the terms, and on `churn`, where the
    /// oracle sees deleted documents as empty.
    pub fn establish(fx: &Fixture, inputs: &Inputs) -> Checker {
        let view = fx.view();
        let mut checker = Checker {
            reference: JoinResult::default(),
            reference_rows: Vec::new(),
            attempted: 1,
            failed: 0,
        };
        let first = match forced(&view, Algorithm::Hhnl, 1, None) {
            Ok(outcome) => outcome.result,
            Err(e) => {
                eprintln!("reference HHNL run failed: {e}");
                checker.failed += 1;
                return checker;
            }
        };

        let mut ids = view.outer_ids();
        let mut rng = Rng::new(derive(inputs.seed, 0x0a11));
        let mut sample: Vec<DocId> = Vec::new();
        while sample.len() < ORACLE_SAMPLE && !ids.is_empty() {
            sample.push(ids.swap_remove(rng.below(ids.len() as u64) as usize));
        }
        sample.sort_unstable();
        let oracle = reference::naive_join(
            &inputs.oracle_inner,
            &inputs.outer,
            OuterDocs::Selected(&sample),
            inputs.sizes.lambda,
            Weighting::RawCount,
        );
        let agrees = oracle
            .iter()
            .all(|(outer, matches)| first.matches(outer) == Some(matches));
        if !agrees || first.num_outer_docs() != view.outer_ids().len() {
            eprintln!("reference HHNL result disagrees with the naive oracle");
            checker.failed += 1;
        }

        checker.reference_rows = first
            .iter()
            .flat_map(|(outer, matches)| {
                matches
                    .iter()
                    .map(move |m| (m.inner.raw() as i64, outer.raw() as i64, m.score.value()))
            })
            .collect();
        checker.reference = first;
        checker
    }

    fn tally(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts a join; `Err` and any result other than the reference fail.
    pub fn join(&mut self, outcome: &Result<JoinOutcome>) -> bool {
        let ok = matches!(outcome, Ok(o) if o.result == self.reference);
        self.tally(ok)
    }

    /// Counts a bare result (batch and shard hand results back differently).
    pub fn result(&mut self, result: Option<&JoinResult>) -> bool {
        let ok = result == Some(&self.reference);
        self.tally(ok)
    }

    /// Counts a front-door call.
    pub fn front(&mut self, out: &Result<FrontDoor>) -> bool {
        let ok = match out {
            Ok(FrontDoor {
                answer: Answer::Join(r),
                ..
            }) => *r == self.reference,
            Ok(FrontDoor {
                answer: Answer::Rows(rows),
                ..
            }) => *rows == self.reference_rows,
            Err(_) => false,
        };
        self.tally(ok)
    }

    /// The workload's reference result.
    pub fn reference(&self) -> &JoinResult {
        &self.reference
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted as f64
    }
}
