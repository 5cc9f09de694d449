//! Plan execution: run the chosen join algorithm and project result tuples.
//!
//! One verb, [`execute`] (batch: [`execute_batch`]), over one
//! [`ExecOptions`] value: tracing, the drift watchdog and live
//! introspection are fields that compose, and the system and query
//! parameters are read from the plan — what runs is what was planned.

use crate::catalog::{Catalog, Relation, TextColumn, Value};
use crate::parser::parse;
use crate::planner::{plan_query, BatchPlan, Members, OutputCol, Plan, PlanOptions};
use textjoin_common::{Error, QueryParams, Result, Score, SystemParams};
use textjoin_core::integrated::with_fallback;
use textjoin_core::{
    batch, execute_sharded, Algorithm, BatchOutcome, ExecStats, Indexes, IoScenario, JoinOutcome,
    JoinResult, JoinSpec, OuterDocs, ResultQuality, ShardOptions, ShardPartitioning, ShardReport,
    ShardedOutcome,
};
use textjoin_obs::{LiveRegistry, TicketGuard, Tracer};

/// Live-introspection handle for plan execution: where to file the
/// in-flight [`textjoin_obs::QueryTicket`] and the query text `/queries`
/// shows for it. The ticket is registered before the join starts and
/// deregistered by RAII when execution returns — normally, on error, or
/// during a panic unwind — so the registry never leaks entries.
#[derive(Clone, Copy)]
pub struct Introspect<'r> {
    /// Registry the in-flight ticket lives in.
    pub live: &'r LiveRegistry,
    /// Human-readable query text for the ticket (a batch labels its
    /// members `"{query} [k/N]"`).
    pub query: &'r str,
}

/// How to run a plan — the one options value [`execute`] and
/// [`execute_batch`] take. The default runs untraced, unwatched and
/// unregistered; every field composes with every other and with whatever
/// the plan says about shards.
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Open executor spans on this tracer (the `EXPLAIN ANALYZE` path).
    pub trace: Option<&'a Tracer>,
    /// Arm the drift watchdog: the chosen algorithm may spend at most
    /// `drift_factor ×` its (calibrated) predicted page cost. If it
    /// overruns — the prediction was badly optimistic — the run aborts
    /// mid-flight with `Error::CostOverrun` and re-plans onto the
    /// next-cheapest algorithm, which executes unwatched (the budget
    /// belonged to the aborted prediction). Results are identical either
    /// way; only the I/O spent differs. Sharded sites run unwatched.
    pub drift_factor: Option<f64>,
    /// Register the run in a live registry: an in-flight ticket (query
    /// text, pair, algorithm, calibrated prediction, watchdog budget; one
    /// per site when sharded, one per member of a batch) that every executor checkpoint feeds and whose cancel token
    /// the run honours — `/queries/<id>/cancel` stops it with a `Partial`
    /// result, and cancelling one batch member leaves its siblings alone.
    pub introspect: Option<Introspect<'a>>,
}

/// Measured per-site breakdown of a sharded run (`Plan::shards > 1`):
/// what EXPLAIN ANALYZE's shard table compares against
/// [`Plan::shard_plan`]'s predictions.
#[derive(Clone, Debug)]
pub struct ShardExecution {
    /// Per-site drive statistics and shipping, in shard order.
    pub reports: Vec<ShardReport>,
    /// Total pages shipped between sites, blowup included.
    pub shipped_pages: u64,
    /// `β × shipped_pages` — the measured comm term.
    pub comm_cost: f64,
    /// The heaviest site's page cost — the balance metric.
    pub max_shard_pages: f64,
    /// The boundary strategy that ran.
    pub partitioning: ShardPartitioning,
}

impl ShardExecution {
    /// A sharded run as the merged outcome plus everything else it measured.
    pub(crate) fn split(run: ShardedOutcome) -> (JoinOutcome, Self) {
        let tail = Self {
            reports: run.shards,
            shipped_pages: run.shipped_pages,
            comm_cost: run.comm_cost,
            max_shard_pages: run.max_shard_pages,
            partitioning: run.partitioning,
        };
        (run.outcome, tail)
    }
}

/// The result of running a textual-join query.
pub struct QueryOutput {
    /// Column headers, ending with the implicit `SIMILARITY` column.
    pub headers: Vec<String>,
    /// Result tuples: one per `(outer row, matched inner row)` pair, in
    /// outer-row order, best match first.
    pub rows: Vec<Vec<Value>>,
    /// Which algorithm the integrated optimizer executed (after any
    /// fallback re-planning on unreadable storage).
    pub algorithm: Algorithm,
    /// Measured execution statistics.
    pub stats: ExecStats,
    /// Whether degraded-mode execution had to skip unreadable data.
    pub quality: ResultQuality,
    /// Per-site measurements when the plan was sharded (`shards > 1`),
    /// `None` for single-node execution.
    pub sharded: Option<ShardExecution>,
}

/// Parses, plans at [`PlanOptions::new`] and executes at
/// [`ExecOptions::default`]. Pinned by `benchmark/`; delete once it may
/// change.
pub fn run_query(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<QueryOutput> {
    let o = PlanOptions::new(sys, base_query_params, scenario);
    let p = plan_query(catalog, &parse(sql)?, &o)?;
    execute(catalog, &p, &ExecOptions::default())
}

/// [`run_query`]; `_workers` is ignored (every algorithm runs on the
/// calling thread). Pinned by `benchmark/`; delete once it may change.
pub fn run_query_with_workers(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
    _workers: usize,
) -> Result<QueryOutput> {
    run_query(catalog, sql, sys, base_query_params, scenario)
}

/// [`execute`] at [`ExecOptions::default`]; `sys` and the query parameters
/// must be the ones planned for. Pinned by `benchmark/`; delete once it
/// may change.
pub fn execute_plan(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
) -> Result<QueryOutput> {
    p.check_planned_for(sys, base_query_params)?;
    execute(catalog, p, &ExecOptions::default())
}

/// [`execute`] traced and registered; `sys` and the query parameters must
/// be the ones planned for. Pinned by `benchmark/`; delete once it may
/// change.
pub fn execute_plan_introspected(
    catalog: &Catalog,
    p: &Plan,
    sys: SystemParams,
    base_query_params: QueryParams,
    trace: Option<&Tracer>,
    introspect: Introspect<'_>,
) -> Result<QueryOutput> {
    p.check_planned_for(sys, base_query_params)?;
    let mut o = ExecOptions::default();
    (o.trace, o.introspect) = (trace, Some(introspect));
    execute(catalog, p, &o)
}

/// The catalog objects a plan names.
pub(crate) struct Resolved<'c> {
    pub(crate) inner_rel: &'c Relation,
    pub(crate) outer_rel: &'c Relation,
    pub(crate) inner_tc: &'c TextColumn,
    pub(crate) outer_tc: &'c TextColumn,
}

/// Looks the plan's relations and text columns up again. The catalog is
/// outside input here — it may have changed since `plan` ran — so a name
/// that no longer resolves is an error, not a panic.
pub(crate) fn resolve<'c>(catalog: &'c Catalog, p: &Plan) -> Result<Resolved<'c>> {
    let relation = |name: &str| {
        catalog.relation(name).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "planned relation `{name}` is not in the catalog (did it change after planning?)"
            ))
        })
    };
    let text_column = |rel: &'c Relation, rel_name: &str, column: &str| {
        rel.text_column(column).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "planned text column `{rel_name}.{column}` is not in the catalog \
                 (did it change after planning?)"
            ))
        })
    };
    let inner_rel = relation(&p.inner_rel)?;
    let outer_rel = relation(&p.outer_rel)?;
    Ok(Resolved {
        inner_rel,
        outer_rel,
        inner_tc: text_column(inner_rel, &p.inner_rel, &p.inner_column)?,
        outer_tc: text_column(outer_rel, &p.outer_rel, &p.outer_column)?,
    })
}

impl<'c> Resolved<'c> {
    /// The join `p` describes over these collections, under the system and
    /// query parameters it was planned for. Plans of one batch all borrow
    /// the *same* `Collection` values — the identity the batch executors
    /// insist on.
    pub(crate) fn spec(&self, p: &'c Plan) -> JoinSpec<'c> {
        let mut spec = JoinSpec::new(&self.inner_tc.collection, &self.outer_tc.collection)
            .with_sys(p.inputs.sys)
            .with_query(p.inputs.query);
        if let Some(ids) = &p.outer_rows {
            spec = spec.with_outer_docs(OuterDocs::Selected(ids));
        }
        if let Some(ids) = &p.inner_rows {
            spec = spec.with_inner_docs(ids);
        }
        spec
    }

    /// Every index file of the pair.
    pub(crate) fn indexes(&self) -> Indexes<'c> {
        let (inner, outer) = (self.inner_tc, self.outer_tc);
        Indexes::all(&inner.inverted, &outer.inverted, &inner.fnl)
    }
}

/// `Some(pages)` when a prediction is a usable page count for the ticket.
fn finite_pages(pages: f64) -> Option<f64> {
    (pages.is_finite() && pages > 0.0).then_some(pages)
}

/// The watchdog budget `drift_factor × predicted`, when both are usable.
fn watchdog_budget(drift_factor: Option<f64>, predicted: f64) -> Option<f64> {
    let factor = drift_factor.filter(|f| f.is_finite())?;
    finite_pages(predicted).map(|pages| pages * factor)
}

/// Registers `p`'s in-flight ticket before the first page is read: the
/// `C2.col ⋈ C1.col` pair key, `alg`'s calibrated prediction (the progress
/// denominator) and the watchdog budget if armed. A run is one thread.
fn register(
    i: &Introspect<'_>,
    text: &str,
    p: &Plan,
    alg: Algorithm,
    budget: Option<f64>,
) -> TicketGuard {
    let pair = format!(
        "{}.{} ⋈ {}.{}",
        p.outer_rel, p.outer_column, p.inner_rel, p.inner_column
    );
    let predicted = finite_pages(p.prediction(alg).calibrated);
    i.live
        .register(text, pair, alg.to_string(), predicted, budget, 1)
}

/// Attaches what observes a run — tracer, ticket and its cancel token.
fn observed<'a>(
    mut spec: JoinSpec<'a>,
    trace: Option<&'a Tracer>,
    guard: Option<&'a TicketGuard>,
) -> JoinSpec<'a> {
    if let Some(t) = trace {
        spec = spec.with_trace(t);
    }
    if let Some(g) = guard {
        spec = spec
            .with_ticket(g.ticket())
            .with_cancel(g.ticket().cancel_token());
    }
    spec
}

/// Keeps a live ticket honest across a re-plan: new algorithm label, its
/// prediction as the new progress denominator, and no budget (fallbacks
/// run with the watchdog disarmed).
fn relabel(guard: &TicketGuard, p: &Plan, alg: Algorithm) {
    let ticket = guard.ticket();
    ticket.set_algorithm(alg.to_string());
    ticket.set_predicted_pages(finite_pages(p.prediction(alg).calibrated));
    ticket.set_budget_pages(None);
}

/// The multi-site configuration a plan asks for.
pub(crate) fn shard_options(p: &Plan) -> ShardOptions<'static> {
    ShardOptions::new(p.shards)
        .with_partitioning(p.shard_partitioning)
        .with_comm(p.comm)
}

/// Executes a planned query under the system and query parameters it was
/// planned for (`Plan::inputs`): the batch of one, whose batch-level
/// statistics are the query's.
///
/// Runs the plan's choice, across `Plan::shards` sites when sharded. If it
/// dies mid-run on unreadable
/// storage (a corrupt page, an exhausted retry), turns out infeasible in
/// memory or overruns its watchdog budget, the run re-plans onto the
/// remaining feasible algorithms in the plan's own order (cheapest
/// predicted time first). Fallbacks run with the watchdog disarmed: the
/// budget — in pages — was derived from the aborted choice's prediction.
pub fn execute(catalog: &Catalog, p: &Plan, o: &ExecOptions<'_>) -> Result<QueryOutput> {
    let mut batch = run(catalog, p.members(), o)?;
    let mut one = batch.queries.pop().expect("one output per member");
    one.stats = batch.stats;
    Ok(one)
}

/// The one body of [`execute`] and [`execute_batch`]: `N ≥ 1` members run
/// as one shared-scan join, sharded when the one member asks for sites.
fn run(catalog: &Catalog, m: Members<'_>, o: &ExecOptions<'_>) -> Result<BatchQueryOutput> {
    let p0 = (m.plans.first())
        .ok_or_else(|| Error::InvalidArgument("batch plan holds no queries".into()))?;
    let r = resolve(catalog, p0)?;
    let n = m.plans.len();
    // The driver judges a batch against the *sum* of its members' budgets.
    let budget = watchdog_budget(o.drift_factor, m.prediction(m.chosen).calibrated);
    let share = budget.map(|b| b / n as f64);
    // One ticket per member, each with its own cancel token, so one member
    // can be cancelled without touching its siblings. The guards live as
    // long as this function: RAII deregistration covers every exit.
    let mut guards: Vec<TicketGuard> = Vec::new();
    if let Some(i) = &o.introspect {
        for (k, p) in m.plans.iter().enumerate() {
            let text = match n {
                1 => i.query.to_string(),
                _ => format!("{} [{}/{n}]", i.query, k + 1),
            };
            guards.push(register(i, &text, p, m.chosen, share));
        }
    }
    let unwatched: Vec<JoinSpec<'_>> = (m.plans.iter().enumerate())
        .map(|(k, p)| observed(r.spec(p), o.trace, guards.get(k)))
        .collect();
    let specs: Vec<JoinSpec<'_>> = (unwatched.iter())
        .map(|&s| JoinSpec {
            cost_budget: share,
            ..s
        })
        .collect();
    let indexes = r.indexes();
    let sites = shard_options(p0);
    let sites = o.introspect.map_or(sites, |i| sites.with_live(i.live));
    let cost = |alg| m.prediction(alg).total_ns();
    let (algorithm, _, (outcome, mut sharded)) = with_fallback(m.chosen, cost, |alg, failed| {
        let specs = if failed == 0 { &specs } else { &unwatched };
        if failed > 0 {
            for (g, p) in guards.iter().zip(m.plans) {
                relabel(g, p, alg);
            }
        }
        if m.sharded().is_some() {
            let (one, tail) = ShardExecution::split(execute_sharded(&specs[0], alg, &sites)?);
            let stats = one.stats;
            return Ok((
                BatchOutcome {
                    queries: vec![one],
                    stats,
                },
                Some(tail),
            ));
        }
        Ok((batch::execute(alg, specs, &indexes)?, None))
    })?;
    let queries = (m.plans.iter().zip(outcome.queries))
        .map(|(p, q)| {
            let (headers, rows) = project(p, &r, &q.result);
            QueryOutput {
                headers,
                rows,
                algorithm,
                stats: q.stats,
                quality: q.quality,
                sharded: sharded.take(),
            }
        })
        .collect();
    Ok(BatchQueryOutput {
        queries,
        stats: outcome.stats,
        algorithm,
    })
}

/// Projects a join result: one tuple per `(outer row, match)` pair, plus
/// the implicit `SIMILARITY` column.
fn project(p: &Plan, r: &Resolved<'_>, result: &JoinResult) -> (Vec<String>, Vec<Vec<Value>>) {
    let mut headers: Vec<String> = p.output.iter().map(|(h, _)| h.clone()).collect();
    headers.push("SIMILARITY".to_string());
    let mut rows = Vec::with_capacity(result.num_pairs());
    for (outer_doc, matches) in result.iter() {
        for m in matches {
            let mut tuple = Vec::with_capacity(p.output.len() + 1);
            for (_, col) in &p.output {
                let v = match col {
                    OutputCol::Outer(i) => r.outer_rel.value(outer_doc.index(), *i).clone(),
                    OutputCol::Inner(i) => r.inner_rel.value(m.inner.index(), *i).clone(),
                };
                tuple.push(v);
            }
            tuple.push(score_value(m.score));
            rows.push(tuple);
        }
    }
    (headers, rows)
}

/// The result of running a *batch* of textual-join queries with shared
/// scans.
pub struct BatchQueryOutput {
    /// Per-query outputs, in input order. Each query's `stats` carry its
    /// own CPU counters; the shared I/O lives in the batch-level `stats`.
    pub queries: Vec<QueryOutput>,
    /// Batch-level statistics: the real (shared) I/O, cost, memory
    /// high-water and pass counts, with CPU counters summed over queries.
    pub stats: ExecStats,
    /// Which algorithm the whole batch executed (after any fallback).
    pub algorithm: Algorithm,
}

/// Executes a planned batch over its shared textual column pair: the batch
/// engine reads shared structures (inner scans, the inverted-file
/// dictionary, merge cursors) once for all queries. Same body as
/// [`execute`], so the same recovery policy, applied batch-wide: fallbacks
/// are tried in the batch ranking's order (cheapest predicted time first),
/// and the watchdog budget is `drift_factor ×` the chosen algorithm's
/// calibrated batch estimate, in pages, split across the members.
pub fn execute_batch(
    catalog: &Catalog,
    bp: &BatchPlan,
    o: &ExecOptions<'_>,
) -> Result<BatchQueryOutput> {
    run(catalog, bp.members(), o)
}

fn score_value(score: Score) -> Value {
    let v = score.value();
    if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
        Value::Int(v as i64)
    } else {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, RelationBuilder};
    use crate::planner::plan_batch;
    use std::sync::Arc;
    use textjoin_storage::DiskSim;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut c = Catalog::new(disk);
        c.add(
            RelationBuilder::new("Positions")
                .column("P#", ColumnType::Int)
                .column("Title", ColumnType::Str)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Int(1),
                    Value::Str("Database Engineer".into()),
                    Value::Text(
                        "design query engines, storage systems and database indexes".into(),
                    ),
                ])
                .unwrap()
                .row(vec![
                    Value::Int(2),
                    Value::Str("Chef".into()),
                    Value::Text("cook pasta and design recipes daily".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c.add(
            RelationBuilder::new("Applicants")
                .column("SSN", ColumnType::Str)
                .column("Name", ColumnType::Str)
                .column("Years", ColumnType::Int)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("111".into()),
                    Value::Str("Ada".into()),
                    Value::Int(10),
                    Value::Text(
                        "expert in storage systems, database indexes and query engines".into(),
                    ),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("222".into()),
                    Value::Str("Bob".into()),
                    Value::Int(2),
                    Value::Text("pasta cooking, recipes, italian kitchen".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("333".into()),
                    Value::Str("Cam".into()),
                    Value::Int(7),
                    Value::Text("gardening and landscaping".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn paper_base() -> PlanOptions<'static> {
        PlanOptions::new(
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
    }

    fn run_with(c: &Catalog, sql: &str, o: &PlanOptions<'_>) -> QueryOutput {
        let p = plan_query(c, &parse(sql).unwrap(), o).unwrap();
        execute(c, &p, &ExecOptions::default()).unwrap()
    }

    fn run(c: &Catalog, sql: &str) -> QueryOutput {
        run_with(c, sql, &paper_base())
    }

    #[test]
    fn end_to_end_match_quality() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        );
        assert_eq!(
            out.headers,
            vec!["Positions.Title", "Applicants.Name", "SIMILARITY"]
        );
        // Each position gets its one best applicant: Ada for the engineer
        // role, Bob for the chef role.
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::Str("Database Engineer".into()));
        assert_eq!(out.rows[0][1], Value::Str("Ada".into()));
        assert_eq!(out.rows[1][1], Value::Str("Bob".into()));
    }

    #[test]
    fn like_selection_restricts_outer_rows() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Engineer%' and A.Resume SIMILAR_TO(2) P.Job_descr",
        );
        // Only the engineer position participates; it gets up to 2 matches.
        assert!(out
            .rows
            .iter()
            .all(|r| r[0] == Value::Str("Database Engineer".into())));
        assert!(!out.rows.is_empty());
    }

    #[test]
    fn inner_selection_excludes_candidates() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Years >= 5 and A.Resume SIMILAR_TO(3) P.Job_descr",
        );
        // Bob (2 years) can never appear.
        assert!(out.rows.iter().all(|r| r[1] != Value::Str("Bob".into())));
    }

    #[test]
    fn lambda_bounds_matches_per_outer_row() {
        let c = catalog();
        let out = run(
            &c,
            "Select P.P#, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        );
        let per_position_1 = out.rows.iter().filter(|r| r[0] == Value::Int(1)).count();
        assert!(per_position_1 <= 2);
    }

    #[test]
    fn similarity_column_is_appended_and_positive() {
        let c = catalog();
        let out = run(
            &c,
            "Select A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        );
        for row in &out.rows {
            match row.last().unwrap() {
                Value::Int(s) => assert!(*s > 0),
                Value::Float(s) => assert!(*s > 0.0),
                other => panic!("similarity should be numeric, got {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_query_matches_single_node() {
        let c = catalog();
        let sql = "Select P.Title, A.Name From Positions P, Applicants A \
                   Where A.Resume SIMILAR_TO(2) P.Job_descr";
        let single = run(&c, sql);
        for partitioning in [ShardPartitioning::SkewAware, ShardPartitioning::Naive] {
            let o = PlanOptions {
                shards: 2,
                partitioning,
                ..paper_base()
            };
            let sharded = run_with(&c, sql, &o);
            assert_eq!(sharded.headers, single.headers, "{partitioning}");
            assert_eq!(sharded.rows, single.rows, "{partitioning}");
            let sh = sharded.sharded.expect("sharded summary present");
            assert!(!sh.reports.is_empty());
            assert!(sh.shipped_pages > 0, "replicas must cross the wire");
            assert_eq!(sh.partitioning, partitioning);
        }
    }

    #[test]
    fn sharded_query_honours_selections() {
        let c = catalog();
        let sql = "Select P.Title, A.Name From Positions P, Applicants A \
                   Where P.Title like '%Engineer%' and A.Years >= 5 \
                   and A.Resume SIMILAR_TO(2) P.Job_descr";
        let single = run(&c, sql);
        let o = PlanOptions {
            shards: 3,
            ..paper_base()
        };
        assert_eq!(run_with(&c, sql, &o).rows, single.rows);
    }

    #[test]
    fn batch_execution_matches_individual_queries() {
        let c = catalog();
        let sqls = [
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            "Select A.Name From Positions P, Applicants A \
             Where A.Years >= 5 and A.Resume SIMILAR_TO(1) P.Job_descr",
        ];
        let queries: Vec<_> = sqls.iter().map(|s| parse(s).unwrap()).collect();
        let bp = plan_batch(&c, &queries, &paper_base()).unwrap();
        let batch_out = execute_batch(&c, &bp, &ExecOptions::default()).unwrap();
        assert_eq!(batch_out.queries.len(), 3);
        for (sql, q) in sqls.iter().zip(&batch_out.queries) {
            let solo = run(&c, sql);
            assert_eq!(q.headers, solo.headers, "{sql}");
            assert_eq!(q.rows, solo.rows, "{sql}");
        }
        // The batch-level stats carry the real shared I/O.
        assert!(batch_out.stats.io.total_reads() > 0);
        assert_eq!(batch_out.stats.algorithm, batch_out.algorithm);
    }

    #[test]
    fn batch_runs_every_algorithm_to_the_same_tuples() {
        let c = catalog();
        let sqls = [
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        ];
        let queries: Vec<_> = sqls.iter().map(|s| parse(s).unwrap()).collect();
        let mut outputs = Vec::new();
        for force in Algorithm::ALL {
            let mut bp = plan_batch(&c, &queries, &paper_base()).unwrap();
            bp.chosen = force;
            let out = execute_batch(&c, &bp, &ExecOptions::default()).unwrap();
            assert_eq!(out.algorithm, force);
            outputs.push(out.queries.into_iter().map(|q| q.rows).collect::<Vec<_>>());
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn watchdog_overrun_replans_mid_run_onto_next_cheapest_identically() {
        use textjoin_costmodel::{CalibrationProfile, ReportObs};
        let c = catalog();
        let query = parse(
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        )
        .unwrap();
        // A profile ranks in pages; the seed profile is that ranking with
        // no correction, so the fitted one below differs from it only in
        // the factor it fits.
        let seed = CalibrationProfile::seed();
        let uncorrected = PlanOptions {
            profile: Some(&seed),
            ..paper_base()
        };
        let raw = plan_query(&c, &query, &uncorrected).unwrap();
        let baseline = execute(&c, &raw, &ExecOptions::default()).unwrap();
        assert_eq!(baseline.algorithm, raw.chosen);
        // Feedback says the raw runner-up costs 1000× what the model
        // claims on this pair: the calibrated ranking sends it to the back,
        // behind the two algorithms it used to beat.
        let runner_up = raw.predictions[1].algorithm;
        let profile = CalibrationProfile::fit(&[ReportObs {
            pair: raw.pair.clone(),
            algorithm: runner_up.to_string(),
            seq_reads: 1000,
            rand_reads: 0,
            cells: 0,
            wall_ns: 0,
            predicted_cost: Some(1.0),
            measured_cost: 1000.0,
        }]);
        let o = PlanOptions {
            profile: Some(&profile),
            ..paper_base()
        };
        let mut p = plan_query(&c, &query, &o).unwrap();
        assert_eq!(p.chosen, raw.chosen);
        assert_eq!(p.predictions[3].algorithm, runner_up);
        let next = p.predictions[1].algorithm;
        assert!(p.predictions[1].calibrated.is_finite());
        // Seed a gross misprediction: the chosen algorithm claims it needs
        // a fraction of a page. The watchdog budget (1.5 × 0.2 pages) is
        // overrun at the first checkpoint, the executor re-plans onto the
        // next-cheapest algorithm *of the plan's own calibrated ranking*
        // — not the raw dedicated-drive runner-up — and the tuples are
        // byte-identical.
        p.predictions[0].calibrated = 0.2;
        let watch = |drift_factor| ExecOptions {
            drift_factor: Some(drift_factor),
            ..Default::default()
        };
        let watched = execute(&c, &p, &watch(1.5)).unwrap();
        assert_eq!(watched.algorithm, next, "raw runner-up was {runner_up}");
        assert_eq!(watched.rows, baseline.rows);
        assert_eq!(watched.headers, baseline.headers);
        // A sane prediction with generous headroom never trips the guard.
        let unwatched = execute(&c, &p, &watch(f64::INFINITY)).unwrap();
        assert_eq!(unwatched.algorithm, p.chosen);
        assert_eq!(unwatched.rows, baseline.rows);
    }

    /// The batch watchdog and tracer are the same two options: a batch
    /// whose budget is zero re-plans batch-wide onto the next of the batch
    /// ranking, with identical tuples.
    #[test]
    fn batch_honours_trace_and_watchdog() {
        let c = catalog();
        let queries: Vec<_> = [1, 2]
            .iter()
            .map(|l| {
                parse(&format!(
                    "Select P.P#, A.SSN From Positions P, Applicants A \
                     Where A.Resume SIMILAR_TO({l}) P.Job_descr"
                ))
                .unwrap()
            })
            .collect();
        let o = PlanOptions {
            scenario: IoScenario::SharedWorstCase,
            ..paper_base()
        };
        let mut bp = plan_batch(&c, &queries, &o).unwrap();
        // The fallback follows the recorded ranking, whatever the estimates
        // say: make the last of it the cheapest fallback.
        let next = bp.predictions[3].algorithm;
        (bp.predictions[3].io_ns, bp.predictions[3].cpu_ns) = (0.0, 0.0);
        let plain = execute_batch(&c, &bp, &ExecOptions::default()).unwrap();
        assert_eq!(plain.algorithm, bp.chosen);
        let tracer = Tracer::enabled(256);
        let watched = ExecOptions {
            trace: Some(&tracer),
            drift_factor: Some(0.0),
            ..Default::default()
        };
        let out = execute_batch(&c, &bp, &watched).unwrap();
        assert_eq!(out.algorithm, next);
        for (a, b) in out.queries.iter().zip(&plain.queries) {
            assert_eq!(a.rows, b.rows);
        }
        assert!(!tracer.finished().is_empty(), "the batch ran traced");
    }

    /// The catalog is outside input at execute time: a plan made against
    /// one catalog and run against another names things that may be gone.
    /// That is an `InvalidArgument` naming the missing piece, not a panic.
    #[test]
    fn catalog_skew_between_plan_and_execute_is_an_error() {
        let planned_on = catalog();
        let sql = "Select P.P#, A.SSN From Positions P, Applicants A \
                   Where A.Resume SIMILAR_TO(2) P.Job_descr";
        let query = parse(sql).unwrap();
        let p = plan_query(&planned_on, &query, &paper_base()).unwrap();
        let mut bp = plan_batch(&planned_on, std::slice::from_ref(&query), &paper_base()).unwrap();

        // `Applicants` was dropped; `Positions.Job_descr` is no longer text.
        let mut no_applicants = Catalog::new(Arc::new(DiskSim::new(4096)));
        no_applicants
            .add(
                RelationBuilder::new("Positions")
                    .column("P#", ColumnType::Int)
                    .column("Job_descr", ColumnType::Str),
            )
            .unwrap();
        let mut retyped = Catalog::new(Arc::new(DiskSim::new(4096)));
        for name in ["Positions", "Applicants"] {
            retyped
                .add(
                    RelationBuilder::new(name)
                        .column("Job_descr", ColumnType::Str)
                        .column("Resume", ColumnType::Str),
                )
                .unwrap();
        }

        let message = |r: Result<QueryOutput>| match r {
            Err(Error::InvalidArgument(m)) => m,
            Err(e) => panic!("expected InvalidArgument, got {e}"),
            Ok(_) => panic!("expected InvalidArgument, got rows"),
        };
        let o = ExecOptions::default();
        let m = message(execute(&no_applicants, &p, &o));
        assert!(m.contains("Applicants"), "{m}");
        let m = message(execute(&retyped, &p, &o));
        assert!(m.contains("Resume"), "{m}");
        let batch =
            |c: &Catalog, bp: &BatchPlan| execute_batch(c, bp, &o).map(|mut b| b.queries.remove(0));
        let m = message(batch(&no_applicants, &bp));
        assert!(m.contains("Applicants"), "{m}");
        bp.plans.clear();
        let m = message(batch(&planned_on, &bp));
        assert!(m.contains("no queries"), "{m}");
    }

    #[test]
    fn all_three_algorithms_give_the_same_tuples() {
        let c = catalog();
        let query = parse(
            "Select P.P#, A.SSN From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
        )
        .unwrap();
        let mut outputs = Vec::new();
        for force in Algorithm::ALL {
            let mut p = plan_query(&c, &query, &paper_base()).unwrap();
            p.chosen = force;
            let out = execute(&c, &p, &ExecOptions::default()).unwrap();
            assert_eq!(out.algorithm, force);
            outputs.push(out.rows);
        }
        for pair in outputs.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }
}
