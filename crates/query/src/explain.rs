//! `EXPLAIN` for textual-join queries: show the plan, the pushdown, the
//! six cost estimates and the integrated algorithm's choice — the paper's
//! section 6.1 decision procedure, made visible — and, since the choice is
//! by predicted time, each algorithm's `page_ns × pages` and `cpu_ns` with
//! the term that decided.
//!
//! `EXPLAIN ANALYZE` goes further: it *runs* every feasible algorithm on
//! the actual data, renders the measured execution statistics and the
//! per-phase span timings of the chosen one, and reports the drift of each
//! cost formula — the paper's six (`hhs`/`hhr`/`hvs`/`hvr`/`vvs`/`vvr`)
//! plus the filtered pair (`fns`/`fnr`) — against the measured page
//! traffic: the model-validation experiment of section 6, on demand.
//!
//! Both verbs take the planner's [`PlanOptions`]; shards and a
//! calibration profile each add their own table to one report.

use crate::catalog::Catalog;
use crate::executor::{resolve, shard_options, ShardExecution};
use crate::parser::parse;
use crate::planner::{plan_batch, plan_query, BatchPlan, Members, Plan, PlanOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use textjoin_common::{Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    batch, execute_sharded, ExecStats, JoinOutcome, JoinResult, JoinSpec, QueryReport,
    ResultQuality,
};
use textjoin_costmodel::{Algorithm, CostEstimates, IoScenario, Prediction, Prices};
use textjoin_obs::{MetricValue, Registry, SpanRecord, Tracer};

/// [`explain`] at [`PlanOptions::new`]. Pinned by `benchmark/`; delete
/// once it may change.
pub fn explain_query(
    catalog: &Catalog,
    sql: &str,
    sys: SystemParams,
    base_query_params: QueryParams,
    scenario: IoScenario,
) -> Result<String> {
    explain(
        catalog,
        sql,
        &PlanOptions::new(sys, base_query_params, scenario),
    )
}

/// Plans the query under `o` and renders a human-readable explanation.
pub fn explain(catalog: &Catalog, sql: &str, o: &PlanOptions<'_>) -> Result<String> {
    let p = plan_query(catalog, &parse(sql)?, o)?;
    Ok(render(&p, o.scenario))
}

fn render(p: &Plan, scenario: IoScenario) -> String {
    let sys = p.inputs.sys;
    let mut out = String::new();
    let _ = writeln!(out, "TextualJoin λ={}", p.lambda);
    let _ = writeln!(
        out,
        "  inner  : {}.{} (N={}, T={})",
        p.inner_rel, p.inner_column, p.inputs.inner.num_docs, p.inputs.inner.distinct_terms
    );
    let outer_note = match (&p.outer_rows, &p.inputs.outer_original) {
        (Some(ids), Some(_)) => format!(
            " — selection kept {} of {} rows; random document fetches, inverted file \
             stays full-size",
            ids.len(),
            p.inputs
                .outer_original
                .as_ref()
                .map(|o| o.num_docs)
                .unwrap_or_default()
        ),
        _ => String::new(),
    };
    let _ = writeln!(
        out,
        "  outer  : {}.{} (N={}, T={}){outer_note}",
        p.outer_rel, p.outer_column, p.inputs.outer.num_docs, p.inputs.outer.distinct_terms
    );
    if let Some(ids) = &p.inner_rows {
        let _ = writeln!(
            out,
            "  filter : inner selection keeps {} rows (matches restricted; I/O unchanged)",
            ids.len()
        );
    }
    let _ = writeln!(
        out,
        "  system : B={} pages, P={}B, α={}, q={:.3}",
        sys.buffer_pages, sys.page_size, sys.alpha, p.inputs.q
    );
    let _ = writeln!(
        out,
        "  estimates (sequential | worst-case random, page units):"
    );
    render_estimates(&mut out, &p.estimates, p.chosen);
    let _ = writeln!(
        out,
        "  scenario: {}",
        match scenario {
            IoScenario::Dedicated => "dedicated drives (sequential estimates)",
            IoScenario::SharedWorstCase => "shared device worst case (random estimates)",
        }
    );
    render_ranking(&mut out, &p.predictions, &p.prices, sys.alpha);
    if let Some(sp) = &p.shard_plan {
        let _ = writeln!(
            out,
            "  shards : S={} sites, β={}, {} boundaries (per-site local | shipped pages):",
            sp.shards, p.comm.beta, p.shard_partitioning
        );
        for s in &sp.per_shard {
            let _ = writeln!(
                out,
                "    shard {} f={:.3} {:>12.0} | {:>10.0}",
                s.shard, s.fraction, s.local, s.shipped
            );
        }
        let _ = writeln!(
            out,
            "    merge {:.0} pages; total {:.0}; critical path {:.0} (max shard {:.0})",
            sp.merge_pages, sp.total, sp.elapsed, sp.max_shard
        );
    }
    let _ = writeln!(out, "  output : {}", {
        let mut cols: Vec<&str> = p.output.iter().map(|(h, _)| h.as_str()).collect();
        cols.push("SIMILARITY");
        cols.join(", ")
    });
    out
}

/// One `alg  sequential | worst-case random` line per algorithm.
fn render_estimates(out: &mut String, estimates: &CostEstimates, chosen: Algorithm) {
    for alg in Algorithm::ALL {
        let seq = estimates.cost(alg, IoScenario::Dedicated);
        let rand = estimates.cost(alg, IoScenario::SharedWorstCase);
        let marker = if alg == chosen { " ← chosen" } else { "" };
        let _ = writeln!(out, "    {alg:<5} {seq:>14.0} | {rand:>14.0}{marker}");
    }
}

/// A predicted duration: `fmt_ns`, or `inf` for an infeasible algorithm.
fn fmt_predicted_ns(ns: f64) -> String {
    if ns.is_finite() {
        fmt_ns(ns as u64)
    } else {
        "inf".to_string()
    }
}

/// The ranking the choice was made on, cheapest first: per algorithm its
/// pages, `page_ns × pages`, `cpu_ns` and their sum, then which of the two
/// terms put the winner ahead of the runner-up. Under a calibration
/// profile the currency is pages and there is one column to show.
fn render_ranking(out: &mut String, ranked: &[Prediction], prices: &Prices, alpha: f64) {
    if *prices == Prices::pages_only(alpha) {
        let _ = writeln!(
            out,
            "  ranking (calibrated pages; a profile ranks in pages, CPU not priced):"
        );
        for (i, r) in ranked.iter().enumerate() {
            let marker = if i == 0 { " ← chosen" } else { "" };
            let _ = writeln!(
                out,
                "    {:<5} {:>12.0} → {:>12.0}{marker}",
                r.algorithm, r.raw, r.calibrated
            );
        }
        return;
    }
    let _ = writeln!(
        out,
        "  ranking (predicted time = page_ns × pages + cpu_ns; page_ns={:.0}, α̂={:.2}):",
        prices.seq_page_ns,
        prices.alpha()
    );
    let _ = writeln!(
        out,
        "    {:<5} {:>12} {:>15} {:>10} {:>10}",
        "", "pages", "page_ns × pages", "cpu_ns", "total"
    );
    for (i, r) in ranked.iter().enumerate() {
        let marker = if i == 0 { " ← chosen" } else { "" };
        let _ = writeln!(
            out,
            "    {:<5} {:>12.0} {:>15} {:>10} {:>10}{marker}",
            r.algorithm,
            r.raw,
            fmt_predicted_ns(r.io_ns),
            fmt_predicted_ns(r.cpu_ns),
            fmt_predicted_ns(r.total_ns()),
        );
    }
    if let [first, second, ..] = ranked {
        if second.total_ns().is_finite() {
            let (io, cpu) = (second.io_ns - first.io_ns, second.cpu_ns - first.cpu_ns);
            let (term, gap, other, other_gap) = if cpu >= io {
                ("cpu_ns", cpu, "page_ns × pages", io)
            } else {
                ("page_ns × pages", io, "cpu_ns", cpu)
            };
            let _ = writeln!(
                out,
                "    decided by {term}: {} is {} ahead of {} there ({other}: {}{})",
                first.algorithm,
                fmt_ns(gap as u64),
                second.algorithm,
                if other_gap < 0.0 { "−" } else { "+" },
                fmt_ns(other_gap.abs() as u64),
            );
        }
    }
}

/// Signed percent error `(measured − predicted) / predicted · 100`.
///
/// The ratio is withheld (`None`) when the prediction is degenerate —
/// non-finite, or under one page (empty collection, λ = 0) — *or* when the
/// measurement itself is zero: dividing by a sub-page prediction yields
/// `inf`/`NaN` or meaningless five-digit percentages, and a zero
/// measurement against a real prediction says the run never happened, not
/// that the model was 100% wrong. The sequential, batch and shard drift
/// tables share it. [`QueryReport::drift_pct`] is the other convention:
/// it divides by *measured* — `(measured − predicted)/measured`, the bench
/// grid's column — and withholds only on a missing prediction or a zero
/// measurement, so the same gap reads differently there.
fn drift_ratio(predicted: f64, measured: f64) -> Option<f64> {
    (predicted.is_finite() && predicted >= 1.0 && measured > 0.0)
        .then(|| (measured - predicted) / predicted * 100.0)
}

/// A drift percentage column: `+12.3%`, or `n/a` when withheld.
fn fmt_pct(drift: Option<f64>) -> String {
    drift.map_or_else(|| format!("{:>8}", "n/a"), |e| format!("{e:>+7.1}%"))
}

/// `Ok(None)` when a run died of something that says the *algorithm*
/// cannot be measured here — its estimate was optimistic, or it hit
/// unreadable storage its rivals may not need (a corrupt inverted file
/// does not stop HHNL) — so the report shows the formula as unmeasurable
/// rather than failing the whole ANALYZE.
fn measurable<T>(run: Result<T>) -> Result<Option<T>> {
    match run {
        Ok(out) => Ok(Some(out)),
        Err(Error::InsufficientMemory { .. } | Error::Corrupt(_) | Error::Io { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The formula names per algorithm (`Algorithm::ALL` order), sequential
/// then worst-case random. Each formula takes the batch; a query is the
/// batch of one.
const FORMULAS: [[&str; 2]; 4] = [
    ["hhs", "hhr"],
    ["hvs", "hvr"],
    ["vvs", "vvr"],
    ["fns", "fnr"],
];

/// The eight-row drift table. `measured` gives an algorithm's measured
/// page cost and total pages read, when it ran: the sequential formulas
/// price the run's actual seq/rand page classification (`seq + α·rand`);
/// the worst-case-random formulas price the same page traffic with every
/// read reclassified as random (the paper's interference scenario), i.e.
/// `α · total pages`.
fn drift_rows(
    estimates: &CostEstimates,
    alpha: f64,
    measured: impl Fn(Algorithm) -> Option<(f64, u64)>,
) -> Vec<DriftRow> {
    let mut rows = Vec::with_capacity(8);
    for (algorithm, [seq_name, rand_name]) in Algorithm::ALL.into_iter().zip(FORMULAS) {
        let ran = measured(algorithm);
        for (formula, scenario, measured) in [
            (seq_name, IoScenario::Dedicated, ran.map(|m| m.0)),
            (
                rand_name,
                IoScenario::SharedWorstCase,
                ran.map(|m| alpha * m.1 as f64),
            ),
        ] {
            let predicted = estimates.cost(algorithm, scenario);
            rows.push(DriftRow {
                formula,
                algorithm,
                predicted,
                measured,
                percent_error: measured.and_then(|m| drift_ratio(predicted, m)),
            });
        }
    }
    rows
}

/// Renders drift rows.
fn render_drift(text: &mut String, rows: &[DriftRow]) {
    for row in rows {
        let predicted = if row.predicted.is_finite() {
            format!("{:>12.1}", row.predicted)
        } else if row.predicted.is_infinite() {
            format!("{:>12}", "inf")
        } else {
            format!("{:>12}", "n/a")
        };
        // A measured cost with no ratio: the prediction was zero or
        // non-finite (empty collection, λ = 0), so the division is
        // undefined — `fmt_pct` reports `n/a` rather than inf/NaN.
        let measured = row
            .measured
            .map_or_else(|| format!("{:>12}", "n/a"), |m| format!("{m:>12.1}"));
        let _ = writeln!(
            text,
            "      {} {predicted} vs {measured} {}",
            row.formula,
            fmt_pct(row.percent_error)
        );
    }
}

/// One predicted-vs-measured line of the drift report.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// The formula name: the paper's `hhs`/`hhr`/`hvs`/`hvr`/`vvs`/`vvr`,
    /// or the filter family's `fns`/`fnr`.
    pub formula: &'static str,
    /// The algorithm the formula models.
    pub algorithm: Algorithm,
    /// The formula's prediction in page-cost units (`INFINITY` when the
    /// algorithm is infeasible in the given memory).
    pub predicted: f64,
    /// The measured cost under the same pricing, or `None` when the
    /// algorithm could not run (insufficient memory at run time).
    pub measured: Option<f64>,
    /// Signed percent error `(measured − predicted) / predicted · 100`,
    /// when both sides are available, the prediction is finite and at
    /// least one page, and the measurement is non-zero; withheld and
    /// rendered as `n/a` otherwise.
    pub percent_error: Option<f64>,
}

/// One row of the calibrated-prediction table: the raw formula output,
/// the profile-corrected prediction, and the drift of each against the
/// measured cost — the before/after picture of one calibration round.
#[derive(Clone, Copy, Debug)]
pub struct CalibratedDrift {
    /// The algorithm the predictions rank.
    pub algorithm: Algorithm,
    /// The seed cost formula's sequential-execution prediction under the
    /// planning scenario — what the measured single-worker run is compared
    /// against.
    pub raw: f64,
    /// The prediction after the profile's correction factor.
    pub calibrated: f64,
    /// Drift of the raw prediction vs the measured cost (guards of
    /// [`DriftRow::percent_error`] apply), `None` when the algorithm did
    /// not run.
    pub drift_raw: Option<f64>,
    /// Drift of the calibrated prediction vs the same measurement.
    pub drift_calibrated: Option<f64>,
}

/// One row of the per-shard drift table: what the uniform-fraction
/// [`textjoin_costmodel::ShardPlan`] predicted for a site against what its
/// drive actually did.
#[derive(Clone, Debug)]
pub struct ShardDrift {
    /// Site index.
    pub shard: usize,
    /// Predicted local page cost of this site's slice.
    pub predicted_local: f64,
    /// Predicted pages shipped to assemble this site, blowup included.
    pub predicted_shipped: f64,
    /// Measured page cost on this site's drive (builds excluded).
    pub measured_pages: f64,
    /// Measured pages shipped to or from this site.
    pub measured_shipped: u64,
    /// Signed percent error of the local prediction (guards of
    /// [`DriftRow::percent_error`] apply).
    pub drift_pct: Option<f64>,
    /// Whether this site had to skip unreadable data.
    pub quality: ResultQuality,
}

/// The result of `EXPLAIN ANALYZE`: the rendered report plus the raw
/// numbers it was built from, for programmatic checks.
pub struct AnalyzeOutput {
    /// The full human-readable report.
    pub text: String,
    /// The algorithm the plan chose (and which was traced).
    pub executed: Algorithm,
    /// Measured statistics of the chosen algorithm's run, when feasible:
    /// a batch's shared I/O, cost and passes, with CPU counters summed.
    pub stats: Option<ExecStats>,
    /// Model-vs-measured drift, one row per cost formula.
    pub drift: Vec<DriftRow>,
    /// One resource-accounting report per algorithm that ran (the drift
    /// table and the latency column are derived from these).
    pub reports: Vec<QueryReport>,
    /// Raw-vs-calibrated predictions with before/after drift, one row per
    /// algorithm. Empty unless ANALYZE ran with a calibration profile.
    pub calibrated: Vec<CalibratedDrift>,
    /// Per-shard predicted-vs-measured rows. Empty unless ANALYZE ran
    /// sharded (`shards > 1`).
    pub shard_drift: Vec<ShardDrift>,
    /// The sharded run's measured summary, when ANALYZE ran sharded.
    pub sharded: Option<ShardExecution>,
}

impl AnalyzeOutput {
    /// The drift row for one formula name.
    pub fn row(&self, formula: &str) -> Option<&DriftRow> {
        self.drift.iter().find(|r| r.formula == formula)
    }
}

/// Plans the query under `o`, runs every feasible algorithm against the
/// stored collections, and renders estimates, measured statistics,
/// per-phase span timings and the model-vs-measured drift report. Each
/// further option adds its own table to the same report:
///
/// * `shards > 1` — the chosen algorithm additionally runs on the sharded
///   executor: a per-shard table of predicted
///   ([`textjoin_costmodel::ShardPlan`]) vs measured pages — the drift of
///   the uniform-fraction assumption against what each site's drive did;
/// * a `profile` — a raw-vs-calibrated table showing each formula's drift
///   before and after the correction, the observable effect of one
///   calibration round.
pub fn explain_analyze(catalog: &Catalog, sql: &str, o: &PlanOptions<'_>) -> Result<AnalyzeOutput> {
    let p = plan_query(catalog, &parse(sql)?, o)?;
    analyze(catalog, p.members(), o, render(&p, o.scenario))
}

/// [`explain_analyze`] over a batch of queries that join one column pair,
/// planned by [`plan_batch`] onto one shared-scan algorithm: the same
/// report over the batch estimates, with the amortized pages per query
/// and one line per query added.
pub fn explain_analyze_batch(
    catalog: &Catalog,
    sqls: &[&str],
    o: &PlanOptions<'_>,
) -> Result<AnalyzeOutput> {
    let queries = sqls.iter().map(|s| parse(s)).collect::<Result<Vec<_>>>()?;
    let bp = plan_batch(catalog, &queries, o)?;
    analyze(catalog, bp.members(), o, render_batch(&bp))
}

/// A batch's EXPLAIN: its shared pair, the batch estimates and ranking,
/// and what running the queries one at a time was predicted to cost.
fn render_batch(bp: &BatchPlan) -> String {
    let p0 = &bp.plans[0];
    let mut text = format!("  shared pair: {}\n", p0.column_pair());
    let _ = writeln!(
        text,
        "  batch estimates (sequential | worst-case random, page units):"
    );
    render_estimates(&mut text, &bp.estimates, bp.chosen);
    render_ranking(&mut text, &bp.predictions, &p0.prices, p0.inputs.sys.alpha);
    let batch_predicted = bp.estimates.cost(bp.chosen, bp.scenario);
    if bp.sequential_cost >= 1.0 && batch_predicted.is_finite() {
        let _ = writeln!(
            text,
            "  one-at-a-time estimate: {:.0} (batch predicted {:.0}, saves {:.1}%)",
            bp.sequential_cost,
            batch_predicted,
            (1.0 - batch_predicted / bp.sequential_cost) * 100.0
        );
    }
    text
}

/// The one ANALYZE body, over `N ≥ 1` members below `header` (their
/// EXPLAIN): every feasible algorithm runs over the whole batch, the
/// chosen one traced, and one drift table prices each run. The amortized
/// and per-query lines appear when `N > 1`.
fn analyze(
    catalog: &Catalog,
    m: Members<'_>,
    o: &PlanOptions<'_>,
    header: String,
) -> Result<AnalyzeOutput> {
    let (p0, n) = (&m.plans[0], m.plans.len());
    let alpha = p0.inputs.sys.alpha;
    let r = resolve(catalog, p0)?;
    let indexes = r.indexes();
    let base: Vec<JoinSpec<'_>> = m.plans.iter().map(|p| r.spec(p)).collect();

    // Run each feasible algorithm once. The plan's choice runs with the
    // tracer attached so its phase spans appear in the report — and, since
    // the tracer carries a registry, every span feeds the `span.wall_ns`
    // latency histograms the report's latency section reads back.
    let registry = Arc::new(Registry::new());
    let tracer = Tracer::with_registry(1024, Arc::clone(&registry));
    let mut chosen = None;
    let mut reports: Vec<QueryReport> = Vec::new();
    for alg in Algorithm::ALL {
        let predicted = m.estimates.cost(alg, IoScenario::Dedicated);
        if predicted.is_infinite() {
            continue;
        }
        let trace = (alg == m.chosen).then_some(&tracer);
        let specs: Vec<JoinSpec<'_>> = (base.iter())
            .map(|&s| trace.map_or(s, |t| s.with_trace(t)))
            .collect();
        let Some(out) = measurable(batch::execute(alg, &specs, &indexes))? else {
            continue;
        };
        // The report prices the whole batch: its shared statistics. No
        // cancel token is set here, so only a skip makes a run `Partial`,
        // and the batch statistics count every member's skips.
        let whole = JoinOutcome {
            result: JoinResult::default(),
            stats: out.stats,
            quality: out.stats.quality(),
        };
        reports.push(QueryReport::from_outcome(
            format!("explain-analyze {alg}"),
            &whole,
            trace,
            Some(predicted),
        ));
        if alg == m.chosen {
            chosen = Some(out);
        }
    }
    let stats = chosen.as_ref().map(|b| b.stats);
    let report = |alg: Algorithm| reports.iter().find(|r| r.algorithm == alg);

    // Sharded run: execute the chosen algorithm on the multi-site path and
    // line each site's measured drive cost up against the uniform-fraction
    // prediction the plan carries — per-shard drift, the distributed
    // analogue of the formula drift table below.
    let mut shard_drift: Vec<ShardDrift> = Vec::new();
    let mut sharded: Option<ShardExecution> = None;
    if let Some(p) = m.sharded() {
        if let Some(run) = measurable(execute_sharded(&base[0], m.chosen, &shard_options(p)))? {
            let (_, tail) = ShardExecution::split(run);
            let predicted = p.shard_plan.iter().flat_map(|sp| &sp.per_shard);
            shard_drift = predicted
                .zip(&tail.reports)
                .map(|(cost, rep)| ShardDrift {
                    shard: rep.shard,
                    predicted_local: cost.local,
                    predicted_shipped: cost.shipped,
                    measured_pages: rep.pages_io,
                    measured_shipped: rep.shipped_pages,
                    drift_pct: drift_ratio(cost.local, rep.pages_io),
                    quality: rep.quality,
                })
                .collect();
            sharded = Some(tail);
        }
    }

    // Drift, derived from the per-run QueryReports.
    let drift = drift_rows(m.estimates, alpha, |alg| {
        report(alg).map(|r| (r.measured_cost, r.pages_read.total_reads()))
    });

    // Raw vs calibrated: what the profile's correction factor does to the
    // drift of each seed formula — before and after.
    let calibrated: Vec<CalibratedDrift> = (o.profile.iter())
        .flat_map(|profile| {
            Algorithm::ALL.map(|algorithm| {
                let raw = m.estimates.cost(algorithm, o.scenario);
                let calibrated = profile.calibrated_cost(&p0.pair, algorithm, raw);
                let measured = report(algorithm).map(|r| r.measured_cost);
                CalibratedDrift {
                    algorithm,
                    raw,
                    calibrated,
                    drift_raw: measured.and_then(|m| drift_ratio(raw, m)),
                    drift_calibrated: measured.and_then(|m| drift_ratio(calibrated, m)),
                }
            })
        })
        .collect();

    let mut text = String::from("EXPLAIN ANALYZE");
    if n > 1 {
        let _ = write!(text, " BATCH (N={n})");
    }
    text.push('\n');
    text.push_str(&header);
    let _ = writeln!(text, "  analyze:");
    match &stats {
        Some(s) => {
            let _ = writeln!(text, "    executed {s}");
        }
        None => {
            let _ = writeln!(
                text,
                "    executed {}: infeasible at run time (insufficient memory)",
                m.chosen
            );
        }
    }
    if let Some(out) = chosen.as_ref().filter(|_| n > 1) {
        let total_pages = out.stats.io.total_reads();
        let _ = writeln!(
            text,
            "    amortized: {:.1} pages I/O per query ({total_pages} total over {n} queries)",
            total_pages as f64 / n as f64
        );
        let _ = writeln!(text, "    per query (CPU counters; I/O is shared):");
        for (i, (p, q)) in m.plans.iter().zip(&out.queries).enumerate() {
            let _ = writeln!(
                text,
                "      q{i} λ={} rows={} sim_ops={} cells={} quality={:?}",
                p.lambda,
                q.result.num_pairs(),
                q.stats.sim_ops,
                q.stats.cells_touched,
                q.quality,
            );
        }
    }
    let _ = writeln!(
        text,
        "    drift (page-cost units; % = (measured − predicted)/predicted):"
    );
    render_drift(&mut text, &drift);
    if !calibrated.is_empty() {
        let _ = writeln!(
            text,
            "    calibrated predictions (raw → calibrated; drift before → after):"
        );
        for row in &calibrated {
            let _ = writeln!(
                text,
                "      {:<5} {:>12.1} → {:>12.1}  drift {} → {}",
                row.algorithm,
                row.raw,
                row.calibrated,
                fmt_pct(row.drift_raw),
                fmt_pct(row.drift_calibrated),
            );
        }
    }
    // Latency: per-algorithm wall time from the reports, then percentile
    // summaries of the chosen run's per-phase `span.wall_ns` histograms
    // (the registry-backed tracer filled them as each span finished).
    let timed = p0.prices != Prices::pages_only(alpha);
    let _ = writeln!(
        text,
        "    latency (wall time per algorithm{}):",
        if timed { ", measured vs predicted" } else { "" }
    );
    for alg in Algorithm::ALL {
        let wall = report(alg).map_or_else(|| "n/a".to_string(), |r| fmt_ns(r.wall_ns));
        let _ = write!(text, "      {alg:<5} {wall}");
        if timed {
            let predicted = fmt_predicted_ns(m.prediction(alg).total_ns());
            let _ = write!(text, " vs {predicted}");
        }
        text.push('\n');
    }
    let mut span_hists: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "span.wall_ns")
        .collect();
    span_hists.sort_by(|a, b| a.label.cmp(&b.label));
    if !span_hists.is_empty() {
        let _ = writeln!(
            text,
            "    phase latency ({} only; p50 / p99 / max):",
            m.chosen
        );
        for s in &span_hists {
            if let MetricValue::Histogram(h) = &s.value {
                let _ = writeln!(
                    text,
                    "      {:<20} {} / {} / {} ({} samples)",
                    s.label,
                    fmt_ns(h.quantile(0.5)),
                    fmt_ns(h.quantile(0.99)),
                    fmt_ns(h.max),
                    h.count,
                );
            }
        }
    }
    // Prefetch counters the chosen (traced) run registered per scan phase.
    let mut prefetch: HashMap<String, [u64; 3]> = HashMap::new();
    for s in registry.snapshot() {
        let slot = match s.name {
            "prefetch.issued" => 0,
            "prefetch.hits" => 1,
            "prefetch.wasted" => 2,
            _ => continue,
        };
        if let MetricValue::Counter(v) = s.value {
            prefetch.entry(s.label.clone()).or_default()[slot] = v;
        }
    }
    if !prefetch.is_empty() {
        let mut labels: Vec<&String> = prefetch.keys().collect();
        labels.sort();
        let _ = writeln!(
            text,
            "    prefetch ({} only; issued / hits / wasted pages):",
            m.chosen
        );
        for label in labels {
            let c = prefetch[label];
            let _ = writeln!(text, "      {:<20} {} / {} / {}", label, c[0], c[1], c[2]);
        }
    }
    if let Some(sh) = &sharded {
        let _ = writeln!(
            text,
            "    shards (S={}, {}; per-site local predicted vs measured pages):",
            sh.reports.len(),
            sh.partitioning
        );
        for row in &shard_drift {
            let err = fmt_pct(row.drift_pct);
            let _ = writeln!(
                text,
                "      shard {} {:>10.1} vs {:>10.1} {err}  shipped {:>6.0} vs {:<6}  {}",
                row.shard,
                row.predicted_local,
                row.measured_pages,
                row.predicted_shipped,
                row.measured_shipped,
                row.quality,
            );
        }
        let predicted_max = p0.shard_plan.as_ref().map_or(f64::NAN, |sp| sp.max_shard);
        let _ = writeln!(
            text,
            "      max shard {:.1} (predicted {predicted_max:.1}); shipped {} pages, \
             comm cost {:.1}",
            sh.max_shard_pages, sh.shipped_pages, sh.comm_cost,
        );
    }
    let _ = writeln!(text, "    spans ({} recorded):", tracer.finished().len());
    render_span_tree(&mut text, &tracer.finished());

    Ok(AnalyzeOutput {
        text,
        executed: m.chosen,
        stats,
        drift,
        reports,
        calibrated,
        shard_drift,
        sharded,
    })
}

/// Human-scale nanosecond formatting for the latency report.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders finished spans as an indented tree (roots first, children by
/// start time).
fn render_span_tree(out: &mut String, spans: &[SpanRecord]) {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_us, s.id));
    }
    fn rec(out: &mut String, children: &HashMap<u64, Vec<&SpanRecord>>, id: u64, depth: usize) {
        let Some(kids) = children.get(&id) else {
            return;
        };
        for s in kids {
            let _ = write!(
                out,
                "      {:indent$}{} {}µs",
                "",
                s.name,
                s.dur_us,
                indent = depth * 2
            );
            if !s.detail.is_empty() {
                let _ = write!(out, " — {}", s.detail);
            }
            for (k, v) in &s.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            rec(out, children, s.id, depth + 1);
        }
    }
    rec(out, &children, 0, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnType, RelationBuilder, Value};
    use crate::executor::{execute, execute_batch, ExecOptions};
    use std::sync::Arc;
    use textjoin_core::ShardPartitioning;
    use textjoin_costmodel::CalibrationProfile;

    fn paper_base() -> PlanOptions<'static> {
        PlanOptions::new(
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
    }
    use textjoin_storage::DiskSim;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskSim::new(4096));
        let mut c = Catalog::new(disk);
        c.add(
            RelationBuilder::new("Positions")
                .column("Title", ColumnType::Str)
                .column("Job_descr", ColumnType::Text)
                .row(vec![
                    Value::Str("Engineer".into()),
                    Value::Text("databases and queries".into()),
                ])
                .unwrap()
                .row(vec![
                    Value::Str("Chef".into()),
                    Value::Text("cooking pasta".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c.add(
            RelationBuilder::new("Applicants")
                .column("Name", ColumnType::Str)
                .column("Resume", ColumnType::Text)
                .row(vec![
                    Value::Str("Ada".into()),
                    Value::Text("databases, queries, indexes".into()),
                ])
                .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn explain_names_plan_pieces_and_choice() {
        let c = catalog();
        let text = explain_query(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Eng%' and A.Resume SIMILAR_TO(3) P.Job_descr",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .unwrap();
        assert!(text.contains("TextualJoin λ=3"), "{text}");
        assert!(text.contains("inner  : Applicants.Resume"), "{text}");
        assert!(text.contains("outer  : Positions.Job_descr"), "{text}");
        assert!(text.contains("selection kept 1 of 2 rows"), "{text}");
        assert!(text.contains("← chosen"), "{text}");
        assert!(text.contains("HHNL") && text.contains("HVNL") && text.contains("VVM"));
        assert!(text.contains("SIMILARITY"));
        // Why: one row per algorithm with both time terms and their sum,
        // cheapest first, and the term that put the winner ahead.
        let ranking: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("ranking (predicted time = page_ns × pages + cpu_ns"))
            .skip(2)
            .take(5)
            .collect();
        assert!(ranking[0].ends_with("← chosen"), "{text}");
        for row in &ranking[..4] {
            assert!(row.split_whitespace().count() >= 5, "{row}");
        }
        assert!(ranking[4].trim_start().starts_with("decided by "), "{text}");
        assert!(
            ranking[4].contains("cpu_ns") && ranking[4].contains("page_ns × pages"),
            "{text}"
        );
    }

    /// A catalog big enough that per-scan seeks and final-page ceilings
    /// are noise next to the sequential page counts the formulas predict.
    /// Every document gets exactly `words_per_doc` distinct words drawn
    /// from a shared rotating vocabulary.
    fn big_catalog(
        page_size: usize,
        inner_rows: usize,
        outer_rows: usize,
        words_per_doc: usize,
        vocab: usize,
    ) -> Catalog {
        assert!(words_per_doc <= vocab, "rows must hold distinct words");
        let word = |i: usize| format!("w{:03}", i % vocab);
        let disk = Arc::new(DiskSim::new(page_size));
        let mut c = Catalog::new(disk);
        let mut docs = RelationBuilder::new("Docs")
            .column("Id", ColumnType::Int)
            .column("Body", ColumnType::Text);
        for r in 0..inner_rows {
            let text: Vec<String> = (0..words_per_doc).map(|j| word(r * 7 + j)).collect();
            docs = docs
                .row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])
                .unwrap();
        }
        c.add(docs).unwrap();
        let mut queries = RelationBuilder::new("Queries")
            .column("Id", ColumnType::Int)
            .column("Body", ColumnType::Text);
        for r in 0..outer_rows {
            let text: Vec<String> = (0..words_per_doc).map(|j| word(r * 11 + 3 + j)).collect();
            queries = queries
                .row(vec![Value::Int(r as i64), Value::Text(text.join(" "))])
                .unwrap();
        }
        c.add(queries).unwrap();
        c
    }

    #[test]
    fn analyze_drift_under_ten_percent_for_hhnl_and_vvm() {
        // Page-format v2 adds a checksummed header, but it is stored out of
        // band (payload capacity per page is unchanged), so the paper's
        // page-count formulas — and these drift bounds — survive the format
        // migration untouched. This assertion pins the expectation: if a
        // future format revision moves the header in band, the formulas (and
        // this test's tolerance) must be revisited together.
        assert_eq!(textjoin_storage::PAGE_FORMAT_VERSION, 2);
        let c = big_catalog(512, 200, 100, 60, 300);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            &PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated),
        )
        .unwrap();
        for formula in ["hhs", "vvs"] {
            let row = out.row(formula).expect("row exists");
            let err = row
                .percent_error
                .unwrap_or_else(|| panic!("{formula} did not run: {:?}", row.measured));
            assert!(
                err.abs() < 10.0,
                "{formula}: predicted {:.1}, measured {:?}, drift {err:+.1}%",
                row.predicted,
                row.measured,
            );
        }
    }

    #[test]
    fn explain_renders_the_shard_plan_table() {
        let c = catalog();
        let query = parse(
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(1) P.Job_descr",
        )
        .unwrap();
        let o = PlanOptions {
            shards: 4,
            ..paper_base()
        };
        let text = render(&plan_query(&c, &query, &o).unwrap(), o.scenario);
        assert!(text.contains("shards : S=4"), "{text}");
        assert!(text.contains("shard 0 f=0.250"), "{text}");
        assert!(text.contains("critical path"), "{text}");
        // Single-node plans stay shard-free.
        let o1 = paper_base();
        let text1 = render(&plan_query(&c, &query, &o1).unwrap(), o1.scenario);
        assert!(!text1.contains("shards :"), "{text1}");
    }

    #[test]
    fn sharded_analyze_reports_per_shard_drift() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let o = PlanOptions {
            shards: 2,
            partitioning: ShardPartitioning::SkewAware,
            ..PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated)
        };
        let out = explain_analyze(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            &o,
        )
        .unwrap();
        let sh = out.sharded.as_ref().expect("sharded run happened");
        assert_eq!(sh.reports.len(), 2);
        assert!(sh.shipped_pages > 0);
        assert_eq!(out.shard_drift.len(), 2);
        for row in &out.shard_drift {
            assert!(row.predicted_local.is_finite());
            assert!(row.measured_pages > 0.0, "shard {} read nothing", row.shard);
        }
        assert!(out.text.contains("shards (S=2, skew-aware"), "{}", out.text);
        assert!(out.text.contains("max shard"), "{}", out.text);
    }

    #[test]
    fn degenerate_spec_reports_drift_as_na_never_inf_or_nan() {
        // A selection keeping zero outer rows makes several predicted
        // costs zero; the drift ratio is then undefined and must render
        // as `n/a`, never as inf or NaN.
        let c = catalog();
        let out = explain_analyze(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where P.Title like '%Nomatch%' and A.Resume SIMILAR_TO(2) P.Job_descr",
            &PlanOptions::new(
                SystemParams::paper_base(),
                QueryParams::paper_base(),
                IoScenario::Dedicated,
            ),
        )
        .unwrap();
        for row in &out.drift {
            if let Some(e) = row.percent_error {
                assert!(e.is_finite(), "{}: drift {e} not finite", row.formula);
            } else if row.measured.is_some() {
                // Measured but no ratio: only legitimate when the
                // prediction itself is degenerate or the measurement was
                // zero (the run never touched a page).
                assert!(
                    !(row.predicted.is_finite() && row.predicted >= 1.0)
                        || row.measured == Some(0.0),
                    "{}: ratio withheld despite usable prediction {} and measurement {:?}",
                    row.formula,
                    row.predicted,
                    row.measured
                );
            }
        }
        assert!(!out.text.contains("inf%"), "{}", out.text);
        assert!(!out.text.contains("NaN"), "{}", out.text);
        assert!(out.text.contains("n/a"), "{}", out.text);
    }

    #[test]
    fn drift_ratio_withholds_on_degenerate_prediction_or_zero_measurement() {
        assert_eq!(drift_ratio(100.0, 110.0), Some(10.0));
        assert_eq!(drift_ratio(200.0, 100.0), Some(-50.0));
        // Degenerate predictions: non-finite or under one page.
        assert_eq!(drift_ratio(0.0, 10.0), None);
        assert_eq!(drift_ratio(0.5, 10.0), None);
        assert_eq!(drift_ratio(f64::INFINITY, 10.0), None);
        assert_eq!(drift_ratio(f64::NAN, 10.0), None);
        // Zero measurement: the same guard QueryReport::drift_pct applies.
        assert_eq!(drift_ratio(100.0, 0.0), None);
    }

    #[test]
    fn batch_drift_rows_never_render_inf_or_nan() {
        // λ = 0 batch queries predict degenerate (sub-page) costs for some
        // formulas; the batch drift table must withhold those ratios under
        // the same guards as the sequential table — including the
        // zero-measurement guard — rather than printing inf/NaN.
        let c = catalog();
        let out = explain_analyze_batch(
            &c,
            &[
                "Select P.Title, A.Name From Positions P, Applicants A \
                 Where A.Resume SIMILAR_TO(0) P.Job_descr",
                "Select P.Title, A.Name From Positions P, Applicants A \
                 Where A.Resume SIMILAR_TO(0) P.Job_descr",
            ],
            &PlanOptions::new(
                SystemParams::paper_base(),
                QueryParams::paper_base(),
                IoScenario::Dedicated,
            ),
        )
        .unwrap();
        for row in &out.drift {
            if let Some(e) = row.percent_error {
                assert!(e.is_finite(), "{}: drift {e} not finite", row.formula);
            } else if let Some(m) = row.measured {
                assert!(
                    !(row.predicted.is_finite() && row.predicted >= 1.0) || m == 0.0,
                    "{}: ratio withheld despite usable prediction {} and measurement {m}",
                    row.formula,
                    row.predicted
                );
            }
        }
        assert!(!out.text.contains("inf%"), "{}", out.text);
        assert!(!out.text.contains("NaN"), "{}", out.text);
    }

    #[test]
    fn analyze_report_shows_stats_drift_and_spans() {
        let c = catalog();
        let out = explain_analyze(
            &c,
            "Select P.Title, A.Name From Positions P, Applicants A \
             Where A.Resume SIMILAR_TO(2) P.Job_descr",
            &PlanOptions::new(
                SystemParams::paper_base(),
                QueryParams::paper_base(),
                IoScenario::Dedicated,
            ),
        )
        .unwrap();
        assert!(out.text.starts_with("EXPLAIN ANALYZE\n"), "{}", out.text);
        assert!(out.text.contains("analyze:"), "{}", out.text);
        assert!(out.text.contains("executed "), "{}", out.text);
        assert!(out.text.contains("drift"), "{}", out.text);
        for f in ["hhs", "hhr", "hvs", "hvr", "vvs", "vvr", "fns", "fnr"] {
            assert!(out.text.contains(f), "missing {f} in:\n{}", out.text);
        }
        assert_eq!(out.drift.len(), 8);
        // The chosen algorithm ran with the tracer attached, so its root
        // span appears in the report.
        let stats = out.stats.expect("chosen algorithm ran");
        assert_eq!(stats.algorithm, out.executed);
        assert!(out.text.contains("spans ("), "{}", out.text);
        let root = out.executed.to_string().to_lowercase();
        assert!(out.text.contains(&root), "no {root} span in:\n{}", out.text);
        // The latency column lists every algorithm that ran, and the
        // chosen run's spans surface as per-phase histograms.
        assert!(
            out.text
                .contains("latency (wall time per algorithm, measured vs predicted)"),
            "{}",
            out.text
        );
        let ran = format!("      {:<5} ", out.executed);
        let line = out.text.lines().find(|l| l.starts_with(&ran));
        assert!(line.is_some_and(|l| l.contains(" vs ")), "{}", out.text);
        assert!(out.text.contains("phase latency ("), "{}", out.text);
        assert!(!out.reports.is_empty(), "no QueryReports collected");
        let chosen = out
            .reports
            .iter()
            .find(|r| r.algorithm == out.executed)
            .expect("chosen algorithm has a report");
        assert!(chosen.wall_ns > 0, "report has no wall time");
        assert!(!chosen.phases.is_empty(), "traced run has no phases");
        assert!(
            chosen.predicted_cost.is_some(),
            "drift table needs a prediction"
        );
        // The drift table was derived from the reports: the measured hhs
        // value equals the HHNL report's measured cost.
        if let Some(r) = out
            .reports
            .iter()
            .find(|r| r.algorithm == textjoin_costmodel::Algorithm::Hhnl)
        {
            let row = out.row("hhs").unwrap();
            assert_eq!(row.measured, Some(r.measured_cost));
        }
    }

    #[test]
    fn profile_aware_analyze_shows_raw_vs_calibrated_with_reduced_drift() {
        use textjoin_costmodel::ReportObs;
        let c = big_catalog(512, 200, 100, 60, 300);
        let sys = SystemParams {
            buffer_pages: 2000,
            page_size: 512,
            alpha: 5.0,
        };
        let sql = "Select D.Id, Q.Id From Docs D, Queries Q \
                   Where D.Body SIMILAR_TO(3) Q.Body";
        let before = explain_analyze(
            &c,
            sql,
            &PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated),
        )
        .unwrap();
        assert!(before.calibrated.is_empty(), "no profile, no table");
        assert!(!before.text.contains("calibrated predictions ("));
        // Fit a profile from the uncalibrated run's own reports; with one
        // observation per algorithm the correction factor maps each raw
        // prediction exactly onto the measured cost.
        let obs: Vec<ReportObs> = before
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
        let profile = CalibrationProfile::fit(&obs);
        let o = PlanOptions {
            profile: Some(&profile),
            ..PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated)
        };
        let after = explain_analyze(&c, sql, &o).unwrap();
        assert_eq!(after.calibrated.len(), 4);
        assert!(
            after.text.contains("calibrated predictions ("),
            "{}",
            after.text
        );
        // A profile ranks in pages: no time column, no predicted wall.
        assert!(after.text.contains("ranking (calibrated pages;"));
        assert!(after.text.contains("latency (wall time per algorithm):"));
        let row = after
            .calibrated
            .iter()
            .find(|r| r.algorithm == after.executed)
            .expect("executed algorithm has a calibrated row");
        let b = row.drift_raw.expect("raw drift measurable");
        let a = row.drift_calibrated.expect("calibrated drift measurable");
        assert!(
            a.abs() <= b.abs() + 1e-6,
            "calibration did not reduce drift: {b:+.3}% -> {a:+.3}%"
        );
        assert!(
            a.abs() < 1.0,
            "exact per-pair correction should land within 1%: {a:+.3}%"
        );
    }

    #[test]
    fn analyze_adds_the_traced_run_s_prefetch_section() {
        let c = big_catalog(512, 120, 60, 40, 200);
        // Whatever the plan picks under tight memory scans a file, and
        // every scan reads ahead.
        let sys = SystemParams {
            buffer_pages: 20,
            page_size: 512,
            alpha: 5.0,
        };
        let out = explain_analyze(
            &c,
            "Select D.Id, Q.Id From Docs D, Queries Q \
             Where D.Body SIMILAR_TO(3) Q.Body",
            &PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated),
        )
        .unwrap();
        // The traced run registered prefetch counters, and its sequential
        // scan phases actually hit the readahead window.
        assert!(out.text.contains("prefetch ("), "{}", out.text);
        let hits: u64 = out
            .text
            .lines()
            .skip_while(|l| !l.contains("prefetch ("))
            .skip(1)
            .take_while(|l| l.starts_with("      "))
            .filter_map(|l| {
                let mut cells = l.split('/');
                cells.nth(1)?.trim().parse::<u64>().ok()
            })
            .sum();
        assert!(hits > 0, "no prefetch hits in:\n{}", out.text);
    }

    #[test]
    fn batch_analyze_reports_amortization_and_drift() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let sqls: Vec<String> = [1usize, 2, 3]
            .iter()
            .map(|l| {
                format!(
                    "Select D.Id, Q.Id From Docs D, Queries Q \
                     Where D.Body SIMILAR_TO({l}) Q.Body"
                )
            })
            .collect();
        let sql_refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let out = explain_analyze_batch(
            &c,
            &sql_refs,
            &PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated),
        )
        .unwrap();
        assert!(
            out.text.starts_with("EXPLAIN ANALYZE BATCH (N=3)\n"),
            "{}",
            out.text
        );
        assert!(out.text.contains("amortized:"), "{}", out.text);
        assert!(out.text.contains("← chosen"), "{}", out.text);
        assert_eq!(out.drift.len(), 8);
        let stats = out.stats.expect("the chosen algorithm ran");
        assert!(stats.io.total_reads() > 0);
        // Every algorithm ran over the whole batch, so the executed one's
        // formula — under the formula names every batch size shares — has
        // a measurement and a finite ratio.
        let seq_name = match out.executed {
            Algorithm::Hhnl => "hhs",
            Algorithm::Hvnl => "hvs",
            Algorithm::Vvm => "vvs",
            Algorithm::Fnl => "fns",
        };
        let row = out.row(seq_name).expect("executed row exists");
        assert_eq!(row.measured, Some(stats.cost));
        assert!(row.percent_error.expect("finite prediction").is_finite());
        assert!(out.text.contains(seq_name), "{}", out.text);
        // Per-query lines carry the λs in input order.
        for (i, l) in [1, 2, 3].into_iter().enumerate() {
            assert!(out.text.contains(&format!("q{i} λ={l}")), "{}", out.text);
        }
    }

    /// A SQL query is the batch of one: for every forced algorithm a
    /// one-query `execute_batch` returns what `execute` returns — rows,
    /// algorithm, batch-level I/O and passes — and batch ANALYZE of one
    /// query reports the drift rows single ANALYZE reports.
    #[test]
    fn a_query_is_the_batch_of_one_at_the_sql_door() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let o = PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated);
        let sql = "Select D.Id, Q.Id From Docs D, Queries Q \
                   Where D.Body SIMILAR_TO(3) Q.Body";
        let query = parse(sql).unwrap();
        // Every run starts from cold heads, so both sides price alike.
        let cold = || c.disk().reset_head();
        for force in Algorithm::ALL {
            let mut p = plan_query(&c, &query, &o).unwrap();
            let mut bp = plan_batch(&c, std::slice::from_ref(&query), &o).unwrap();
            (p.chosen, bp.chosen) = (force, force);
            cold();
            let one = execute(&c, &p, &ExecOptions::default()).unwrap();
            cold();
            let batch = execute_batch(&c, &bp, &ExecOptions::default()).unwrap();
            assert_eq!((batch.algorithm, one.algorithm), (force, force));
            assert_eq!(batch.queries[0].rows, one.rows, "{force}");
            assert_eq!(batch.stats.io, one.stats.io, "{force}");
            assert_eq!(batch.stats.passes, one.stats.passes, "{force}");
        }
        let rows = |out: AnalyzeOutput| -> Vec<_> {
            (out.drift.into_iter())
                .map(|r| (r.formula, r.predicted, r.measured))
                .collect()
        };
        cold();
        let single = rows(explain_analyze(&c, sql, &o).unwrap());
        cold();
        assert_eq!(rows(explain_analyze_batch(&c, &[sql], &o).unwrap()), single);
    }

    #[test]
    fn batch_hhnl_reads_strictly_fewer_pages_than_solo_runs() {
        let c = big_catalog(512, 120, 60, 40, 200);
        let sys = SystemParams {
            buffer_pages: 800,
            page_size: 512,
            alpha: 5.0,
        };
        let o = PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated);
        let queries: Vec<_> = [1usize, 2, 3, 2]
            .iter()
            .map(|l| {
                parse(&format!(
                    "Select D.Id, Q.Id From Docs D, Queries Q \
                     Where D.Body SIMILAR_TO({l}) Q.Body"
                ))
                .unwrap()
            })
            .collect();
        let mut bp = plan_batch(&c, &queries, &o).unwrap();
        bp.chosen = Algorithm::Hhnl;
        let batch = execute_batch(&c, &bp, &ExecOptions::default()).unwrap();
        let mut solo_pages = 0u64;
        for q in &queries {
            let mut p = plan_query(&c, q, &o).unwrap();
            p.chosen = Algorithm::Hhnl;
            solo_pages += execute(&c, &p, &ExecOptions::default())
                .unwrap()
                .stats
                .io
                .total_reads();
        }
        let batch_pages = batch.stats.io.total_reads();
        assert!(
            batch_pages < solo_pages,
            "batch {batch_pages} pages vs {solo_pages} one at a time"
        );
    }

    #[test]
    fn fnl_margin_over_hhnl_widens_with_lambda_with_honest_drift() {
        // The λ sweep the filter family was built for: the signature index
        // (Ip < D1) makes every extra pass cheaper than HHNL's, so FNL's
        // measured page bill stays below HHNL's and the gap widens with λ,
        // and the planner picks FNL exactly where the calibrated estimates
        // say it should. A claim about pages, so the plans rank in pages:
        // the seed profile.
        let seed = CalibrationProfile::seed();
        let c = big_catalog(512, 300, 150, 40, 200);
        let sys = SystemParams {
            buffer_pages: 100,
            page_size: 512,
            alpha: 5.0,
        };
        let o = PlanOptions {
            profile: Some(&seed),
            ..PlanOptions::new(sys, QueryParams::paper_base(), IoScenario::Dedicated)
        };
        let mut fnl_drifts: Vec<f64> = Vec::new();
        let mut prev_gap: i64 = i64::MIN;
        for l in [5usize, 60, 100] {
            let sql = format!(
                "Select D.Id, Q.Id From Docs D, Queries Q \
                 Where D.Body SIMILAR_TO({l}) Q.Body"
            );
            let out = explain_analyze(&c, &sql, &o).unwrap();
            // The executed algorithm is the argmin of the recorded
            // predictions: FNL is selected exactly where the model says
            // it wins, and nowhere else.
            let query = parse(&sql).unwrap();
            let p = plan_query(&c, &query, &o).unwrap();
            let fnl_pred = p.prediction(Algorithm::Fnl).calibrated;
            let best = p
                .predictions
                .iter()
                .map(|pr| pr.calibrated)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                out.executed == Algorithm::Fnl,
                fnl_pred <= best,
                "λ={l}: executed {} but FNL predicted {fnl_pred:.1} vs best {best:.1}",
                out.executed
            );
            // Measured, not modelled: FNL reads fewer pages than HHNL at
            // every λ, and the saving grows as λ shrinks the batches.
            let pages = |alg: Algorithm| {
                out.reports
                    .iter()
                    .find(|r| r.algorithm == alg)
                    .map(|r| r.pages_read.total_reads())
                    .unwrap_or_else(|| panic!("λ={l}: {alg} did not run"))
            };
            let (fnl_pages, hhnl_pages) = (pages(Algorithm::Fnl), pages(Algorithm::Hhnl));
            // With δ measured rather than taken on faith VVM's merge passes
            // are priced, and FNL keeps the whole sweep — as the measured
            // pages say it should (δ = 0.1 used to hand VVM the high end).
            assert_eq!(out.executed, Algorithm::Fnl, "λ={l}");
            assert!(fnl_pages < pages(Algorithm::Vvm), "λ={l}");
            assert!(
                fnl_pages < hhnl_pages,
                "λ={l}: FNL read {fnl_pages} pages vs HHNL {hhnl_pages}"
            );
            let gap = hhnl_pages as i64 - fnl_pages as i64;
            assert!(
                gap > prev_gap,
                "λ={l}: gap {gap} did not widen from {prev_gap}"
            );
            prev_gap = gap;
            let row = out.row("fns").expect("fns drift row");
            fnl_drifts.push(row.percent_error.expect("fns measurable").abs());
        }
        // Model honesty: the fns drift rows stay tight — median under 10%.
        fnl_drifts.sort_by(f64::total_cmp);
        let median = fnl_drifts[fnl_drifts.len() / 2];
        assert!(
            median < 10.0,
            "fns drift median {median:.1}% (all {fnl_drifts:?})"
        );
    }

    #[test]
    fn explain_rejects_invalid_queries() {
        let c = catalog();
        assert!(explain_query(
            &c,
            "Select x From Y",
            SystemParams::paper_base(),
            QueryParams::paper_base(),
            IoScenario::Dedicated,
        )
        .is_err());
    }
}
