//! The deterministic page grid behind `textjoin-sim bench`.
//!
//! [`run_suite`] sweeps a grid of (collection pair, λ, buffer size) cases
//! along five axes, runs every registered executor once on each, and
//! returns a [`BenchReport`]: per case the measured `seq + α·rand` page
//! cost and its drift from the cost model. Both are pure functions of the
//! grid — the simulated disk counts pages, not time — so the report's
//! JSON form is byte-reproducible, `ci/bench-baseline.json` is that form
//! checked in, and the gate ([`compare`]) is row equality. Seconds are
//! measured by `benchmark/`, not here.

#![forbid(unsafe_code)]

use std::sync::Arc;
use textjoin_collection::SynthSpec;
use textjoin_common::{json, CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    batch, execute_sharded, Indexes, JoinSpec, QueryReport, ShardOptions, ShardPartitioning,
};
use textjoin_costmodel as costmodel;
use textjoin_costmodel::{Algorithm, CalibrationProfile, CostEstimates, IoScenario};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_live::LiveCollection;
use textjoin_storage::{DiskSim, PageLatency};

/// One collection pair of the benchmark grid.
#[derive(Clone, Debug)]
pub struct BenchPair {
    /// Pair label, e.g. `"balanced"`.
    pub label: String,
    /// Spec for the inner collection (C1).
    pub inner: SynthSpec,
    /// Spec for the outer collection (C2).
    pub outer: SynthSpec,
}

/// The benchmark grid: every combination of pair × λ × B runs every
/// algorithm once.
#[derive(Clone, Debug)]
pub struct BenchGrid {
    /// Suite name recorded in the report.
    pub suite: String,
    /// Collection pairs to sweep.
    pub pairs: Vec<BenchPair>,
    /// λ values to sweep (the paper's group sweeps vary λ).
    pub lambdas: Vec<usize>,
    /// Extra, *selective* λ values — the filter axis. Each runs only the
    /// sequential (N=1, pristine) executors, and at the base
    /// `sys.buffer_pages` budget rather than the headroom `buffer_pages`
    /// sweep: memory pressure is where the FNL signature filter earns its
    /// keep — high λ inflates every algorithm's per-batch top-λ memory,
    /// and the compact rarest-first index amortizes it over fewer pages
    /// per pass. Labels follow the classic `"<pair> λ=<λ> B=<B>"` scheme,
    /// so a freshly regenerated baseline gates them like any other
    /// sequential row; keep these λ values disjoint from `lambdas` (and
    /// `sys.buffer_pages` out of `buffer_pages`) so labels stay unique.
    pub filter_lambdas: Vec<usize>,
    /// Buffer sizes `B` (pages) to sweep — the paper's memory axis.
    pub buffer_pages: Vec<u64>,
    /// Batch sizes `N` to sweep. `1` is the classic single-query row (its
    /// label stays `"<pair> λ=<λ> B=<B>"`, so the regression baseline keeps
    /// gating it); higher counts run `N` copies of the query through the
    /// batch engine's shared scans and label their rows `… N=<n>`. Batch
    /// rows record the *total* batch cost — the amortization shows as
    /// `pages_io(N=4) < 4 × pages_io(N=1)`.
    pub batch_sizes: Vec<usize>,
    /// Mutation (fragmentation) levels to sweep. `0.0` is the pristine
    /// bulk-loaded inner collection — the classic rows above, labels
    /// unchanged, so the checked-in baseline keeps gating them. A level
    /// `f > 0` rebuilds the inner side as a [`textjoin_live::LiveCollection`]
    /// with `⌈f·N1⌉` deletes and `⌈f·N1⌉` inserts flushed to delta side
    /// files, runs the sequential executors over the base+delta read path,
    /// and labels the rows `… frag=<pct>%` — measuring what document
    /// churn costs each algorithm before a merge.
    pub frag_levels: Vec<f64>,
    /// Site counts `S` for the sharded (multidatabase) axis. Counts > 1
    /// run the multi-site executor over `shard_pairs` (not the classic
    /// pairs) with both boundary strategies and label their rows
    /// `"<pair> λ=<λ> B=<B> S=<s> <strategy>"`. `pages_io` for these rows records the **max-shard**
    /// page cost (the balance metric sites gate the answer on), so a naive
    /// row sitting above its skew-aware sibling is the measured price of
    /// ignoring skew. `1` runs the single-site sharded path once, as the
    /// axis origin.
    pub shard_counts: Vec<usize>,
    /// Collection pairs the shards axis sweeps. The default grid uses one
    /// Zipfian pair (exponent 1.4, no stop-word removal) whose head terms
    /// concentrate posting mass: naive uniform term spans hand one site
    /// nearly the whole inverted file, which skew-aware df-weighted
    /// boundaries avoid.
    pub shard_pairs: Vec<BenchPair>,
    /// Simulated per-page service time, enabled once the collections and
    /// indexes are built. It moves no page count; `textjoin-sim calibrate`
    /// sets it so the reports it stores carry a wall time whose page term
    /// `page_ns` can be fitted against.
    pub page_latency: PageLatency,
    /// Calibration profile applied to the single-query predictions,
    /// keyed by the pair label. `None` keeps the seed cost formulas. The
    /// case labels never change, so a calibrated run gates against the
    /// same baseline — only `drift_pct` moves.
    pub calibration: Option<CalibrationProfile>,
    /// System parameters; `buffer_pages` above overrides `sys.buffer_pages`.
    pub sys: SystemParams,
}

/// A heavily skewed synthetic spec for the shards axis: classic-plus Zipf
/// exponent with stop-word removal off, so the head terms keep their full
/// posting mass and naive uniform term spans visibly overload one site.
fn zipf_spec(stats: CollectionStats, seed: u64) -> SynthSpec {
    let mut spec = SynthSpec::from_stats(stats, seed);
    spec.zipf_exponent = 1.4;
    spec.stopword_fraction = 0.0;
    spec
}

/// The small default grid used by `textjoin-sim bench` and CI: two
/// synthetic collection pairs and one Zipfian pair, swept along the
/// batch, fragmentation, filter and shard axes — 248 rows, every one in
/// `ci/bench-baseline.json`.
pub fn small_grid() -> BenchGrid {
    BenchGrid {
        suite: "paper-grid-small".into(),
        pairs: vec![
            BenchPair {
                label: "balanced".into(),
                inner: SynthSpec::from_stats(CollectionStats::new(150, 20.0, 800), 901),
                outer: SynthSpec::from_stats(CollectionStats::new(100, 20.0, 800), 902),
            },
            BenchPair {
                label: "asymmetric".into(),
                inner: SynthSpec::from_stats(CollectionStats::new(220, 15.0, 1000), 903),
                outer: SynthSpec::from_stats(CollectionStats::new(40, 45.0, 700), 904),
            },
        ],
        lambdas: vec![5, 20],
        filter_lambdas: vec![80],
        buffer_pages: vec![160, 400],
        batch_sizes: vec![1, 4, 16],
        frag_levels: vec![0.0, 0.10, 0.30],
        shard_counts: vec![1, 2, 4],
        shard_pairs: vec![BenchPair {
            label: "zipf".into(),
            inner: zipf_spec(CollectionStats::new(120, 12.0, 300), 905),
            outer: zipf_spec(CollectionStats::new(80, 12.0, 300), 906),
        }],
        page_latency: PageLatency::default(),
        calibration: None,
        sys: SystemParams {
            buffer_pages: 60,
            page_size: 512,
            alpha: 5.0,
        },
    }
}

/// One grid point × algorithm of a finished suite.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCase {
    /// Case label: `"<pair> λ=<λ> B=<B>"`.
    pub case: String,
    /// Algorithm name (`"HHNL"`, `"HVNL"`, `"VVM"`).
    pub algorithm: String,
    /// Measured `seq + α·rand` page cost.
    pub pages_io: f64,
    /// Model-vs-measured drift percent, `(measured − predicted)/measured`,
    /// when the cost model could price the case. (EXPLAIN ANALYZE and
    /// `benchmark/`'s `costmodel.drift_pct.*` divide by *predicted*.)
    pub drift_pct: Option<f64>,
}

impl BenchCase {
    /// The case as one JSON object: a line of the report, and — floats
    /// being printed to fixed precision — the unit [`compare`] holds equal.
    fn to_json(&self) -> String {
        let drift = self
            .drift_pct
            .map_or(String::new(), |d| format!(",\"drift_pct\":{d:.2}"));
        format!(
            "{{\"case\":\"{}\",\"algorithm\":\"{}\",\"pages_io\":{:.3}{drift}}}",
            json::escape(&self.case),
            json::escape(&self.algorithm),
            self.pages_io,
        )
    }
}

/// A finished benchmark suite.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Suite name (from the grid).
    pub suite: String,
    /// One entry per grid point × feasible algorithm.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Renders the report as one JSON object (hand-rolled) with one case
    /// per line, so a regenerated baseline's `git diff` lists the rows
    /// that moved.
    pub fn to_json(&self) -> String {
        let cases: Vec<String> = self.cases.iter().map(BenchCase::to_json).collect();
        format!(
            "{{\"suite\":\"{}\",\"cases\":[\n{}\n]}}\n",
            json::escape(&self.suite),
            cases.join(",\n")
        )
    }

    /// Parses a report produced by [`to_json`](Self::to_json). The parser
    /// accepts exactly that shape (flat case objects inside a `cases`
    /// array) — enough for the `--baseline` gate without a JSON library.
    pub fn from_json(text: &str) -> Result<BenchReport> {
        let bad = |what: &str| Error::InvalidArgument(format!("malformed bench report: {what}"));
        let suite = json::str_field(text, "suite").ok_or_else(|| bad("missing suite"))?;
        let cases_at = text
            .find("\"cases\":[")
            .ok_or_else(|| bad("missing cases array"))?;
        let mut cases = Vec::new();
        let mut rest = &text[cases_at + "\"cases\":[".len()..];
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .ok_or_else(|| bad("unterminated case object"))?;
            let obj = &rest[open..open + close + 1];
            cases.push(BenchCase {
                case: json::str_field(obj, "case").ok_or_else(|| bad("case missing label"))?,
                algorithm: json::str_field(obj, "algorithm")
                    .ok_or_else(|| bad("case missing algorithm"))?,
                pages_io: json::num_field(obj, "pages_io")
                    .ok_or_else(|| bad("case missing pages_io"))?,
                drift_pct: json::num_field(obj, "drift_pct"),
            });
            rest = &rest[open + close + 1..];
        }
        Ok(BenchReport { suite, cases })
    }

    /// The case for one `(case label, algorithm)` key, if present.
    pub fn case(&self, case: &str, algorithm: &str) -> Option<&BenchCase> {
        self.cases
            .iter()
            .find(|c| c.case == case && c.algorithm == algorithm)
    }
}

/// Runs every grid point and returns the finished report. Grid points an
/// algorithm cannot run (insufficient memory) are silently absent from the
/// report — the same case key will then show up as *missing* in a
/// [`compare`] against a baseline that had it.
pub fn run_suite(grid: &BenchGrid) -> Result<BenchReport> {
    Ok(run_suite_with_reports(grid)?.0)
}

/// Runs one grid cell once on a rewound drive and records its page cost
/// next to the model's `predicted`. A cell the algorithm has no memory for
/// leaves no row.
fn record(
    cases: &mut Vec<BenchCase>,
    disk: &DiskSim,
    case: &str,
    algorithm: Algorithm,
    predicted: Option<f64>,
    run: impl FnOnce() -> Result<f64>,
) -> Result<()> {
    disk.reset_stats();
    disk.reset_head();
    let pages_io = match run() {
        Ok(pages) => pages,
        Err(Error::InsufficientMemory { .. }) => return Ok(()),
        Err(e) => return Err(e),
    };
    cases.push(BenchCase {
        case: case.into(),
        algorithm: algorithm.to_string(),
        pages_io,
        drift_pct: predicted
            .filter(|_| pages_io > 0.0)
            .map(|p| 100.0 * (pages_io - p) / pages_io),
    });
    Ok(())
}

/// [`run_suite`] additionally returning one keyed [`QueryReport`] per
/// single-query case — the raw material `textjoin-sim calibrate` appends
/// to the report store. Each report carries the pair label, λ and B, so
/// the calibration fit can group observations by workload.
pub fn run_suite_with_reports(grid: &BenchGrid) -> Result<(BenchReport, Vec<QueryReport>)> {
    let mut cases = Vec::new();
    let mut reports = Vec::new();
    for pair in &grid.pairs {
        let disk = Arc::new(DiskSim::new(grid.sys.page_size));
        let c1 = pair.inner.generate(Arc::clone(&disk), "c1")?;
        let c2 = pair.outer.generate(Arc::clone(&disk), "c2")?;
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1)?;
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2)?;
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1)?;
        // Mutated inner fixtures for the fragmentation axis: each level
        // rebuilds the inner side as a live collection with ⌈f·N1⌉
        // deterministic deletes and as many fresh inserts, flushed so the
        // delta sits in packed side files (the pre-merge steady state).
        let mut frag_fixtures: Vec<(f64, LiveCollection, FnlIndex)> = Vec::new();
        for (i, &frac) in grid.frag_levels.iter().enumerate() {
            if frac <= 0.0 {
                continue;
            }
            let mut lc = LiveCollection::create(
                Arc::clone(&disk),
                &format!("live{i}"),
                pair.inner.generate_docs(),
            )?;
            let churn = ((pair.inner.num_docs as f64 * frac).ceil() as u64).max(1);
            for id in 0..churn {
                lc.delete(DocId::new(id as u32))?;
            }
            let extra = SynthSpec {
                num_docs: churn,
                seed: pair.inner.seed ^ 0xf7a6,
                ..pair.inner.clone()
            }
            .generate_docs();
            for doc in extra {
                lc.insert(doc)?;
            }
            lc.flush()?;
            // FNL's signature index covers the base collection only; the
            // executor rescores overlay documents exactly at probe time,
            // so the fixture's index is built over the pristine base.
            let lfnl = FnlIndex::build(Arc::clone(&disk), &format!("live{i}"), lc.base())?;
            frag_fixtures.push((frac, lc, lfnl));
        }
        // Latency only prices the measured runs, not collection/index
        // construction above.
        disk.set_page_latency(grid.page_latency);

        // The filter-axis λ points ride the same pair sweep but run only
        // the sequential executors, pinned to the base system budget — the
        // pressure regime the axis exists to measure: their point is the
        // FNL-vs-HHNL page gap at selective λ, not another
        // worker/batch/frag matrix.
        let classic = grid.lambdas.iter().map(|&l| (l, false));
        let filter = grid.filter_lambdas.iter().map(|&l| (l, true));
        for (lambda, filter_axis) in classic.chain(filter) {
            let base_b = [grid.sys.buffer_pages];
            let bs = if filter_axis {
                &base_b[..]
            } else {
                &grid.buffer_pages[..]
            };
            for &b in bs {
                let query = QueryParams::paper_base().with_lambda(lambda);
                let sys = grid.sys.with_buffer_pages(b);
                let spec = JoinSpec::new(&c1, &c2).with_sys(sys).with_query(query);
                let inputs = spec.cost_inputs().with_fnl(fnl1.stats());
                let estimates = CostEstimates::compute(&inputs);
                let indexes = Indexes::all(&inv1, &inv2, &fnl1);
                let point = format!("{} λ={lambda} B={b}", pair.label);
                for algorithm in Algorithm::ALL {
                    let raw = predicted_pages(&estimates, algorithm);
                    let predicted = match (&grid.calibration, raw) {
                        (Some(p), Some(r)) => Some(p.calibrated_cost(&pair.label, algorithm, r)),
                        (_, raw) => raw,
                    };
                    let mut outcome = None;
                    record(&mut cases, &disk, &point, algorithm, predicted, || {
                        let ran = textjoin_core::execute(algorithm, &spec, &indexes)?;
                        Ok(outcome.insert(ran).stats.cost)
                    })?;
                    if let Some(outcome) = outcome {
                        reports.push(
                            QueryReport::from_outcome(&point, &outcome, None, predicted).with_key(
                                pair.label.clone(),
                                lambda as u64,
                                b,
                            ),
                        );
                    }
                }
                if filter_axis {
                    continue;
                }

                // The batch-size axis: N copies of the query through the
                // batch engine's shared scans. N=1 is the classic row
                // above; batch rows record the total batch cost next to
                // the batch formula's prediction.
                for &n in grid.batch_sizes.iter().filter(|&&n| n > 1) {
                    let specs = vec![spec; n];
                    let batch_estimates = CostEstimates::compute_batch(&vec![inputs; n]);
                    let case_label = format!("{point} N={n}");
                    for algorithm in Algorithm::ALL {
                        let predicted = predicted_pages(&batch_estimates, algorithm);
                        record(&mut cases, &disk, &case_label, algorithm, predicted, || {
                            Ok(batch::execute(algorithm, &specs, &indexes)?.stats.cost)
                        })?;
                    }
                }

                // The mutation axis: the same query with the inner side
                // fragmented (delta side files + tombstones, pre-merge).
                // Predictions come from the same sequential formulas —
                // `cost_inputs` folds the overlay's `FragStats` in — so
                // `drift_pct` doubles as a check that the fragmentation
                // term tracks what the executors actually pay.
                for (frac, lc, lfnl) in &frag_fixtures {
                    let fspec = JoinSpec::new(lc.base(), &c2)
                        .with_sys(sys)
                        .with_query(query)
                        .with_inner_delta(lc.overlay());
                    let finputs = fspec.cost_inputs().with_fnl(lfnl.stats());
                    let festimates = CostEstimates::compute(&finputs);
                    let findexes = Indexes::all(lc.base_inv(), &inv2, lfnl);
                    let case_label = format!("{point} frag={:.0}%", frac * 100.0);
                    for algorithm in Algorithm::ALL {
                        let predicted = predicted_pages(&festimates, algorithm);
                        record(&mut cases, &disk, &case_label, algorithm, predicted, || {
                            Ok(textjoin_core::execute(algorithm, &fspec, &findexes)?
                                .stats
                                .cost)
                        })?;
                    }
                }
            }
        }
    }

    // The shards axis: the multi-site executor over the dedicated
    // (Zipfian) pairs, at every S with both boundary strategies. These
    // rows record the *max-shard* page cost — sites run concurrently, each
    // on a drive of its own, so the heaviest one gates the answer, and
    // that is exactly the number skew-aware partitioning exists to lower.
    // The prediction next to it is the uniform-fraction `ShardPlan`'s
    // `max_shard`, so `drift_pct` measures how far reality sits from the
    // balanced ideal (large positive drift on a naive row *is* the skew).
    // S=1 runs once, as the axis origin, under the skew-aware label.
    if !grid.shard_counts.is_empty() {
        let comm = costmodel::CommParams::default_network();
        for pair in &grid.shard_pairs {
            let disk = Arc::new(DiskSim::new(grid.sys.page_size));
            let c1 = pair.inner.generate(Arc::clone(&disk), "s1")?;
            let c2 = pair.outer.generate(Arc::clone(&disk), "s2")?;
            let fnl1 = FnlIndex::build(Arc::clone(&disk), "s1", &c1)?;
            disk.set_page_latency(grid.page_latency);
            for &lambda in &grid.lambdas {
                for &b in &grid.buffer_pages {
                    let spec = JoinSpec::new(&c1, &c2)
                        .with_sys(grid.sys.with_buffer_pages(b))
                        .with_query(QueryParams::paper_base().with_lambda(lambda));
                    let inputs = spec.cost_inputs().with_fnl(fnl1.stats());
                    for &s in &grid.shard_counts {
                        let s = s.max(1);
                        let strategies: &[ShardPartitioning] = if s == 1 {
                            &[ShardPartitioning::SkewAware]
                        } else {
                            &[ShardPartitioning::SkewAware, ShardPartitioning::Naive]
                        };
                        for &partitioning in strategies {
                            let case_label =
                                format!("{} λ={lambda} B={b} S={s} {partitioning}", pair.label);
                            for algorithm in Algorithm::ALL {
                                let predicted = costmodel::shard::plan(
                                    &inputs,
                                    algorithm,
                                    &comm,
                                    &costmodel::uniform_fractions(s),
                                )
                                .ok()
                                .map(|p| p.max_shard)
                                .filter(|p| p.is_finite());
                                let opts = ShardOptions::new(s)
                                    .with_partitioning(partitioning)
                                    .with_comm(comm);
                                record(
                                    &mut cases,
                                    &disk,
                                    &case_label,
                                    algorithm,
                                    predicted,
                                    || Ok(execute_sharded(&spec, algorithm, &opts)?.max_shard_pages),
                                )?;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((
        BenchReport {
            suite: grid.suite.clone(),
            cases,
        },
        reports,
    ))
}

/// The model's dedicated-drive page estimate for `algorithm`, when it is
/// feasible at all.
fn predicted_pages(estimates: &CostEstimates, algorithm: Algorithm) -> Option<f64> {
    Some(estimates.cost(algorithm, IoScenario::Dedicated)).filter(|c| c.is_finite())
}

/// One row on which a run and a baseline disagree.
#[derive(Clone, Debug, PartialEq)]
pub enum RowDiff {
    /// In both, with a different page cost or drift.
    Changed {
        /// The baseline's row.
        baseline: BenchCase,
        /// This run's row.
        current: BenchCase,
    },
    /// In the baseline, but absent from this run (the grid shrank or the
    /// algorithm became infeasible).
    MissingFromRun(BenchCase),
    /// In this run, but absent from the baseline — the baseline is stale.
    MissingFromBaseline(BenchCase),
}

impl std::fmt::Display for RowDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowDiff::Changed { baseline, current } => {
                write!(f, "{} → {}", baseline.to_json(), current.to_json())
            }
            RowDiff::MissingFromRun(b) => write!(f, "{} → missing from this run", b.to_json()),
            RowDiff::MissingFromBaseline(c) => {
                write!(f, "not in the baseline → {}", c.to_json())
            }
        }
    }
}

/// The exact row diff of a run against a baseline: every `(case,
/// algorithm)` key whose printed row differs — a page cost that moved up
/// *or down*, a drift that moved — and every key only one side has. Page
/// costs are a pure function of the grid, so any difference is a change
/// to report: a PR that means it regenerates the baseline
/// (`textjoin-sim bench --out ci/bench-baseline.json`) and its `git diff`
/// is the list of moved rows.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Vec<RowDiff> {
    let mut diffs = Vec::new();
    for b in &baseline.cases {
        match current.case(&b.case, &b.algorithm) {
            Some(c) if c.to_json() == b.to_json() => {}
            Some(c) => diffs.push(RowDiff::Changed {
                baseline: b.clone(),
                current: c.clone(),
            }),
            None => diffs.push(RowDiff::MissingFromRun(b.clone())),
        }
    }
    for c in &current.cases {
        if baseline.case(&c.case, &c.algorithm).is_none() {
            diffs.push(RowDiff::MissingFromBaseline(c.clone()));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(label: &str, algorithm: &str, pages: f64) -> BenchCase {
        BenchCase {
            case: label.into(),
            algorithm: algorithm.into(),
            pages_io: pages,
            drift_pct: Some(-3.5),
        }
    }

    fn report(cases: Vec<BenchCase>) -> BenchReport {
        BenchReport {
            suite: "s".into(),
            cases,
        }
    }

    #[test]
    fn json_round_trips_one_case_per_line() {
        let mut undrifted = case("p2", "VVM", 9.0);
        undrifted.drift_pct = None;
        let report = BenchReport {
            suite: "s\"1".into(),
            cases: vec![case("pair λ=5 B=60", "HHNL", 123.5), undrifted],
        };
        let text = report.to_json();
        assert_eq!(BenchReport::from_json(&text).unwrap(), report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + report.cases.len(), "{text}");
        assert_eq!(
            lines[1],
            "{\"case\":\"pair λ=5 B=60\",\"algorithm\":\"HHNL\",\"pages_io\":123.500,\"drift_pct\":-3.50},"
        );
        assert_eq!(
            lines[2],
            "{\"case\":\"p2\",\"algorithm\":\"VVM\",\"pages_io\":9.000}"
        );
        assert!(text.ends_with("]}\n"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{\"suite\":\"s\"}").is_err());
        let no_pages = "{\"suite\":\"s\",\"cases\":[\n{\"case\":\"a\",\"algorithm\":\"HHNL\"}\n]}";
        assert!(BenchReport::from_json(no_pages).is_err());
    }

    #[test]
    fn compare_finds_every_row_that_is_not_equal() {
        let baseline = report(vec![
            case("a", "HHNL", 100.0),
            case("a", "HVNL", 100.0),
            case("a", "VVM", 100.0),
            case("b", "VVM", 50.0),
        ]);
        let mut drifted = case("a", "VVM", 100.0);
        drifted.drift_pct = Some(-3.6);
        let current = report(vec![
            case("a", "HHNL", 105.0), // +5 %
            case("a", "HVNL", 95.0),  // −5 %: a gain is a change to report too
            drifted,                  // same pages, the prediction moved
            // b/VVM missing from the run
            case("a N=4", "HHNL", 300.0), // not in the baseline
        ]);
        let diffs = compare(&baseline, &current);
        let changed = |i: usize| RowDiff::Changed {
            baseline: baseline.cases[i].clone(),
            current: current.cases[i].clone(),
        };
        assert_eq!(
            diffs,
            vec![
                changed(0),
                changed(1),
                changed(2),
                RowDiff::MissingFromRun(baseline.cases[3].clone()),
                RowDiff::MissingFromBaseline(current.cases[3].clone()),
            ]
        );
        let printed: Vec<String> = diffs.iter().map(RowDiff::to_string).collect();
        assert!(
            printed[0].contains("\"pages_io\":100.000") && printed[0].contains("→ {"),
            "{}",
            printed[0]
        );
        assert!(
            printed[0].contains("\"pages_io\":105.000"),
            "{}",
            printed[0]
        );
        assert!(
            printed[3].ends_with("→ missing from this run"),
            "{}",
            printed[3]
        );
        assert!(
            printed[4].starts_with("not in the baseline →"),
            "{}",
            printed[4]
        );
    }

    #[test]
    fn compare_passes_identical_reports() {
        let r = report(vec![case("a", "HHNL", 100.0), case("a", "VVM", 0.0)]);
        assert!(compare(&r, &r).is_empty());
        // Equality is on the printed row: a run's unrounded floats equal
        // the baseline they were printed into.
        let mut unrounded = r.clone();
        unrounded.cases[0].pages_io = 100.0004;
        unrounded.cases[0].drift_pct = Some(-3.5004);
        assert!(compare(&r, &unrounded).is_empty());
    }

    #[test]
    fn small_grid_covers_four_algorithms_on_two_pairs() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        // One grid point per pair keeps the test quick; the full grid runs
        // in `textjoin-sim bench`.
        grid.lambdas.truncate(1);
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        let report = run_suite(&grid).unwrap();
        for pair in ["balanced", "asymmetric"] {
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let label = format!("{pair} λ=5 B=160");
                let c = report
                    .case(&label, algorithm)
                    .unwrap_or_else(|| panic!("missing {label} / {algorithm}"));
                assert!(c.pages_io > 0.0, "{label} {algorithm}");
            }
        }
        // Printing truncates floats, so round-trip stability is checked on
        // the serialised form: parse(print(x)) prints identically.
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.to_json(), report.to_json());
        assert!(compare(&parsed, &report).is_empty());
    }

    #[test]
    fn batch_axis_amortizes_shared_scans() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1, 4];
        grid.frag_levels = vec![0.0];
        let report = run_suite(&grid).unwrap();
        for pair in ["balanced", "asymmetric"] {
            let single = format!("{pair} λ=5 B=160");
            let batched = format!("{pair} λ=5 B=160 N=4");
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let n1 = report
                    .case(&single, algorithm)
                    .unwrap_or_else(|| panic!("missing {single} / {algorithm}"));
                let n4 = report
                    .case(&batched, algorithm)
                    .unwrap_or_else(|| panic!("missing {batched} / {algorithm}"));
                // Four queries through shared scans never cost more than
                // four independent runs…
                assert!(
                    n4.pages_io <= 4.0 * n1.pages_io + 1e-9,
                    "{pair} {algorithm}: N=4 {} vs 4×N=1 {}",
                    n4.pages_io,
                    4.0 * n1.pages_io
                );
            }
            // …and for HHNL the pooled inner scans make it *strictly*
            // cheaper: the batch re-reads the outer side per query but
            // scans the inner collection ⌈Σ N2ᵢ/Xᵢ⌉ times instead of
            // Σ ⌈N2ᵢ/Xᵢ⌉ times.
            let n1 = report.case(&single, "HHNL").unwrap();
            let n4 = report.case(&batched, "HHNL").unwrap();
            assert!(
                n4.pages_io < 4.0 * n1.pages_io,
                "{pair} HHNL batch did not amortize: N=4 {} vs 4×N=1 {}",
                n4.pages_io,
                4.0 * n1.pages_io
            );
        }
    }

    #[test]
    fn frag_axis_adds_labelled_rows_and_prices_the_delta() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1); // balanced
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0, 0.10, 0.30];
        let report = run_suite(&grid).unwrap();

        // The pristine row keeps its classic label — the checked-in
        // baseline gates it — and must cost exactly what a grid without
        // the frag axis measures.
        let mut pristine_only = grid.clone();
        pristine_only.frag_levels = vec![0.0];
        let without = run_suite(&pristine_only).unwrap();
        let clean = report.case("balanced λ=5 B=160", "HHNL").unwrap();
        assert_eq!(
            clean.pages_io,
            without.case("balanced λ=5 B=160", "HHNL").unwrap().pages_io,
            "the frag axis must not perturb pristine rows"
        );

        for frag in ["10", "30"] {
            let label = format!("balanced λ=5 B=160 frag={frag}%");
            for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
                let c = report
                    .case(&label, algorithm)
                    .unwrap_or_else(|| panic!("missing {label} / {algorithm}"));
                assert!(c.pages_io > 0.0, "{label} {algorithm}");
                assert!(
                    c.drift_pct.is_some(),
                    "{label} {algorithm}: the fragmentation-aware model priced it"
                );
            }
        }
        // More churn costs HHNL more: the delta side files join every
        // inner scan, and 30% churn carries more delta pages than 10%.
        let f10 = report.case("balanced λ=5 B=160 frag=10%", "HHNL").unwrap();
        let f30 = report.case("balanced λ=5 B=160 frag=30%", "HHNL").unwrap();
        assert!(
            f30.pages_io > f10.pages_io,
            "frag=30% ({}) should out-cost frag=10% ({})",
            f30.pages_io,
            f10.pages_io
        );
    }

    #[test]
    fn filter_axis_adds_selective_rows_where_fnl_wins_pages() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.pairs.truncate(1); // balanced
        grid.lambdas = vec![5];
        grid.filter_lambdas = vec![80];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1, 4];
        grid.frag_levels = vec![0.0, 0.10];
        let report = run_suite(&grid).unwrap();

        // Filter-axis points run the sequential executors only, at the
        // base B=60 budget — no batch, frag or headroom-B companions ride
        // the selective λ.
        for suffix in [" N=4", " frag=10%", " B=160"] {
            assert!(
                !report
                    .cases
                    .iter()
                    .any(|c| c.case.contains("λ=80") && c.case.ends_with(suffix)),
                "filter axis leaked a `{suffix}` row"
            );
        }
        for algorithm in ["HHNL", "HVNL", "VVM", "FNL"] {
            let c = report
                .case("balanced λ=80 B=60", algorithm)
                .unwrap_or_else(|| panic!("missing filter-axis {algorithm} row"));
            assert!(c.pages_io > 0.0, "{algorithm}");
            assert!(
                c.drift_pct.is_some(),
                "{algorithm}: the model priced the filter-axis row"
            );
        }
        // The tentpole's measured claim at the selective point: pruning
        // over the compact signature index beats the data-page scan on
        // deterministic pages under memory pressure.
        let fnl = report.case("balanced λ=80 B=60", "FNL").unwrap();
        let hhnl = report.case("balanced λ=80 B=60", "HHNL").unwrap();
        assert!(
            fnl.pages_io < hhnl.pages_io,
            "FNL ({}) did not beat HHNL ({}) at the selective λ",
            fnl.pages_io,
            hhnl.pages_io
        );
    }

    /// Median of the absolute drift percentages of a report's priced cases.
    fn median_abs_drift(r: &BenchReport) -> f64 {
        let mut drifts: Vec<f64> = r
            .cases
            .iter()
            .filter_map(|c| c.drift_pct)
            .map(f64::abs)
            .collect();
        assert!(!drifts.is_empty(), "no priced cases in {r:?}");
        drifts.sort_by(f64::total_cmp);
        let n = drifts.len();
        if n % 2 == 1 {
            drifts[n / 2]
        } else {
            (drifts[n / 2 - 1] + drifts[n / 2]) / 2.0
        }
    }

    #[test]
    fn calibration_lowers_median_drift_without_changing_labels() {
        let mut grid = small_grid();
        grid.shard_counts = vec![];
        grid.lambdas = vec![5, 20];
        grid.filter_lambdas = vec![];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        let (seed_report, reports) = run_suite_with_reports(&grid).unwrap();
        assert!(
            reports
                .iter()
                .all(|r| !r.pair.is_empty() && r.buffer_pages == 160),
            "bench reports must carry their calibration key"
        );
        let obs: Vec<_> = reports.iter().map(|r| r.to_observation()).collect();
        grid.calibration = Some(CalibrationProfile::fit(&obs));
        let (cal_report, _) = run_suite_with_reports(&grid).unwrap();
        // The calibrated axis reprices predictions only: same case keys,
        // same deterministic page costs, so the same baseline still gates.
        let keys = |r: &BenchReport| {
            r.cases
                .iter()
                .map(|c| (c.case.clone(), c.algorithm.clone(), c.pages_io))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&seed_report), keys(&cal_report));
        assert!(
            median_abs_drift(&cal_report) < median_abs_drift(&seed_report),
            "calibration did not improve drift: {} vs {}",
            median_abs_drift(&cal_report),
            median_abs_drift(&seed_report)
        );
    }

    #[test]
    fn suite_json_is_byte_reproducible() {
        // Every axis at one grid point: two runs print the same bytes,
        // which is what lets the gate be equality.
        let mut grid = small_grid();
        grid.pairs.truncate(1);
        grid.lambdas.truncate(1);
        grid.buffer_pages.truncate(1);
        grid.batch_sizes = vec![1, 4];
        grid.frag_levels = vec![0.0, 0.10];
        grid.shard_counts = vec![2];
        let a = run_suite(&grid).unwrap().to_json();
        let b = run_suite(&grid).unwrap().to_json();
        assert_eq!(a, b);
        for token in [" N=4", " frag=10%", " S=2 naive", "λ=80 B=60"] {
            assert!(a.contains(token), "no `{token}` row in:\n{a}");
        }
        // There is no worker axis: every row is one thread's run.
        assert!(!a.contains(" w="), "{a}");
        assert!(!a.contains("wall_"), "{a}");
    }

    /// A grid with only the shards axis: the classic sweeps are cleared so
    /// the suite runs just the Zipfian pair through the multi-site
    /// executor.
    fn shard_only_grid() -> BenchGrid {
        let mut grid = small_grid();
        grid.pairs = vec![];
        grid.filter_lambdas = vec![];
        grid.lambdas = vec![5];
        grid.buffer_pages = vec![160];
        grid.batch_sizes = vec![1];
        grid.frag_levels = vec![0.0];
        grid
    }

    #[test]
    fn shard_axis_rows_carry_the_axis_token_and_are_deterministic() {
        let grid = shard_only_grid();
        let a = run_suite(&grid).unwrap();
        let b = run_suite(&grid).unwrap();
        // Every row on this axis carries the `S=` token, and S=1 runs only
        // under the skew-aware label.
        assert!(!a.cases.is_empty());
        for c in &a.cases {
            assert!(c.case.contains("S="), "missing axis token: {}", c.case);
        }
        assert!(a
            .cases
            .iter()
            .any(|c| c.case == "zipf λ=5 B=160 S=1 skew-aware"));
        assert!(!a.cases.iter().any(|c| c.case.contains("S=1 naive")));
        let pages = |r: &BenchReport| {
            r.cases
                .iter()
                .map(|c| (c.case.clone(), c.algorithm.clone(), c.pages_io))
                .collect::<Vec<_>>()
        };
        assert_eq!(pages(&a), pages(&b));
    }

    #[test]
    fn sharded_fnl_max_site_pages_fall_as_sites_are_added() {
        let report = run_suite(&shard_only_grid()).unwrap();
        for partitioning in ["skew-aware", "naive"] {
            let fnl = |s: usize| {
                // S=1 runs only under the skew-aware label.
                let strategy = if s == 1 { "skew-aware" } else { partitioning };
                let row = report
                    .case(&format!("zipf λ=5 B=160 S={s} {strategy}"), "FNL")
                    .unwrap_or_else(|| panic!("no S={s} {strategy} FNL row"));
                assert!(row.drift_pct.is_some(), "S={s} {strategy}: FNL is priced");
                row.pages_io
            };
            // Each site joins its own slice of the outer documents, so the
            // heaviest site reads less as the slices shrink.
            let (s1, s2, s4) = (fnl(1), fnl(2), fnl(4));
            assert!(s2 < s1, "{partitioning}: S=2 {s2} not below S=1 {s1}");
            assert!(s4 <= s2, "{partitioning}: S=4 {s4} above S=2 {s2}");
        }
    }

    #[test]
    fn skew_aware_beats_naive_on_the_zipfian_pair_at_s4() {
        let report = run_suite(&shard_only_grid()).unwrap();
        let max_shard = |partitioning: &str, algorithm: &str| {
            report
                .case(&format!("zipf λ=5 B=160 S=4 {partitioning}"), algorithm)
                .unwrap_or_else(|| panic!("no S=4 {partitioning} row for {algorithm}"))
                .pages_io
        };
        // The acceptance criterion: on a Zipfian term distribution the
        // naive uniform-in-term-id boundaries overload the head shard,
        // while df-weighted boundaries balance it — strictly lower
        // max-shard page cost at S=4.
        let aware = max_shard("skew-aware", "VVM");
        let naive = max_shard("naive", "VVM");
        assert!(
            aware < naive,
            "skew-aware max-shard pages {aware} not below naive {naive}"
        );
    }
}
