//! The `textjoin-sim calibrate` command: close the observability loop.
//!
//! One calibration round is: run the bench grid with the seed cost
//! formulas, append every keyed [`QueryReport`](textjoin_core::QueryReport)
//! to the persistent [`ReportStore`], reload the store *from disk* (calibration only ever
//! reads what survived the crash-safe round trip), fit a
//! [`CalibrationProfile`] from the accumulated observations, save it, and
//! re-run the same grid ranking by the calibrated predictions. The run
//! passes when the calibrated median |drift| is strictly below the seed
//! median — the gate CI enforces.

use crate::table::Table;
use std::path::Path;
use textjoin_bench::{run_suite_with_reports, small_grid, BenchGrid, BenchReport};
use textjoin_common::{Error, Result};
use textjoin_core::observation_from_json;
use textjoin_costmodel::CalibrationProfile;
use textjoin_obs::ReportStore;
use textjoin_storage::PageLatency;

/// Bound on the persistent store: comfortably above the grid size, so
/// several calibration rounds accumulate before compaction drops the
/// oldest observations.
pub const STORE_CAPACITY: usize = 512;

/// Everything one calibration round produced, for rendering and gating.
pub struct CalibrationRun {
    /// The fitted profile (also saved to the profile path).
    pub profile: CalibrationProfile,
    /// Reports persisted to the store this round.
    pub appended: usize,
    /// Records read back from the reloaded store (all rounds so far).
    pub reloaded: usize,
    /// Median |drift %| of the grid under the seed constants.
    pub median_seed: f64,
    /// Median |drift %| of the same grid under the fitted profile.
    pub median_calibrated: f64,
    /// The seed-constants bench run.
    pub seed_report: BenchReport,
    /// The calibrated bench run (identical case keys and page costs).
    pub calibrated_report: BenchReport,
}

impl CalibrationRun {
    /// The acceptance gate: calibration must *strictly* lower the median
    /// absolute drift over the grid.
    pub fn improved(&self) -> bool {
        self.median_calibrated < self.median_seed
    }

    /// The two-term latency model this round fitted, beside the built-in
    /// prices the planner ranks with when no profile is given: the fit's
    /// one `cpu_per_cell_ns` is per match, the built-ins split a match by
    /// loop and add what each loop scans.
    pub fn prices_line(&self) -> String {
        use textjoin_costmodel::work;
        format!(
            "fitted: page_ns={:.0} cpu_per_cell_ns={:.2} (α̂={:.2}, the grid's simulated latency \
             included) | built-in: page_ns = {} × page bytes, MATCH_NS={} ROW_MATCH_NS={} \
             PROBE_CELL_NS={} SIGNATURE_CELL_NS={} ICELL_NS={} LOOKUP_NS={}",
            self.profile.page_ns,
            self.profile.cpu_per_cell_ns,
            self.profile.alpha_hat,
            textjoin_storage::READ_NS_PER_BYTE,
            work::MATCH_NS,
            work::ROW_MATCH_NS,
            work::PROBE_CELL_NS,
            work::SIGNATURE_CELL_NS,
            work::ICELL_NS,
            work::LOOKUP_NS,
        )
    }

    /// Per-case before/after drift table (the EXPERIMENTS.md artifact).
    pub fn drift_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Calibration drift, median |drift| {:.2}% -> {:.2}% \
                 (α̂={:.2}, page_ns={:.0}, {} observations)",
                self.median_seed,
                self.median_calibrated,
                self.profile.alpha_hat,
                self.profile.page_ns,
                self.profile.samples,
            ),
            &["case", "algorithm", "seed drift %", "calibrated drift %"],
        );
        for c in &self.seed_report.cases {
            let after = self
                .calibrated_report
                .case(&c.case, &c.algorithm)
                .and_then(|c| c.drift_pct);
            t.push_row(vec![
                c.case.clone(),
                c.algorithm.clone(),
                c.drift_pct.map_or("-".into(), |d| format!("{d:+.2}")),
                after.map_or("-".into(), |d| format!("{d:+.2}")),
            ]);
        }
        t
    }
}

/// The grid one calibration round sweeps: the bench grid's sequential
/// single-query rows (those carry predictions and calibration keys), on a
/// drive with a simulated page latency — the page grid itself runs with
/// none — so each stored report's wall time has the page term the fit's
/// `page_ns` prices.
fn calibration_grid() -> BenchGrid {
    let mut grid = small_grid();
    grid.batch_sizes = vec![1];
    // Shard rows carry no per-pair calibration key (their cost is a
    // max-over-sites, not a single-drive measurement), so the axis only
    // adds runtime here.
    grid.shard_counts = vec![];
    grid.page_latency = PageLatency {
        seq_ns: 150_000,
        rand_ns: 300_000,
    };
    grid
}

fn store_err(path: &Path, e: std::io::Error) -> Error {
    Error::InvalidArgument(format!("report store {}: {e}", path.display()))
}

/// Runs one calibration round against the store at `store_path`, saving
/// the fitted profile JSON to `profile_path`.
pub fn run(store_path: &Path, profile_path: &Path) -> Result<CalibrationRun> {
    let mut grid = calibration_grid();
    let (seed_report, reports) = run_suite_with_reports(&grid)?;

    // Persist, then *reload from disk* before fitting: the fit must only
    // ever see observations that survived the append → reopen round trip,
    // so a crash costs at most the torn tail line — and earlier rounds'
    // reports (different process runs) merge into the same fit.
    let mut store =
        ReportStore::open(store_path, STORE_CAPACITY).map_err(|e| store_err(store_path, e))?;
    for r in &reports {
        store
            .append(&r.to_json())
            .map_err(|e| store_err(store_path, e))?;
    }
    drop(store);
    let store =
        ReportStore::open(store_path, STORE_CAPACITY).map_err(|e| store_err(store_path, e))?;
    // The tolerant observation parser, not `QueryReport::from_json`: a
    // store written by a newer (or older) binary can hold reports whose
    // algorithm label this build does not recognise, and the strict parser
    // would silently drop those lines from the fit. String-keyed
    // observations keep every record; the profile's `*/ALG` fallback rows
    // still calibrate the algorithms this build can rank.
    let observations: Vec<_> = store
        .records()
        .iter()
        .filter_map(|rec| observation_from_json(rec).ok())
        .collect();

    let profile = CalibrationProfile::fit(&observations);
    std::fs::write(profile_path, profile.to_json()).map_err(|e| {
        Error::InvalidArgument(format!("writing profile {}: {e}", profile_path.display()))
    })?;

    grid.calibration = Some(profile.clone());
    let (calibrated_report, _) = run_suite_with_reports(&grid)?;

    Ok(CalibrationRun {
        appended: reports.len(),
        reloaded: store.len(),
        median_seed: median_abs_drift(&seed_report),
        median_calibrated: median_abs_drift(&calibrated_report),
        profile,
        seed_report,
        calibrated_report,
    })
}

/// Median of the absolute drift percentages over a report's priced cases
/// (`NAN` when nothing was priced — an empty grid never gates).
fn median_abs_drift(r: &BenchReport) -> f64 {
    let mut drifts: Vec<f64> = r
        .cases
        .iter()
        .filter_map(|c| c.drift_pct)
        .map(f64::abs)
        .collect();
    if drifts.is_empty() {
        return f64::NAN;
    }
    drifts.sort_by(f64::total_cmp);
    let n = drifts.len();
    if n % 2 == 1 {
        drifts[n / 2]
    } else {
        (drifts[n / 2 - 1] + drifts[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_improves_the_median_and_persists_both_artifacts() {
        let dir = std::env::temp_dir().join(format!("textjoin-calibrate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("reports.jsonl");
        let profile = dir.join("profile.json");
        let _ = std::fs::remove_file(&store);

        let run1 = run(&store, &profile).unwrap();
        assert!(run1.appended > 0);
        assert_eq!(
            run1.reloaded, run1.appended,
            "first round reads its own reports"
        );
        assert!(
            run1.improved(),
            "median |drift| {:.3}% -> {:.3}%",
            run1.median_seed,
            run1.median_calibrated
        );
        // Same case keys and page costs: only the predictions moved.
        let keys = |r: &BenchReport| {
            r.cases
                .iter()
                .map(|c| (c.case.clone(), c.algorithm.clone(), c.pages_io))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&run1.seed_report), keys(&run1.calibrated_report));
        // The saved profile round-trips: serialization truncates float
        // precision, so stability is checked on the serialized form.
        let loaded =
            CalibrationProfile::from_json(&std::fs::read_to_string(&profile).unwrap()).unwrap();
        assert_eq!(loaded.to_json(), run1.profile.to_json());
        assert_eq!(loaded.samples, run1.profile.samples);

        // A second round (a new "process") merges the first round's stored
        // reports with its own: the store carried them across runs.
        let run2 = run(&store, &profile).unwrap();
        assert_eq!(run2.reloaded, run1.reloaded + run2.appended);
        assert!(run2.improved());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_algorithm_records_still_feed_the_fit() {
        let dir =
            std::env::temp_dir().join(format!("textjoin-calibrate-unk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("reports.jsonl");
        let profile = dir.join("profile.json");
        let _ = std::fs::remove_file(&store);

        let run1 = run(&store, &profile).unwrap();
        // A record written by a build with an algorithm this one has never
        // heard of: the strict enum parser rejects it, but the calibration
        // loader must keep it in the fit.
        let foreign = "{\"query\":\"q\",\"algorithm\":\"ZZZL\",\"pair\":\"balanced\",\
                       \"seq_reads\":7,\"rand_reads\":2,\"measured_cost\":17.000,\
                       \"wall_ns\":99,\"cache_hits\":0,\"entry_fetches\":0,\
                       \"skipped_docs\":0,\"skipped_entries\":0,\"sim_ops\":3,\
                       \"cells_touched\":11,\"quality\":\"full\",\"phases\":[]}";
        let mut s = ReportStore::open(&store, STORE_CAPACITY).unwrap();
        s.append(foreign).unwrap();
        drop(s);

        let run2 = run(&store, &profile).unwrap();
        assert_eq!(run2.reloaded, run1.reloaded + 1 + run2.appended);
        // Every reloaded record became an observation — including the
        // foreign one the old strict loader silently dropped.
        assert_eq!(run2.profile.samples as usize, run2.reloaded);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
