//! The one verdict record of the seeded scenario suites, `chaos` and
//! `chaos-merge`: every check a seed ran, the reports of the joins that
//! completed under faults, and the dumps of the scenarios that failed.

use textjoin_core::{JoinOutcome, QueryReport, ResultQuality};

/// One pass/fail verdict of a seeded scenario.
#[derive(Clone, Debug)]
pub struct Check {
    /// The seed the scenario's failure schedule was derived from.
    pub seed: u64,
    /// Scenario name.
    pub scenario: &'static str,
    /// What was checked.
    pub check: String,
    /// Whether it held.
    pub passed: bool,
}

/// A captured page-level dump of a durability-critical file, kept for
/// offline inspection when a check fails.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Suggested file name, e.g. `seed3-crash-during-merge-wal.hex`.
    pub name: String,
    /// Hex rendering, one line per page (unreadable pages noted).
    pub contents: String,
}

/// Everything one seed produced.
#[derive(Debug)]
pub struct SeedRun {
    /// The seed every scenario of the run was derived from.
    pub seed: u64,
    /// Scenario verdicts, in execution order.
    pub checks: Vec<Check>,
    /// One report per join that completed under an active fault plan:
    /// degraded runs carry the most telling accounting (skip counters,
    /// partial quality, fault-inflated costs).
    pub reports: Vec<QueryReport>,
    /// Dumps of the scenarios that failed a check (empty when all passed).
    pub artifacts: Vec<Artifact>,
}

impl SeedRun {
    /// An empty run of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            checks: Vec::new(),
            reports: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Records one verdict of `scenario`.
    pub fn check(&mut self, scenario: &'static str, check: impl Into<String>, passed: bool) {
        self.checks.push(Check {
            seed: self.seed,
            scenario,
            check: check.into(),
            passed,
        });
    }

    /// Records the report of a join that completed under faults, labelled
    /// `seed=<seed> <what>`.
    pub fn report(&mut self, what: &str, outcome: &JoinOutcome, predicted: Option<f64>) {
        let label = format!("seed={} {what}", self.seed);
        let report = QueryReport::from_outcome(label, outcome, None, predicted);
        self.reports.push(report);
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Whether some check of `scenario` failed.
    pub fn failed(&self, scenario: &str) -> bool {
        (self.checks.iter()).any(|c| c.scenario == scenario && !c.passed)
    }
}

/// Whether an outcome's quality tag agrees with its skip counters.
pub fn accounting_consistent(outcome: &JoinOutcome) -> bool {
    let skipped = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
    outcome.quality == outcome.stats.quality()
        && (outcome.quality == ResultQuality::Partial) == (skipped > 0)
}
