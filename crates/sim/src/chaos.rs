//! Chaos scenarios: seeded fault schedules against real executor runs.
//!
//! Each scenario builds a fresh fixture (bit-flips are permanent), installs
//! a fault schedule on the simulated disk and checks the robustness
//! contract end to end:
//!
//! 1. transient read faults below the retry budget are absorbed — the
//!    result is bit-identical to a clean run and `FaultStats::retries`
//!    proves the retry path ran;
//! 2. faults that exhaust the retry policy surface as typed
//!    [`Error::Io`] in strict mode and as counted skips with a
//!    [`ResultQuality::Partial`] tag in degraded mode;
//! 3. a seeded mixed schedule (transients, bit flips, latency spikes) over
//!    every file never panics any executor — each run ends in `Ok` with
//!    consistent partial-result accounting, or in a typed error;
//! 4. a hard mid-run HVNL failure (corrupt inverted file and dictionary)
//!    makes the integrated algorithm re-plan onto HHNL and complete;
//! 5. a seeded fault on one site of a sharded run degrades the merged
//!    answer to a `Partial` subset of the clean run while the healthy
//!    sites stay `Full`.
//!
//! Every check is returned as a [`ChaosCheck`] row so `textjoin-sim chaos`
//! can print a verdict per seed and fail the process on any violation.

use std::sync::Arc;
use textjoin_collection::{Collection, SynthSpec};
use textjoin_common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    execute_sharded, hhnl, integrated, Indexes, JoinOutcome, JoinSpec, OuterDocs, QueryReport,
    ResultQuality, ShardFault, ShardOptions,
};
use textjoin_costmodel::{Algorithm, IoScenario};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_storage::{DiskSim, FaultKind, FaultPlan, FileId};

/// Everything one chaos seed produced: pass/fail verdicts plus a
/// [`QueryReport`] for every join that completed under faults. The reports
/// used to be discarded — degraded runs carry the most interesting
/// accounting (skip counters, partial quality, fault-inflated costs), so
/// they are routed out for the caller to print or feed a slow-query log.
#[derive(Debug, Default)]
pub struct ChaosRun {
    /// Scenario verdicts, in execution order.
    pub checks: Vec<ChaosCheck>,
    /// One report per completed executor run under an active fault plan.
    pub reports: Vec<QueryReport>,
}

/// One pass/fail verdict from a chaos scenario.
#[derive(Clone, Debug)]
pub struct ChaosCheck {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Scenario name.
    pub scenario: &'static str,
    /// What was checked.
    pub check: String,
    /// Whether it held.
    pub passed: bool,
}

/// Parses a `--seed` argument: either one seed (`"3"`) or an inclusive
/// range (`"1..8"`).
pub fn parse_seeds(s: &str) -> Option<Vec<u64>> {
    if let Some((a, b)) = s.split_once("..") {
        let a: u64 = a.parse().ok()?;
        let b: u64 = b.parse().ok()?;
        if a > b {
            return None;
        }
        Some((a..=b).collect())
    } else {
        Some(vec![s.parse().ok()?])
    }
}

struct Fixture {
    disk: Arc<DiskSim>,
    c1: Collection,
    c2: Collection,
    inv1: InvertedFile,
    inv2: InvertedFile,
    fnl1: FnlIndex,
}

impl Fixture {
    /// Small dense collections — enough pages in every file for a schedule
    /// to target, small enough to rebuild per scenario.
    fn small() -> Result<Fixture> {
        Self::build(60, 40)
    }

    /// A large inner / small outer pair where a one-document outer
    /// selection makes HVNL the planner's choice (the re-plan scenario).
    fn hvnl_favoured() -> Result<Fixture> {
        Self::build(400, 40)
    }

    fn build(n1: u64, n2: u64) -> Result<Fixture> {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = SynthSpec::from_stats(CollectionStats::new(n1, 12.0, 150), 71)
            .generate(Arc::clone(&disk), "c1")?;
        let c2 = SynthSpec::from_stats(CollectionStats::new(n2, 12.0, 150), 72)
            .generate(Arc::clone(&disk), "c2")?;
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1)?;
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2)?;
        let fnl1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1)?;
        Ok(Fixture {
            disk,
            c1,
            c2,
            inv1,
            inv2,
            fnl1,
        })
    }

    fn spec(&self) -> JoinSpec<'_> {
        JoinSpec::new(&self.c1, &self.c2)
            .with_sys(SystemParams {
                buffer_pages: 200,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams {
                lambda: 5,
                delta: 1.0,
            })
    }
}

/// Deterministic page picker: up to `take` distinct pages of a file.
fn pick_pages(seed: u64, file_pages: u64, take: u64) -> Vec<u64> {
    let mut pages: Vec<u64> = (0..take.min(file_pages))
        .map(|i| {
            (seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(i * 7919))
                % file_pages
        })
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

fn push(
    checks: &mut Vec<ChaosCheck>,
    seed: u64,
    scenario: &'static str,
    check: impl Into<String>,
    passed: bool,
) {
    checks.push(ChaosCheck {
        seed,
        scenario,
        check: check.into(),
        passed,
    });
}

/// Whether an outcome's quality tag agrees with its skip counters.
fn accounting_consistent(outcome: &JoinOutcome) -> bool {
    let skipped = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
    outcome.quality == outcome.stats.quality()
        && (outcome.quality == ResultQuality::Partial) == (skipped > 0)
}

/// Scenario 1: transient faults below the retry budget are invisible to
/// the caller — same result, `Full` quality — and visible in the counters.
fn scenario_transient_absorbed(seed: u64, run: &mut ChaosRun) -> Result<()> {
    const NAME: &str = "transient-absorbed";
    let f = Fixture::small()?;
    let spec = f.spec();
    let baseline = hhnl::execute(&spec)?.result;

    let file = f.c2.store().file();
    let mut plan = FaultPlan::new();
    for page in pick_pages(seed, f.disk.num_pages(file), 3) {
        // Two failures, three attempts by default: always absorbed.
        plan = plan.with_fault(file, page, 0, FaultKind::TransientRead { failures: 2 });
    }
    let injected = plan.len();
    f.disk.set_fault_plan(plan);
    f.disk.reset_fault_stats();

    let got = hhnl::execute(&spec)?;
    let stats = f.disk.fault_stats();
    run.reports.push(QueryReport::from_outcome(
        format!("seed={seed} {NAME} HHNL"),
        &got,
        None,
        None,
    ));
    push(
        &mut run.checks,
        seed,
        NAME,
        "result identical to the clean run",
        got.result == baseline,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "quality stays full",
        got.quality == ResultQuality::Full,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        format!(
            "retries counted ({} for {} faults), none gave up",
            stats.retries, injected
        ),
        stats.retries >= injected as u64 && stats.gave_up == 0,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "every scheduled fault fired",
        f.disk.pending_faults() == 0,
    );
    f.disk.clear_fault_plan();
    Ok(())
}

/// Scenario 2: a fault that outlives the retry policy is a typed
/// [`Error::Io`] in strict mode and a counted skip in degraded mode.
fn scenario_retry_exhausted(seed: u64, run: &mut ChaosRun) -> Result<()> {
    const NAME: &str = "retry-exhausted";
    let f = Fixture::small()?;
    let spec = f.spec();
    let file = f.c2.store().file();
    let page = pick_pages(seed, f.disk.num_pages(file), 1)[0];
    let plan = FaultPlan::new().with_fault(file, page, 0, FaultKind::TransientRead { failures: 9 });

    f.disk.set_fault_plan(plan.clone());
    f.disk.reset_fault_stats();
    let strict = hhnl::execute(&spec);
    push(
        &mut run.checks,
        seed,
        NAME,
        "strict mode returns a typed i/o error",
        matches!(strict, Err(Error::Io { .. })),
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "the exhausted retry is counted as given up",
        f.disk.fault_stats().gave_up >= 1,
    );

    // The strict attempt spent the fault; re-arm it for the degraded run.
    f.disk.set_fault_plan(plan);
    let degraded = hhnl::execute(&spec.with_degraded())?;
    run.reports.push(QueryReport::from_outcome(
        format!("seed={seed} {NAME} degraded HHNL"),
        &degraded,
        None,
        None,
    ));
    push(
        &mut run.checks,
        seed,
        NAME,
        format!(
            "degraded mode completes partially ({} docs skipped)",
            degraded.stats.skipped_docs
        ),
        degraded.quality == ResultQuality::Partial && degraded.stats.skipped_docs >= 1,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "partial-result accounting is consistent",
        accounting_consistent(&degraded),
    );
    f.disk.clear_fault_plan();
    Ok(())
}

/// Scenario 3: a seeded mixed schedule over every file never panics any
/// executor; each degraded run ends in `Ok` with consistent accounting or
/// in a typed error.
fn scenario_seeded_schedule(seed: u64, run: &mut ChaosRun) -> Result<()> {
    const NAME: &str = "seeded-schedule";
    for algorithm in Algorithm::ALL {
        // Fresh fixture per executor: seeded schedules include permanent
        // bit flips, and each executor should face the same storage state.
        let f = Fixture::small()?;
        // Every file an executor can touch is a fault target, including
        // the FNL signature file and its term-order sidecar.
        let files: [FileId; 7] = [
            f.c1.store().file(),
            f.c2.store().file(),
            f.inv1.file(),
            f.inv1.btree().file(),
            f.inv2.file(),
            f.fnl1.sig_file(),
            f.fnl1.meta_file(),
        ];
        let mut targets = Vec::new();
        for (i, &file) in files.iter().enumerate() {
            for page in pick_pages(seed.wrapping_add(i as u64), f.disk.num_pages(file), 2) {
                targets.push((file, page));
            }
        }
        f.disk.set_fault_plan(FaultPlan::seeded(seed, &targets));
        f.disk.reset_fault_stats();

        let spec = f.spec().with_degraded();
        let indexes = Indexes::all(&f.inv1, &f.inv2, &f.fnl1);
        let attempt = textjoin_core::execute(algorithm, &spec, &indexes);
        let (verdict, passed) = match attempt {
            Ok(outcome) => {
                let verdict = format!(
                    "{algorithm} finished {} ({} docs + {} entries skipped)",
                    outcome.quality, outcome.stats.skipped_docs, outcome.stats.skipped_entries
                );
                let passed = accounting_consistent(&outcome);
                run.reports.push(QueryReport::from_outcome(
                    format!("seed={seed} {NAME} degraded {algorithm}"),
                    &outcome,
                    None,
                    None,
                ));
                (verdict, passed)
            }
            Err(e @ (Error::Corrupt(_) | Error::Io { .. } | Error::InsufficientMemory { .. })) => {
                (format!("{algorithm} failed with a typed error: {e}"), true)
            }
            Err(e) => (
                format!("{algorithm} failed with an unexpected error: {e}"),
                false,
            ),
        };
        push(&mut run.checks, seed, NAME, verdict, passed);
    }
    Ok(())
}

/// Scenario 4: HVNL is the plan's choice, its inverted file and dictionary
/// are corrupt, and the integrated algorithm re-plans onto HHNL — which
/// never touches the inverted file — and completes with the right answer.
fn scenario_replan_to_hhnl(seed: u64, run: &mut ChaosRun) -> Result<()> {
    const NAME: &str = "replan-to-hhnl";
    let f = Fixture::hvnl_favoured()?;
    let selected = [DocId::new((seed % f.c2.store().num_docs()) as u32)];
    let spec = f.spec().with_outer_docs(OuterDocs::Selected(&selected));
    let baseline = hhnl::execute(&spec)?.result;

    // Corrupt both vertical structures: the dictionary kills HVNL's setup,
    // the inverted file kills VVM's merge scan. Only HHNL can finish.
    f.disk.flip_bit(f.inv1.btree().file(), 0, seed)?;
    f.disk.flip_bit(f.inv1.file(), 0, seed.wrapping_add(13))?;

    let got = integrated::execute(&spec, &f.inv1, &f.inv2, IoScenario::Dedicated)?;
    run.reports.push(QueryReport::from_outcome(
        format!("seed={seed} {NAME} integrated"),
        &got.outcome,
        None,
        Some(got.estimates.cost(got.chosen, IoScenario::Dedicated)),
    ));
    push(
        &mut run.checks,
        seed,
        NAME,
        "the plan's first choice was HVNL",
        got.ranking[0].algorithm == Algorithm::Hvnl,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        format!("re-planned onto {}", got.chosen),
        got.chosen == Algorithm::Hhnl,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "the fallback run matches a direct HHNL run",
        got.outcome.result == baseline && got.outcome.quality == ResultQuality::Full,
    );
    Ok(())
}

/// Scenario 5: a seeded fault strikes one site of a sharded run mid-way
/// (after that site's structures are built, before its join runs). In
/// degraded mode the faulted site skips its unreadable documents, the
/// per-site report carries the `Partial` tag, the merged answer degrades
/// to `Partial` — and stays a subset of the clean single-node run, because
/// the healthy sites' rows are untouched.
fn scenario_shard_fault_partial(seed: u64, run: &mut ChaosRun) -> Result<()> {
    const NAME: &str = "shard-fault-partial";
    let f = Fixture::small()?;
    let spec = f.spec();
    let clean = hhnl::execute(&spec)?.result;

    let shards = 3;
    let fault = ShardFault {
        shard: (seed % shards as u64) as usize,
        page: seed,
        kind: textjoin_storage::FaultKind::BitFlip {
            bit_offset: seed.wrapping_mul(7919),
        },
    };
    let opts = ShardOptions::new(shards).with_shard_fault(fault);
    let degraded = execute_sharded(&spec.with_degraded(), Algorithm::Hhnl, &opts)?;
    run.reports.push(QueryReport::from_outcome(
        format!("seed={seed} {NAME} degraded sharded HHNL"),
        &degraded.outcome,
        None,
        None,
    ));
    push(
        &mut run.checks,
        seed,
        NAME,
        format!(
            "merged result degrades to partial ({} docs skipped)",
            degraded.outcome.stats.skipped_docs
        ),
        degraded.outcome.quality == ResultQuality::Partial
            && degraded.outcome.stats.skipped_docs > 0,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        format!(
            "the faulted site (shard {}) reports the degradation",
            fault.shard
        ),
        degraded
            .shards
            .iter()
            .any(|r| r.shard == fault.shard && r.quality == ResultQuality::Partial),
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "healthy sites stay full",
        degraded
            .shards
            .iter()
            .filter(|r| r.shard != fault.shard)
            .all(|r| r.quality == ResultQuality::Full),
    );
    let subset = degraded.outcome.result.iter().count() <= clean.iter().count()
        && degraded
            .outcome
            .result
            .iter()
            .all(|(id, _)| clean.matches(id).is_some());
    push(
        &mut run.checks,
        seed,
        NAME,
        "the partial answer is a subset of the clean run",
        subset,
    );
    push(
        &mut run.checks,
        seed,
        NAME,
        "partial-result accounting is consistent",
        accounting_consistent(&degraded.outcome),
    );
    Ok(())
}

/// Runs every chaos scenario under one seed. A returned error means a
/// scenario could not even set itself up (fixture generation failed) —
/// executor failures under fault schedules are reported as failed checks,
/// not errors. Completed runs additionally surface their [`QueryReport`]s
/// in [`ChaosRun::reports`].
pub fn run_seed(seed: u64) -> Result<ChaosRun> {
    let mut run = ChaosRun::default();
    scenario_transient_absorbed(seed, &mut run)?;
    scenario_retry_exhausted(seed, &mut run)?;
    scenario_seeded_schedule(seed, &mut run)?;
    scenario_replan_to_hhnl(seed, &mut run)?;
    scenario_shard_fault_partial(seed, &mut run)?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seeds_handles_single_and_range() {
        assert_eq!(parse_seeds("5"), Some(vec![5]));
        assert_eq!(parse_seeds("1..4"), Some(vec![1, 2, 3, 4]));
        assert_eq!(parse_seeds("3..3"), Some(vec![3]));
        assert_eq!(parse_seeds("4..1"), None);
        assert_eq!(parse_seeds("x"), None);
    }

    #[test]
    fn picked_pages_are_distinct_and_in_range() {
        for seed in 0..20 {
            let pages = pick_pages(seed, 11, 3);
            assert!(!pages.is_empty());
            assert!(pages.iter().all(|&p| p < 11));
            assert!(pages.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn every_check_passes_for_a_fixed_seed() {
        let run = run_seed(1).expect("scenarios set up");
        for c in &run.checks {
            assert!(c.passed, "[{}] {}", c.scenario, c.check);
        }
        // All four scenarios reported something.
        for scenario in [
            "transient-absorbed",
            "retry-exhausted",
            "seeded-schedule",
            "replan-to-hhnl",
            "shard-fault-partial",
        ] {
            assert!(
                run.checks.iter().any(|c| c.scenario == scenario),
                "{scenario}"
            );
        }
    }

    #[test]
    fn completed_runs_surface_query_reports() {
        let run = run_seed(1).expect("scenarios set up");
        assert!(!run.reports.is_empty());
        // The degraded HHNL run of scenario 2 must carry its skip counters
        // into the report instead of discarding the stats.
        let degraded = run
            .reports
            .iter()
            .find(|r| r.query.contains("retry-exhausted"))
            .expect("degraded report routed out");
        assert_eq!(degraded.quality, textjoin_core::ResultQuality::Partial);
        assert!(degraded.skipped_docs >= 1);
        assert!(degraded.measured_cost > 0.0);
        // Reports serialise, so `textjoin-sim chaos` can dump them.
        assert!(degraded.to_json().contains("\"quality\":\"partial\""));
    }
}
