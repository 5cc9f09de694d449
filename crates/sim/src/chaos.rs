//! Chaos scenarios: seeded fault schedules against real executor runs.
//!
//! Each scenario builds a fresh fixture (bit-flips are permanent), installs
//! a fault schedule on the simulated disk and checks the robustness
//! contract end to end:
//!
//! 1. transient read faults below the retry budget are absorbed — the
//!    result is bit-identical to a clean run and `FaultStats::retries`
//!    proves the retry path ran;
//! 2. faults that exhaust the read's retries surface as typed
//!    [`Error::Io`] in strict mode and as counted skips with a
//!    [`ResultQuality::Partial`] tag in degraded mode;
//! 3. a seeded mixed schedule (transients, bit flips, latency spikes) over
//!    every file never panics any executor — each run ends in `Ok` with
//!    consistent partial-result accounting, or in a typed error;
//! 4. a hard mid-run HVNL failure (corrupt inverted file and dictionary)
//!    makes the integrated algorithm re-plan onto HHNL and complete;
//! 5. a seeded fault on one site of a sharded run (HHNL or VVM by seed
//!    parity) degrades the merged answer to a `Partial` subset of the clean
//!    run while the healthy sites stay `Full`.
//!
//! Every check is recorded in a [`SeedRun`] so `textjoin-sim chaos` can
//! print a verdict per seed and fail the process on any violation.

use crate::fixture::Pair;
use crate::verdict::{accounting_consistent, SeedRun};
use std::sync::Arc;
use textjoin_collection::SynthSpec;
use textjoin_common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin_core::{
    execute_sharded, hhnl, integrated, OuterDocs, ResultQuality, ShardFault, ShardOptions,
};
use textjoin_costmodel::{Algorithm, IoScenario};
use textjoin_storage::{DiskSim, FaultKind, FaultPlan, FileId};

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

/// Small dense collections (`n1` inner, `n2` outer documents) — enough
/// pages in every file for a schedule to target, small enough to rebuild
/// per scenario. `(60, 40)` is the common pair; `(400, 40)` is large
/// enough on the inner side that a one-document outer selection makes HVNL
/// the planner's choice (the re-plan scenario).
fn pair(n1: u64, n2: u64) -> Result<Pair> {
    let synth = |n, seed| SynthSpec::from_stats(CollectionStats::new(n, 12.0, 150), seed);
    Pair::generate(Arc::new(DiskSim::new(256)), &synth(n1, 71), &synth(n2, 72))
}

/// The join every scenario runs, on the pair's 256-byte pages.
const SYS: SystemParams = SystemParams {
    buffer_pages: 200,
    page_size: 256,
    alpha: 5.0,
};
const QUERY: QueryParams = QueryParams::paper_base().with_lambda(5);

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

/// Scenario 1: transient faults below the retry budget are invisible to
/// the caller — same result, `Full` quality — and visible in the counters.
fn scenario_transient_absorbed(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "transient-absorbed";
    let f = pair(60, 40)?;
    let spec = f.spec(SYS, QUERY);
    let baseline = hhnl::execute(&spec)?.result;

    let file = f.c2.store().file();
    let mut plan = FaultPlan::new();
    for page in pick_pages(run.seed, f.disk.num_pages(file), 3) {
        // Two failures, three attempts by default: always absorbed.
        plan = plan.with_fault(file, page, 0, FaultKind::TransientRead { failures: 2 });
    }
    let injected = plan.len();
    f.disk.set_fault_plan(plan);
    f.disk.reset_fault_stats();

    let got = hhnl::execute(&spec)?;
    let stats = f.disk.fault_stats();
    run.report(&format!("{NAME} HHNL"), &got, None);
    let identical = got.result == baseline;
    run.check(NAME, "result identical to the clean run", identical);
    let full = got.quality == ResultQuality::Full;
    run.check(NAME, "quality stays full", full);
    run.check(
        NAME,
        format!(
            "retries counted ({} for {} faults), none gave up",
            stats.retries, injected
        ),
        stats.retries >= injected as u64 && stats.gave_up == 0,
    );
    let fired = f.disk.pending_faults() == 0;
    run.check(NAME, "every scheduled fault fired", fired);
    f.disk.clear_fault_plan();
    Ok(())
}

/// Scenario 2: a fault that outlives the read's retries is a typed
/// [`Error::Io`] in strict mode and a counted skip in degraded mode.
fn scenario_retry_exhausted(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "retry-exhausted";
    let f = pair(60, 40)?;
    let spec = f.spec(SYS, QUERY);
    let file = f.c2.store().file();
    let page = pick_pages(run.seed, f.disk.num_pages(file), 1)[0];
    let plan = FaultPlan::new().with_fault(file, page, 0, FaultKind::TransientRead { failures: 9 });

    f.disk.set_fault_plan(plan.clone());
    f.disk.reset_fault_stats();
    let strict = matches!(hhnl::execute(&spec), Err(Error::Io { .. }));
    run.check(NAME, "strict mode returns a typed i/o error", strict);
    let gave_up = f.disk.fault_stats().gave_up >= 1;
    run.check(NAME, "the exhausted retry is counted as given up", gave_up);

    // The strict attempt spent the fault; re-arm it for the degraded run.
    f.disk.set_fault_plan(plan);
    let degraded = hhnl::execute(&spec.with_degraded())?;
    run.report(&format!("{NAME} degraded HHNL"), &degraded, None);
    run.check(
        NAME,
        format!(
            "degraded mode completes partially ({} docs skipped)",
            degraded.stats.skipped_docs
        ),
        degraded.quality == ResultQuality::Partial && degraded.stats.skipped_docs >= 1,
    );
    let consistent = accounting_consistent(&degraded);
    run.check(NAME, "partial-result accounting is consistent", consistent);
    f.disk.clear_fault_plan();
    Ok(())
}

/// Scenario 3: a seeded mixed schedule over every file never panics any
/// executor; each degraded run ends in `Ok` with consistent accounting or
/// in a typed error.
fn scenario_seeded_schedule(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "seeded-schedule";
    let seed = run.seed;
    for algorithm in Algorithm::ALL {
        // Fresh fixture per executor: seeded schedules include permanent
        // bit flips, and each executor should face the same storage state.
        let f = pair(60, 40)?;
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

        let spec = f.spec(SYS, QUERY).with_degraded();
        let (verdict, passed) = match textjoin_core::execute(algorithm, &spec, &f.indexes()) {
            Ok(outcome) => {
                run.report(&format!("{NAME} degraded {algorithm}"), &outcome, None);
                let verdict = format!(
                    "{algorithm} finished {} ({} docs + {} entries skipped)",
                    outcome.quality, outcome.stats.skipped_docs, outcome.stats.skipped_entries
                );
                (verdict, accounting_consistent(&outcome))
            }
            Err(e @ (Error::Corrupt(_) | Error::Io { .. } | Error::InsufficientMemory { .. })) => {
                (format!("{algorithm} failed with a typed error: {e}"), true)
            }
            Err(e) => (
                format!("{algorithm} failed with an unexpected error: {e}"),
                false,
            ),
        };
        run.check(NAME, verdict, passed);
    }
    Ok(())
}

/// Scenario 4: HVNL is the plan's choice, its inverted file and dictionary
/// are corrupt, and the integrated algorithm re-plans onto HHNL — which
/// never touches the inverted file — and completes with the right answer.
fn scenario_replan_to_hhnl(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "replan-to-hhnl";
    let seed = run.seed;
    let f = pair(400, 40)?;
    let selected = [DocId::new((seed % f.c2.store().num_docs()) as u32)];
    let spec = f
        .spec(SYS, QUERY)
        .with_outer_docs(OuterDocs::Selected(&selected));
    let baseline = hhnl::execute(&spec)?.result;

    // Corrupt both vertical structures: the dictionary kills HVNL's setup,
    // the inverted file kills VVM's merge scan. Only HHNL can finish.
    f.disk.flip_bit(f.inv1.btree().file(), 0, seed)?;
    f.disk.flip_bit(f.inv1.file(), 0, seed.wrapping_add(13))?;

    let got = integrated::execute(&spec, &f.inv1, &f.inv2, IoScenario::Dedicated)?;
    let predicted = got.estimates.cost(got.chosen, IoScenario::Dedicated);
    run.report(&format!("{NAME} integrated"), &got.outcome, Some(predicted));
    let hvnl_first = got.ranking[0].algorithm == Algorithm::Hvnl;
    run.check(NAME, "the plan's first choice was HVNL", hvnl_first);
    let replanned = got.chosen == Algorithm::Hhnl;
    run.check(NAME, format!("re-planned onto {}", got.chosen), replanned);
    run.check(
        NAME,
        "the fallback run matches a direct HHNL run",
        got.outcome.result == baseline && got.outcome.quality == ResultQuality::Full,
    );
    Ok(())
}

/// Scenario 5: a seeded fault strikes one site of a sharded run mid-way
/// (after that site's structures are built, before its join runs). In
/// degraded mode the faulted site skips its unreadable documents (HHNL,
/// even seeds) or inverted-file entries (VVM, odd seeds), the
/// per-site report carries the `Partial` tag, the merged answer degrades
/// to `Partial` — and stays a subset of the clean single-node run, because
/// the healthy sites' rows are untouched.
fn scenario_shard_fault_partial(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "shard-fault-partial";
    let seed = run.seed;
    let f = pair(60, 40)?;
    let spec = f.spec(SYS, QUERY);
    let clean = hhnl::execute(&spec)?.result;

    let shards = 3;
    let fault = ShardFault {
        shard: (seed % shards as u64) as usize,
        page: seed,
        kind: FaultKind::BitFlip {
            bit_offset: seed.wrapping_mul(7919),
        },
    };
    let opts = ShardOptions::new(shards).with_shard_fault(fault);
    let algorithm = [Algorithm::Hhnl, Algorithm::Vvm][seed as usize % 2];
    let unit = ["docs", "entries"][seed as usize % 2];
    let degraded = execute_sharded(&spec.with_degraded(), algorithm, &opts)?;
    let merged = &degraded.outcome;
    run.report(
        &format!("{NAME} degraded sharded {algorithm}"),
        merged,
        None,
    );
    let skipped = merged.stats.skipped_docs + merged.stats.skipped_entries;
    run.check(
        NAME,
        format!("merged result degrades to partial ({skipped} {unit} skipped)"),
        merged.quality == ResultQuality::Partial && skipped > 0,
    );
    let sites = &degraded.shards;
    run.check(
        NAME,
        format!(
            "the faulted site (shard {}) reports the degradation",
            fault.shard
        ),
        (sites.iter()).any(|r| r.shard == fault.shard && r.quality == ResultQuality::Partial),
    );
    let healthy_full = (sites.iter())
        .filter(|r| r.shard != fault.shard)
        .all(|r| r.quality == ResultQuality::Full);
    run.check(NAME, "healthy sites stay full", healthy_full);
    let subset = merged.result.iter().count() <= clean.iter().count()
        && (merged.result.iter()).all(|(id, _)| clean.matches(id).is_some());
    run.check(
        NAME,
        "the partial answer is a subset of the clean run",
        subset,
    );
    let consistent = accounting_consistent(merged);
    run.check(NAME, "partial-result accounting is consistent", consistent);
    Ok(())
}

/// Runs every chaos scenario under one seed. A returned error means a
/// scenario could not even set itself up (fixture generation failed) —
/// executor failures under fault schedules are reported as failed checks,
/// not errors. Completed runs additionally surface their reports in
/// [`SeedRun::reports`].
pub fn run_seed(seed: u64) -> Result<SeedRun> {
    let mut run = SeedRun::new(seed);
    scenario_transient_absorbed(&mut run)?;
    scenario_retry_exhausted(&mut run)?;
    scenario_seeded_schedule(&mut run)?;
    scenario_replan_to_hhnl(&mut run)?;
    scenario_shard_fault_partial(&mut run)?;
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
        // Seed 1's verdicts word for word, in order: every scenario ran,
        // every check held, and no fault target moved.
        let run = run_seed(1).expect("scenarios set up");
        let got: Vec<_> = (run.checks.iter())
            .map(|c| (c.seed, c.scenario, c.check.as_str(), c.passed))
            .collect();
        let want = [
            ("transient-absorbed", "result identical to the clean run"),
            ("transient-absorbed", "quality stays full"),
            (
                "transient-absorbed",
                "retries counted (6 for 3 faults), none gave up",
            ),
            ("transient-absorbed", "every scheduled fault fired"),
            ("retry-exhausted", "strict mode returns a typed i/o error"),
            (
                "retry-exhausted",
                "the exhausted retry is counted as given up",
            ),
            (
                "retry-exhausted",
                "degraded mode completes partially (1 docs skipped)",
            ),
            ("retry-exhausted", "partial-result accounting is consistent"),
            (
                "seeded-schedule",
                "HHNL finished partial (10 docs + 0 entries skipped)",
            ),
            (
                "seeded-schedule",
                "HVNL finished full (0 docs + 0 entries skipped)",
            ),
            (
                "seeded-schedule",
                "VVM finished full (0 docs + 0 entries skipped)",
            ),
            (
                "seeded-schedule",
                "FNL finished full (0 docs + 0 entries skipped)",
            ),
            ("replan-to-hhnl", "the plan's first choice was HVNL"),
            ("replan-to-hhnl", "re-planned onto HHNL"),
            (
                "replan-to-hhnl",
                "the fallback run matches a direct HHNL run",
            ),
            (
                "shard-fault-partial",
                "merged result degrades to partial (22 entries skipped)",
            ),
            (
                "shard-fault-partial",
                "the faulted site (shard 1) reports the degradation",
            ),
            ("shard-fault-partial", "healthy sites stay full"),
            (
                "shard-fault-partial",
                "the partial answer is a subset of the clean run",
            ),
            (
                "shard-fault-partial",
                "partial-result accounting is consistent",
            ),
        ]
        .map(|(scenario, check)| (1, scenario, check, true));
        assert_eq!(got, want);
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
