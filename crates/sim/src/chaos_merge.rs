//! Chaos scenarios for the crash-safe mutation path: crash-during-merge,
//! torn WAL tails and bit-flipped delta side files.
//!
//! Each scenario builds a deterministic [`LiveCollection`] fixture (same
//! seed → same base documents, inserts and deletes), injects one failure
//! through the existing [`FaultPlan`] / write-crash machinery, restarts
//! via [`LiveCollection::recover`], and checks the crash-safety contract
//! end to end:
//!
//! 1. **crash-during-merge** — the merge is killed at a seed-derived page
//!    write; after recovery the collection holds exactly the pre-crash
//!    live documents and all three join algorithms (HHNL, HVNL, VVM over
//!    the base+delta read path) return results *byte-identical* to an
//!    uninterrupted run. A follow-up merge then completes cleanly.
//! 2. **torn-wal** — the last WAL append is torn (first half persisted,
//!    tail zeroed, checksum stale); recovery never fails, drops exactly
//!    the torn record, and keeps the committed prefix.
//! 3. **bitflip-delta** — a stored bit of a flushed delta side file is
//!    flipped; strict mode surfaces a typed error, degraded mode completes
//!    with counted skips on every algorithm, and no executor panics.
//!
//! Every verdict is recorded in a [`SeedRun`] so `textjoin-sim chaos-merge`
//! can print per-seed results and fail the process on any violation. On
//! failure the scenario's WAL and manifest pages are captured as hex
//! artifacts for offline inspection (the CI job uploads them).

use crate::verdict::{accounting_consistent, Artifact, SeedRun};
use std::fmt::Write as _;
use std::sync::Arc;
use textjoin_collection::{Collection, Document, SynthSpec};
use textjoin_common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin_core::{hhnl, hvnl, vvm, JoinResult, JoinSpec, Weighting};
use textjoin_invfile::InvertedFile;
use textjoin_live::LiveCollection;
use textjoin_storage::{DiskSim, FaultKind, FaultPlan, FileId};

/// Hex dump of every page of `file`, tolerant of unreadable pages — an
/// artifact dump must never fail on the very corruption it documents.
fn dump_file(disk: &DiskSim, file: FileId) -> String {
    let mut out = String::new();
    let pages = disk.num_pages(file);
    let _ = writeln!(out, "# {} ({pages} pages)", disk.file_name(file));
    for page in 0..pages {
        match disk.read_page(file, page) {
            Ok(data) => {
                let hex: String = data.iter().map(|b| format!("{b:02x}")).collect();
                let _ = writeln!(out, "{page:04} {hex}");
            }
            Err(e) => {
                let _ = writeln!(out, "{page:04} <unreadable: {e}>");
            }
        }
    }
    out
}

/// Captures the WAL and manifest of collection `name` on `disk` as
/// artifacts under the given scenario label.
fn capture_artifacts(run: &mut SeedRun, disk: &DiskSim, name: &str, scenario: &str) {
    let seed = run.seed;
    let mut targets: Vec<(String, String)> = vec![(
        format!("seed{seed}-{scenario}-manifest.hex"),
        format!("{name}.manifest"),
    )];
    for file in disk.file_names() {
        if file.starts_with(name) && file.ends_with(".wal") {
            targets.push((format!("seed{seed}-{scenario}-{file}.hex"), file));
        }
    }
    for (artifact_name, file_name) in targets {
        if let Some(file) = disk.file_by_name(&file_name) {
            run.artifacts.push(Artifact {
                name: artifact_name,
                contents: dump_file(disk, file),
            });
        }
    }
}

const LIVE_NAME: &str = "live";
const PAGE: usize = 128;

/// The seeded mutation schedule every scenario replays identically: a few
/// inserted documents and a few tombstones over a 30-document base, with
/// a flush so the overlay has real side files.
fn build_live(disk: &Arc<DiskSim>, seed: u64) -> Result<LiveCollection> {
    let base = SynthSpec::from_stats(CollectionStats::new(30, 10.0, 90), seed).generate_docs();
    let mut lc = LiveCollection::create(Arc::clone(disk), LIVE_NAME, base)?;
    let extra = SynthSpec::from_stats(CollectionStats::new(6, 10.0, 90), seed + 1).generate_docs();
    for doc in extra {
        lc.insert(doc)?;
    }
    for i in 0..4u64 {
        lc.delete(DocId::new(((seed.wrapping_mul(11) + i * 7) % 30) as u32))?;
    }
    lc.flush()?;
    Ok(lc)
}

/// The outer (bulk, immutable) collection the joins run against.
fn build_outer(disk: &Arc<DiskSim>) -> Result<(Collection, InvertedFile)> {
    let outer = SynthSpec::from_stats(CollectionStats::new(20, 10.0, 90), 977)
        .generate(Arc::clone(disk), "outer")?;
    let inv = InvertedFile::build(Arc::clone(disk), "outer", &outer)?;
    Ok((outer, inv))
}

/// The joins' spec over the live collection's base+delta view. Raw-count
/// weighting keeps scores integer-valued, so results are byte-comparable
/// across merge generations (profiles are base-only).
fn live_spec<'a>(lc: &'a LiveCollection, outer: &'a Collection) -> JoinSpec<'a> {
    let sys = SystemParams {
        buffer_pages: 400,
        page_size: PAGE,
        alpha: 5.0,
    };
    JoinSpec::new(lc.base(), outer)
        .with_sys(sys)
        .with_query(QueryParams::paper_base().with_lambda(4))
        .with_weighting(Weighting::RawCount)
        .with_inner_delta(lc.overlay())
}

/// Runs all three joins over the live collection's base+delta view.
fn run_joins(
    lc: &LiveCollection,
    outer: &Collection,
    outer_inv: &InvertedFile,
) -> Result<[JoinResult; 3]> {
    let spec = live_spec(lc, outer);
    Ok([
        hhnl::execute(&spec)?.result,
        hvnl::execute(&spec, lc.base_inv())?.result,
        vvm::execute(&spec, lc.base_inv(), outer_inv)?.result,
    ])
}

/// A collection's live documents, `(id, doc)` ascending.
type Contents = Vec<(DocId, Document)>;

/// The pre-crash live contents — the state every recovery must restore
/// exactly.
fn live_contents(lc: &LiveCollection) -> Result<Contents> {
    lc.overlay().docs_over(lc.base().store().scan()).collect()
}

/// What every recovery of seed `seed` must restore: the three joins after
/// an uninterrupted merge, and the live contents before it.
fn reference(seed: u64) -> Result<([JoinResult; 3], Contents)> {
    let disk = Arc::new(DiskSim::new(PAGE));
    let (outer, outer_inv) = build_outer(&disk)?;
    let mut lc = build_live(&disk, seed)?;
    let contents = live_contents(&lc)?;
    lc.merge()?;
    Ok((run_joins(&lc, &outer, &outer_inv)?, contents))
}

/// The fixture after a merge killed at a page write, restarted.
struct Restarted {
    disk: Arc<DiskSim>,
    outer: Collection,
    outer_inv: InvertedFile,
    /// The collection recovered from WAL + manifest.
    lc: LiveCollection,
    /// Whether the crash point fell inside the merge.
    killed: bool,
}

/// Builds seed `seed`'s fixture, kills its merge after `writes` page
/// writes, and recovers the collection as a restarted process would.
fn crash_merge(seed: u64, writes: u64) -> Result<Restarted> {
    let disk = Arc::new(DiskSim::new(PAGE));
    let (outer, outer_inv) = build_outer(&disk)?;
    let mut lc = build_live(&disk, seed)?;
    disk.set_write_crash_after(writes);
    let killed = lc.merge().is_err();
    disk.clear_write_crash();
    drop(lc);
    let lc = LiveCollection::recover(Arc::clone(&disk), LIVE_NAME)?;
    Ok(Restarted {
        disk,
        outer,
        outer_inv,
        lc,
        killed,
    })
}

/// Scenario 1: kill the merge at a seed-derived page write, restart,
/// recover from WAL + manifest, and require all three joins byte-identical
/// to an uninterrupted run.
fn scenario_crash_during_merge(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "crash-during-merge";
    let (reference_joins, reference_contents) = reference(run.seed)?;

    // Trial: identical fixture, merge killed after a seed-derived number
    // of page writes. Low crash points die in the temp-file build, high
    // ones in the rename/commit window; seeds spread across both.
    let crash_after = 1 + run.seed.wrapping_mul(17) % 50;
    let mut trial = crash_merge(run.seed, crash_after)?;
    let fate = if trial.killed { "killed" } else { "survived" };
    run.check(
        NAME,
        format!("merge {fate} after {crash_after} page writes"),
        true,
    );

    // Recovery must reconstruct the exact pre-crash live set…
    let recovered = live_contents(&trial.lc)? == reference_contents;
    let what = "recovered contents equal the pre-crash live documents";
    run.check(NAME, what, recovered);

    // …and every algorithm must see through base+delta to the same answer
    // the uninterrupted merge produced.
    let joins = run_joins(&trial.lc, &trial.outer, &trial.outer_inv)?;
    for (i, alg) in ["HHNL", "HVNL", "VVM"].iter().enumerate() {
        let what = format!("{alg} result byte-identical to the uninterrupted run");
        run.check(NAME, what, joins[i] == reference_joins[i]);
    }

    // The recovered generation must merge cleanly, and still agree.
    trial.lc.merge()?;
    let joins = run_joins(&trial.lc, &trial.outer, &trial.outer_inv)?;
    run.check(
        NAME,
        "post-recovery merge completes and preserves all three results",
        joins == reference_joins && live_contents(&trial.lc)? == reference_contents,
    );

    if run.failed(NAME) {
        capture_artifacts(run, &trial.disk, LIVE_NAME, NAME);
    }
    Ok(())
}

/// Scenario 2: the last WAL append is torn — first half persisted, tail
/// zeroed, page checksum stale. Recovery must keep every earlier record
/// and drop exactly the torn one.
fn scenario_torn_wal(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "torn-wal";
    let seed = run.seed;
    let disk = Arc::new(DiskSim::new(PAGE));
    let base = SynthSpec::from_stats(CollectionStats::new(10, 8.0, 60), seed).generate_docs();
    let mut lc = LiveCollection::create(Arc::clone(&disk), LIVE_NAME, base)?;

    // Committed prefix: ops that must all survive.
    let extra = SynthSpec::from_stats(CollectionStats::new(3, 8.0, 60), seed + 1).generate_docs();
    for doc in extra {
        lc.insert(doc)?;
    }
    lc.delete(DocId::new((seed % 10) as u32))?;
    let before_torn = live_contents(&lc)?;

    // The torn op: tear the page(s) of the next append. The record spans
    // more than half the page (≥ 30 cells at ~5 bytes each), so zeroing
    // the second half always lands inside it.
    let wal_file = disk
        .file_by_name(&format!("{LIVE_NAME}.g0.wal"))
        .ok_or_else(|| Error::NotFound("live WAL".into()))?;
    let next_page = disk.num_pages(wal_file);
    disk.set_fault_plan(FaultPlan::new().with_fault(wal_file, next_page, 0, FaultKind::TornWrite));
    let torn_doc = SynthSpec::from_stats(CollectionStats::new(1, 40.0, 60), seed + 2)
        .generate_docs()
        .remove(0);
    lc.insert(torn_doc)?;
    disk.clear_fault_plan();

    drop(lc);
    let mut lc = LiveCollection::recover(Arc::clone(&disk), LIVE_NAME)?;
    let recovered = live_contents(&lc)? == before_torn;
    let what = "recovery drops exactly the torn record, keeping the committed prefix";
    run.check(NAME, what, recovered);
    // A fresh mutation must reuse the WAL cleanly after the torn tail.
    let id = lc.insert(
        SynthSpec::from_stats(CollectionStats::new(1, 8.0, 60), seed + 3)
            .generate_docs()
            .remove(0),
    )?;
    let continued = lc.doc(id)?.is_some();
    run.check(
        NAME,
        "mutations continue after recovery from a torn tail",
        continued,
    );

    if run.failed(NAME) {
        capture_artifacts(run, &disk, LIVE_NAME, NAME);
    }
    Ok(())
}

/// Scenario 3: a flushed delta side file suffers a permanent bit flip.
/// Strict executors surface a typed error; degraded executors finish with
/// counted skips; nobody panics.
fn scenario_bitflip_delta(run: &mut SeedRun) -> Result<()> {
    const NAME: &str = "bitflip-delta";
    let seed = run.seed;
    let disk = Arc::new(DiskSim::new(PAGE));
    let (outer, outer_inv) = build_outer(&disk)?;
    let lc = build_live(&disk, seed)?;

    // Flip one stored bit in each flushed side file the joins read: the
    // packed documents (HHNL's delta scan) and the packed postings
    // (HVNL's delta fetch, VVM's merged entry stream).
    for suffix in ["docs", "inv"] {
        let file = disk
            .file_by_name(&format!("{LIVE_NAME}.g0.f1.{suffix}"))
            .ok_or_else(|| Error::NotFound(format!("flushed delta .{suffix} side file")))?;
        let page = seed % disk.num_pages(file).max(1);
        disk.flip_bit(file, page, seed % (8 * PAGE as u64))?;
    }

    // Strict mode: the corruption is a typed error, never a panic.
    let spec = live_spec(&lc, &outer);
    let strict = matches!(
        hhnl::execute(&spec),
        Err(Error::Corrupt(_) | Error::Io { .. })
    );
    let what = "strict mode surfaces the flipped delta as a typed error";
    run.check(NAME, what, strict);

    // Degraded mode: every algorithm completes, accounts its skips, and
    // tags partial results honestly.
    let degraded = spec.with_degraded();
    let mut any_skips = false;
    let runs = [
        ("HHNL", hhnl::execute(&degraded)),
        ("HVNL", hvnl::execute(&degraded, lc.base_inv())),
        ("VVM", vvm::execute(&degraded, lc.base_inv(), &outer_inv)),
    ];
    for (alg, attempt) in runs {
        let (what, passed) = match attempt {
            Ok(outcome) => {
                let skips = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
                any_skips |= skips > 0;
                let what = format!(
                    "degraded {alg} finished {} ({skips} skips)",
                    outcome.quality
                );
                (what, accounting_consistent(&outcome))
            }
            // Permissible only when the flip hit a structure degraded mode
            // cannot route around (e.g. the side store directory).
            Err(e @ (Error::Corrupt(_) | Error::Io { .. })) => (
                format!("degraded {alg} failed with a typed error: {e}"),
                true,
            ),
            Err(e) => (format!("degraded {alg} failed unexpectedly: {e}"), false),
        };
        run.check(NAME, what, passed);
    }
    let what = "at least one degraded run skipped the flipped delta";
    run.check(NAME, what, any_skips);

    if run.failed(NAME) {
        capture_artifacts(run, &disk, LIVE_NAME, NAME);
    }
    Ok(())
}

/// Runs every merge-chaos scenario under one seed. A returned error means
/// a scenario could not set itself up — injected-failure outcomes are
/// reported as failed checks, not errors.
pub fn run_seed(seed: u64) -> Result<SeedRun> {
    let mut run = SeedRun::new(seed);
    scenario_crash_during_merge(&mut run)?;
    scenario_torn_wal(&mut run)?;
    scenario_bitflip_delta(&mut run)?;
    Ok(run)
}

/// Exhaustive variant of scenario 1 used by tests: crashes the merge at
/// *every* page write in `0..limit`, recovering and re-checking the three
/// joins each time. Returns the number of crash points that actually
/// killed the merge.
pub fn crash_sweep(seed: u64, limit: u64) -> Result<u64> {
    let (reference_joins, reference_contents) = reference(seed)?;
    let mut killed = 0u64;
    for k in 0..limit {
        let trial = crash_merge(seed, k)?;
        killed += u64::from(trial.killed);
        if live_contents(&trial.lc)? != reference_contents {
            return Err(Error::Corrupt(format!(
                "crash after {k} writes: recovered contents diverge"
            )));
        }
        if run_joins(&trial.lc, &trial.outer, &trial.outer_inv)? != reference_joins {
            return Err(Error::Corrupt(format!(
                "crash after {k} writes: join results diverge"
            )));
        }
        if !trial.killed {
            break;
        }
    }
    Ok(killed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_check_passes_for_four_fixed_seeds() {
        for seed in 1..=4 {
            let run = run_seed(seed).expect("scenarios set up");
            for c in &run.checks {
                assert!(c.passed, "seed {seed} [{}] {}", c.scenario, c.check);
            }
            assert!(
                run.artifacts.is_empty(),
                "passing runs capture no artifacts"
            );
            for scenario in ["crash-during-merge", "torn-wal", "bitflip-delta"] {
                assert!(
                    run.checks.iter().any(|c| c.scenario == scenario),
                    "{scenario} missing for seed {seed}"
                );
            }
        }
    }

    #[test]
    fn seed_one_reports_its_verdicts_word_for_word() {
        let run = run_seed(1).expect("scenarios set up");
        let got: Vec<_> = (run.checks.iter())
            .map(|c| (c.seed, c.scenario, c.check.as_str(), c.passed))
            .collect();
        let want = [
            ("crash-during-merge", "merge killed after 18 page writes"),
            (
                "crash-during-merge",
                "recovered contents equal the pre-crash live documents",
            ),
            (
                "crash-during-merge",
                "HHNL result byte-identical to the uninterrupted run",
            ),
            (
                "crash-during-merge",
                "HVNL result byte-identical to the uninterrupted run",
            ),
            (
                "crash-during-merge",
                "VVM result byte-identical to the uninterrupted run",
            ),
            (
                "crash-during-merge",
                "post-recovery merge completes and preserves all three results",
            ),
            (
                "torn-wal",
                "recovery drops exactly the torn record, keeping the committed prefix",
            ),
            (
                "torn-wal",
                "mutations continue after recovery from a torn tail",
            ),
            (
                "bitflip-delta",
                "strict mode surfaces the flipped delta as a typed error",
            ),
            ("bitflip-delta", "degraded HHNL finished partial (4 skips)"),
            (
                "bitflip-delta",
                "degraded HVNL finished partial (233 skips)",
            ),
            ("bitflip-delta", "degraded VVM finished partial (19 skips)"),
            (
                "bitflip-delta",
                "at least one degraded run skipped the flipped delta",
            ),
        ]
        .map(|(scenario, check)| (1, scenario, check, true));
        assert_eq!(got, want);
    }

    #[test]
    fn crash_sweep_kills_and_recovers_at_every_point() {
        let killed = crash_sweep(1, 25).expect("sweep stays consistent");
        assert!(killed > 0, "no crash point actually killed the merge");
    }

    #[test]
    fn torn_wal_artifact_dump_survives_unreadable_pages() {
        let disk = Arc::new(DiskSim::new(64));
        let file = disk.create_file("x.wal").unwrap();
        disk.append_page(file, &[7u8; 64]).unwrap();
        disk.flip_bit(file, 0, 13).unwrap();
        let dump = dump_file(&disk, file);
        assert!(dump.contains("x.wal"));
        assert!(dump.contains("unreadable"), "{dump}");
    }
}
