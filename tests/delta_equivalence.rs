//! Property: the base+delta read path is indistinguishable from a rebuild.
//!
//! For any interleaving of inserts, deletes, flushes and merges applied to
//! a [`LiveCollection`], every join algorithm running over the live base
//! plus its delta overlay must return results *byte-identical* to the same
//! algorithm running over a from-scratch collection rebuilt from the
//! current live documents (same sparse ids, fresh inverted file), under
//! raw-count and cosine weighting. Raw counts are integer-valued; a cosine
//! score divides by the pair's norms, and a delta document's norm as its
//! overlay recorded it is bit-equal to the rebuilt profile's, so
//! "identical" really means bit-equal scores, not approximately equal ones.
//!
//! A second property covers the degraded read path: with a bit flipped in
//! a flushed delta side file, strict mode surfaces a typed error while
//! degraded mode completes on all three algorithms with consistent
//! partial-result accounting — never a panic, never a silent wrong answer.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use textjoin::collection::{
    Collection, CollectionProfile, Document, DocumentStoreBuilder, SynthSpec,
};
use textjoin::common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin::core::{hhnl, hvnl, vvm, JoinResult, JoinSpec, ResultQuality, Weighting};
use textjoin::invfile::InvertedFile;
use textjoin::live::LiveCollection;
use textjoin::storage::DiskSim;

const PAGE: usize = 128;

/// One step of an interleaved mutation schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Insert a synthetic document derived from the seed.
    Insert(u64),
    /// Delete the `i % live`-th live document (no-op when empty).
    Delete(u8),
    /// Flush the in-memory tail to packed side files.
    Flush,
    /// Merge base and delta into the next generation.
    Merge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof is unweighted; repeating the mutation arms
    // biases schedules toward inserts/deletes over flushes/merges.
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::Insert),
        (1_000_000u64..2_000_000).prop_map(Op::Insert),
        (0u8..128).prop_map(Op::Delete),
        (128u8..=255).prop_map(Op::Delete),
        Just(Op::Flush),
        Just(Op::Merge),
    ]
}

fn apply(lc: &mut LiveCollection, op: &Op) -> Result<()> {
    match op {
        Op::Insert(seed) => {
            let doc = SynthSpec::from_stats(CollectionStats::new(1, 8.0, 60), *seed)
                .generate_docs()
                .remove(0);
            lc.insert(doc)?;
        }
        Op::Delete(i) => {
            let ids = lc.live_ids();
            if !ids.is_empty() {
                lc.delete(ids[*i as usize % ids.len()])?;
            }
        }
        Op::Flush => lc.flush()?,
        Op::Merge => lc.merge()?,
    }
    Ok(())
}

/// The current live documents, `(id, doc)` ascending.
fn live_contents(lc: &LiveCollection) -> Result<Vec<(DocId, Document)>> {
    let mut out = Vec::new();
    for item in lc.base().store().scan() {
        let (id, doc) = item?;
        if !lc.overlay().is_deleted(id) {
            out.push((id, doc));
        }
    }
    out.extend(lc.overlay().live_docs()?);
    Ok(out)
}

/// Rebuilds a bulk collection holding exactly `docs`, preserving the
/// original (possibly sparse) document ids, with a fresh inverted file.
fn rebuild(
    disk: &Arc<DiskSim>,
    name: &str,
    docs: &[(DocId, Document)],
) -> Result<(Collection, InvertedFile)> {
    let mut builder = DocumentStoreBuilder::new(Arc::clone(disk), &format!("{name}.docs"))?;
    let mut profiler = CollectionProfile::builder();
    for (id, doc) in docs {
        builder.add_with_id(*id, doc)?;
        profiler.observe_at(*id, doc);
    }
    let collection = Collection::from_store(name, builder.finish()?, profiler.finish());
    let inv = InvertedFile::build(Arc::clone(disk), name, &collection)?;
    Ok((collection, inv))
}

fn spec<'a>(inner: &'a Collection, outer: &'a Collection) -> JoinSpec<'a> {
    JoinSpec::new(inner, outer)
        .with_sys(SystemParams {
            buffer_pages: 400,
            page_size: PAGE,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        })
        .with_weighting(Weighting::RawCount)
}

/// All three algorithms over one spec.
fn all_joins(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<[JoinResult; 3]> {
    Ok([
        hhnl::execute(spec)?.result,
        hvnl::execute(spec, inner_inv)?.result,
        vvm::execute(spec, inner_inv, outer_inv)?.result,
    ])
}

fn fixture(disk: &Arc<DiskSim>, seed: u64) -> Result<(LiveCollection, Collection, InvertedFile)> {
    let base = SynthSpec::from_stats(CollectionStats::new(20, 8.0, 60), seed).generate_docs();
    let lc = LiveCollection::create(Arc::clone(disk), "live", base)?;
    let outer = SynthSpec::from_stats(CollectionStats::new(12, 8.0, 60), seed ^ 0x5eed)
        .generate(Arc::clone(disk), "outer")?;
    let outer_inv = InvertedFile::build(Arc::clone(disk), "outer", &outer)?;
    Ok((lc, outer, outer_inv))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// The headline property: base+delta ≡ rebuilt collection, for every
    /// algorithm, at every point of the mutation/merge interleaving.
    #[test]
    fn base_plus_delta_equals_rebuilt_collection(
        seed in 0u64..1000,
        ops in prop::collection::vec(op_strategy(), 0..12),
    ) {
        let disk = Arc::new(DiskSim::new(PAGE));
        let (mut lc, outer, outer_inv) = fixture(&disk, seed).unwrap();
        for (step, op) in ops.iter().enumerate() {
            apply(&mut lc, op).unwrap();

            let docs = live_contents(&lc).unwrap();
            let (rebuilt, rebuilt_inv) =
                rebuild(&disk, &format!("rebuilt{step}"), &docs).unwrap();

            for weighting in [Weighting::RawCount, Weighting::Cosine] {
                let live_spec = spec(lc.base(), &outer)
                    .with_weighting(weighting)
                    .with_inner_delta(lc.overlay());
                let live = all_joins(&live_spec, lc.base_inv(), &outer_inv).unwrap();
                let rebuilt_spec = spec(&rebuilt, &outer).with_weighting(weighting);
                let reference = all_joins(&rebuilt_spec, &rebuilt_inv, &outer_inv).unwrap();
                for (alg, (got, want)) in ["HHNL", "HVNL", "VVM"]
                    .iter()
                    .zip(live.iter().zip(&reference))
                {
                    prop_assert_eq!(
                        got, want,
                        "step {} ({:?}): {} {:?} over base+delta diverges from the rebuild",
                        step, op, alg, weighting
                    );
                }
            }
        }
    }

    /// The degraded property: a flipped bit in a flushed delta side file is
    /// a typed error in strict mode and counted skips in degraded mode.
    #[test]
    fn bit_flipped_delta_degrades_without_panicking(seed in 0u64..1000) {
        let disk = Arc::new(DiskSim::new(PAGE));
        let (mut lc, outer, outer_inv) = fixture(&disk, seed).unwrap();
        for i in 0..5 {
            apply(&mut lc, &Op::Insert(seed.wrapping_add(i))).unwrap();
        }
        apply(&mut lc, &Op::Delete(3)).unwrap();
        apply(&mut lc, &Op::Flush).unwrap();
        for suffix in ["docs", "inv"] {
            let file = disk
                .file_by_name(&format!("live.g0.f1.{suffix}"))
                .expect("flushed side file");
            disk.flip_bit(file, seed % disk.num_pages(file).max(1), seed % (8 * PAGE as u64))
                .unwrap();
        }

        let strict = spec(lc.base(), &outer).with_inner_delta(lc.overlay());
        prop_assert!(matches!(
            hhnl::execute(&strict),
            Err(Error::Corrupt(_) | Error::Io { .. })
        ));

        let degraded = strict.with_degraded();
        let attempts = [
            hhnl::execute(&degraded),
            hvnl::execute(&degraded, lc.base_inv()),
            vvm::execute(&degraded, lc.base_inv(), &outer_inv),
        ];
        let mut skipped_somewhere = false;
        for attempt in attempts {
            match attempt {
                Ok(outcome) => {
                    let skips = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
                    skipped_somewhere |= skips > 0;
                    prop_assert_eq!(outcome.quality, outcome.stats.quality());
                    prop_assert_eq!(outcome.quality == ResultQuality::Partial, skips > 0);
                }
                // A flip in a structural page (store directory) may be
                // unroutable even in degraded mode — but only as a typed
                // error, never a panic.
                Err(Error::Corrupt(_) | Error::Io { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        }
        prop_assert!(skipped_somewhere, "no degraded run counted a skip");
    }
}

/// A fixed smoke case pinning one nontrivial interleaving (insert → delete
/// → flush → insert → merge → insert → delete) so the property holds even
/// if proptest's sampling is unlucky.
#[test]
fn pinned_interleaving_matches_rebuild() {
    let disk = Arc::new(DiskSim::new(PAGE));
    let (mut lc, outer, outer_inv) = fixture(&disk, 7).unwrap();
    let schedule = [
        Op::Insert(101),
        Op::Insert(102),
        Op::Delete(0),
        Op::Flush,
        Op::Insert(103),
        Op::Merge,
        Op::Insert(104),
        Op::Delete(5),
    ];
    for op in &schedule {
        apply(&mut lc, op).unwrap();
    }
    assert!(lc.generation() >= 1, "merge advanced the generation");

    let docs = live_contents(&lc).unwrap();
    let (rebuilt, rebuilt_inv) = rebuild(&disk, "rebuilt", &docs).unwrap();
    let live_spec = spec(lc.base(), &outer).with_inner_delta(lc.overlay());
    let live = all_joins(&live_spec, lc.base_inv(), &outer_inv).unwrap();
    let reference = all_joins(&spec(&rebuilt, &outer), &rebuilt_inv, &outer_inv).unwrap();
    assert_eq!(live, reference);
}
