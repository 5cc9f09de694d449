//! Property: FNL is a *lossless* optimization of HHNL.
//!
//! FNL scores every pair with a common term, exactly the pairs with a
//! nonzero score that HHNL offers its top-λ heaps, so FNL's result must be
//! **byte-identical** to sequential HHNL's — same matches, same scores,
//! same tie-breaks — at every λ, every buffer budget, and with or without
//! a delta overlay on the inner side. Raw-count weighting keeps scores integer-valued, so
//! "identical" means bit-equal, not approximately equal.
//!
//! A second property covers the degraded read path: with a bit flipped in
//! a flushed delta side file (the pages FNL rescores overlay documents
//! from) or in the signature file itself, strict mode surfaces a typed
//! error while degraded mode either completes with consistent
//! partial-result accounting or fails typed — never a panic, never a
//! silent wrong answer.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use textjoin::collection::{Collection, Document, SynthSpec};
use textjoin::common::{CollectionStats, DocId, Error, QueryParams, Result, SystemParams};
use textjoin::core::{fnl, hhnl, JoinSpec, ResultQuality, Weighting};
use textjoin::invfile::FnlIndex;
use textjoin::live::LiveCollection;
use textjoin::storage::DiskSim;

const PAGE: usize = 128;

/// A deterministic mutation schedule: `churn` inserts and `churn / 2`
/// deletes derived from the seed, flushed so the delta sits in packed
/// side files — the state FNL's overlay rescore path reads.
fn churn(lc: &mut LiveCollection, seed: u64, churn: u64) -> Result<()> {
    for i in 0..churn {
        let doc: Document = SynthSpec::from_stats(CollectionStats::new(1, 8.0, 60), seed ^ (i + 1))
            .generate_docs()
            .remove(0);
        lc.insert(doc)?;
    }
    for i in 0..churn / 2 {
        let ids = lc.live_ids();
        if !ids.is_empty() {
            lc.delete(ids[(seed as usize + i as usize * 7) % ids.len()])?;
        }
    }
    lc.flush()
}

fn spec<'a>(
    inner: &'a Collection,
    outer: &'a Collection,
    lambda: usize,
    buffer_pages: u64,
) -> JoinSpec<'a> {
    JoinSpec::new(inner, outer)
        .with_sys(SystemParams {
            buffer_pages,
            page_size: PAGE,
            alpha: 5.0,
        })
        .with_query(QueryParams { lambda, delta: 1.0 })
        .with_weighting(Weighting::RawCount)
}

/// Inner live collection (with its base-only signature index) and outer
/// collection on one simulated disk.
fn fixture(disk: &Arc<DiskSim>, seed: u64) -> Result<(LiveCollection, FnlIndex, Collection)> {
    let base = SynthSpec::from_stats(CollectionStats::new(20, 8.0, 60), seed).generate_docs();
    let lc = LiveCollection::create(Arc::clone(disk), "live", base)?;
    let index = FnlIndex::build(Arc::clone(disk), "live", lc.base())?;
    let outer = SynthSpec::from_stats(CollectionStats::new(12, 8.0, 60), seed ^ 0x5eed)
        .generate(Arc::clone(disk), "outer")?;
    Ok((lc, index, outer))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// The headline property: FNL ≡ sequential HHNL, byte for byte, over
    /// λ × B × overlay-on/off.
    #[test]
    fn fnl_is_byte_identical_to_hhnl(
        seed in 0u64..1000,
        lambda in prop_oneof![Just(1usize), Just(5), Just(20)],
        buffer_pages in prop_oneof![Just(60u64), Just(160)],
        overlay in prop_oneof![Just(false), Just(true)],
    ) {
        let disk = Arc::new(DiskSim::new(PAGE));
        let (mut lc, index, outer) = fixture(&disk, seed).unwrap();
        if overlay {
            // The signature index keeps covering only the base collection;
            // overlay documents go through the exact rescore path.
            churn(&mut lc, seed, 6).unwrap();
        }

        let mut s = spec(lc.base(), &outer, lambda, buffer_pages);
        if overlay {
            s = s.with_inner_delta(lc.overlay());
        }
        let filtered = fnl::execute(&s, &index).unwrap();
        let reference = hhnl::execute(&s).unwrap();
        prop_assert_eq!(
            &filtered.result, &reference.result,
            "λ={} B={} overlay={}: FNL diverged from HHNL",
            lambda, buffer_pages, overlay
        );
        prop_assert_eq!(filtered.quality, ResultQuality::Full);
        // The filter only ever *saves* similarity evaluations.
        prop_assert!(
            filtered.stats.sim_ops <= reference.stats.sim_ops,
            "FNL computed more scores ({}) than HHNL ({})",
            filtered.stats.sim_ops,
            reference.stats.sim_ops
        );
    }

    /// The degraded property: a flipped bit in a flushed delta side file
    /// or in the signature file is a typed error in strict mode; in
    /// degraded mode FNL completes with consistent accounting or fails
    /// typed — and so does HHNL over the same damage.
    #[test]
    fn bit_flipped_pages_degrade_without_panicking(
        seed in 0u64..1000,
        hit_signature in prop_oneof![Just(false), Just(true)],
    ) {
        let disk = Arc::new(DiskSim::new(PAGE));
        let (mut lc, index, outer) = fixture(&disk, seed).unwrap();
        churn(&mut lc, seed, 6).unwrap();

        if hit_signature {
            let file = index.sig_file();
            disk.flip_bit(file, seed % disk.num_pages(file).max(1), seed % (8 * PAGE as u64))
                .unwrap();
        } else {
            for suffix in ["docs", "inv"] {
                let file = disk
                    .file_by_name(&format!("live.g0.f1.{suffix}"))
                    .expect("flushed side file");
                disk.flip_bit(file, seed % disk.num_pages(file).max(1), seed % (8 * PAGE as u64))
                    .unwrap();
            }
        }

        let strict = spec(lc.base(), &outer, 5, 160).with_inner_delta(lc.overlay());
        prop_assert!(matches!(
            fnl::execute(&strict, &index),
            Err(Error::Corrupt(_) | Error::Io { .. })
        ));

        let degraded = strict.with_degraded();
        for attempt in [fnl::execute(&degraded, &index), hhnl::execute(&degraded)] {
            match attempt {
                Ok(outcome) => {
                    let skips = outcome.stats.skipped_docs + outcome.stats.skipped_entries;
                    prop_assert_eq!(outcome.quality, outcome.stats.quality());
                    prop_assert_eq!(outcome.quality == ResultQuality::Partial, skips > 0);
                }
                // A flip in a structural page may be unroutable even in
                // degraded mode — but only as a typed error, never a panic.
                Err(Error::Corrupt(_) | Error::Io { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        }
    }
}

/// A fixed smoke case pinning one nontrivial overlay state (inserts,
/// deletes, a flush, then more churn left unflushed) so the property holds
/// even if proptest's sampling is unlucky.
#[test]
fn pinned_overlay_state_matches_hhnl() {
    let disk = Arc::new(DiskSim::new(PAGE));
    let (mut lc, index, outer) = fixture(&disk, 7).unwrap();
    churn(&mut lc, 7, 5).unwrap();
    // Unflushed tail on top of the packed side files.
    let doc: Document = SynthSpec::from_stats(CollectionStats::new(1, 8.0, 60), 4242)
        .generate_docs()
        .remove(0);
    lc.insert(doc).unwrap();
    let ids = lc.live_ids();
    lc.delete(ids[ids.len() / 2]).unwrap();

    for lambda in [1, 5, 20] {
        for buffer_pages in [60, 160] {
            let s = spec(lc.base(), &outer, lambda, buffer_pages).with_inner_delta(lc.overlay());
            let filtered = fnl::execute(&s, &index).unwrap();
            let reference = hhnl::execute(&s).unwrap();
            assert_eq!(
                filtered.result, reference.result,
                "λ={lambda} B={buffer_pages}: FNL diverged from HHNL"
            );
        }
    }
}

/// FNL refuses deleted base documents: a tombstoned document must never
/// surface from the signature index (which still physically lists it).
#[test]
fn tombstoned_base_documents_never_surface() {
    let disk = Arc::new(DiskSim::new(PAGE));
    let (mut lc, index, outer) = fixture(&disk, 11).unwrap();
    let victims: Vec<DocId> = lc.live_ids().into_iter().take(5).collect();
    for id in &victims {
        lc.delete(*id).unwrap();
    }
    lc.flush().unwrap();

    let s = spec(lc.base(), &outer, 20, 160).with_inner_delta(lc.overlay());
    let outcome = fnl::execute(&s, &index).unwrap();
    for (_, matches) in outcome.result.iter() {
        for m in matches {
            assert!(
                !victims.contains(&m.inner),
                "deleted document {:?} surfaced from the signature index",
                m.inner
            );
        }
    }
}
