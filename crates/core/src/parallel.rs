//! Parallel execution — the paper's future-work item (3): "develop
//! algorithms that process textual joins in parallel". One partitioning
//! earns its place here:
//!
//! * **Term-range partitioning** (VVM): both inverted files are split at
//!   the same term boundaries, one contiguous ordinal range per worker,
//!   and handed to the one merge of [`crate::vvm`] as its parts, each with
//!   a `B / workers` share of the budget. With integer-valued weights (raw
//!   counts) the partial sums are exact, so results are bit-identical;
//!   fractional weightings agree to floating-point reassociation. Each
//!   file is still read about once per pass, plus one shared boundary page
//!   per split, so the I/O bill stays flat while the scan divides.
//!
//! HHNL, HVNL and FNL run one scan on one thread whatever `workers` says.
//! Handing each of `w` threads a whole run over an outer slice with a
//! `B / w` budget rescanned the inner side `w · ⌈N2/(w·X')⌉` times and
//! lost to the sequential run on every measured workload (DESIGN.md,
//! "Parallel execution"); sharing one scan instead is bounded below 1.2×
//! by the scan itself. [`execute_hhnl`], [`execute_hvnl`] and
//! [`execute_fnl`] remain only as the signatures `benchmark/` pins.

use crate::driver::sole;
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use crate::vvm::Part;
use crate::{fnl, hhnl, hvnl, vvm};
use textjoin_common::{Error, Result, TermId};
use textjoin_invfile::{FnlIndex, InvertedFile};

/// Splits a `total`-page buffer budget across `workers`. Integer division
/// alone loses `total % workers` pages (a 5-way split of 64 pages would
/// grant 5·12 = 60); instead the first `total % workers` workers get one
/// extra page, so the shares sum to exactly `total`. A budget smaller than
/// the worker count degrades to the executors' one-page floor — the only
/// case where the sum may exceed `total`.
pub(crate) fn buffer_shares(total: u64, workers: usize) -> Vec<u64> {
    assert!(workers > 0, "at least one worker is required");
    let w = workers as u64;
    let (base, rem) = (total / w, (total % w) as usize);
    let shares: Vec<u64> = (0..workers)
        .map(|i| (base + u64::from(i < rem)).max(1))
        .collect();
    if total >= w {
        assert_eq!(
            shares.iter().sum::<u64>(),
            total,
            "worker buffer shares must sum to the budget"
        );
    }
    shares
}

fn require_workers(workers: usize) -> Result<()> {
    if workers == 0 {
        return Err(Error::InvalidArgument(
            "at least one worker is required".into(),
        ));
    }
    Ok(())
}

/// [`hhnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`;
/// delete once it may change.
pub fn execute_hhnl(spec: &JoinSpec<'_>, workers: usize) -> Result<JoinOutcome> {
    require_workers(workers)?;
    hhnl::execute(spec)
}

/// [`fnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`; delete
/// once it may change.
pub fn execute_fnl(spec: &JoinSpec<'_>, index: &FnlIndex, workers: usize) -> Result<JoinOutcome> {
    require_workers(workers)?;
    fnl::execute(spec, index)
}

/// [`hvnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`; delete
/// once it may change.
pub fn execute_hvnl(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    require_workers(workers)?;
    hvnl::execute(spec, inner_inv)
}

/// Runs VVM with both inverted files term-range-partitioned across
/// `workers` threads, each merging its ordinal ranges with a
/// `B / workers`-page budget.
pub fn execute_vvm(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    require_workers(workers)?;
    let parts = term_parts(inner_inv, outer_inv, workers, spec.sys.buffer_pages);
    vvm::execute_parts(std::slice::from_ref(spec), &parts, None).map(sole)
}

/// Splits the inner file's ordinals into document-frequency-weighted
/// ranges (so Zipfian vocabularies don't pile all the heavy postings onto
/// one worker) and maps each split term onto the outer file, so both
/// ranges of a part cover the same term interval and the outer ranges
/// tile `[0, T2)` contiguously. The ordinal boundaries map onto terms for
/// the delta overlays, with the first part taking every delta term below
/// the first boundary and the last everything above. A vocabulary smaller
/// than the worker count degrades to one term per part, down to the one
/// whole-file part of the sequential merge.
pub(crate) fn term_parts<'a>(
    inner_inv: &'a InvertedFile,
    outer_inv: &'a InvertedFile,
    workers: usize,
    buffer_pages: u64,
) -> Vec<Part<'a>> {
    let t1 = inner_inv.num_entries() as u32;
    let df: Vec<u64> = (0..t1).map(|i| inner_inv.meta(i).doc_freq as u64).collect();
    let bounds = crate::shard::weighted_boundaries(&df, workers);
    if bounds.len() <= 1 {
        return vec![Part::whole(inner_inv, outer_inv, buffer_pages)];
    }
    let shares = buffer_shares(buffer_pages, bounds.len());
    let last = bounds.len() - 1;
    let mut outer_start = 0u32;
    let mut term_lo = 0u32;
    bounds
        .iter()
        .zip(shares)
        .enumerate()
        .map(|(i, (&inner, share))| {
            let (outer_end, term_hi) = if i == last {
                (outer_inv.num_entries() as u32, None)
            } else {
                let boundary = inner_inv.meta(inner.1).term;
                (lower_bound(outer_inv, boundary), Some(boundary.raw()))
            };
            let part = Part {
                inner_inv,
                outer_inv,
                inner,
                outer: (outer_start, outer_end),
                delta_terms: Some((term_lo, term_hi)),
                buffer_pages: share,
                split: bounds.len() as u64,
            };
            outer_start = outer_end;
            term_lo = term_hi.unwrap_or(0);
            part
        })
        .collect()
}

/// First ordinal of `inv` whose term is ≥ `term` (the directory is sorted
/// by term).
fn lower_bound(inv: &InvertedFile, term: TermId) -> u32 {
    let (mut lo, mut hi) = (0u32, inv.num_entries() as u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if inv.meta(mid).term < term {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use crate::Algorithm;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, DocId, QueryParams, SystemParams};
    use textjoin_storage::DiskSim;

    fn fixture() -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        Vec<textjoin_collection::Document>,
        Vec<textjoin_collection::Document>,
    ) {
        let disk = Arc::new(DiskSim::new(512));
        let d1 = SynthSpec::from_stats(CollectionStats::new(60, 12.0, 200), 61).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(45, 12.0, 200), 62).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        (disk, c1, c2, d1, d2)
    }

    fn inv_fixture() -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        InvertedFile,
        InvertedFile,
        Vec<textjoin_collection::Document>,
        Vec<textjoin_collection::Document>,
    ) {
        let (disk, c1, c2, d1, d2) = fixture();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        (disk, c1, c2, inv1, inv2, d1, d2)
    }

    /// HHNL, HVNL and FNL run one scan on one thread: each pinned forward
    /// is its sequential executor for every worker count, down to the
    /// pages, passes and memory of the run.
    #[test]
    fn pinned_forwards_are_the_sequential_executors() {
        let (disk, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let chosen = [DocId::new(2), DocId::new(11), DocId::new(30)];
        let tight = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 67,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let selected = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let indexes = crate::Indexes::all(&inv1, &inv2, &index);
        type Sequential<'a> = &'a dyn Fn(&JoinSpec<'_>) -> Result<JoinOutcome>;
        type Forward<'a> = &'a dyn Fn(&JoinSpec<'_>, usize) -> Result<JoinOutcome>;
        let table: [(Algorithm, Sequential<'_>, Forward<'_>); 3] = [
            (Algorithm::Hhnl, &|s| hhnl::execute(s), &|s, w| {
                execute_hhnl(s, w)
            }),
            (Algorithm::Hvnl, &|s| hvnl::execute(s, &inv1), &|s, w| {
                execute_hvnl(s, &inv1, w)
            }),
            (Algorithm::Fnl, &|s| fnl::execute(s, &index), &|s, w| {
                execute_fnl(s, &index, w)
            }),
        ];
        let measured = |run: &dyn Fn() -> Result<JoinOutcome>| {
            disk.reset_head();
            let out = run().unwrap();
            let stats = out.stats;
            (
                out.result,
                stats.io,
                stats.passes,
                stats.mem_high_water_bytes,
            )
        };
        for (alg, sequential, forward) in table {
            for spec in [&tight, &selected] {
                let want = measured(&|| sequential(spec));
                for w in [1, 2, 7] {
                    assert_eq!(measured(&|| forward(spec, w)), want, "{alg} w={w}");
                    let dispatched = measured(&|| crate::execute(alg, spec, &indexes, w));
                    assert_eq!(dispatched, want, "execute({alg}) w={w}");
                }
            }
        }
        let invalid = |r: Result<JoinOutcome>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(invalid(execute_hhnl(&tight, 0)));
        assert!(invalid(execute_hvnl(&tight, &inv1, 0)));
        assert!(invalid(execute_fnl(&tight, &index, 0)));
        assert!(invalid(execute_vvm(&tight, &inv1, &inv2, 0)));
    }

    #[test]
    fn buffer_shares_sum_to_the_budget() {
        for (total, workers) in [
            (64u64, 5usize),
            (63, 4),
            (100, 7),
            (17, 3),
            (8, 8),
            (160, 3),
        ] {
            let shares = buffer_shares(total, workers);
            assert_eq!(shares.len(), workers);
            assert_eq!(
                shares.iter().sum::<u64>(),
                total,
                "B={total} w={workers}: no page may be lost to integer division"
            );
            // The remainder lands on the first B % w workers, one page each.
            let (base, rem) = (total / workers as u64, (total % workers as u64) as usize);
            for (i, &s) in shares.iter().enumerate() {
                assert_eq!(s, base + u64::from(i < rem), "worker {i}");
            }
        }
    }

    #[test]
    fn buffer_shares_floor_at_one_page() {
        // A budget smaller than the worker count cannot sum to B with the
        // executors' one-page-per-worker floor; each worker still gets 1.
        let shares = buffer_shares(3, 5);
        assert_eq!(shares, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn parallel_vvm_is_identical_to_sequential() {
        let (_, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let want = vvm::execute(&spec, &inv1, &inv2).unwrap();
        for workers in [1, 2, 3, 4, 16] {
            let got = execute_vvm(&spec, &inv1, &inv2, workers).unwrap();
            assert_eq!(got.result, want.result, "workers = {workers}");
        }
    }

    /// The only wall-clock fact about the worker knob that a test holds:
    /// on a drive whose pages take time, VVM's term parts wait for their
    /// pages at once, so four parts finish before one. The bench grid's
    /// `balanced` pair at λ = 20, B = 400 — headroom enough that every
    /// part keeps its single merge pass.
    #[test]
    fn parallel_vvm_overlaps_its_simulated_page_waits() {
        // In debug builds compute (10-20× slower, and serialised on one
        // core) can swamp the latency term.
        if cfg!(debug_assertions) {
            return;
        }
        let disk = Arc::new(DiskSim::new(512));
        let c1 = SynthSpec::from_stats(CollectionStats::new(150, 20.0, 800), 901)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(100, 20.0, 800), 902)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        disk.set_page_latency(textjoin_storage::PageLatency {
            seq_ns: 150_000,
            rand_ns: 300_000,
        });
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams {
                lambda: 20,
                delta: 1.0,
            });
        let indexes = crate::Indexes {
            inner_inv: Some(&inv1),
            outer_inv: Some(&inv2),
            fnl: None,
        };
        // The faster of three runs a side: a descheduled thread only ever
        // adds time.
        let wall_ns = |workers: usize| {
            (0..3)
                .map(|_| {
                    disk.reset_head();
                    let run = crate::execute(Algorithm::Vvm, &spec, &indexes, workers).unwrap();
                    run.stats.wall_ns
                })
                .min()
                .unwrap()
        };
        let (one, four) = (wall_ns(1), wall_ns(4));
        assert!(four < one, "VVM at w=4 took {four} ns, at w=1 {one} ns");
    }

    #[test]
    fn parallel_vvm_respects_selection_and_tight_memory() {
        let (_, c1, c2, inv1, inv2, d1, d2) = inv_fixture();
        let chosen = [DocId::new(1), DocId::new(7), DocId::new(20), DocId::new(41)];
        // A small buffer forces multiple merge passes per worker.
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_sys(SystemParams {
                buffer_pages: 40,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute_vvm(&spec, &inv1, &inv2, 4).unwrap();
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn parallel_vvm_cosine_matches_within_tolerance() {
        let (_, c1, c2, inv1, inv2, d1, d2) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute_vvm(&spec, &inv1, &inv2, 3).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-9));
    }

    #[test]
    fn term_parts_tile_both_files() {
        let (_, _, _, inv1, inv2, _, _) = inv_fixture();
        for workers in [2usize, 3, 5, 8] {
            let ranges = term_parts(&inv1, &inv2, workers, 64);
            assert_eq!(ranges.len(), workers);
            assert_eq!(ranges.iter().map(|r| r.buffer_pages).sum::<u64>(), 64);
            assert_eq!(ranges[0].delta_terms.unwrap().0, 0);
            assert_eq!(ranges[workers - 1].delta_terms.unwrap().1, None);
            assert_eq!(ranges[0].inner.0, 0);
            assert_eq!(ranges[0].outer.0, 0);
            assert_eq!(ranges[workers - 1].inner.1 as u64, inv1.num_entries());
            assert_eq!(ranges[workers - 1].outer.1 as u64, inv2.num_entries());
            for w in ranges.windows(2) {
                assert_eq!(w[0].inner.1, w[1].inner.0, "inner ranges contiguous");
                assert_eq!(w[0].outer.1, w[1].outer.0, "outer ranges contiguous");
                // The outer boundary lands exactly on the inner boundary
                // term, so a term is merged by exactly one worker.
                let boundary = inv1.meta(w[1].inner.0).term;
                // ... and the delta term intervals meet there too.
                assert_eq!(w[0].delta_terms.unwrap().1, Some(boundary.raw()));
                assert_eq!(w[1].delta_terms.unwrap().0, boundary.raw());
                if w[1].outer.0 < inv2.num_entries() as u32 {
                    assert!(inv2.meta(w[1].outer.0).term >= boundary);
                }
                if w[0].outer.1 > 0 {
                    assert!(inv2.meta(w[0].outer.1 - 1).term < boundary);
                }
            }
        }
    }

    #[test]
    fn term_parts_guard_degenerate_worker_counts() {
        // Regression: the old `(t1 * i / workers) as u32` split produced
        // empty and duplicate partitions whenever the vocabulary was
        // smaller than the worker count.
        let (_, _, _, inv1, inv2, _, _) = inv_fixture();
        let t1 = inv1.num_entries() as usize;
        let ranges = term_parts(&inv1, &inv2, t1 + 50, 64);
        assert_eq!(ranges.len(), t1, "never more ranges than inner terms");
        assert_eq!(ranges[0].inner.0, 0);
        assert_eq!(ranges[t1 - 1].inner.1 as u64, inv1.num_entries());
        assert_eq!(ranges[t1 - 1].outer.1 as u64, inv2.num_entries());
        for r in &ranges {
            assert!(r.inner.0 < r.inner.1, "no empty inner partitions");
        }
        for w in ranges.windows(2) {
            assert_eq!(w[0].inner.1, w[1].inner.0, "inner ranges contiguous");
            assert_eq!(w[0].outer.1, w[1].outer.0, "outer ranges contiguous");
        }
    }

    #[test]
    fn term_parts_weight_by_document_frequency() {
        // A Zipf-style head term carrying 100 postings next to nine
        // singleton tail terms: the uniform ordinal split gave worker 0
        // half the vocabulary (and nearly all the I/O); the df-weighted
        // split isolates the head.
        use std::collections::HashMap;
        use textjoin_common::{DocId, ICell, TermId};
        let disk = Arc::new(DiskSim::new(512));
        let mut post: HashMap<TermId, Vec<ICell>> = HashMap::new();
        post.insert(
            TermId::new(0),
            (0..100).map(|d| ICell::new(DocId::new(d), 1)).collect(),
        );
        for t in 1..10u32 {
            post.insert(TermId::new(t), vec![ICell::new(DocId::new(t), 1)]);
        }
        let inv = InvertedFile::from_postings(Arc::clone(&disk), "skew", post).unwrap();
        let ranges = term_parts(&inv, &inv, 2, 64);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].inner, (0, 1), "heavy head term isolated");
        assert_eq!(ranges[1].inner, (1, 10));
    }

    #[test]
    fn parallel_io_attribution_sums_match() {
        // The driver's per-part brackets assert on any mismatch; this
        // exercises them with concurrent scans.
        let (_, c1, c2, inv1, inv2, _, _) = inv_fixture();
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(2));
        let m = execute_vvm(&spec, &inv1, &inv2, 4).unwrap();
        assert!(m.stats.io.total_reads() > 0);
    }

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Parallel VVM is identical to its sequential executor — result
        /// sets and per-document top-λ scores — on random collections, for
        /// λ ∈ {1, 5, 20} and workers ∈ {1, 2, 4}. Raw-count weighting
        /// keeps every score integer-valued, so "identical" is exact
        /// equality, not a tolerance.
        #[test]
        fn parallel_vvm_matches_sequential_on_random_collections(
            n1 in 8u64..48,
            n2 in 8u64..36,
            vocab in 30u64..150,
            buffer_pages in 64u64..256,
            seed in 0u64..1_000,
        ) {
            let disk = Arc::new(DiskSim::new(512));
            let d1 = SynthSpec::from_stats(CollectionStats::new(n1, 10.0, vocab), seed)
                .generate_docs();
            let d2 = SynthSpec::from_stats(CollectionStats::new(n2, 10.0, vocab), seed + 1)
                .generate_docs();
            let c1 = Collection::build(Arc::clone(&disk), "c1", d1).unwrap();
            let c2 = Collection::build(Arc::clone(&disk), "c2", d2).unwrap();
            let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
            let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
            for lambda in [1usize, 5, 20] {
                let spec = JoinSpec::new(&c1, &c2)
                    .with_sys(SystemParams { buffer_pages, page_size: 512, alpha: 5.0 })
                    .with_query(QueryParams::paper_base().with_lambda(lambda));
                let seq = vvm::execute(&spec, &inv1, &inv2);
                for workers in [1usize, 2, 4] {
                    match (&seq, execute_vvm(&spec, &inv1, &inv2, workers)) {
                        (Ok(want), Ok(got)) => prop_assert_eq!(
                            &got.result,
                            &want.result,
                            "λ={} workers={}",
                            lambda, workers
                        ),
                        // A budget too small for the mandatory structures
                        // (sequentially, or split w ways) is a legitimate
                        // outcome, not a divergence.
                        (Err(Error::InsufficientMemory { .. }), _)
                        | (_, Err(Error::InsufficientMemory { .. })) => {}
                        (Err(e), _) => return Err(TestCaseError::fail(
                            format!("sequential: {e}")
                        )),
                        (_, Err(e)) => return Err(TestCaseError::fail(
                            format!("parallel: {e}")
                        )),
                    }
                }
            }
        }
    }
}
