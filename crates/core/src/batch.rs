//! Batched multi-query execution with shared scans.
//!
//! When several `SIMILAR_TO(λ)` queries target the same collection pair
//! `(C1, C2)`, running them back to back repeats the expensive shared
//! structure reads: HHNL rescans the inner collection per query, HVNL
//! reloads the dictionary and refetches overlapping entries, VVM rescans
//! both inverted files. Every algorithm is written once over `&[JoinSpec]`
//! (the crate-private `driver` module); the entry points here hand it all `N` queries,
//! so they execute in one sequence of passes over the shared structures:
//!
//! * **HHNL / FNL** concatenate the queries' outer streams and fill memory
//!   rounds across query boundaries, so the inner collection (or its
//!   signature index) is scanned `⌈Σᵢ N2ᵢ/Xᵢ⌉` times for the whole batch
//!   instead of `Σᵢ ⌈N2ᵢ/Xᵢ⌉` times.
//! * **HVNL** scans the outer collection once, processing each document
//!   for every query that selects it against a *single shared entry
//!   cache* — an entry fetched for one query is a cache hit for the rest,
//!   and evictions are keyed by the demand of the batch as a whole.
//! * **VVM** folds every query's λ-thresholds into one term-ordered merge:
//!   each pooled pass scans both inverted files once and fills one
//!   accumulator map per query, emitting per-query result sets.
//!
//! Results are exactly what sequential execution produces: each query's
//! [`JoinOutcome`] in [`BatchOutcome::queries`] carries the same
//! [`JoinResult`](crate::JoinResult) as running that query alone
//! (byte-identical under integer-valued weightings such as raw count, where
//! addition order cannot perturb the sums). Batch-level I/O lives in
//! [`BatchOutcome::stats`]; per-query stats carry the CPU-side counters
//! attributable to that query (shared I/O cannot be split honestly, so it
//! is reported once, amortized by the caller).
//!
//! All specs in a batch must share the collection pair, the system
//! parameters and the degraded flag; per-query λ, weighting, outer
//! selection and inner filters are free.

use crate::accum::{Source, TermAtATime};
use crate::driver::{drive, Indexes};
use crate::hhnl::Forward;
use crate::hvnl::HvnlOptions;
use crate::result::{ExecStats, JoinOutcome};
use crate::spec::JoinSpec;
use textjoin_common::Result;
use textjoin_costmodel::Algorithm;
use textjoin_invfile::{FnlIndex, InvertedFile};

/// Tuning knobs for batched HVNL: the sequential executor's.
pub type BatchOptions = HvnlOptions;

/// The outcome of one batched execution: one [`JoinOutcome`] per input
/// spec (same order) plus the batch-level statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query outcomes, parallel to the input specs. Each query's
    /// `stats` holds only the counters attributable to that query alone
    /// (similarity ops, cells, skips, participation passes); its `io` is
    /// zero because the scans are shared.
    pub queries: Vec<JoinOutcome>,
    /// Batch-level statistics: all I/O, the summed CPU counters, the peak
    /// memory of the shared tracker and the pooled pass count.
    pub stats: ExecStats,
}

/// Executes the batch with `algorithm`.
pub fn execute(
    algorithm: Algorithm,
    specs: &[JoinSpec<'_>],
    indexes: &Indexes<'_>,
) -> Result<BatchOutcome> {
    match algorithm {
        Algorithm::Hhnl => execute_hhnl(specs),
        Algorithm::Hvnl => execute_hvnl(specs, indexes.inner_inv()?, BatchOptions::default()),
        Algorithm::Vvm => execute_vvm(specs, indexes.inner_inv()?, indexes.outer_inv()?),
        Algorithm::Fnl => execute_fnl(specs, indexes.fnl()?),
    }
}

/// Batched HHNL: one concatenated outer stream, memory rounds that may
/// span query boundaries, one inner-collection scan per round.
pub fn execute_hhnl(specs: &[JoinSpec<'_>]) -> Result<BatchOutcome> {
    drive::<Forward>(specs, None)
}

/// Batched FNL: the HHNL pooling applied to the signature index. Each
/// result is byte-identical to its sequential FNL (and HHNL) run under
/// integer-valued weightings.
pub fn execute_fnl(specs: &[JoinSpec<'_>], index: &FnlIndex) -> Result<BatchOutcome> {
    drive::<Forward>(specs, Some(index))
}

/// Batched HVNL: one outer pass, every query served from one shared entry
/// cache.
pub fn execute_hvnl(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    options: BatchOptions,
) -> Result<BatchOutcome> {
    drive::<TermAtATime>(specs, Source::Fetched(inner_inv, options))
}

/// Batched VVM: all queries' accumulators share the similarity budget of
/// one merge scan.
pub fn execute_vvm(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<BatchOutcome> {
    crate::vvm::execute_batch(specs, inner_inv, outer_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hvnl::EvictionPolicy;
    use crate::result::ResultQuality;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, DocId, Error, QueryParams, SystemParams};
    use textjoin_storage::{DiskSim, FaultKind, FaultPlan};

    struct Fixture {
        disk: Arc<DiskSim>,
        c1: Collection,
        c2: Collection,
        inv1: InvertedFile,
        inv2: InvertedFile,
    }

    fn fixture(n1: u64, n2: u64, k: f64, vocab: u64, page: usize, seed: u64) -> Fixture {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), seed).generate_docs();
        let d2 =
            SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), seed + 1).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        Fixture {
            disk,
            c1,
            c2,
            inv1,
            inv2,
        }
    }

    fn sys(buffer_pages: u64, page_size: usize) -> SystemParams {
        SystemParams {
            buffer_pages,
            page_size,
            alpha: 5.0,
        }
    }

    /// Runs the same specs sequentially with each algorithm's own executor.
    fn sequential_hhnl(specs: &[JoinSpec<'_>]) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::hhnl::execute(s).unwrap())
            .collect()
    }
    fn sequential_hvnl(specs: &[JoinSpec<'_>], inv: &InvertedFile) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::hvnl::execute(s, inv).unwrap())
            .collect()
    }
    fn sequential_vvm(
        specs: &[JoinSpec<'_>],
        inv1: &InvertedFile,
        inv2: &InvertedFile,
    ) -> Vec<JoinOutcome> {
        specs
            .iter()
            .map(|s| crate::vvm::execute(s, inv1, inv2).unwrap())
            .collect()
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(matches!(execute_hhnl(&[]), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn mismatched_collections_are_rejected() {
        let f = fixture(10, 8, 8.0, 40, 256, 7);
        let g = fixture(10, 8, 8.0, 40, 256, 9);
        let specs = [JoinSpec::new(&f.c1, &f.c2), JoinSpec::new(&g.c1, &g.c2)];
        assert!(matches!(
            execute_hhnl(&specs),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn mismatched_sys_or_degraded_are_rejected() {
        let f = fixture(10, 8, 8.0, 40, 256, 7);
        let base = JoinSpec::new(&f.c1, &f.c2);
        let other_sys = [base, base.with_sys(sys(999, 256))];
        assert!(matches!(
            execute_hhnl(&other_sys),
            Err(Error::InvalidArgument(_))
        ));
        let mixed_degraded = [base, base.with_degraded()];
        assert!(matches!(
            execute_hvnl(&mixed_degraded, &f.inv1, BatchOptions::default()),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn hhnl_batch_matches_sequential_and_shares_the_inner_scan() {
        let f = fixture(40, 25, 10.0, 80, 256, 101);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 5]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq = sequential_hhnl(&specs);
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_hhnl(&specs).unwrap();
        assert_eq!(batch.queries.len(), specs.len());
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
            assert_eq!(b.quality, ResultQuality::Full);
        }
        // The batch shares inner scans: strictly fewer reads than 4
        // sequential runs, but at least one full outer + inner pass.
        assert!(
            batch.stats.io.total_reads() < seq_reads,
            "batch {} vs sequential {seq_reads}",
            batch.stats.io.total_reads()
        );
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
    }

    #[test]
    fn hhnl_batch_pools_rounds_across_query_boundaries() {
        // Tight memory: each query alone needs several passes; the batch's
        // pooled rounds must not exceed the sum of per-query passes.
        let f = fixture(30, 20, 10.0, 60, 128, 55);
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(6, 128))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let specs = vec![base; 3];
        let seq = sequential_hhnl(&specs);
        let batch = execute_hhnl(&specs).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
        }
        let seq_passes: u64 = seq.iter().map(|o| o.stats.passes).sum();
        assert!(batch.stats.passes <= seq_passes);
        assert!(batch.stats.passes >= seq.iter().map(|o| o.stats.passes).max().unwrap());
    }

    #[test]
    fn fnl_batch_matches_sequential_and_shares_the_signature_scan() {
        let f = fixture(40, 25, 10.0, 80, 256, 101);
        let index = FnlIndex::build(Arc::clone(&f.disk), "c1", &f.c1).unwrap();
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 5]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq: Vec<JoinOutcome> = specs
            .iter()
            .map(|s| crate::fnl::execute(s, &index).unwrap())
            .collect();
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_fnl(&specs, &index).unwrap();
        assert_eq!(batch.queries.len(), specs.len());
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
            assert_eq!(b.quality, ResultQuality::Full);
        }
        // Shared signature scans plus a once-loaded sidecar: strictly
        // fewer reads than 4 sequential runs.
        assert!(
            batch.stats.io.total_reads() < seq_reads,
            "batch {} vs sequential {seq_reads}",
            batch.stats.io.total_reads()
        );
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
        // And the pooled rounds stay byte-identical to batched HHNL.
        let hhnl = execute_hhnl(&specs).unwrap();
        for (b, h) in batch.queries.iter().zip(&hhnl.queries) {
            assert_eq!(b.result, h.result);
        }
    }

    #[test]
    fn hvnl_batch_matches_sequential_with_fewer_fetches() {
        let f = fixture(35, 20, 10.0, 70, 256, 77);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(1_000, 256));
        let specs: Vec<JoinSpec<'_>> = [3usize, 6, 3]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq = sequential_hvnl(&specs, &f.inv1);
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();
        let seq_fetches: u64 = seq.iter().map(|o| o.stats.entry_fetches).sum();

        for eviction in [EvictionPolicy::LowestOuterDf, EvictionPolicy::Lru] {
            f.disk.reset_stats();
            let options = BatchOptions {
                eviction,
                ..BatchOptions::default()
            };
            let batch = execute_hvnl(&specs, &f.inv1, options).unwrap();
            for (b, s) in batch.queries.iter().zip(&seq) {
                assert_eq!(b.result, s.result, "{eviction:?}");
            }
            // The shared cache and the once-loaded dictionary: strictly
            // fewer reads than three sequential runs, and never more entry
            // fetches (an entry fetched for one query serves the rest).
            assert!(
                batch.stats.io.total_reads() < seq_reads,
                "{eviction:?}: batch {} vs sequential {seq_reads}",
                batch.stats.io.total_reads()
            );
            assert!(batch.stats.entry_fetches <= seq_fetches);
        }
    }

    #[test]
    fn vvm_batch_matches_sequential_with_fewer_scans() {
        let f = fixture(30, 25, 10.0, 60, 256, 31);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(10_000, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 7, 4]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();

        f.disk.reset_stats();
        let seq = sequential_vvm(&specs, &f.inv1, &f.inv2);
        let seq_reads: u64 = seq.iter().map(|o| o.stats.io.total_reads()).sum();

        f.disk.reset_stats();
        let batch = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
            assert_eq!(b.stats.sim_ops, s.stats.sim_ops);
        }
        // Roomy memory: one folded merge scan serves all three queries.
        assert_eq!(batch.stats.passes, 1);
        assert!(batch.stats.io.total_reads() < seq_reads);
    }

    #[test]
    fn vvm_batch_partitions_under_tight_memory_and_stays_correct() {
        let f = fixture(40, 30, 10.0, 50, 128, 13);
        let base = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(12, 128))
            .with_query(QueryParams::paper_base().with_lambda(4));
        let specs = vec![base; 3];
        let seq = sequential_vvm(&specs, &f.inv1, &f.inv2);
        let batch = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (b, s) in batch.queries.iter().zip(&seq) {
            assert_eq!(b.result, s.result);
        }
        assert!(batch.stats.passes > 1, "tight memory must partition");
        assert!(batch.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
    }

    #[test]
    fn selected_outers_and_inner_filters_match_sequential() {
        let f = fixture(30, 25, 10.0, 60, 256, 211);
        let chosen_a = [DocId::new(1), DocId::new(7), DocId::new(19)];
        let chosen_b = [DocId::new(0), DocId::new(7), DocId::new(12), DocId::new(24)];
        let inner_keep: Vec<DocId> = (0..30).step_by(2).map(DocId::new).collect();
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(2_000, 256));
        let specs = [
            base.with_outer_docs(OuterDocs::Selected(&chosen_a))
                .with_query(QueryParams::paper_base().with_lambda(2)),
            base.with_outer_docs(OuterDocs::Selected(&chosen_b))
                .with_inner_docs(&inner_keep)
                .with_query(QueryParams::paper_base().with_lambda(6)),
            base.with_query(QueryParams::paper_base().with_lambda(4)),
        ];

        let batch_hh = execute_hhnl(&specs).unwrap();
        let batch_hv = execute_hvnl(&specs, &f.inv1, BatchOptions::default()).unwrap();
        let batch_vv = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            let hh = crate::hhnl::execute(spec).unwrap();
            let hv = crate::hvnl::execute(spec, &f.inv1).unwrap();
            let vv = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
            assert_eq!(batch_hh.queries[i].result, hh.result, "hhnl query {i}");
            assert_eq!(batch_hv.queries[i].result, hv.result, "hvnl query {i}");
            assert_eq!(batch_vv.queries[i].result, vv.result, "vvm query {i}");
        }
    }

    #[test]
    fn all_selected_batch_reads_only_the_union() {
        let f = fixture(20, 30, 8.0, 50, 256, 97);
        let a = [DocId::new(3), DocId::new(11)];
        let b = [DocId::new(3), DocId::new(20)];
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(2_000, 256));
        let specs = [
            base.with_outer_docs(OuterDocs::Selected(&a)),
            base.with_outer_docs(OuterDocs::Selected(&b)),
        ];
        let batch = execute_hvnl(&specs, &f.inv1, BatchOptions::default()).unwrap();
        let seq = sequential_hvnl(&specs, &f.inv1);
        for (bo, so) in batch.queries.iter().zip(&seq) {
            assert_eq!(bo.result, so.result);
        }
    }

    #[test]
    fn cancelling_one_query_leaves_siblings_byte_identical() {
        use textjoin_obs::CancelToken;
        let f = fixture(30, 25, 10.0, 60, 256, 19);
        let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(400, 256));
        let specs: Vec<JoinSpec<'_>> = [2usize, 5, 9, 4]
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect();
        // A pre-set token is observed at the very first checkpoint, so the
        // cancelled query does the least possible work — the strictest
        // version of the sibling-survival guarantee.
        let token = CancelToken::new();
        token.cancel();
        let mut with_cancel = specs.clone();
        with_cancel[1] = with_cancel[1].with_cancel(&token);

        let runs: [(&str, BatchOutcome, BatchOutcome); 3] = [
            (
                "hhnl",
                execute_hhnl(&specs).unwrap(),
                execute_hhnl(&with_cancel).unwrap(),
            ),
            (
                "hvnl",
                execute_hvnl(&specs, &f.inv1, BatchOptions::default()).unwrap(),
                execute_hvnl(&with_cancel, &f.inv1, BatchOptions::default()).unwrap(),
            ),
            (
                "vvm",
                execute_vvm(&specs, &f.inv1, &f.inv2).unwrap(),
                execute_vvm(&with_cancel, &f.inv1, &f.inv2).unwrap(),
            ),
        ];
        for (name, clean, got) in &runs {
            assert_eq!(
                got.queries[1].quality,
                ResultQuality::Partial,
                "{name}: the cancelled query must be tagged Partial"
            );
            for i in [0usize, 2, 3] {
                assert_eq!(
                    got.queries[i].result, clean.queries[i].result,
                    "{name}: sibling {i} must be byte-identical to an uncancelled run"
                );
                assert_eq!(got.queries[i].quality, ResultQuality::Full, "{name} {i}");
            }
        }
    }

    use proptest::prelude::*;

    /// Builds N specs with proptest-chosen λ values over one fixture.
    fn lambda_specs<'a>(base: JoinSpec<'a>, lambdas: &[usize]) -> Vec<JoinSpec<'a>> {
        lambdas
            .iter()
            .map(|&l| base.with_query(QueryParams::paper_base().with_lambda(l)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole invariant: for every algorithm, executing a batch
        /// of N ∈ {1, 3, 8} queries with λ ∈ {1, 5, 20} yields results
        /// byte-identical to running each query alone (raw-count
        /// weighting: integer-valued sums are exact in any order).
        #[test]
        fn batch_equals_sequential_for_all_algorithms(
            n1 in 10u64..35,
            n2 in 8u64..25,
            vocab in 30u64..80,
            buffer_pages in 20u64..2_000,
            seed in 0u64..1_000,
            n_idx in 0usize..3,
            lambda_seed in 0usize..27,
        ) {
            let n = [1usize, 3, 8][n_idx];
            let lambda_pool = [1usize, 5, 20];
            let lambdas: Vec<usize> = (0..n)
                .map(|i| lambda_pool[(lambda_seed + i) % 3])
                .collect();
            let f = fixture(n1, n2, 10.0, vocab, 128, seed);
            let base = JoinSpec::new(&f.c1, &f.c2).with_sys(sys(buffer_pages, 128));
            let specs = lambda_specs(base, &lambdas);

            // A budget too small for the mandatory structures is a
            // legitimate outcome for both modes, not a mismatch.
            let run = |r: Result<BatchOutcome>| match r {
                Ok(b) => Ok(Some(b)),
                Err(Error::InsufficientMemory { .. }) => Ok(None),
                Err(e) => Err(proptest::test_runner::TestCaseError::fail(e.to_string())),
            };
            if let Some(batch) = run(execute_hhnl(&specs))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::hhnl::execute(spec).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
                prop_assert!(batch.stats.mem_high_water_bytes <= base.sys.buffer_bytes());
            }
            if let Some(batch) = run(execute_hvnl(&specs, &f.inv1, BatchOptions::default()))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::hvnl::execute(spec, &f.inv1).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
            }
            if let Some(batch) = run(execute_vvm(&specs, &f.inv1, &f.inv2))? {
                for (b, spec) in batch.queries.iter().zip(&specs) {
                    let s = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
                    prop_assert_eq!(&b.result, &s.result);
                }
            }
        }

        /// Degraded mode: with *permanent* page corruption (bit flips are
        /// detected on every read), batch and sequential execution skip
        /// exactly the same data and produce byte-identical partial
        /// results. (Transient nth-access faults would fire at different
        /// points of the two access sequences — permanence is what makes
        /// the comparison well-defined.)
        #[test]
        fn degraded_batch_equals_degraded_sequential(
            seed in 0u64..500,
            store_page in 0u64..10_000,
            inv_page in 0u64..10_000,
            bit in 0u64..4_096,
            lambda_seed in 0usize..27,
        ) {
            let f = fixture(25, 18, 10.0, 60, 128, seed);
            let lambda_pool = [1usize, 5, 20];
            let lambdas: Vec<usize> = (0..3).map(|i| lambda_pool[(lambda_seed + i) % 3]).collect();
            let base = JoinSpec::new(&f.c1, &f.c2)
                .with_sys(sys(2_000, 128))
                .with_degraded();
            let specs = lambda_specs(base, &lambdas);

            // Flip one bit in an outer-store page and one in an inner
            // inverted-file page; both corruptions are permanent, so every
            // executor sees the same unreadable data.
            let store_file = f.c2.store().file();
            let inv_file = f.inv1.file();
            let plan = FaultPlan::new()
                .with_fault(
                    store_file,
                    store_page % f.disk.num_pages(store_file).max(1),
                    0,
                    FaultKind::BitFlip { bit_offset: bit },
                )
                .with_fault(
                    inv_file,
                    inv_page % f.disk.num_pages(inv_file).max(1),
                    0,
                    FaultKind::BitFlip { bit_offset: bit },
                );
            f.disk.set_fault_plan(plan);

            let batch_hh = execute_hhnl(&specs).unwrap();
            let batch_hv = execute_hvnl(&specs, &f.inv1, BatchOptions::default()).unwrap();
            let batch_vv = execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
            for (i, spec) in specs.iter().enumerate() {
                let hh = crate::hhnl::execute(spec).unwrap();
                let hv = crate::hvnl::execute(spec, &f.inv1).unwrap();
                let vv = crate::vvm::execute(spec, &f.inv1, &f.inv2).unwrap();
                prop_assert_eq!(&batch_hh.queries[i].result, &hh.result);
                prop_assert_eq!(&batch_hv.queries[i].result, &hv.result);
                prop_assert_eq!(&batch_vv.queries[i].result, &vv.result);
            }
        }
    }
}
