//! Algorithm VVM — Vertical-Vertical Merge (section 4.3): the merge-scan
//! source of the term-at-a-time loop (`accum.rs`).
//!
//! Both inverted files are scanned in parallel, "very much like the merge
//! phase of sort merge": entries are in ascending term order, so one
//! sequential pass over each file visits every shared term once. For a
//! shared term `t` with entries `I1ᵗ = {(r, u)}` and `I2ᵗ = {(s, v)}`, the
//! similarity of every pair `(r, s)` is advanced by `u·v`.
//!
//! The price is holding the intermediate similarity of *every* non-zero
//! document pair at once — space proportional to `N1·N2`. When the
//! planner's `SM = 4·δ·N1·N2/P` exceeds the memory `M` the run's one
//! reservation leaves, the outer collection is split into `⌈SM/M⌉`
//! subcollections and both files are rescanned once per subcollection
//! (section 4.3's extension). A chunk denser than the average reruns at a
//! count grown to fit, never more than doubled.
//!
//! The budget is charged the paper's 4 bytes per non-zero pair and nothing
//! else. What is VVM's own here is the parts, the partition count and its
//! retry, and the merge; the step, the rows and the emit are the loop's, and
//! each side's base scan seen through its overlay is `invfile::DeltaScan`.

use crate::accum::{factor, reserve, InnerMask, Rows, Source, TermAtATime, ACC_BYTES};
use crate::batch::BatchOutcome;
use crate::driver::{drive, sole, validate, Counters, Run};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use std::cell::Cell;
use std::iter::Peekable;
use textjoin_common::{DocId, Error, ICell, Result};
use textjoin_costmodel::vvm::similarity_pages;
use textjoin_invfile::{DeltaOverlay, DeltaScan, InvertedFile};
use textjoin_obs::Span;
use textjoin_storage::{IoStats, MemTracker};

/// What a merge is handed: the parts it reads, every query's outer
/// documents, the partition count once sized, and the per-part hook.
pub(crate) type Merge<'r> = (
    &'r [Part<'r>],
    &'r [Vec<DocId>],
    &'r Cell<Option<u64>>,
    Option<&'r PartDone<'r>>,
);

/// One part of a merge: term ranges of the one pair of inverted files, seen
/// through the delta overlays and sized against all of `B`. Sequential VVM
/// is the one part whose range covers every term; sharded VVM has one part
/// per site. Entries are term-sorted and every term lives in exactly one
/// part, so the parts' tables sum to the sequential accumulator.
pub(crate) struct Part<'r> {
    pub(crate) inner_inv: &'r InvertedFile,
    pub(crate) outer_inv: &'r InvertedFile,
    /// The part's term ranges `[lo, hi)` (`hi = None` = unbounded),
    /// ascending and disjoint.
    pub(crate) terms: &'r [(u32, Option<u32>)],
}

/// Called on the driving thread with `(part, outer chunk number from 1,
/// accumulator cells, entries the part skipped, the part's I/O)` after a
/// part's merge pass, before its table is folded.
pub(crate) type PartDone<'a> = dyn Fn(usize, u64, u64, u64, &IoStats) + 'a;

impl Part<'_> {
    /// One side's entry stream: the part's ranges of `inv` in turn, each
    /// seen through the side's delta overlay and opened when reached.
    fn entries<'a>(
        &'a self,
        spec: &JoinSpec<'_>,
        inv: &'a InvertedFile,
        overlay: Option<&'a DeltaOverlay>,
        label: &str,
    ) -> Peekable<impl Iterator<Item = DeltaScan<'a>>> {
        let metrics = spec.prefetch_metrics(label);
        let over = move |&(lo, hi): &_| DeltaScan::over(inv, lo, hi, overlay, metrics.clone());
        self.terms.iter().map(over).peekable()
    }
}

/// Executes the join with VVM.
pub fn execute(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<JoinOutcome> {
    execute_batch(std::slice::from_ref(spec), inner_inv, outer_inv).map(sole)
}

/// VVM over `N ≥ 1` queries: all queries' accumulators share the
/// similarity budget of one merge scan, so both inverted files are read
/// `⌈Σᵢ SMᵢ/M⌉` times for the whole batch (`costmodel::vvm`'s batch form).
pub(crate) fn execute_batch(
    specs: &[JoinSpec<'_>],
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
) -> Result<BatchOutcome> {
    validate(specs)?;
    let whole = Part {
        inner_inv,
        outer_inv,
        terms: &[(0, None)],
    };
    execute_parts(specs, &[whole], None)
}

/// VVM over a validated batch of `N ≥ 1` queries and one or more parts.
pub(crate) fn execute_parts(
    specs: &[JoinSpec<'_>],
    parts: &[Part<'_>],
    on_part: Option<&PartDone<'_>>,
) -> Result<BatchOutcome> {
    let outer_ids: Vec<Vec<DocId>> = specs.iter().map(|s| s.outer_live_ids()).collect();
    let n = outer_ids.iter().map(|v| v.len() as u64).max().unwrap_or(0);
    let partitions = Cell::new(None);
    loop {
        let merge = Source::Merged((parts, &outer_ids, &partitions, on_part));
        let err = match drive::<TermAtATime>(specs, merge) {
            Ok(outcome) => return Ok(outcome),
            Err(e) => e,
        };
        // A pass at `p` partitions needed more than the `B` pages of its
        // budget: rerun at `p` scaled by that shortfall, at least enough to
        // shrink the largest chunk (or the same pass fails again), at most
        // `2p`. A reservation that failed sized no count.
        let p = partitions.get().filter(|&p| n.div_ceil(p) > 1);
        let (Some(p), Error::InsufficientMemory { required_pages, .. }) = (p, &err) else {
            return Err(err);
        };
        let sized = p
            .saturating_mul(*required_pages)
            .div_ceil(specs[0].sys.buffer_pages.max(1));
        let shrink = n.div_ceil(n.div_ceil(p) - 1);
        partitions.set(Some(sized.clamp(shrink, (2 * p).min(n))));
    }
}

/// VVM in the loop: merge passes at a fixed partition count, pass `k`
/// serving chunk `k` of every query's outer documents with one scan of
/// every part.
pub(crate) struct Merging<'r> {
    parts: &'r [Part<'r>],
    on_part: Option<&'r PartDone<'r>>,
    masks: Vec<Option<InnerMask>>,
    /// One budget of `B` pages per part.
    pub(crate) trackers: Vec<MemTracker>,
    outer_ids: &'r [Vec<DocId>],
    chunk_sizes: Vec<usize>,
    /// The current pass's chunk of each query's outer documents.
    pub(crate) chunks: Vec<&'r [DocId]>,
    next_chunk: usize,
    partitions: usize,
}

impl<'r> Merging<'r> {
    pub(crate) fn prepare(
        (parts, outer_ids, partitions, on_part): Merge<'r>,
        masks: Vec<Option<InnerMask>>,
        run: &mut Run<'r>,
    ) -> Result<Self> {
        let sys = run.specs[0].sys;
        // The run's one reservation, made on each part's budget.
        let trackers = (parts.iter())
            .map(|part| {
                let tracker = MemTracker::new(&sys);
                // One current entry per file.
                let entries = (part.inner_inv.max_entry_bytes())
                    .saturating_add(part.outer_inv.max_entry_bytes());
                reserve(
                    &tracker,
                    run,
                    entries,
                    ["VVM result heap", "VVM entry buffers"],
                )?;
                Ok(tracker)
            })
            .collect::<Result<Vec<_>>>()?;
        // `⌈Σᵢ SMᵢ / M⌉`, each `SMᵢ` the planner's and `M` what the
        // reservation left (the same on every part: one pair of files).
        let m = trackers[0].available() as f64;
        let sm = |s: &JoinSpec| similarity_pages(&s.cost_inputs()) * sys.page_size as f64;
        let n = outer_ids.iter().fold(1, |n, v| n.max(v.len() as u64));
        let first = || ((run.specs.iter().map(sm).sum::<f64>() / m).ceil() as u64).clamp(1, n);
        let count = partitions.get().unwrap_or_else(first);
        partitions.set(Some(count));
        run.root.record("partitions", count);
        let chunk_sizes = (outer_ids.iter())
            .map(|ids| (ids.len() as u64).div_ceil(count).max(1) as usize)
            .collect();
        Ok(Self {
            parts,
            on_part,
            masks,
            trackers,
            outer_ids,
            chunk_sizes,
            chunks: Vec::new(),
            next_chunk: 0,
            partitions: count as usize,
        })
    }

    /// Moves to the next pass with a document in it; `false` after the
    /// last. A query whose outer set is exhausted contributes an empty
    /// chunk; so does a cancelled one, so the folded scan stops doing its
    /// work while sibling chunk boundaries stay exactly where an
    /// uncancelled run would put them.
    pub(crate) fn next_chunks(&mut self, run: &Run<'_>) -> bool {
        let outer_ids = self.outer_ids;
        while self.next_chunk < self.partitions {
            let k = self.next_chunk;
            self.next_chunk += 1;
            let sized = outer_ids.iter().zip(&self.chunk_sizes).enumerate();
            self.chunks = (sized.map(|(si, (ids, &size))| match run.cancelled(si) {
                true => &[],
                false => &ids[(k * size).min(ids.len())..((k + 1) * size).min(ids.len())],
            }))
            .collect();
            if self.chunks.iter().any(|c| !c.is_empty()) {
                return true;
            }
        }
        false
    }

    /// One merge pass: every part merges on its own budget, the other
    /// parts' rows fold into the first's in part order (raw counts make the
    /// sums exact in any order, fractional weightings agree to
    /// floating-point reassociation), and each query's chunk is emitted.
    pub(crate) fn pass(&mut self, run: &mut Run<'r>, span: &mut Span<'r>) -> Result<()> {
        let (chunks, masks, trackers) = (&self.chunks, &self.masks, &self.trackers);
        span.record("outer_docs", chunks.iter().map(|c| c.len() as u64).sum());
        let specs = run.specs;
        let partials = run.parts(self.parts, |k, part| {
            MergePartial::compute(specs, part, chunks, masks, &trackers[k])
        })?;
        let mut total: Option<MergePartial> = None;
        for (k, (partial, io)) in partials.into_iter().enumerate() {
            let charged = partial.rows.iter().map(Rows::charged).sum();
            if let Some(done) = self.on_part {
                let skipped = partial.skipped_entries;
                done(k, self.next_chunk as u64, charged / ACC_BYTES, skipped, &io);
            }
            match &mut total {
                None => total = Some(partial),
                Some(total) => {
                    trackers[k].release(charged);
                    partial.fold_into(total);
                }
            }
        }
        let total = total.expect("a merge has at least one part");
        run.shared_skipped_entries += total.skipped_entries;
        let per_query = (total.rows.into_iter().zip(total.counters)).zip(&mut run.queries);
        for ((spec, chunk), ((mut rows, counters), q)) in specs.iter().zip(chunks).zip(per_query) {
            q.counters.sim_ops += counters.sim_ops;
            q.counters.cells_touched += counters.cells_touched;
            // The first part's charge is released as its rows are emitted.
            rows.emit(chunk, spec, &mut q.rows, &trackers[0]);
        }
        Ok(())
    }
}

/// What one part hands back per merge pass: per query, the rows of partial
/// weighted sums over the part's terms (still charged to the part's
/// tracker) and the step's counters; and the entries it could not read.
struct MergePartial {
    rows: Vec<Rows>,
    counters: Vec<Counters>,
    skipped_entries: u64,
}

impl MergePartial {
    /// One term-ordered merge over the part's pair of entry streams,
    /// filling one row per outer document in each query's chunk (sorted by
    /// id). Per (term, pair) the step is taken under each query's own
    /// weighting and filters — per-pair sums are independent across
    /// queries, which is what makes the folded scan result-identical — and
    /// it is the same step whichever part, thread or site takes it.
    fn compute(
        specs: &[JoinSpec<'_>],
        part: &Part<'_>,
        chunks: &[&[DocId]],
        masks: &[Option<InnerMask>],
        tracker: &MemTracker,
    ) -> Result<Self> {
        let spec0 = &specs[0];
        // The queries share one buffer, so each sizes its rows against an
        // equal share of it.
        let width = spec0.inner_row_width();
        let budget = spec0.sys.buffer_bytes() / specs.len() as u64;
        let mut partial = Self {
            rows: chunks
                .iter()
                .map(|chunk| Rows::new(chunk, width, budget))
                .collect(),
            counters: vec![Counters::default(); specs.len()],
            skipped_entries: 0,
        };
        // Moves one side to its next readable entry, range by range. In
        // degraded mode an unreadable one — base or flushed delta — is
        // skipped and counted so the merge goes on; otherwise the first read
        // error aborts it.
        let mut advance = |side: &mut Peekable<_>, cells: &mut Vec<ICell>| loop {
            match side.peek_mut().map(|s: &mut DeltaScan| s.next_into(cells)) {
                None => return Ok(None),
                Some(None) => drop(side.next()),
                Some(Some(Ok(term))) => return Ok(Some(term)),
                Some(Some(Err(e))) if spec0.skippable(&e) => partial.skipped_entries += 1,
                Some(Some(Err(e))) => return Err(e),
            }
        };
        let mut inner = part.entries(spec0, part.inner_inv, spec0.inner_delta, "inv1");
        let mut outer = part.entries(spec0, part.outer_inv, spec0.outer_delta, "inv2");
        let (mut inner_cells, mut outer_cells) = (Vec::new(), Vec::new());
        let mut inner_term = advance(&mut inner, &mut inner_cells)?;
        let mut outer_term = advance(&mut outer, &mut outer_cells)?;
        let charge = |bytes| tracker.allocate(bytes, "VVM similarity accumulators");
        // Merge by term: advance the scan with the smaller term.
        while let (Some(inner_t), Some(outer_t)) = (inner_term, outer_term) {
            match inner_t.cmp(&outer_t) {
                std::cmp::Ordering::Less => inner_term = advance(&mut inner, &mut inner_cells)?,
                std::cmp::Ordering::Greater => outer_term = advance(&mut outer, &mut outer_cells)?,
                std::cmp::Ordering::Equal => {
                    let per_query = (specs.iter().zip(masks))
                        .zip(partial.rows.iter_mut().zip(&mut partial.counters));
                    for ((spec, mask), (rows, counters)) in per_query {
                        let Some(factor) = factor(spec, inner_t) else {
                            continue;
                        };
                        for &oc in &outer_cells {
                            if let Some(slot) = rows.slot(oc.doc) {
                                let query = (spec, mask.as_ref());
                                rows.step(slot, oc, factor, &inner_cells, query, counters, charge)?;
                            }
                        }
                    }
                    inner_term = advance(&mut inner, &mut inner_cells)?;
                    outer_term = advance(&mut outer, &mut outer_cells)?;
                }
            }
        }
        Ok(partial)
    }

    /// Adds another part's rows and counters into this one's. The caller
    /// has released `self`'s charge to its own part's tracker.
    fn fold_into(self, total: &mut MergePartial) {
        total.skipped_entries += self.skipped_entries;
        for (dst, c) in total.counters.iter_mut().zip(self.counters) {
            dst.sim_ops += c.sim_ops;
            dst.cells_touched += c.cells_touched;
        }
        for (dst, rows) in total.rows.iter_mut().zip(self.rows) {
            dst.absorb(rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::collections::HashMap;
    use std::sync::Arc;
    use textjoin_collection::{Collection, Document, DocumentStoreBuilder, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams, TermId};
    use textjoin_costmodel::Algorithm;
    use textjoin_invfile::{FlushedDelta, PostingCodec};
    use textjoin_storage::DiskSim;

    #[allow(clippy::type_complexity)]
    fn fixture(
        n1: u64,
        n2: u64,
        k: f64,
        vocab: u64,
        page: usize,
    ) -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        InvertedFile,
        InvertedFile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 41).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 42).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        (disk, c1, c2, inv1, inv2, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Vvm);
    }

    #[test]
    fn single_pass_scans_each_file_once() {
        let (disk, c1, c2, inv1, inv2, _, _) = fixture(25, 15, 8.0, 60, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 10_000,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert_eq!(got.stats.passes, 1);
        // One scan of each inverted file: I1 + I2 pages, two seeks.
        assert_eq!(
            got.stats.io.total_reads(),
            inv1.num_pages() + inv2.num_pages()
        );
        assert!(got.stats.io.rand_reads <= 2);
    }

    #[test]
    fn tight_memory_partitions_and_stays_correct() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(40, 30, 10.0, 50, 128);
        // A small buffer forces multiple merge passes.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert!(got.stats.passes > 1, "expected partitioning, got 1 pass");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn passes_multiply_scan_cost() {
        let (disk, c1, c2, inv1, inv2, _, _) = fixture(40, 30, 10.0, 50, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 12,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let per_pass = inv1.num_pages() + inv2.num_pages();
        assert_eq!(got.stats.io.total_reads(), got.stats.passes * per_pass);
    }

    #[test]
    fn selection_filters_outer_documents() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(0), DocId::new(9), DocId::new(25)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert_eq!(got.result.num_outer_docs(), 3);
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn cosine_weighting_matches_reference() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture(15, 15, 8.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv1, &inv2).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-12));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]
        /// The partition count is the planner's `SM` over what the run's
        /// reservation leaves, so `query.delta` — the model's input only
        /// when no match count is measured — changes nothing VVM does: not
        /// the result, the passes, the I/O or the high-water, whether the
        /// buffer fits one pass or forces many.
        #[test]
        fn nothing_vvm_does_depends_on_query_delta(
            delta in 0.0001f64..1.0,
            buffer_pages in 8u64..80,
            lambda in 1usize..8,
        ) {
            let (disk, c1, c2, inv1, inv2, _, _) = fixture(40, 30, 10.0, 50, 128);
            let sys = SystemParams {
                buffer_pages,
                page_size: 128,
                alpha: 5.0,
            };
            let run = |delta| {
                let spec = JoinSpec::new(&c1, &c2)
                    .with_sys(sys)
                    .with_query(QueryParams { lambda, delta });
                disk.reset_head();
                execute(&spec, &inv1, &inv2)
            };
            match (run(delta), run(1.0)) {
                (Ok(got), Ok(want)) => {
                    proptest::prop_assert_eq!(got.result, want.result);
                    proptest::prop_assert_eq!(got.stats.passes, want.stats.passes);
                    proptest::prop_assert_eq!(got.stats.io, want.stats.io);
                    proptest::prop_assert_eq!(
                        got.stats.mem_high_water_bytes,
                        want.stats.mem_high_water_bytes
                    );
                }
                (Err(got), Err(want)) => {
                    proptest::prop_assert_eq!(got.to_string(), want.to_string());
                }
                (got, want) => proptest::prop_assert!(
                    false,
                    "δ={delta}: {:?} against {:?}",
                    got.map(|o| o.stats.passes),
                    want.map(|o| o.stats.passes)
                ),
            }
        }
    }

    /// Batch × parts is the one merge: three queries over two parts that
    /// interleave term ranges of the one pair of files, as two sites would
    /// hold them, produce the rows, passes and counters of three queries
    /// over the whole files, and the parts' I/O sums to what the drive saw.
    #[test]
    fn a_batch_over_two_parts_is_the_batch_over_one() {
        let (disk, c1, c2, inv1, inv2, d1, d2) = fixture(40, 30, 10.0, 50, 128);
        let sys = SystemParams {
            buffer_pages: 24,
            page_size: 128,
            alpha: 5.0,
        };
        let lambdas = [4usize, 1, 7];
        // The first count fits every chunk of this pair, so no attempt is
        // abandoned and the drive's I/O is the whole call's.
        let specs = lambdas.map(|lambda| {
            JoinSpec::new(&c1, &c2)
                .with_sys(sys)
                .with_query(QueryParams::paper_base().with_lambda(lambda))
        });
        let one = execute_batch(&specs, &inv1, &inv2).unwrap();
        assert!(one.stats.passes > 1, "expected partitioning, got 1 pass");
        let ranges = [
            &[(0, Some(10)), (25, Some(40))][..],
            &[(10, Some(25)), (40, None)][..],
        ];
        let parts = ranges.map(|terms| Part {
            inner_inv: &inv1,
            outer_inv: &inv2,
            terms,
        });
        let before = disk.stats();
        let two = execute_parts(&specs, &parts, None).unwrap();
        assert_eq!(two.stats.io, disk.stats().since(&before));
        assert_eq!(two.stats.passes, one.stats.passes);
        assert_eq!(two.stats.sim_ops, one.stats.sim_ops);
        for ((got, want), lambda) in two.queries.iter().zip(&one.queries).zip(lambdas) {
            assert_eq!(got.result, want.result, "λ={lambda}");
            assert_eq!(got.stats.passes, want.stats.passes, "λ={lambda}");
            let oracle = naive_join(
                &d1,
                &d2,
                OuterDocs::Full,
                lambda,
                crate::Weighting::RawCount,
            );
            assert_eq!(got.result, oracle, "λ={lambda}");
        }
    }

    /// A flipped bit in one page of the flushed side file: degraded VVM
    /// skips exactly the delta entries on that page, one count each, and
    /// joins everything else — the tail, the base and the rest of the side
    /// file.
    #[test]
    fn degraded_merge_skips_each_unreadable_delta_entry() {
        let (disk, c1, c2, inv1, inv2, d1, d2) = fixture(30, 20, 10.0, 80, 128);
        let base = d1.len() as u32;
        let inserted =
            SynthSpec::from_stats(CollectionStats::new(24, 10.0, 80), 43).generate_docs();
        let (flushed, tail) = inserted.split_at(16);
        let mut store = DocumentStoreBuilder::new(Arc::clone(&disk), "c1.g1.docs").unwrap();
        let mut postings: HashMap<TermId, Vec<ICell>> = HashMap::new();
        for (id, doc) in (base..).zip(flushed) {
            store.add_with_id(DocId::new(id), doc).unwrap();
            for cell in doc.cells() {
                let posting = ICell::new(DocId::new(id), cell.weight);
                postings.entry(cell.term).or_default().push(posting);
            }
        }
        let mut overlay = DeltaOverlay::new();
        overlay.set_flushed(FlushedDelta {
            store: store.finish().unwrap(),
            inv: InvertedFile::from_postings_with(
                Arc::clone(&disk),
                "c1.g1",
                postings,
                PostingCodec::Fixed5,
            )
            .unwrap(),
        });
        for (id, doc) in (base + 16..).zip(tail) {
            overlay.insert_tail(DocId::new(id), doc.clone());
        }
        let side = &overlay.flushed().unwrap().inv;
        assert!(side.num_pages() > 2, "the side file must span pages");
        // The first page: a later one would also fail the readahead batches
        // that cover it, and with them entries on the pages before it.
        let bad_page = 0;
        disk.flip_bit(side.file(), bad_page, 21).unwrap();
        let lost: Vec<TermId> = (side.directory().iter())
            .filter(|m| {
                let (first, n) = m.span.page_range(128);
                (first..first + n).contains(&bad_page)
            })
            .map(|m| m.term)
            .collect();
        assert!(lost.len() > 1, "the page must hold several entries");

        let spec = JoinSpec::new(&c1, &c2)
            .with_query(QueryParams::paper_base().with_lambda(5))
            .with_inner_delta(&overlay);
        assert!(execute(&spec, &inv1, &inv2).is_err(), "strict mode aborts");
        let got = execute(&spec.with_degraded(), &inv1, &inv2).unwrap();
        assert_eq!(got.stats.passes, 1);
        assert_eq!(got.quality, crate::ResultQuality::Partial);
        assert_eq!(got.stats.skipped_entries, lost.len() as u64);
        let without = |doc: &Document| {
            let kept = doc.cells().iter().filter(|c| !lost.contains(&c.term));
            Document::from_sorted_cells(kept.copied().collect())
        };
        let all: Vec<Document> = (d1.iter().cloned())
            .chain(flushed.iter().map(without))
            .chain(tail.iter().cloned())
            .collect();
        let want = naive_join(&all, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
    }

    #[test]
    fn empty_outer_yields_empty_result() {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = Collection::build(
            Arc::clone(&disk),
            "c1",
            SynthSpec::from_stats(CollectionStats::new(5, 5.0, 20), 1).generate_docs(),
        )
        .unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", Vec::<Document>::new()).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2), &inv1, &inv2).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
    }
}
