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
//! (section 4.3's extension). A pass whose chunk is denser than the average
//! overflows: it halves its own chunk and runs again, the count grows by one
//! for the passes still to come, and the next pass starts where it stopped;
//! a run is never rerun.
//!
//! A pass reads every page of both files but decodes only what its chunk
//! uses. The merge compares directory terms, so an entry whose term the
//! other file lacks is stepped past undecoded. A shared outer entry is
//! decoded, and each query's chunk holds one run of its cells (the chunk is
//! a range of ascending ids, the entry is sorted by document): two binary
//! searches find it. The inner entry is decoded only when some run is not
//! empty. Stepping past an entry reads its pages and fails where reading it
//! would, so pages, skips and errors are those of a pass that decodes all.
//!
//! The budget is charged the paper's 4 bytes per non-zero pair and nothing
//! else. What is VVM's own here is the parts, the partition count and the
//! split of an overflowing pass, and the merge; the step, the rows and the
//! emit are the loop's, and the inner base scan seen through its overlay is
//! `invfile::DeltaScan` (the outer side's is the same stream with no
//! overlay).

use crate::accum::{factor, reserve, InnerMask, Rows, Source, TermAtATime, ACC_BYTES};
use crate::batch::BatchOutcome;
use crate::driver::{drive, sole, Counters, Run};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use std::cmp::Ordering;
use std::iter::Peekable;
use std::ops::Range;
use textjoin_common::{DocId, Error, ICell, Result};
use textjoin_costmodel::vvm::similarity_pages;
use textjoin_invfile::{DeltaOverlay, DeltaScan, InvertedFile};
use textjoin_obs::Span;
use textjoin_storage::{IoStats, MemTracker};

/// One part of a merge: term ranges of the one pair of inverted files, the
/// inner one seen through its delta overlay, sized against all of `B`. Sequential VVM
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

/// Called on the driving thread with `(part, pass number from 1,
/// accumulator cells, entries the part skipped, the part's I/O)` after each
/// attempt at a part's merge pass, before its table is folded. An attempt
/// that overflowed ships no table and skips nothing: it reports its I/O.
pub(crate) type PartDone<'a> = dyn Fn(usize, u64, u64, u64, &IoStats) + 'a;

impl Part<'_> {
    /// One side's entry stream: the part's ranges of `inv` in turn, each
    /// seen through `overlay` (the inner side's, or none) and opened when
    /// reached.
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
    let whole = Part {
        inner_inv,
        outer_inv,
        terms: &[(0, None)],
    };
    execute_parts(specs, &[whole], None)
}

/// VVM over a batch of `N ≥ 1` queries and one or more parts: one run.
pub(crate) fn execute_parts(
    specs: &[JoinSpec<'_>],
    parts: &[Part<'_>],
    on_part: Option<&PartDone<'_>>,
) -> Result<BatchOutcome> {
    drive::<TermAtATime>(specs, Source::Merged(parts, on_part))
}

/// VVM in the loop: merge passes over chunks of every query's outer
/// documents, each with one scan of every part. A query's chunk starts
/// where its last one ended and holds `⌈Nᵢ/count⌉` documents, fewer after
/// its pass overflowed.
pub(crate) struct Merging<'r> {
    parts: &'r [Part<'r>],
    on_part: Option<&'r PartDone<'r>>,
    masks: Vec<Option<InnerMask>>,
    /// One budget of `B` pages per part, and the run's reservation on each.
    pub(crate) trackers: Vec<MemTracker>,
    reserved: u64,
    /// Every query's outer documents, and the count sizing their chunks.
    outer: Vec<Vec<DocId>>,
    count: u64,
    /// The current pass's chunk of each query's outer documents, as a
    /// range of its ids.
    chunks: Vec<Range<usize>>,
    /// Passes completed, and pass attempts that overflowed and were split.
    passes: u64,
    pub(crate) splits: u64,
}

impl<'r> Merging<'r> {
    pub(crate) fn prepare(
        parts: &'r [Part<'r>],
        on_part: Option<&'r PartDone<'r>>,
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
                let what = ["VVM result heap", "VVM entry buffers"];
                reserve(&tracker, run, entries, what)?;
                Ok(tracker)
            })
            .collect::<Result<Vec<_>>>()?;
        // `⌈Σᵢ SMᵢ / M⌉`, each `SMᵢ` the planner's and `M` what the
        // reservation left (the same on every part: one pair of files).
        let (reserved, m) = (trackers[0].used(), trackers[0].available() as f64);
        let sm = |s: &JoinSpec| similarity_pages(&s.cost_inputs()) * sys.page_size as f64;
        let outer: Vec<Vec<DocId>> = run.specs.iter().map(JoinSpec::outer_ids).collect();
        let n = outer.iter().fold(1, |n, v| n.max(v.len() as u64));
        let count = ((run.specs.iter().map(sm).sum::<f64>() / m).ceil() as u64).clamp(1, n);
        run.root.record("partitions", count);
        Ok(Self {
            parts,
            on_part,
            masks,
            trackers,
            reserved,
            outer,
            count,
            chunks: vec![0..0; run.specs.len()],
            passes: 0,
            splits: 0,
        })
    }

    /// Moves to the next pass with a document in it, counted for each query
    /// in it; `false` after the last. An exhausted or cancelled query
    /// contributes an empty chunk, so the folded scan stops doing its work
    /// for it while its siblings' chunks go on from their own cursors.
    pub(crate) fn next_chunks(&mut self, run: &mut Run<'_>) -> bool {
        let queries = self.chunks.iter_mut().zip(&self.outer).enumerate();
        for (si, (chunk, ids)) in queries {
            let size = (ids.len() as u64).div_ceil(self.count).max(1) as usize;
            chunk.start = chunk.end;
            if !run.cancelled(si) {
                chunk.end = (chunk.end + size).min(ids.len());
            }
            run.queries[si].passes += u64::from(chunk.start < chunk.end);
        }
        self.chunks.iter().any(|c| !c.is_empty())
    }

    /// One merge pass: every part merges on its own budget, the other
    /// parts' rows fold into the first's in part order (raw counts make the
    /// sums exact in any order, fractional weightings agree to
    /// floating-point reassociation), and each query's chunk is emitted.
    ///
    /// When a part's budget overflows, every part gives back what its rows
    /// charged, every chunk keeps its first `⌈len/2⌉` documents and the
    /// pass runs again; the shortfall sizes nothing, because a merge stops
    /// at its first charge past the budget. The count grows by one, so a
    /// plan that undershoots every chunk by a little splits a few passes,
    /// not all of them. Once no chunk holds more than one document the
    /// overflow is the run's error.
    pub(crate) fn pass(&mut self, run: &mut Run<'r>, span: &mut Span<'r>) -> Result<()> {
        let specs = run.specs;
        let (partials, chunks) = loop {
            let chunks: Vec<&[DocId]> = (self.outer.iter().zip(&self.chunks))
                .map(|(ids, chunk)| &ids[chunk.clone()])
                .collect();
            let partials = run.parts(self.parts, |k, part| {
                MergePartial::compute(specs, part, &chunks, &self.masks, &self.trackers[k])
            });
            let failed = partials.iter().find_map(|(p, _)| p.as_ref().err().cloned());
            if let Some(done) = self.on_part {
                for (k, (partial, io)) in partials.iter().enumerate() {
                    // A failed attempt ships no table.
                    let shipped = partial.as_ref().ok().filter(|_| failed.is_none());
                    let cells = shipped.map_or(0, |p| p.charged() / ACC_BYTES);
                    let skipped = shipped.map_or(0, |p| p.skipped_entries);
                    done(k, self.passes + 1, cells, skipped, io);
                }
            }
            let Some(error) = failed else {
                break (partials, chunks);
            };
            // What a part holds above the reservation is its rows' charge.
            for tracker in &self.trackers {
                tracker.release(tracker.used() - self.reserved);
            }
            let overflow = matches!(error, Error::InsufficientMemory { .. });
            if !overflow || self.chunks.iter().all(|c| c.len() <= 1) {
                return Err(error);
            }
            self.splits += 1;
            self.count += 1;
            for chunk in &mut self.chunks {
                chunk.end = chunk.start + chunk.len().div_ceil(2);
            }
        };
        self.passes += 1;
        span.record("outer_docs", chunks.iter().map(|c| c.len() as u64).sum());
        // No part failed, so every result is a partial.
        let mut partials = partials.into_iter().flat_map(|(partial, _)| partial);
        let mut total = partials.next().expect("a merge has at least one part");
        for (partial, tracker) in partials.zip(&self.trackers[1..]) {
            tracker.release(partial.charged());
            partial.fold_into(&mut total);
        }
        run.shared_skipped_entries += total.skipped_entries;
        let per_query = (total.rows.into_iter().zip(total.counters)).zip(&mut run.queries);
        for ((spec, chunk), ((mut rows, counters), q)) in specs.iter().zip(&chunks).zip(per_query) {
            q.counters.sim_ops += counters.sim_ops;
            q.counters.cells_touched += counters.cells_touched;
            // The first part's charge is released as its rows are emitted.
            rows.emit(chunk, spec, &mut q.rows, &self.trackers[0]);
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
        // The next entry's term on one side, range by range, from the
        // directories.
        let peek = |side: &mut Peekable<_>| loop {
            match side.peek().map(|scan: &DeltaScan| scan.peek_term()) {
                Some(None) => drop(side.next()),
                Some(term) => return term,
                None => return None,
            }
        };
        // Reads one side's peeked entry into `cells`, or steps past it when
        // `None`: `Ok(true)` once it is read. In degraded mode an
        // unreadable one — base or flushed delta — is skipped and counted
        // so the merge goes on; otherwise the first read error aborts it.
        let mut take = |side: &mut Peekable<_>, cells: Option<&mut Vec<ICell>>| {
            let scan: &mut DeltaScan = side.peek_mut().expect("an entry was peeked");
            let read = match cells {
                Some(cells) => scan.next_into(cells),
                None => scan.step_past(),
            };
            match read {
                Some(Err(e)) if spec0.skippable(&e) => {
                    partial.skipped_entries += 1;
                    Ok(false)
                }
                Some(Err(e)) => Err(e),
                _ => Ok(true),
            }
        };
        let mut inner = part.entries(spec0, part.inner_inv, spec0.inner_delta, "inv1");
        let mut outer = part.entries(spec0, part.outer_inv, None, "inv2");
        let (mut inner_cells, mut outer_cells) = (Vec::new(), Vec::new());
        // The term of the outer entry in `outer_cells` while inner entries
        // of that term may still come (one that fails leaves it current),
        // and per query its factor and the run of its chunk's cells there.
        let mut current = None;
        let mut runs: Vec<Option<(f64, Range<usize>)>> = Vec::with_capacity(specs.len());
        let charge = |bytes| tracker.allocate(bytes, "VVM similarity accumulators");
        // Merge by term: step past the smaller term's entry.
        while let Some(inner_t) = peek(&mut inner) {
            let Some(outer_t) = current.or_else(|| peek(&mut outer)) else {
                break;
            };
            match inner_t.cmp(&outer_t) {
                Ordering::Less => drop(take(&mut inner, None)?),
                Ordering::Greater if current.take().is_some() => {}
                Ordering::Greater => drop(take(&mut outer, None)?),
                Ordering::Equal => {
                    if current.is_none() {
                        if !take(&mut outer, Some(&mut outer_cells))? {
                            continue;
                        }
                        current = Some(outer_t);
                        let run = |(spec, &chunk)| {
                            Some((factor(spec, outer_t)?, chunk_run(&outer_cells, chunk)))
                        };
                        runs.clear();
                        runs.extend(specs.iter().zip(chunks).map(run));
                    }
                    let used = runs.iter().flatten().any(|(_, run)| !run.is_empty());
                    if !take(&mut inner, used.then_some(&mut inner_cells))? {
                        continue;
                    }
                    current = None;
                    let per_query = (specs.iter().zip(masks).zip(&runs))
                        .zip(partial.rows.iter_mut().zip(&mut partial.counters));
                    for (((spec, mask), run), (rows, counters)) in per_query {
                        let &Some((factor, ref run)) = run else {
                            continue;
                        };
                        for &oc in &outer_cells[run.clone()] {
                            if let Some(slot) = rows.slot(oc.doc) {
                                let query = (spec, mask.as_ref());
                                rows.step(slot, oc, factor, &inner_cells, query, counters, charge)?;
                            }
                        }
                    }
                }
            }
        }
        // The side the other outlasts reads on through its next readable
        // entry, as a merge holding each side's next entry decoded does, so
        // a pass reads the same pages however little of them it decodes.
        let rest = match peek(&mut inner) {
            None if current.is_some() => None,
            None => Some(&mut outer),
            Some(_) => Some(&mut inner),
        };
        if let Some(side) = rest {
            while peek(side).is_some() && !take(side, None)? {}
        }
        Ok(partial)
    }

    /// Bytes charged for the pairs the rows hold.
    fn charged(&self) -> u64 {
        self.rows.iter().map(Rows::charged).sum()
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

/// Where `chunk`'s documents (ascending) lie in `cells` (an entry,
/// ascending by document): the one run between its first and last id. A
/// selected chunk's run may hold documents between its ids too.
fn chunk_run(cells: &[ICell], chunk: &[DocId]) -> Range<usize> {
    let (Some(&first), Some(&last)) = (chunk.first(), chunk.last()) else {
        return 0..0;
    };
    let start = cells.partition_point(|c| c.doc < first);
    start..start + cells[start..].partition_point(|c| c.doc <= last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{naive_join, naive_join_full};
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
        // The first count fits every chunk of this pair, so neither run
        // splits a pass and both make the same passes.
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

    /// A flushed side file and a tail of inserts numbered from `base`,
    /// with a bit flipped in the side file's first page: the overlay, the
    /// terms of the flushed entries on that page, and the flushed and tail
    /// documents.
    fn damaged_overlay(
        disk: &Arc<DiskSim>,
        base: u32,
    ) -> (DeltaOverlay, Vec<TermId>, Vec<Document>, Vec<Document>) {
        let mut inserted =
            SynthSpec::from_stats(CollectionStats::new(24, 10.0, 80), 43).generate_docs();
        let tail = inserted.split_off(16);
        let mut store = DocumentStoreBuilder::new(Arc::clone(disk), "c1.g1.docs").unwrap();
        let mut postings: HashMap<TermId, Vec<ICell>> = HashMap::new();
        for (id, doc) in (base..).zip(&inserted) {
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
                Arc::clone(disk),
                "c1.g1",
                postings,
                PostingCodec::Fixed5,
            )
            .unwrap(),
        });
        for (id, doc) in (base + 16..).zip(&tail) {
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
        (overlay, lost, inserted, tail)
    }

    /// `doc` without its cells of the `lost` terms.
    fn without(doc: &Document, lost: &[TermId]) -> Document {
        let kept = doc.cells().iter().filter(|c| !lost.contains(&c.term));
        Document::from_sorted_cells(kept.copied().collect())
    }

    /// A flipped bit in one page of the flushed side file: degraded VVM
    /// skips exactly the delta entries on that page, one count each, and
    /// joins everything else — the tail, the base and the rest of the side
    /// file.
    #[test]
    fn degraded_merge_skips_each_unreadable_delta_entry() {
        let (disk, c1, c2, inv1, inv2, d1, d2) = fixture(30, 20, 10.0, 80, 128);
        let (overlay, lost, flushed, tail) = damaged_overlay(&disk, d1.len() as u32);
        let spec = JoinSpec::new(&c1, &c2)
            .with_query(QueryParams::paper_base().with_lambda(5))
            .with_inner_delta(&overlay);
        assert!(execute(&spec, &inv1, &inv2).is_err(), "strict mode aborts");
        let got = execute(&spec.with_degraded(), &inv1, &inv2).unwrap();
        assert_eq!(got.stats.passes, 1);
        assert_eq!(got.quality, crate::ResultQuality::Partial);
        assert_eq!(got.stats.skipped_entries, lost.len() as u64);
        let all: Vec<Document> = (d1.iter().cloned())
            .chain(flushed.iter().map(|doc| without(doc, &lost)))
            .chain(tail.iter().cloned())
            .collect();
        let want = naive_join(&all, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
    }

    /// The same damage over several passes, where one outer document alone
    /// holds the lost terms: the chunk holding it decodes the inner
    /// entries of those terms' neighbours, the other chunks step past them,
    /// and every pass meets the bad page and counts its entries again.
    #[test]
    fn a_multi_pass_degraded_merge_counts_each_pass_s_skips() {
        let (disk, c1, _, inv1, _, d1, d2) = fixture(30, 20, 10.0, 80, 128);
        let (overlay, lost, flushed, tail) = damaged_overlay(&disk, d1.len() as u32);
        let holds_lost = |doc: &Document| doc.cells().iter().any(|c| lost.contains(&c.term));
        let keeper = d2
            .iter()
            .position(holds_lost)
            .expect("an outer document holds a lost term");
        let d2: Vec<Document> = (d2.iter().enumerate())
            .map(|(i, doc)| {
                if i == keeper {
                    doc.clone()
                } else {
                    without(doc, &lost)
                }
            })
            .collect();
        let c2 = Collection::build(Arc::clone(&disk), "c2.kept", d2.clone()).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2.kept", &c2).unwrap();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5))
            .with_inner_delta(&overlay)
            .with_degraded();
        let got = execute(&spec, &inv1, &inv2).unwrap();
        assert!(got.stats.passes >= 3, "{} passes", got.stats.passes);
        assert_eq!(got.quality, crate::ResultQuality::Partial);
        // 3 entries on the bad page, in each of 4 passes.
        assert_eq!(got.stats.skipped_entries, 12);
        let all: Vec<Document> = (d1.iter().cloned())
            .chain(flushed.iter().map(|doc| without(doc, &lost)))
            .chain(tail.iter().cloned())
            .collect();
        let want = naive_join(&all, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
    }

    /// A selected self-join without the self pairs, over several passes:
    /// a chunk's run in an outer entry holds the unselected documents
    /// between its ids, and none of them is scored.
    #[test]
    fn a_selected_self_join_over_passes_matches_the_reference() {
        let (_, c1, _, inv1, _, d1, _) = fixture(40, 1, 10.0, 50, 128);
        let chosen: Vec<DocId> = (1..40).step_by(3).map(DocId::new).collect();
        let spec = JoinSpec::new(&c1, &c1)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(4))
            .with_exclude_self();
        let got = execute(&spec, &inv1, &inv1).unwrap();
        assert!(got.stats.passes > 1, "expected partitioning, got 1 pass");
        let want = naive_join_full(
            &d1,
            &d1,
            OuterDocs::Selected(&chosen),
            None,
            4,
            crate::Weighting::RawCount,
            true,
        );
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
