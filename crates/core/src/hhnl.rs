//! Algorithm HHNL — Horizontal-Horizontal Nested Loop (section 4.1), and
//! the forward loop it shares with FNL.
//!
//! The outer collection gets as much memory as possible: read the next `X`
//! outer documents into memory, stream the inner side once, score every
//! streamed item against every resident outer document into a λ-bounded
//! heap per outer document, and repeat until the outer collection is
//! exhausted — `⌈N2/X⌉` passes (pooled over a batch's concatenated outer
//! streams, see `batch.rs`). `Forward` is that loop, written once; its
//! one parameter is the inner source. HHNL streams the inner documents
//! (`D1` pages keyed by term number); FNL is the same loop handed
//! `fnl::Signatures` (`Ip` pages keyed by rarity rank, then the delta
//! documents by term number). A streamed item probes an index of the
//! resident round (`probe.rs`) instead of merging with it pair by pair;
//! the backward order below keeps the pairwise merge, as the ablation that
//! measures the difference.
//!
//! The tracker is charged what the source pins for the whole run (the slot
//! for one streamed item included — the paper reserves `⌈S1⌉` pages) plus,
//! per resident outer document, the document, its cells in the source's
//! own key space and `λ` similarity slots: the layout behind `X` in
//! `costmodel`'s forward formula, at real sizes instead of averages, so
//! the budget is *never* exceeded rather than exceeded on average.

use crate::driver::{drive_one, DocStream, Passes, Resident, Run};
use crate::fnl::Signatures;
use crate::probe::{self, Postings, Round};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use crate::topk::TopK;
use std::collections::HashMap;
use textjoin_collection::Document;
use textjoin_common::{DocId, Result, TermId};
use textjoin_costmodel::fnl::RANK_CELL_BYTES;
use textjoin_costmodel::Algorithm;
use textjoin_invfile::FnlIndex;

/// Executes the join with HHNL.
pub fn execute(spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
    drive_one::<Forward>(spec, None)
}

/// Executes the join with HHNL in the *backward order* of section 4.1: the
/// inner collection is batched in memory and the outer collection is
/// scanned once per batch. Because an outer document's λ best matches are
/// only known after it has been compared with *all* inner documents, one
/// λ-heap per outer document must stay resident across every batch —
/// memory proportional to `N2·λ`, the price the paper cites for this
/// order. It can still win when `C1` is much smaller than `C2` (fewer
/// scans of the big collection).
pub fn execute_backward(spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
    drive_one::<HhnlBackward>(spec, ())
}

/// The forward order: rounds of outer documents, one pass of the inner
/// source per round. The source is matched once per pass, never per
/// streamed cell.
pub(crate) struct Forward<'r> {
    /// FNL's source; `None` streams the inner documents themselves (HHNL).
    signatures: Option<Signatures<'r>>,
    outer: DocStream<'r>,
}

impl<'r> Passes<'r> for Forward<'r> {
    /// The signature index to run FNL, `None` to run HHNL.
    type Input = Option<&'r FnlIndex>;

    fn tags(input: &Self::Input) -> (Algorithm, &'static str) {
        match input {
            None => (Algorithm::Hhnl, "hhnl"),
            Some(_) => (Algorithm::Fnl, "fnl"),
        }
    }

    /// Pins what stays resident for the whole run, the slot for one
    /// streamed item included.
    fn prepare(input: Self::Input, run: &mut Run<'r>) -> Result<Self> {
        let signatures = match input {
            None => {
                let slot = run.specs[0].inner_slot_bytes();
                run.tracker.allocate(slot, "HHNL inner document slot")?;
                None
            }
            Some(index) => Some(Signatures::prepare(index, run)?),
        };
        Ok(Self {
            signatures,
            outer: DocStream::outer(run.specs),
        })
    }

    fn next_pass(&mut self, run: &mut Run<'r>) -> Result<bool> {
        let specs = run.specs;
        let signatures = self.signatures.as_ref();
        let (what, scan) = match signatures {
            None => ("HHNL outer batch", "hhnl.inner_scan"),
            Some(_) => ("FNL outer batch", "fnl.sig_scan"),
        };
        // Under FNL each resident carries its rank-cell encoding, charged
        // to the budget alongside the document — the `8·K2/P` term of the
        // cost model's X. Outer terms absent from the inner base collection
        // carry no rank and are dropped: they cannot match any signature
        // entry, and overlay documents are scored from the raw cells.
        let (round, round_bytes) = self.outer.fill_round(run, what, |si, doc| {
            let lambda = specs[si].query.lambda;
            let ranks = signatures.map_or_else(Vec::new, |s| s.order.rank_cells(doc));
            let bytes = doc.size_bytes().max(1) + (RANK_CELL_BYTES * ranks.len()) as u64;
            (bytes.saturating_add(TopK::budget_bytes(lambda)), ranks)
        })?;
        if round.is_empty() {
            return Ok(false);
        }
        let mut docs = Vec::with_capacity(round.len());
        let mut ranks = Vec::with_capacity(round.len());
        // A λ-heap is built once its document is admitted, so no heap
        // reserves room for a λ the budget refused.
        let slots = round.into_iter().map(|r| {
            docs.push(r.doc);
            ranks.push(r.extra);
            let heap = TopK::new(specs[r.query].query.lambda);
            (r.query, r.id, heap)
        });
        let mut round = Round::new(specs, slots);
        run.phase(scan, |run, span| {
            span.record("batch_docs", docs.len() as u64);
            match signatures {
                Some(signatures) => signatures.probe(run, &mut round, docs, ranks),
                // `inner_iter` folds in the shared inner delta: tombstoned
                // base documents are dropped, inserted ones trail the scan.
                None => {
                    let inner = specs[0].inner_iter();
                    probe_documents(run, &mut round, &probe::by_term(docs), inner)
                }
            }
        })?;
        round.emit(run);
        run.tracker.release(round_bytes);
        Ok(true)
    }
}

/// One stream of a pass: every readable item probes `postings` with its
/// cells (ascending by key), `term_of` mapping a key back to the term the
/// weighting knows. An unreadable item is skipped in degraded mode, for
/// every query of the run — they all read through the stream. A pair's
/// score never depends on which queries share the stream.
pub(crate) fn probe_stream<C: Iterator<Item = (u32, u16)>>(
    run: &mut Run<'_>,
    round: &mut Round,
    postings: &Postings,
    items: impl Iterator<Item = Result<(DocId, C)>>,
    term_of: impl Fn(u32) -> TermId,
) -> Result<()> {
    let spec0 = &run.specs[0];
    for item in items {
        let (inner_id, cells) = match item {
            Ok(pair) => pair,
            Err(e) if spec0.skippable(&e) => {
                run.shared_skipped_docs += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        round.probe(run, postings, inner_id, cells, &term_of);
    }
    Ok(())
}

/// The term-keyed document stream both sources end with: HHNL streams the
/// whole inner side through it, FNL the delta documents its signature
/// index does not cover. One document is held at a time, in the slot
/// sized over every document the stream can yield.
pub(crate) fn probe_documents(
    run: &mut Run<'_>,
    round: &mut Round,
    by_term: &Postings,
    docs: impl Iterator<Item = Result<(DocId, Document)>>,
) -> Result<()> {
    let items = docs.map(|item| item.map(|(id, doc)| (id, probe::into_term_cells(doc))));
    probe_stream(run, round, by_term, items, TermId::new)
}

/// The backward order: rounds of *inner* documents, one outer scan per
/// round, one λ-heap per outer document resident throughout. An ablation
/// of the paper's order, and of the round index — it merges pair by pair
/// on purpose, so section 4.2's "almost all entries of the matrix" can
/// still be measured (`tests/cpu_costs.rs`); it runs one query.
struct HhnlBackward<'r> {
    inner: DocStream<'r>,
    heaps: HashMap<u32, TopK>,
}

impl<'r> Passes<'r> for HhnlBackward<'r> {
    type Input = ();

    fn tags((): &()) -> (Algorithm, &'static str) {
        (Algorithm::Hhnl, "hhnl.backward")
    }

    fn prepare((): (), run: &mut Run<'r>) -> Result<Self> {
        let spec = run.specs[0];
        // Room for the outer document currently streaming past.
        run.tracker
            .allocate(spec.outer_slot_bytes(), "backward HHNL outer document slot")?;
        // One persistent λ-heap per participating outer document.
        run.tracker.allocate(
            TopK::budget_bytes(spec.query.lambda)
                .max(1)
                .saturating_mul(spec.num_outer_docs().max(1)),
            "backward HHNL result heaps (λ per outer document)",
        )?;
        let inner = spec.inner_iter().filter(move |item| match item {
            Ok((id, _)) => spec.inner_doc_allowed(*id),
            Err(_) => true,
        });
        Ok(Self {
            inner: DocStream::new(vec![Box::new(inner)]),
            heaps: HashMap::new(),
        })
    }

    fn next_pass(&mut self, run: &mut Run<'r>) -> Result<bool> {
        let (round, round_bytes) =
            self.inner
                .fill_round(run, "backward HHNL inner batch", |_, doc| {
                    (doc.size_bytes().max(1), ())
                })?;
        if round.is_empty() {
            return Ok(false);
        }
        run.phase("hhnl.outer_scan", |run, span| {
            span.record("batch_docs", round.len() as u64);
            self.scan_outer_against(run, &round)
        })?;
        run.tracker.release(round_bytes);
        Ok(true)
    }

    fn finish(self, run: &mut Run<'r>) -> Result<()> {
        let spec = run.specs[0];
        let query = &mut run.queries[0];
        query.rows.extend(
            self.heaps
                .into_iter()
                .map(|(id, heap)| (DocId::new(id), heap.into_matches())),
        );
        // Outer documents that never met a batch (empty inner side) still
        // get empty rows.
        if query.rows.is_empty() && spec.num_outer_docs() > 0 {
            for item in spec.outer_iter() {
                match item {
                    Ok((outer_id, _)) => query.rows.push((outer_id, Vec::new())),
                    Err(e) if spec.skippable(&e) => query.counters.skipped_docs += 1,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }
}

impl HhnlBackward<'_> {
    /// One pass over the outer documents for a resident inner batch.
    fn scan_outer_against(&mut self, run: &mut Run<'_>, round: &[Resident<()>]) -> Result<()> {
        let spec = run.specs[0];
        let lambda = spec.query.lambda;
        let inner_profile = spec.inner.profile();
        let outer_profile = spec.outer.profile();
        let counters = &mut run.queries[0].counters;
        for item in spec.outer_iter() {
            let (outer_id, outer_doc) = match item {
                Ok(pair) => pair,
                Err(e) if spec.skippable(&e) => {
                    counters.skipped_docs += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let heap = self
                .heaps
                .entry(outer_id.raw())
                .or_insert_with(|| TopK::new(lambda));
            for r in round {
                if !spec.pair_allowed(r.id, outer_id) {
                    continue;
                }
                let (score, ops, visited) = spec.weighting.score_pair_counted(
                    r.id,
                    &r.doc,
                    outer_id,
                    &outer_doc,
                    inner_profile,
                    outer_profile,
                );
                counters.sim_ops += ops;
                counters.cells_touched += visited;
                if !score.is_zero() {
                    heap.offer(r.id, score);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, DocumentStoreBuilder, SynthSpec};
    use textjoin_common::{CollectionStats, Error, QueryParams, SystemParams};
    use textjoin_invfile::{DeltaOverlay, FlushedDelta, FnlIndex, InvertedFile, PostingCodec};
    use textjoin_storage::DiskSim;

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
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 11).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 22).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        (disk, c1, c2, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams::paper_base().with_buffer_pages(100))
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Hhnl);
    }

    #[test]
    fn tight_memory_forces_multiple_passes_same_result() {
        let (_, c1, c2, d1, d2) = fixture(25, 40, 12.0, 100, 128);
        // Budget of 4 pages of 128 bytes: a handful of docs per batch.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 4,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec).unwrap();
        assert!(got.stats.passes > 1, "tight memory must force batching");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 3, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    /// A flushed overlay holding `docs` under ids from `first_id` on.
    fn flushed(disk: &Arc<DiskSim>, first_id: u32, docs: &[Document]) -> DeltaOverlay {
        let mut store = DocumentStoreBuilder::new(Arc::clone(disk), "delta.docs").unwrap();
        for (k, doc) in docs.iter().enumerate() {
            store
                .add_with_id(DocId::new(first_id + k as u32), doc)
                .unwrap();
        }
        let store = store.finish().unwrap();
        let codec = PostingCodec::Fixed5;
        let inv =
            InvertedFile::from_postings_with(Arc::clone(disk), "delta", HashMap::new(), codec);
        let inv = inv.unwrap();
        let mut overlay = DeltaOverlay::new();
        overlay.set_flushed(FlushedDelta { store, inv });
        overlay
    }

    /// Both sources, with and without an inner overlay: the reads are the
    /// forward formula's own terms, `open + outer + passes · pass_pages`.
    #[test]
    fn io_matches_the_forward_formula_for_both_sources() {
        let (disk, c1, c2, _, _) = fixture(40, 30, 10.0, 100, 128);
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inserted = SynthSpec::from_stats(CollectionStats::new(6, 10.0, 100), 33);
        let overlay = flushed(&disk, 40, &inserted.generate_docs());
        assert!(overlay.doc_pages() > 0);
        for delta in [None, Some(&overlay)] {
            let mut spec = JoinSpec::new(&c1, &c2)
                .with_sys(SystemParams {
                    buffer_pages: 8,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(2));
            if let Some(overlay) = delta {
                spec = spec.with_inner_delta(overlay);
            }
            let delta_pages = delta.map_or(0, DeltaOverlay::doc_pages);
            // (source, pages read once to open it, pages of one pass)
            let sources = [
                (None, 0, c1.store().num_pages() + delta_pages),
                (
                    Some(&index),
                    index.meta_pages(),
                    index.num_pages() + delta_pages,
                ),
            ];
            for (source, open, pass_pages) in sources {
                disk.reset_stats();
                disk.reset_head();
                let got = match source {
                    None => execute(&spec).unwrap(),
                    Some(index) => crate::fnl::execute(&spec, index).unwrap(),
                };
                let passes = got.stats.passes;
                assert!(passes > 1, "{:?}", got.stats.algorithm);
                let expect = open + c2.store().num_pages() + passes * pass_pages;
                assert_eq!(got.stats.io.total_reads(), expect);
                // One seek to open, then per pass one to resume the outer
                // scan and one to rewind each file of the inner source.
                let files = 1 + delta.is_some() as u64;
                assert!(got.stats.io.rand_reads <= 1 + open.min(1) + passes * (1 + files));
            }
        }
    }

    #[test]
    fn selection_reduces_outer_side() {
        let (_, c1, c2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17), DocId::new(29)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec).unwrap();
        assert_eq!(got.result.num_outer_docs(), 3);
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            4,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn cosine_weighting_matches_reference() {
        let (_, c1, c2, d1, d2) = fixture(15, 15, 8.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::Cosine)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::Cosine);
        assert!(got.result.approx_eq(&want, 1e-12));
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let (_, c1, c2, _, _) = fixture(10, 10, 50.0, 100, 64);
        // One page of 64 bytes cannot hold an inner doc slot + outer doc.
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 1,
            page_size: 64,
            alpha: 5.0,
        });
        assert!(matches!(
            execute(&spec),
            Err(Error::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn document_slots_cover_an_oversized_delta_document() {
        // Both sources stream the overlay's documents through the same
        // slot as their base scan, so the slot is sized over both.
        let (disk, c1, c2, d1, d2) = fixture(20, 15, 5.0, 60, 128);
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let order = index.read_term_order().unwrap();
        for source in [None, Some(&index)] {
            let run = |spec: &JoinSpec<'_>| match source {
                None => execute(spec),
                Some(index) => crate::fnl::execute(spec, index),
            };
            // What the source pins beside the slot, and what a resident
            // outer document carries beside itself and its two λ slots.
            let pinned = source.map_or(0, FnlIndex::meta_bytes);
            let keys = |d: &Document| source.map_or(0, |_| 8 * order.rank_cells(d).len() as u64);
            // A delta document larger than anything in the base, sized so
            // that a budget of whole pages holds it and what is pinned
            // with less than one resident to spare.
            let terms = (50..178u32)
                .find(|n| {
                    (pinned + 5 * *n as u64).next_multiple_of(128) - (pinned + 5 * *n as u64) < 5
                })
                .unwrap();
            let big = Document::from_term_counts((0..terms).map(|t| (TermId::new(t), 1)));
            assert!(big.size_bytes() > c1.store().max_doc_bytes());
            assert!(big.size_bytes() > index.max_entry_bytes());
            let mut overlay = DeltaOverlay::new();
            overlay.insert_tail(DocId::new(20), big.clone());
            let spec = JoinSpec::new(&c1, &c2)
                .with_inner_delta(&overlay)
                .with_sys(SystemParams {
                    buffer_pages: 24,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(2));
            assert_eq!(spec.inner_slot_bytes(), big.size_bytes());
            let got = run(&spec).unwrap();
            assert_eq!(got.stats.passes, 1);
            let residents: u64 = d2.iter().map(|d| d.size_bytes() + keys(d) + 16).sum();
            assert_eq!(
                got.stats.mem_high_water_bytes,
                pinned + big.size_bytes() + residents
            );
            assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
            let all: Vec<Document> = d1.iter().cloned().chain([big.clone()]).collect();
            let want = naive_join(&all, &d2, OuterDocs::Full, 2, crate::Weighting::RawCount);
            assert_eq!(got.result, want);

            // A budget the big document and one outer document do not fit
            // is refused, not silently exceeded.
            let cramped = spec.with_sys(SystemParams {
                buffer_pages: (pinned + big.size_bytes()).div_ceil(128),
                page_size: 128,
                alpha: 5.0,
            });
            assert!(pinned + big.size_bytes() <= cramped.sys.buffer_bytes());
            assert!(matches!(
                run(&cramped),
                Err(Error::InsufficientMemory { .. })
            ));
        }
    }

    #[test]
    fn backward_order_matches_forward_order() {
        let (_, c1, c2, d1, d2) = fixture(30, 25, 10.0, 90, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 40,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let forward = execute(&spec).unwrap();
        let backward = execute_backward(&spec).unwrap();
        assert_eq!(forward.result, backward.result);
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(backward.result, want);
        assert!(backward.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn backward_order_wins_when_inner_is_tiny() {
        // C1 of 5 docs vs C2 of 80: backward batches all of C1 once and
        // scans C2 once; forward scans C1 once per outer batch but C1 is
        // tiny — the interesting direction is the pass count over the BIG
        // collection.
        let (disk, c1, c2, _, _) = fixture(5, 80, 12.0, 100, 128);
        // Note the memory premium of the backward order: the λ-heaps of
        // all 80 outer documents must stay resident (80·2·8 bytes), so the
        // budget is larger than the forward tests need.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 32,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        disk.reset_stats();
        disk.reset_head();
        let backward = execute_backward(&spec).unwrap();
        assert_eq!(backward.stats.passes, 1, "all 5 inner docs fit one batch");
        // One pass = D1 + D2 pages.
        let expect = c1.store().num_pages() + c2.store().num_pages();
        assert_eq!(backward.stats.io.total_reads(), expect);
        let forward = execute(&spec).unwrap();
        assert_eq!(forward.result, backward.result);
    }

    #[test]
    fn backward_order_respects_selections() {
        let (_, c1, c2, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17)];
        let inner_ids = [DocId::new(1), DocId::new(5), DocId::new(9)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_ids)
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute_backward(&spec).unwrap();
        let want = crate::reference::naive_join_filtered(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen),
            Some(&inner_ids),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.result, want);
    }

    #[test]
    fn empty_outer_collection_yields_empty_result() {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = Collection::build(
            Arc::clone(&disk),
            "c1",
            SynthSpec::from_stats(CollectionStats::new(5, 5.0, 20), 1).generate_docs(),
        )
        .unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", Vec::<Document>::new()).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2)).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
        assert_eq!(got.stats.passes, 0);
    }
}
