//! Algorithm HHNL — Horizontal-Horizontal Nested Loop (section 4.1).
//!
//! The outer collection gets as much memory as possible: read the next `X`
//! outer documents into memory, scan the inner collection once, and score
//! every inner document against every resident outer document, keeping a
//! λ-bounded heap per outer document. Repeat until the outer collection is
//! exhausted — `⌈N2/X⌉` inner scans in total.
//!
//! "Against every resident document" is not done pair by pair: the round
//! is re-laid as a term → `(slot, weight)` index (`probe.rs`) and
//! each streamed inner document probes it, so the CPU work tracks the
//! shared terms instead of `N1·N2·(K1+K2)`. The backward order below keeps
//! the pairwise merge, as the ablation that measures the difference.
//!
//! The executor reserves space for the largest inner document, base or
//! live delta (the paper reserves `⌈S1⌉` pages), plus, per resident outer
//! document, the document itself and `λ` similarity slots — exactly the
//! memory layout behind the `X = (B − ⌈S1⌉)/(S2 + 4λ/P)` estimate of
//! section 4.1, except that real document sizes are used instead of
//! averages, so the budget is *never* exceeded rather than exceeded on
//! average.
//!
//! With several queries the outer streams are concatenated and memory
//! rounds fill across query boundaries, so the inner collection is scanned
//! `⌈Σᵢ N2ᵢ/Xᵢ⌉` times for the whole batch (`costmodel::hhs_batch`)
//! instead of `Σᵢ ⌈N2ᵢ/Xᵢ⌉` times.

use crate::driver::{drive_one, DocStream, Passes, Resident, Run};
use crate::probe::{self, Postings, Round};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use crate::topk::TopK;
use std::collections::HashMap;
use textjoin_common::{DocId, Result, TermId};
use textjoin_costmodel::Algorithm;

/// Executes the join with HHNL.
pub fn execute(spec: &JoinSpec<'_>) -> Result<JoinOutcome> {
    drive_one::<Hhnl>(spec, ())
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

/// The forward order: rounds of outer documents, one inner scan per round.
pub(crate) struct Hhnl<'r> {
    outer: DocStream<'r>,
}

impl<'r> Passes<'r> for Hhnl<'r> {
    type Input = ();
    const ALGORITHM: Algorithm = Algorithm::Hhnl;
    const ROOT: &'static str = "hhnl";

    fn prepare((): (), run: &mut Run<'r>) -> Result<Self> {
        // Room to hold one inner document at a time during the scan.
        run.tracker
            .allocate(run.specs[0].inner_slot_bytes(), "HHNL inner document slot")?;
        Ok(Self {
            outer: DocStream::outer(run.specs),
        })
    }

    fn next_pass(&mut self, run: &mut Run<'r>) -> Result<bool> {
        let specs = run.specs;
        let (round, round_bytes) = self.outer.fill_round(run, "HHNL outer batch", |si, doc| {
            let lambda = specs[si].query.lambda;
            (
                doc.size_bytes().max(1) + TopK::budget_bytes(lambda),
                TopK::new(lambda),
            )
        })?;
        if round.is_empty() {
            return Ok(false);
        }
        let (slots, docs): (Vec<_>, Vec<_>) = round
            .into_iter()
            .map(|r| ((r.query, r.id, r.extra), r.doc))
            .unzip();
        let mut round = Round::new(specs, slots);
        let by_term = probe::by_term(docs);
        run.phase("hhnl.inner_scan", |run, span| {
            span.record("batch_docs", round.len() as u64);
            scan_inner_against(run, &mut round, &by_term)
        })?;
        round.emit(run);
        run.tracker.release(round_bytes);
        Ok(true)
    }
}

/// One sequential scan of the inner collection, probing the round's term
/// index with every inner document. A pair's score depends only on the two
/// documents and the query's own weighting and filters, never on which
/// queries share the scan.
fn scan_inner_against(run: &mut Run<'_>, round: &mut Round, by_term: &Postings) -> Result<()> {
    let spec0 = &run.specs[0];
    // `inner_iter` folds in the shared inner delta: tombstoned base
    // documents are dropped, inserted documents trail the base scan.
    for item in spec0.inner_iter() {
        let (inner_id, inner_doc) = match item {
            Ok(pair) => pair,
            Err(e) if spec0.skippable(&e) => {
                run.shared_skipped_docs += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        round.probe(
            run,
            by_term,
            inner_id,
            probe::term_cells(&inner_doc),
            TermId::new,
            1,
        );
    }
    Ok(())
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
    const ALGORITHM: Algorithm = Algorithm::Hhnl;
    const ROOT: &'static str = "hhnl.backward";

    fn prepare((): (), run: &mut Run<'r>) -> Result<Self> {
        let spec = run.specs[0];
        // Room for the outer document currently streaming past.
        run.tracker
            .allocate(spec.outer_slot_bytes(), "backward HHNL outer document slot")?;
        // One persistent λ-heap per participating outer document.
        run.tracker.allocate(
            TopK::budget_bytes(spec.query.lambda).max(1) * spec.num_outer_docs().max(1),
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
    use textjoin_collection::Document;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::Error;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
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

    #[test]
    fn io_matches_hhs_shape() {
        let (disk, c1, c2, _, _) = fixture(40, 30, 10.0, 100, 128);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 6,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec).unwrap();
        let d1 = c1.store().num_pages();
        let d2 = c2.store().num_pages();
        // hhs = D2 + passes·D1 (plus one seek per scan start).
        let expect = d2 + got.stats.passes * d1;
        assert_eq!(got.stats.io.total_reads(), expect);
        assert!(got.stats.io.rand_reads <= 2 * got.stats.passes + 1);
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
        // `inner_iter` streams the overlay's documents through the same
        // slot as the base scan, so the slot is sized over both.
        let (_, c1, c2, d1, d2) = fixture(20, 15, 5.0, 60, 128);
        let big = Document::from_term_counts((0..50).map(|t| (TermId::new(t), 1)));
        assert!(big.size_bytes() > c1.store().max_doc_bytes());
        let mut overlay = textjoin_invfile::DeltaOverlay::new();
        overlay.insert_tail(DocId::new(20), big.clone());
        let spec = JoinSpec::new(&c1, &c2)
            .with_inner_delta(&overlay)
            .with_sys(SystemParams {
                buffer_pages: 12,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(2));
        assert_eq!(spec.inner_slot_bytes(), big.size_bytes());
        let got = execute(&spec).unwrap();
        assert_eq!(got.stats.passes, 1);
        let residents: u64 = d2.iter().map(|d| d.size_bytes() + 16).sum();
        assert_eq!(got.stats.mem_high_water_bytes, big.size_bytes() + residents);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
        let all: Vec<Document> = d1.iter().cloned().chain([big.clone()]).collect();
        let want = naive_join(&all, &d2, OuterDocs::Full, 2, crate::Weighting::RawCount);
        assert_eq!(got.result, want);

        // A budget the big document and one outer document do not fit is
        // refused, not silently exceeded.
        let cramped = spec.with_sys(SystemParams {
            buffer_pages: 2,
            page_size: 128,
            alpha: 5.0,
        });
        assert!(big.size_bytes() < cramped.sys.buffer_bytes());
        assert!(matches!(
            execute(&cramped),
            Err(Error::InsufficientMemory { .. })
        ));

        // The backward order streams the outer side through its slot.
        let backward = JoinSpec::new(&c2, &c1).with_outer_delta(&overlay);
        assert_eq!(backward.outer_slot_bytes(), big.size_bytes());
        let got = execute_backward(&backward).unwrap();
        assert!(got.stats.mem_high_water_bytes >= big.size_bytes());
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
