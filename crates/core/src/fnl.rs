//! Algorithm FNL — Filtered Nested Loops.
//!
//! The fourth registered algorithm: HHNL's forward loop (`hhnl::Forward`)
//! over another inner source, the compact signature index ([`FnlIndex`]).
//! A signature entry re-encodes a document's d-cells as `(rank, weight)`
//! pairs in increasing global rarity rank and gap-codes the ranks, so a
//! pass reads the signature file's `Ip` pages — typically 40–60% of the
//! document store's `D1`. That is FNL's whole edge over HHNL: the CPU work
//! is the same probe of the resident round, here keyed by rank.
//!
//! Every pair with at least one common term is scored (the overlap
//! threshold τ = 1, which filters nothing: a pair with no common term
//! scores zero under every weighting), so the candidates are exactly the
//! nonzero-score pairs HHNL offers to its λ-heaps — the result is
//! byte-identical to HHNL under integer-valued weightings, only cheaper to
//! read.
//!
//! The index is built over the **base** collection only. Under a
//! base+delta overlay, tombstoned base documents are masked at probe time
//! via [`JoinSpec::inner_doc_allowed`], and the live delta documents are
//! re-read each pass (`costmodel::fnl`'s overlay-rescoring term) through
//! the term-keyed document stream HHNL runs on — they never have
//! signatures, so the rank space cannot wrongly drop them.

use crate::driver::{drive_one, Run};
use crate::hhnl::{probe_documents, probe_stream, Forward};
use crate::probe::{self, Postings, Round};
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use textjoin_collection::Document;
use textjoin_common::Result;
use textjoin_invfile::{FnlIndex, RankCell, TermOrder};

/// Executes the join with FNL.
pub fn execute(spec: &JoinSpec<'_>, index: &FnlIndex) -> Result<JoinOutcome> {
    drive_one::<Forward>(spec, Some(index))
}

/// FNL's inner source: the signature index keyed by rarity rank — one scan
/// per round, the term-ordering sidecar loaded once for the whole run
/// (the shared-sidecar saving of `costmodel`'s batched FNL) — followed by the
/// inner overlay's delta documents keyed by term number.
pub(crate) struct Signatures<'r> {
    index: &'r FnlIndex,
    pub(crate) order: TermOrder,
}

impl<'r> Signatures<'r> {
    pub(crate) fn prepare(index: &'r FnlIndex, run: &mut Run<'r>) -> Result<Self> {
        // Load the term-ordering sidecar (real page I/O — the `meta_pages`
        // term of the cost model) and pin it for the whole run.
        let order = run.phase("fnl.term_order", |_, span| {
            let order = index.read_term_order()?;
            span.record("terms", order.len() as u64);
            Ok(order)
        })?;
        run.tracker
            .allocate(index.meta_bytes().max(1), "FNL term-order sidecar")?;
        // Room to hold one streamed item at a time: a signature entry or,
        // under an inner overlay, a raw delta document.
        let delta = run.specs[0].inner_delta;
        let slot = delta.map_or(0, |overlay| overlay.max_live_doc_bytes());
        run.tracker.allocate(
            index.max_entry_bytes().max(slot).max(1),
            "FNL signature entry slot",
        )?;
        Ok(Self { index, order })
    }

    /// One pass over a round's documents and their rank cells.
    pub(crate) fn probe(
        &self,
        run: &mut Run<'_>,
        round: &mut Round,
        docs: Vec<Document>,
        ranks: Vec<Vec<RankCell>>,
    ) -> Result<()> {
        let spec0 = &run.specs[0];
        // The round gets one index per key space: rarity ranks for the
        // signature scan, term numbers for the overlay's raw documents.
        let by_rank = Postings::build(ranks.into_iter().map(pairs));
        let overlay = spec0.inner_delta.map(|o| (o, probe::by_term(docs)));
        // A factor is looked up by rank — `order.term(rank)` maps back to
        // the term id the weighting knows.
        let entries = self
            .index
            .scan_with_prefetch(spec0.prefetch_metrics("fnl_sig_scan"))
            .map(|item| item.map(|(id, entry)| (id, pairs(entry))));
        let term_of = |rank| self.order.term(rank);
        probe_stream(run, round, &by_rank, entries, term_of)?;
        // Delta documents have no signatures: they probe the round's term
        // index from their raw cells.
        if let Some((overlay, by_term)) = &overlay {
            probe_documents(run, round, by_term, overlay.stream_live_docs())?;
        }
        Ok(())
    }
}

/// A signature's cells as `(rank, weight)`, ascending by rank.
fn pairs(cells: Vec<RankCell>) -> impl Iterator<Item = (u32, u16)> {
    cells.into_iter().map(|c| (c.rank, c.weight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::Document;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_common::{DocId, Error};
    use textjoin_costmodel::Algorithm;
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
        FnlIndex,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 11).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 22).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        (disk, c1, c2, index, d1, d2)
    }

    #[test]
    fn matches_hhnl_and_reference() {
        let (_, c1, c2, index, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams::paper_base().with_buffer_pages(100))
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &index).unwrap();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        assert_eq!(got.result, hhnl.result);
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Fnl);
    }

    /// `FnlIndex::max_entry_bytes` counts decoded `RankCell`s; a resident's
    /// rank cells are charged `RANK_CELL_BYTES` each. One unit, two crates.
    #[test]
    fn the_entry_slot_is_priced_like_a_resident_s_rank_cells() {
        use textjoin_costmodel::fnl::RANK_CELL_BYTES;
        assert_eq!(std::mem::size_of::<RankCell>(), RANK_CELL_BYTES);
    }

    #[test]
    fn reads_fewer_pages_per_pass_than_hhnl() {
        let (disk, c1, c2, index, _, _) = fixture(60, 30, 12.0, 120, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 60,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        disk.reset_stats();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        disk.reset_stats();
        let fnl = execute(&spec, &index).unwrap();
        assert_eq!(fnl.result, hhnl.result);
        // Same batching geometry would give the same pass count; FNL's
        // batches are slightly smaller (rank cells are charged), so allow
        // equal-or-more passes but demand strictly fewer pages overall.
        assert!(
            fnl.stats.io.total_reads() < hhnl.stats.io.total_reads(),
            "fnl {} pages vs hhnl {}",
            fnl.stats.io.total_reads(),
            hhnl.stats.io.total_reads()
        );
    }

    #[test]
    fn tight_memory_forces_multiple_passes_same_result() {
        let (_, c1, c2, index, d1, d2) = fixture(25, 40, 12.0, 100, 128);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 6,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &index).unwrap();
        assert!(got.stats.passes > 1, "tight memory must force batching");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 3, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
    }

    #[test]
    fn cosine_and_tfidf_match_hhnl_within_tolerance() {
        // Rank-order accumulation reassociates the float sums, so the
        // fractional weightings agree to a tolerance, not bit-for-bit.
        let (_, c1, c2, index, _, _) = fixture(20, 15, 8.0, 60, 256);
        for weighting in [crate::Weighting::Cosine, crate::Weighting::TfIdf] {
            let spec = JoinSpec::new(&c1, &c2)
                .with_weighting(weighting)
                .with_query(QueryParams::paper_base().with_lambda(5));
            let got = execute(&spec, &index).unwrap();
            let hhnl = crate::hhnl::execute(&spec).unwrap();
            assert!(got.result.approx_eq(&hhnl.result, 1e-9), "{weighting:?}");
        }
    }

    #[test]
    fn selection_and_self_exclusion_match_hhnl() {
        let (_, c1, c2, index, _, _) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(3), DocId::new(17), DocId::new(29)];
        let inner_keep: Vec<DocId> = (0..20).step_by(2).map(DocId::new).collect();
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_inner_docs(&inner_keep)
            .with_query(QueryParams::paper_base().with_lambda(4));
        let got = execute(&spec, &index).unwrap();
        let hhnl = crate::hhnl::execute(&spec).unwrap();
        assert_eq!(got.result, hhnl.result);
    }

    #[test]
    fn impossible_budget_is_an_error() {
        let (_, c1, c2, index, _, _) = fixture(10, 10, 50.0, 100, 64);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 1,
            page_size: 64,
            alpha: 5.0,
        });
        assert!(matches!(
            execute(&spec, &index),
            Err(Error::InsufficientMemory { .. })
        ));
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
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let got = execute(&JoinSpec::new(&c1, &c2), &index).unwrap();
        assert_eq!(got.result.num_outer_docs(), 0);
        assert_eq!(got.stats.passes, 0);
    }
}
