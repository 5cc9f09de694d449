//! Join specifications shared by every executor.
//!
//! The inner side may be seen through a base+delta overlay
//! ([`JoinSpec::inner_delta`]); the outer side is always the stored
//! collection, whole or selected.

use textjoin_collection::{Collection, Document};
use textjoin_common::{CollectionStats, DocId, FragStats, QueryParams, Result, SystemParams};
use textjoin_costmodel::{measured_overlap, JoinInputs};
use textjoin_invfile::DeltaOverlay;
use textjoin_obs::{CancelToken, QueryTicket, Tracer};
use textjoin_storage::PrefetchMetrics;

use crate::accum::InnerMask;
use crate::weighting::Weighting;

/// Which outer documents participate in the join.
///
/// Section 2: selections on non-textual attributes can reduce a collection
/// before the join. A reduced *originally large* collection (group 3) is
/// read document-at-a-time in random order; a full collection — large or
/// originally small (group 4) — is scanned sequentially.
#[derive(Clone, Copy, Debug)]
pub enum OuterDocs<'a> {
    /// Every document of the outer collection, in storage order.
    Full,
    /// Only these documents, read randomly from the original collection.
    /// The ids must be strictly ascending; an executor handed any other
    /// order refuses the join with `Error::InvalidArgument`.
    Selected(&'a [DocId]),
}

impl OuterDocs<'_> {
    /// Number of participating documents given the collection size.
    pub fn count(&self, collection_docs: u64) -> u64 {
        match self {
            OuterDocs::Full => collection_docs,
            OuterDocs::Selected(ids) => ids.len() as u64,
        }
    }
}

/// Everything an executor needs to run `C1 SIMILAR_TO(λ) C2`.
#[derive(Clone, Copy)]
pub struct JoinSpec<'a> {
    /// `C1` — the inner collection.
    pub inner: &'a Collection,
    /// `C2` — the outer collection.
    pub outer: &'a Collection,
    /// Which outer documents participate.
    pub outer_docs: OuterDocs<'a>,
    /// Optional restriction of the inner side to these documents (sorted by
    /// id) — the result of a selection on the inner relation's non-textual
    /// attributes. Per section 5.4, such a selection does *not* shrink the
    /// stored collection or its inverted file, so the I/O pattern is
    /// unchanged; filtered-out documents simply cannot appear as matches.
    pub inner_docs: Option<&'a [DocId]>,
    /// System parameters `B`, `P`, `α`.
    pub sys: SystemParams,
    /// Query parameters `λ`, `δ`.
    pub query: QueryParams,
    /// Similarity weighting scheme.
    pub weighting: Weighting,
    /// For self-joins (clustering, section 1: "find, for each document d,
    /// those documents similar to d in the same document collection"):
    /// when true, a pair with equal inner and outer document numbers is
    /// skipped, so a document does not trivially match itself.
    pub exclude_self: bool,
    /// Optional tracer the executors open phase/batch spans on. `None`
    /// (the default) keeps every instrumentation point a single branch.
    pub trace: Option<&'a Tracer>,
    /// Degraded mode: unreadable documents and inverted entries
    /// (`Error::Corrupt` / `Error::Io`) are skipped and counted in
    /// `ExecStats::skipped_*` instead of failing the join; the outcome is
    /// tagged `ResultQuality::Partial`. Hard errors (insufficient memory,
    /// out-of-bounds addressing) still propagate.
    pub degraded: bool,
    /// Drift-watchdog budget, in page-cost units (`seq + α·rand`). When
    /// set, executors compare their running cost against it at natural
    /// checkpoints (HHNL/VVM passes, HVNL outer documents) and abort with
    /// [`textjoin_common::Error::CostOverrun`] once exceeded — the signal
    /// for the query layer to re-plan onto the next-cheapest algorithm.
    /// `None` (the default) disables the watchdog entirely.
    pub cost_budget: Option<f64>,
    /// Base+delta overlay of the inner collection. When set, the overlay's
    /// live delta documents join as additional inner documents and
    /// tombstoned documents are masked everywhere via
    /// [`inner_doc_allowed`](Self::inner_doc_allowed). `None` (the default)
    /// keeps every pristine code path byte-identical, with zero extra I/O.
    pub inner_delta: Option<&'a DeltaOverlay>,
    /// Cooperative cancellation token, polled at the same checkpoints as
    /// the cost-budget watchdog. When observed set, the executor winds
    /// down at the next checkpoint and returns whatever it has with
    /// `ResultQuality::Partial`. `None` (the default) keeps checkpoints a
    /// single branch. Shard sites inherit the reference, so every site
    /// observes one token.
    pub cancel: Option<&'a CancelToken>,
    /// Live introspection ticket. When set, executors feed their
    /// accumulated page-cost deltas and current phase into it at the same
    /// checkpoints, so `/queries` shows progress while the join runs.
    pub ticket: Option<&'a QueryTicket>,
}

impl<'a> JoinSpec<'a> {
    /// A spec joining two full collections with default parameters.
    pub fn new(inner: &'a Collection, outer: &'a Collection) -> Self {
        Self {
            inner,
            outer,
            outer_docs: OuterDocs::Full,
            inner_docs: None,
            sys: SystemParams::paper_base(),
            query: QueryParams::paper_base(),
            weighting: Weighting::RawCount,
            exclude_self: false,
            trace: None,
            degraded: false,
            cost_budget: None,
            inner_delta: None,
            cancel: None,
            ticket: None,
        }
    }

    /// Attaches a cooperative cancellation token. Executors poll it at
    /// their per-pass checkpoints.
    pub fn with_cancel(self, cancel: &'a CancelToken) -> Self {
        Self {
            cancel: Some(cancel),
            ..self
        }
    }

    /// Attaches a live introspection ticket that checkpoints update.
    pub fn with_ticket(self, ticket: &'a QueryTicket) -> Self {
        Self {
            ticket: Some(ticket),
            ..self
        }
    }

    /// Attaches a base+delta overlay to the inner side.
    pub fn with_inner_delta(self, delta: &'a DeltaOverlay) -> Self {
        Self {
            inner_delta: Some(delta),
            ..self
        }
    }

    /// Enables degraded mode: skip unreadable data instead of failing.
    pub fn with_degraded(self) -> Self {
        Self {
            degraded: true,
            ..self
        }
    }

    /// Whether degraded mode may absorb this error by skipping the data it
    /// covers. Only read-level failures qualify; planning and memory
    /// errors always propagate.
    #[inline]
    pub fn skippable(&self, err: &textjoin_common::Error) -> bool {
        use textjoin_common::Error;
        self.degraded && matches!(err, Error::Corrupt(_) | Error::Io { .. })
    }

    /// Arms the drift watchdog: the join aborts with
    /// [`textjoin_common::Error::CostOverrun`] once its running page cost
    /// exceeds `budget`.
    pub fn with_cost_budget(self, budget: f64) -> Self {
        Self {
            cost_budget: Some(budget),
            ..self
        }
    }

    /// Disarms the drift watchdog (used when re-planning onto a fallback
    /// algorithm, which must be allowed to finish).
    pub fn without_cost_budget(self) -> Self {
        Self {
            cost_budget: None,
            ..self
        }
    }

    /// Attaches a tracer; executors will open spans per phase and batch.
    pub fn with_trace(self, trace: &'a Tracer) -> Self {
        Self {
            trace: Some(trace),
            ..self
        }
    }

    /// Restricts the outer side to selected documents.
    pub fn with_outer_docs(self, outer_docs: OuterDocs<'a>) -> Self {
        Self { outer_docs, ..self }
    }

    /// Restricts the inner side to these documents (strictly ascending ids;
    /// an executor refuses any other order, as for [`OuterDocs::Selected`]).
    pub fn with_inner_docs(self, inner_docs: &'a [DocId]) -> Self {
        Self {
            inner_docs: Some(inner_docs),
            ..self
        }
    }

    /// Whether an inner document may appear as a match. Tombstoned
    /// documents of the inner overlay are masked here, which covers every
    /// executor's match emission in one place.
    #[inline]
    pub fn inner_doc_allowed(&self, doc: DocId) -> bool {
        if self.inner_delta.is_some_and(|d| d.is_deleted(doc)) {
            return false;
        }
        match self.inner_docs {
            None => true,
            Some(ids) => ids.binary_search(&doc).is_ok(),
        }
    }

    /// [`inner_doc_allowed`](Self::inner_doc_allowed) for every inner
    /// document at once, built once per run by the term-at-a-time executors
    /// (which would otherwise ask per posting); `None` when every document
    /// is allowed.
    pub(crate) fn inner_mask(&self) -> Option<InnerMask> {
        InnerMask::new(
            self.inner_delta.map(DeltaOverlay::deleted_ids),
            self.inner_docs,
        )
    }

    /// The `(inner, outer)` norms a cosine or TF-IDF pair divides by: the
    /// inner overlay's record for a delta-inserted document, else the base
    /// profile's.
    pub(crate) fn norms(&self, inner: DocId, outer: DocId) -> (f64, f64) {
        let inner_norm = self
            .inner_delta
            .and_then(|d| d.norm(inner))
            .unwrap_or_else(|| self.inner.profile().norm(inner));
        (inner_norm, self.outer.profile().norm(outer))
    }

    /// How wide a row of per-inner-document sums is: one past the last base
    /// document number plus the overlay's insertions (whose numbers follow,
    /// and run a little further once merges have dropped tombstoned ones).
    pub(crate) fn inner_row_width(&self) -> u64 {
        let store = self.inner.store();
        let base = match store.num_docs() {
            0 => 0,
            n => store.doc_at(n as usize - 1).raw() as u64 + 1,
        };
        base + self.inner_delta.map_or(0, DeltaOverlay::num_insertions)
    }

    /// Replaces the system parameters.
    pub fn with_sys(self, sys: SystemParams) -> Self {
        Self { sys, ..self }
    }

    /// Replaces the query parameters.
    pub fn with_query(self, query: QueryParams) -> Self {
        Self { query, ..self }
    }

    /// Replaces the weighting scheme.
    pub fn with_weighting(self, weighting: Weighting) -> Self {
        Self { weighting, ..self }
    }

    /// Marks the join as a self-join whose identical pairs are skipped
    /// (clustering mode). Only meaningful when both sides are the same
    /// collection, where document numbers coincide.
    pub fn with_exclude_self(self) -> Self {
        Self {
            exclude_self: true,
            ..self
        }
    }

    /// Whether the pair `(inner, outer)` participates.
    #[inline]
    pub fn pair_allowed(&self, inner: DocId, outer: DocId) -> bool {
        !(self.exclude_self && inner == outer)
    }

    /// Number of participating outer documents.
    pub fn num_outer_docs(&self) -> u64 {
        self.outer_docs.count(self.outer.store().num_docs())
    }

    /// The participating outer document ids in ascending order. The VVM
    /// family builds its accumulator chunks from this list.
    pub(crate) fn outer_ids(&self) -> Vec<DocId> {
        match self.outer_docs {
            OuterDocs::Full => self.outer.store().doc_ids(),
            OuterDocs::Selected(ids) => ids.to_vec(),
        }
    }

    /// The cost-model inputs matching this execution: *measured* statistics
    /// of both collections (outer side restricted by the selection), the
    /// measured term-overlap probability and match count (one walk of the
    /// outer profile), and the spec's parameters.
    pub fn cost_inputs(&self) -> JoinInputs {
        let inner_stats = self.inner.profile().stats();
        let outer_full = self.outer.profile().stats();
        let (outer_stats, outer_original) = match self.outer_docs {
            OuterDocs::Full => (outer_full, None),
            OuterDocs::Selected(ids) => {
                (outer_full.select_docs(ids.len() as u64), Some(outer_full))
            }
        };
        let overlap = self.outer.profile().overlap(self.inner.profile());
        let (q, matches) = measured_overlap(overlap, &outer_full, outer_stats.num_docs);
        let inner_frag = self.inner_delta.map_or_else(FragStats::default, |d| {
            d.frag_stats(self.inner.store().num_docs())
        });
        JoinInputs {
            inner: inner_stats,
            outer: outer_stats,
            sys: self.sys,
            query: self.query,
            q,
            outer_original,
            inner_frag,
            // The signature index lives outside the spec: the FNL-aware
            // entry points overlay its measured stats via `with_fnl`.
            fnl: None,
            matches: Some(matches),
        }
    }

    /// The nominal statistics pair `(inner, outer)` for reporting.
    pub fn stats(&self) -> (CollectionStats, CollectionStats) {
        (self.inner.profile().stats(), self.outer.profile().stats())
    }

    /// A prefetch-metrics sink on the trace's registry (if both exist), so
    /// scanner readahead counters surface in EXPLAIN ANALYZE and exports.
    pub fn prefetch_metrics(&self, label: &str) -> Option<PrefetchMetrics> {
        self.trace
            .and_then(|t| t.registry())
            .map(|r| PrefetchMetrics::register(r, label))
    }

    /// A lazy iterator over the participating outer documents; I/O happens
    /// on pull, so executors can interleave reading outer documents with
    /// other work (HHNL fills memory batches this way).
    pub fn outer_iter(&self) -> Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a> {
        let store = self.outer.store();
        match self.outer_docs {
            OuterDocs::Full => {
                Box::new(store.scan_with_prefetch(self.prefetch_metrics("outer_scan")))
            }
            OuterDocs::Selected(ids) => Box::new(
                ids.iter()
                    .map(move |&id| store.read_doc_direct(id).map(|doc| (id, doc))),
            ),
        }
    }

    /// Bytes of the largest document [`inner_iter`](Self::inner_iter) can
    /// yield — base or live delta — and so the size of a slot that holds
    /// one inner document at a time.
    pub fn inner_slot_bytes(&self) -> u64 {
        let delta = self.inner_delta.map_or(0, DeltaOverlay::max_live_doc_bytes);
        self.inner.store().max_doc_bytes().max(delta).max(1)
    }

    /// [`inner_slot_bytes`](Self::inner_slot_bytes) for the outer side.
    pub fn outer_slot_bytes(&self) -> u64 {
        self.outer.store().max_doc_bytes().max(1)
    }

    /// A lazy iterator over the participating inner documents: the base
    /// scan (minus tombstoned documents) followed by the inner overlay's
    /// live delta documents. The nested-loop executors stream the inner
    /// collection through this, so delta documents compete for the λ best
    /// matches exactly like base documents. Callers still apply
    /// [`inner_doc_allowed`](Self::inner_doc_allowed) for the inner
    /// selection.
    pub fn inner_iter(&self) -> Box<dyn Iterator<Item = Result<(DocId, Document)>> + 'a> {
        let base = (self.inner.store()).scan_with_prefetch(self.prefetch_metrics("inner_scan"));
        match self.inner_delta {
            None => Box::new(base),
            Some(overlay) => Box::new(overlay.docs_over(base)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use textjoin_collection::SynthSpec;
    use textjoin_common::CollectionStats;
    use textjoin_storage::DiskSim;

    fn tiny() -> (Arc<DiskSim>, Collection, Collection) {
        let disk = Arc::new(DiskSim::new(256));
        let c1 = SynthSpec::from_stats(CollectionStats::new(20, 8.0, 60), 1)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(10, 8.0, 60), 2)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        (disk, c1, c2)
    }

    #[test]
    fn full_outer_iterates_in_storage_order() {
        let (_, c1, c2) = tiny();
        let spec = JoinSpec::new(&c1, &c2);
        let ids: Vec<u32> = spec.outer_iter().map(|r| r.unwrap().0.raw()).collect();
        assert_eq!(ids, (0..10u32).collect::<Vec<_>>());
        assert_eq!(spec.num_outer_docs(), 10);
    }

    #[test]
    fn selected_outer_reads_only_chosen_docs_randomly() {
        let (disk, c1, c2) = tiny();
        let chosen = [DocId::new(2), DocId::new(7)];
        let spec = JoinSpec::new(&c1, &c2).with_outer_docs(OuterDocs::Selected(&chosen));
        disk.reset_stats();
        disk.reset_head();
        let ids: Vec<u32> = spec.outer_iter().map(|r| r.unwrap().0.raw()).collect();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(spec.num_outer_docs(), 2);
        assert!(
            disk.stats().rand_reads >= 1,
            "selected docs are random reads"
        );
    }

    #[test]
    fn cost_inputs_reflect_selection() {
        let (_, c1, c2) = tiny();
        let chosen = [DocId::new(0)];
        let spec = JoinSpec::new(&c1, &c2).with_outer_docs(OuterDocs::Selected(&chosen));
        let inputs = spec.cost_inputs();
        assert_eq!(inputs.outer.num_docs, 1);
        assert_eq!(inputs.inner.num_docs, 20);
        assert!(inputs.q > 0.0 && inputs.q <= 1.0);
        // The selection keeps 1 of the outer side's documents, hence that
        // share of the measured cell pairs.
        let full = JoinSpec::new(&c1, &c2).cost_inputs();
        let (_, pairs) = c2.profile().overlap(c1.profile());
        assert_eq!(full.matches, Some(pairs as f64));
        let kept = 1.0 / full.outer.num_docs as f64;
        assert_eq!(inputs.matches, Some(pairs as f64 * kept));
    }

    proptest::proptest! {
        /// The per-run mask is `inner_doc_allowed`, document by document,
        /// inside the bitset and past its end, with tombstones, a
        /// selection, both or neither.
        #[test]
        fn inner_mask_is_inner_doc_allowed(
            deleted in proptest::collection::btree_set(0u32..200, 0..40),
            chosen in proptest::collection::btree_set(0u32..200, 0..40),
            with_delta in proptest::bool::ANY,
            with_selection in proptest::bool::ANY
        ) {
            let (_, c1, c2) = tiny();
            let mut overlay = DeltaOverlay::new();
            for &d in &deleted {
                overlay.delete(DocId::new(d));
            }
            let chosen: Vec<DocId> = chosen.into_iter().map(DocId::new).collect();
            let mut spec = JoinSpec::new(&c1, &c2);
            if with_delta {
                spec = spec.with_inner_delta(&overlay);
            }
            if with_selection {
                spec = spec.with_inner_docs(&chosen);
            }
            let mask = spec.inner_mask();
            let masks_something = with_selection || (with_delta && !deleted.is_empty());
            proptest::prop_assert_eq!(mask.is_some(), masks_something);
            for d in (0..260).map(DocId::new) {
                let allowed = mask.as_ref().is_none_or(|m| m.allows(d));
                proptest::prop_assert_eq!(allowed, spec.inner_doc_allowed(d), "doc {}", d);
            }
        }
    }
}
