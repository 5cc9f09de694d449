//! Inputs shared by all cost estimators.

use textjoin_common::{CollectionStats, FnlStats, FragStats, QueryParams, SystemParams};

/// Everything a cost formula needs: the statistics of the inner collection
/// `C1` and the outer collection `C2`, the system parameters `(B, P, α)`,
/// the query parameters `(λ, δ)` and the probability `q` that a term of the
/// outer collection also appears in the inner collection.
///
/// The paper's join `C1 SIMILAR_TO(λ) C2` finds, for each document of `C2`,
/// the `λ` most similar documents of `C1` — so `C2` drives the outer loop
/// ("forward order", section 4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinInputs {
    /// `C1` — the inner collection (the side whose inverted file HVNL uses).
    pub inner: CollectionStats,
    /// `C2` — the outer collection (the side scanned document by document).
    pub outer: CollectionStats,
    /// System parameters `B`, `P`, `α`.
    pub sys: SystemParams,
    /// Query parameters `λ`, `δ`.
    pub query: QueryParams,
    /// `q` — probability that a term in `C2` also appears in `C1`.
    pub q: f64,
    /// When the outer side is a *selected subset* of an originally larger
    /// collection (the paper's group-3 scenario), this holds the original
    /// collection's statistics. Two consequences (section 6, group 4
    /// discussion): (1) the participating outer documents are fetched
    /// one at a time in random order rather than scanned, and (2) the
    /// outer inverted file and B+tree keep their **original** size, which
    /// penalises VVM. `None` means the outer side is a whole stored
    /// collection, scanned sequentially.
    pub outer_original: Option<CollectionStats>,
    /// Fragmentation of the inner collection's base+delta overlay. Pristine
    /// (all zeros) for a bulk-loaded or freshly merged collection. The
    /// outer side is always a stored collection without an overlay.
    pub inner_frag: FragStats,
    /// Measured sizes of the inner collection's FNL signature index, when
    /// one has been built. `None` makes FNL infeasible (infinite cost) —
    /// the filtered algorithm cannot run without its index.
    pub fnl: Option<FnlStats>,
    /// Measured `Σ_t df1(t)·df2(t)` over the participating outer documents
    /// — the cell pairs the join multiplies (every executor's `sim_ops`),
    /// from the two collection profiles; a selection scales it by the
    /// fraction of outer rows kept. `None` for inputs built from statistics
    /// alone (the paper tables): [`Self::match_count`] then estimates it and
    /// [`Self::delta`] is `query.delta`.
    pub matches: Option<f64>,
}

impl JoinInputs {
    /// Builds inputs using the paper's section 6 heuristic for `q`.
    pub fn with_paper_q(
        inner: CollectionStats,
        outer: CollectionStats,
        sys: SystemParams,
        query: QueryParams,
    ) -> Self {
        let q = term_containment_probability(inner.distinct_terms, outer.distinct_terms);
        Self {
            inner,
            outer,
            sys,
            query,
            q,
            outer_original: None,
            inner_frag: FragStats::default(),
            fnl: None,
            matches: None,
        }
    }

    /// Attaches the measured match count `Σ_t df1(t)·df2(t)`, which also
    /// makes [`Self::delta`] a measured bound.
    pub fn with_matches(self, matches: f64) -> Self {
        Self {
            matches: Some(matches),
            ..self
        }
    }

    /// Attaches the measured sizes of the inner side's FNL signature index,
    /// making the filtered algorithm a candidate.
    pub fn with_fnl(self, fnl: FnlStats) -> Self {
        Self {
            fnl: Some(fnl),
            ..self
        }
    }

    /// Marks the outer side as a subset selected out of `original` (group 3
    /// semantics: random document fetches, unshrunk inverted file).
    pub fn with_selected_outer(self, original: CollectionStats) -> Self {
        Self {
            outer_original: Some(original),
            ..self
        }
    }

    /// Attaches the inner side's base+delta fragmentation statistics.
    /// Every scan formula then pays for the delta side files on top of the
    /// base structures, and per-document work shrinks to the live
    /// (non-tombstoned) count.
    pub fn with_frag(self, inner_frag: FragStats) -> Self {
        Self { inner_frag, ..self }
    }

    /// `p` — the probability for the opposite direction (a term of `C1`
    /// appearing in `C2`), computed with the same heuristic.
    pub fn paper_p(&self) -> f64 {
        term_containment_probability(self.outer.distinct_terms, self.inner.distinct_terms)
    }

    /// The same join with inner and outer collections swapped (the
    /// "backward order" of section 4.1; the `q` heuristic is re-derived).
    /// The FNL signature index and the overlay's fragmentation belong to
    /// the *inner* side, so swapping drops them.
    pub fn swapped(&self) -> Self {
        Self {
            // `Σ df1·df2` does not depend on which side is called inner.
            matches: self.matches,
            ..Self::with_paper_q(self.outer, self.inner, self.sys, self.query)
        }
    }

    /// `δ` — the fraction of document pairs with a non-zero similarity, as
    /// every formula reads it. With a measured match count it is
    /// `min(1, matches / (N1·N2))`: each non-zero pair shares at least one
    /// term and so contributes at least one match, which makes this an
    /// upper bound on the true density (a pair sharing `k` terms is counted
    /// `k` times). Without one it is the `query.delta` the caller supplied.
    pub fn delta(&self) -> f64 {
        match self.matches {
            Some(matches) => (matches / (self.n1() * self.n2()).max(1.0)).min(1.0),
            None => self.query.delta,
        }
    }

    /// The cell pairs the join multiplies: measured when the inputs carry
    /// it, else estimated as each outer cell whose term the inner side
    /// knows (`q·N2·K2`) meeting an average inner entry (`N1·K1/T1`).
    pub fn match_count(&self) -> f64 {
        self.matches.unwrap_or_else(|| {
            self.q
                * self.n2()
                * self.outer.avg_terms_per_doc
                * self.n1()
                * self.inner.avg_terms_per_doc
                / self.t1().max(1.0)
        })
    }

    // Shorthand accessors used throughout the formulas, all in pages.

    /// `S1` — average inner document size.
    pub(crate) fn s1(&self) -> f64 {
        self.inner.avg_doc_pages(self.sys.page_size)
    }
    /// `S2` — average outer document size.
    pub(crate) fn s2(&self) -> f64 {
        self.outer.avg_doc_pages(self.sys.page_size)
    }
    /// `D1` — inner collection pages.
    pub(crate) fn d1(&self) -> f64 {
        self.inner.collection_pages(self.sys.page_size)
    }
    /// `D2` — outer collection pages.
    pub(crate) fn d2(&self) -> f64 {
        self.outer.collection_pages(self.sys.page_size)
    }
    /// `J1` — inner average entry pages.
    pub(crate) fn j1(&self) -> f64 {
        self.inner.avg_entry_pages(self.sys.page_size)
    }
    /// `J2` — outer average entry pages.
    pub(crate) fn j2(&self) -> f64 {
        self.outer.avg_entry_pages(self.sys.page_size)
    }
    /// `I1` — inner inverted file pages.
    pub(crate) fn i1(&self) -> f64 {
        self.inner.inverted_file_pages(self.sys.page_size)
    }
    /// `I2` — outer inverted file pages.
    pub(crate) fn i2(&self) -> f64 {
        self.outer.inverted_file_pages(self.sys.page_size)
    }
    /// `Bt1` — inner B+tree pages.
    pub(crate) fn bt1(&self) -> f64 {
        self.inner.btree_pages(self.sys.page_size)
    }
    /// `N1`, `N2`, `T1`, `T2` as floats.
    pub(crate) fn n1(&self) -> f64 {
        self.inner.num_docs as f64
    }
    pub(crate) fn n2(&self) -> f64 {
        self.outer.num_docs as f64
    }
    pub(crate) fn t1(&self) -> f64 {
        self.inner.distinct_terms as f64
    }
    pub(crate) fn t2(&self) -> f64 {
        self.outer.distinct_terms as f64
    }
    /// Cost of bringing the participating outer documents into memory:
    /// a sequential scan (`D2`) for a whole collection, or `N2·⌈S2⌉·α`
    /// document-at-a-time random fetches for a selected subset.
    pub(crate) fn outer_read_cost(&self) -> f64 {
        if self.outer_original.is_some() {
            self.n2() * self.s2().ceil() * self.alpha()
        } else {
            self.d2()
        }
    }

    /// Whether the outer documents are fetched randomly (selected subset).
    pub(crate) fn outer_is_random(&self) -> bool {
        self.outer_original.is_some()
    }

    /// The *stored* outer inverted-file size `I2` — the original
    /// collection's when the outer side is a selection (the file does not
    /// shrink, section 5.4).
    pub(crate) fn i2_storage(&self) -> f64 {
        self.outer_original
            .as_ref()
            .map_or_else(|| self.i2(), |o| o.inverted_file_pages(self.sys.page_size))
    }

    /// The stored outer average entry size `J2` (original when selected).
    pub(crate) fn j2_storage(&self) -> f64 {
        self.outer_original
            .as_ref()
            .map_or_else(|| self.j2(), |o| o.avg_entry_pages(self.sys.page_size))
    }

    /// The stored outer term count `T2` (original when selected).
    pub(crate) fn t2_storage(&self) -> f64 {
        self.outer_original
            .as_ref()
            .map_or_else(|| self.t2(), |o| o.distinct_terms as f64)
    }

    /// `B` and `α`.
    pub(crate) fn b(&self) -> f64 {
        self.sys.buffer_pages as f64
    }
    pub(crate) fn alpha(&self) -> f64 {
        self.sys.alpha
    }

    // Fragmentation-adjusted quantities. A base+delta collection keeps its
    // base structures at full size (tombstoned documents still occupy their
    // pages until the next merge), so `D` and `I` never shrink; scans
    // additionally pay for the flushed delta side files, and per-document
    // work drops to the live fraction. All of these reduce to their
    // pristine counterparts when the `FragStats` are zero.

    /// `D1` plus the inner delta document side file — what a full scan of
    /// the fragmented inner collection actually reads.
    pub(crate) fn d1_frag(&self) -> f64 {
        self.d1() + self.inner_frag.doc_delta_pages as f64
    }
    /// `I1` plus the inner delta inverted side file.
    pub(crate) fn i1_frag(&self) -> f64 {
        self.i1() + self.inner_frag.inv_delta_pages as f64
    }
    /// Live inner document count: `N1` scaled down by the tombstone ratio.
    /// Dead documents are still scanned (their pages stay in `D1`) but
    /// produce no similarity work, accumulators or heap entries.
    pub(crate) fn n1_live(&self) -> f64 {
        self.n1() * (1.0 - self.inner_frag.tombstone_ratio.clamp(0.0, 1.0))
    }
}

/// `(q, matches)` as measured: `overlap` is the outer profile's
/// `(shared terms, Σ df·df)` against the inner one, `outer_full` the stored
/// outer collection and `kept_docs` how many of its documents participate.
/// `q` is the shared fraction of the stored outer vocabulary; a selection
/// keeps its share of the outer cells, hence of the cell pairs.
pub fn measured_overlap(
    overlap: (u64, u64),
    outer_full: &CollectionStats,
    kept_docs: u64,
) -> (f64, f64) {
    let (shared, pairs) = overlap;
    let q = shared as f64 / (outer_full.distinct_terms as f64).max(1.0);
    let kept = kept_docs as f64 / (outer_full.num_docs as f64).max(1.0);
    (q, pairs as f64 * kept)
}

/// The section 6 heuristic for term-overlap probabilities: the probability
/// that a term of a collection with `t_source` distinct terms also appears
/// in a collection with `t_target` distinct terms.
///
/// ```text
/// 0.8 · T_target / T_source   if T_target ≤ T_source
/// 0.8                         if T_source < T_target < 5 · T_source
/// 1 − T_source / T_target     if T_target ≥ 5 · T_source
/// ```
///
/// The smaller the target vocabulary relative to the source, the less
/// likely a source term is found there; when the target vocabulary dwarfs
/// the source, the probability approaches 1.
pub fn term_containment_probability(t_target: u64, t_source: u64) -> f64 {
    if t_source == 0 {
        return 0.0;
    }
    let tt = t_target as f64;
    let ts = t_source as f64;
    if tt <= ts {
        0.8 * tt / ts
    } else if tt < 5.0 * ts {
        0.8
    } else {
        1.0 - ts / tt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::{QueryParams, SystemParams};

    #[test]
    fn q_small_target_scales_linearly() {
        assert!((term_containment_probability(50_000, 100_000) - 0.4).abs() < 1e-12);
        assert!((term_containment_probability(100_000, 100_000) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn q_mid_range_is_point_eight() {
        assert_eq!(term_containment_probability(200_000, 100_000), 0.8);
        assert_eq!(term_containment_probability(499_999, 100_000), 0.8);
    }

    #[test]
    fn q_huge_target_approaches_one_continuously() {
        // At exactly 5×, both branches give 0.8.
        assert!((term_containment_probability(500_000, 100_000) - 0.8).abs() < 1e-12);
        assert!(term_containment_probability(10_000_000, 100_000) > 0.98);
    }

    #[test]
    fn q_empty_source_is_zero() {
        assert_eq!(term_containment_probability(100, 0), 0.0);
    }

    #[test]
    fn with_paper_q_uses_inner_as_target() {
        let inputs = JoinInputs::with_paper_q(
            CollectionStats::new(10, 5.0, 50_000),
            CollectionStats::new(10, 5.0, 100_000),
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        );
        assert!((inputs.q - 0.4).abs() < 1e-12);
        // p goes the other way: T2 (100k) vs source T1 (50k) → 0.8 band.
        assert!((inputs.paper_p() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn frag_accessors_adjust_pages_and_live_counts() {
        use textjoin_common::FragStats;
        let frag = FragStats {
            doc_delta_pages: 10,
            inv_delta_pages: 6,
            tombstone_ratio: 0.25,
        };
        let i = JoinInputs::with_paper_q(
            CollectionStats::wsj(),
            CollectionStats::doe(),
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        )
        .with_frag(frag);
        assert!((i.d1_frag() - i.d1() - 10.0).abs() < 1e-9);
        assert!((i.i1_frag() - i.i1() - 6.0).abs() < 1e-9);
        assert!((i.n1_live() - i.n1() * 0.75).abs() < 1e-6);
    }

    #[test]
    fn pristine_frag_changes_nothing() {
        let i = JoinInputs::with_paper_q(
            CollectionStats::wsj(),
            CollectionStats::doe(),
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        );
        assert_eq!(i.d1_frag(), i.d1());
        assert_eq!(i.i1_frag(), i.i1());
        assert_eq!(i.n1_live(), i.n1());
    }

    #[test]
    fn swapped_exchanges_collections() {
        let inputs = JoinInputs::with_paper_q(
            CollectionStats::wsj(),
            CollectionStats::doe(),
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        );
        let back = inputs.swapped();
        assert_eq!(back.inner, inputs.outer);
        assert_eq!(back.outer, inputs.inner);
    }
}
