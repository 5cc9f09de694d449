//! The round index: a resident round re-laid by key, probed by the stream.
//!
//! Section 4.2 remarks that comparing document with document "requires
//! almost all entries in the document-term matrix be accessed". That is
//! true of a pairwise merge, not of section 4.1's batching: once `X` outer
//! documents are resident nothing stops organising them by term. After
//! [`fill_round`](crate::driver::DocStream::fill_round) the nested loops
//! take the round apart — heaps into a [`Round`], cells into [`Postings`]:
//! one array of `(slot, weight)` sorted by key, plus a directory that is
//! addressed, not searched — one bit per key from the round's first key to
//! its last and one running popcount per 64-bit word, ≈ 1.5 bits per key
//! of span (3.75 KB over a 20 000-term vocabulary; at most 3 MiB, the
//! numbers being three bytes wide). Each streamed inner document (or
//! signature entry) then walks its own cells in ascending key order, turns
//! each key into its place in the array with one load, one mask and one
//! `count_ones`, and adds `u·v·term_factor` into the pending sum of every
//! slot listed under a shared key. Ascending keys address ascending words
//! and ascending postings, so memory is still walked in order, as under
//! the sorted directory this replaced — whose doubling search cost ≈ 20 ns
//! a streamed cell to learn that most keys match nothing. Only the slots
//! a document touched are filtered, finalized and offered to their
//! λ-heaps, so the work per inner document tracks its matches, not
//! `X·(K1+K2)`.
//!
//! Nothing observable moves. A pair's contributions still arrive in
//! ascending key order, so every score is bit-identical to the pairwise
//! merge's; each heap still sees inner ids in scan order; and a posting is
//! the resident cell re-laid (moved out of the document, which is dropped),
//! so the bytes [`MemTracker`](textjoin_storage::MemTracker) charged at
//! admission — document, rank cells, λ slots — are the bytes held. The
//! directory and the per-slot pending sum are loop state, like the two
//! merge cursors per pair they replace; the tracker prices the paper's
//! buffer contents, not the executor's scratch.

use crate::driver::Run;
use crate::spec::JoinSpec;
use crate::topk::TopK;
use textjoin_collection::Document;
use textjoin_common::{DocId, TermId};

/// One resident cell: the slot it came from and its weight there.
#[derive(Clone, Copy)]
struct Posting {
    slot: u32,
    weight: u16,
}

/// The cells of a round in one key space, grouped by key, under a
/// direct-addressed directory of the span from its first key to its last.
pub(crate) struct Postings {
    /// The round's smallest key: bit `key − first` of `bits` is set when
    /// `key` is present.
    first: u32,
    bits: Vec<u64>,
    /// `ranks[w]`: the keys present below word `w` of `bits`.
    ranks: Vec<u32>,
    /// `cells[starts[i]..starts[i + 1]]` are the postings of the `i`-th
    /// present key.
    starts: Vec<u32>,
    cells: Vec<Posting>,
}

impl Postings {
    /// Re-lays a round by key: `slots` yields each slot's `(key, weight)`
    /// cells, in slot order.
    pub(crate) fn build<C>(slots: impl IntoIterator<Item = C>) -> Self
    where
        C: IntoIterator<Item = (u32, u16)>,
    {
        let mut flat: Vec<(u64, u16)> = Vec::new();
        for (slot, cells) in slots.into_iter().enumerate() {
            flat.extend(
                cells
                    .into_iter()
                    .map(|(key, weight)| (((key as u64) << 32) | slot as u64, weight)),
            );
        }
        flat.sort_unstable_by_key(|&(at, _)| at);
        let (first, words) = match (flat.first(), flat.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => {
                let span = (hi >> 32) - (lo >> 32);
                ((lo >> 32) as u32, (span / 64) as usize + 1)
            }
            _ => (0, 0),
        };
        let mut bits = vec![0u64; words];
        let mut starts = Vec::new();
        let mut cells = Vec::with_capacity(flat.len());
        for (at, weight) in flat {
            let offset = ((at >> 32) as u32 - first) as usize;
            let (word, bit) = (&mut bits[offset / 64], 1 << (offset % 64));
            if *word & bit == 0 {
                *word |= bit;
                starts.push(cells.len() as u32);
            }
            cells.push(Posting {
                slot: at as u32,
                weight,
            });
        }
        starts.push(cells.len() as u32);
        let mut ranks = Vec::with_capacity(words);
        let mut below = 0;
        for word in &bits {
            ranks.push(below);
            below += word.count_ones();
        }
        Self {
            first,
            bits,
            ranks,
            starts,
            cells,
        }
    }

    /// The position of `key` in `starts`, if the round holds it: one load,
    /// one mask, one popcount. A key below `first` wraps past every word.
    #[inline]
    fn position(&self, key: u32) -> Option<usize> {
        let offset = key.wrapping_sub(self.first) as usize;
        let (word, bit) = (*self.bits.get(offset / 64)?, 1u64 << (offset % 64));
        let below = self.ranks[offset / 64] + (word & (bit - 1)).count_ones();
        (word & bit != 0).then_some(below as usize)
    }
}

/// A document's cells as `(term number, weight)` — the key space of the
/// document streams. The cells move: the document is taken apart.
pub(crate) fn into_term_cells(doc: Document) -> impl Iterator<Item = (u32, u16)> {
    doc.into_cells()
        .into_iter()
        .map(|c| (c.term.raw(), c.weight))
}

/// The resident documents of a round re-laid by term number, each dropped
/// as it is indexed.
pub(crate) fn by_term(docs: Vec<Document>) -> Postings {
    Postings::build(docs.into_iter().map(into_term_cells))
}

/// What a probe accumulates for one slot before the slot is judged.
#[derive(Clone, Copy)]
struct Pending {
    sum: f64,
    matched: u32,
    query: u32,
}

/// The resident side of one pass: per slot the outer document's query, id
/// and λ-heap, and the pending sum of the probe in flight.
pub(crate) struct Round {
    pending: Vec<Pending>,
    residents: Vec<(DocId, TopK)>,
    /// Slots the probe in flight has added to.
    touched: Vec<u32>,
    /// Per query: whether the inner document in flight may match it, and
    /// its factor for the key in flight.
    allowed: Vec<bool>,
    factors: Vec<f64>,
}

impl Round {
    /// A round of `(query, outer id, λ-heap)` slots, in resident order.
    pub(crate) fn new(
        specs: &[JoinSpec<'_>],
        slots: impl IntoIterator<Item = (usize, DocId, TopK)>,
    ) -> Self {
        let mut round = Self {
            pending: Vec::new(),
            residents: Vec::new(),
            touched: Vec::new(),
            allowed: vec![false; specs.len()],
            factors: vec![0.0; specs.len()],
        };
        for (query, id, heap) in slots {
            round.pending.push(Pending {
                sum: 0.0,
                matched: 0,
                query: query as u32,
            });
            round.residents.push((id, heap));
        }
        round
    }

    /// Scores one streamed inner document — its `cells` in ascending key
    /// order, `term_of` mapping a key back to the term the weighting knows
    /// — against every slot it shares a key with. A pair that passes the
    /// query's filters is counted (one multiply-add per shared key),
    /// finalized and offered. An inner document no query may match is
    /// skipped before its cells are walked.
    pub(crate) fn probe(
        &mut self,
        run: &mut Run<'_>,
        postings: &Postings,
        inner_id: DocId,
        cells: impl Iterator<Item = (u32, u16)>,
        term_of: impl Fn(u32) -> TermId,
    ) {
        let specs = run.specs;
        let mut any_allowed = false;
        for (a, spec) in self.allowed.iter_mut().zip(specs) {
            *a = spec.inner_doc_allowed(inner_id);
            any_allowed |= *a;
        }
        if !any_allowed {
            return;
        }

        let inner_profile = specs[0].inner.profile();
        for (key, weight) in cells {
            let Some(at) = postings.position(key) else {
                continue;
            };
            let term = term_of(key);
            for (f, spec) in self.factors.iter_mut().zip(specs) {
                *f = spec.weighting.term_factor(term, inner_profile);
            }
            let u = weight as f64;
            let (lo, hi) = (postings.starts[at], postings.starts[at + 1]);
            for p in &postings.cells[lo as usize..hi as usize] {
                let slot = &mut self.pending[p.slot as usize];
                if slot.matched == 0 {
                    self.touched.push(p.slot);
                }
                slot.sum += u * p.weight as f64 * self.factors[slot.query as usize];
                slot.matched += 1;
            }
        }

        for slot in self.touched.drain(..) {
            let pending = &mut self.pending[slot as usize];
            let (sum, matched, query) = (pending.sum, pending.matched as u64, pending.query);
            (pending.sum, pending.matched) = (0.0, 0);
            let spec = &specs[query as usize];
            let (outer_id, heap) = &mut self.residents[slot as usize];
            if !self.allowed[query as usize] || !spec.pair_allowed(inner_id, *outer_id) {
                continue;
            }
            let counters = &mut run.queries[query as usize].counters;
            counters.sim_ops += matched;
            counters.cells_touched += matched;
            let score = (spec.weighting).finalize(sum, || spec.norms(inner_id, *outer_id));
            if !score.is_zero() {
                heap.offer(inner_id, score);
            }
        }
    }

    /// Hands each slot's λ best matches to its query, in resident order.
    pub(crate) fn emit(self, run: &mut Run<'_>) {
        for (pending, (id, heap)) in self.pending.into_iter().zip(self.residents) {
            run.queries[pending.query as usize]
                .rows
                .push((id, heap.into_matches()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOutcome;
    use crate::driver::drive;
    use crate::hhnl::Forward;
    use crate::result::JoinResult;
    use crate::weighting::Weighting;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};
    use textjoin_invfile::{DeltaOverlay, FnlIndex};
    use textjoin_obs::Tracer;
    use textjoin_storage::DiskSim;

    const PAGE: usize = 128;

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    struct Fixture {
        c1: Collection,
        c2: Collection,
        index: FnlIndex,
        /// Two tombstoned base documents, three inserted ones of which one
        /// is tombstoned again.
        overlay: DeltaOverlay,
    }

    fn fixture() -> Fixture {
        let disk = Arc::new(DiskSim::new(PAGE));
        let c1 = SynthSpec::from_stats(CollectionStats::new(30, 10.0, 60), 11)
            .generate(Arc::clone(&disk), "c1")
            .unwrap();
        let c2 = SynthSpec::from_stats(CollectionStats::new(20, 10.0, 60), 22)
            .generate(Arc::clone(&disk), "c2")
            .unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let mut overlay = DeltaOverlay::new();
        let inserted = SynthSpec::from_stats(CollectionStats::new(3, 10.0, 60), 33).generate_docs();
        for (k, doc) in inserted.into_iter().enumerate() {
            overlay.insert_tail(DocId::new(30 + k as u32), doc);
        }
        for id in [4, 17, 31] {
            overlay.delete(DocId::new(id));
        }
        Fixture {
            c1,
            c2,
            index,
            overlay,
        }
    }

    /// What the pairwise loops the probe replaced would answer —
    /// `reference::naive_join`'s scoring, pair by pair, over the spec's
    /// live inner side and filters: the rows, and the multiply-adds over
    /// every allowed pair.
    fn pairwise(spec: &JoinSpec<'_>) -> (JoinResult, u64) {
        let (pi, po) = (spec.inner.profile(), spec.outer.profile());
        let inner: Vec<_> = spec.inner_iter().map(|r| r.unwrap()).collect();
        let mut ops = 0;
        let rows = spec
            .outer_iter()
            .map(|r| r.unwrap())
            .map(|(outer_id, outer)| {
                let mut heap = TopK::new(spec.query.lambda);
                for (inner_id, inner_doc) in &inner {
                    if !spec.inner_doc_allowed(*inner_id) || !spec.pair_allowed(*inner_id, outer_id)
                    {
                        continue;
                    }
                    let (score, matched, _) = spec
                        .weighting
                        .score_pair_counted(*inner_id, inner_doc, outer_id, &outer, pi, po);
                    ops += matched;
                    if !score.is_zero() {
                        heap.offer(*inner_id, score);
                    }
                }
                (outer_id, heap.into_matches())
            })
            .collect();
        (JoinResult::from_rows(rows), ops)
    }

    /// `got` against [`pairwise`], query by query: the rows bit for bit
    /// when `exact` or under raw counts, else to a tolerance (FNL sums a
    /// base pair in rank order, which reassociates fractional weights);
    /// the counted work exactly.
    fn check(got: &BatchOutcome, specs: &[JoinSpec<'_>], exact: bool) {
        for (q, spec) in got.queries.iter().zip(specs) {
            let (want, ops) = pairwise(spec);
            if exact || spec.weighting == Weighting::RawCount {
                assert_eq!(q.result, want);
            } else {
                assert!(q.result.approx_eq(&want, 1e-9), "{:?}", spec.weighting);
            }
            assert_eq!(q.stats.sim_ops, ops);
            assert_eq!(q.stats.cells_touched, ops);
        }
        assert!(got.stats.mem_high_water_bytes <= specs[0].sys.buffer_bytes());
    }

    /// The probe against the pairwise merge over everything a round can
    /// hold and a stream can carry: HHNL bit for bit, FNL to the tolerance
    /// its rank order leaves.
    #[test]
    fn probe_equals_the_pairwise_merge() {
        let fx = fixture();
        let tracer = Tracer::enabled(1 << 12);
        // Every other inner id, a tombstoned one and two inserted ones.
        let inner_keep: Vec<DocId> = (0..30).step_by(2).chain([31, 32]).map(DocId::new).collect();
        let alone =
            [Weighting::RawCount, Weighting::Cosine, Weighting::TfIdf].map(|w| vec![(w, 5)]);
        let mixed = vec![
            (Weighting::RawCount, 2),
            (Weighting::Cosine, 5),
            (Weighting::TfIdf, 9),
        ];
        for batch in alone.iter().chain([&mixed]) {
            for flags in 0..16 {
                let [exclude_self, select, delta, tight] = [1, 2, 4, 8].map(|bit| flags & bit != 0);
                let specs: Vec<JoinSpec<'_>> = batch
                    .iter()
                    .map(|&(weighting, lambda)| {
                        let mut spec = JoinSpec::new(&fx.c1, &fx.c2)
                            .with_sys(SystemParams {
                                buffer_pages: if tight { 6 } else { 200 },
                                page_size: PAGE,
                                alpha: 5.0,
                            })
                            .with_query(QueryParams::paper_base().with_lambda(lambda))
                            .with_weighting(weighting)
                            .with_trace(&tracer);
                        if exclude_self {
                            spec = spec.with_exclude_self();
                        }
                        if select {
                            spec = spec.with_inner_docs(&inner_keep);
                        }
                        if delta {
                            spec = spec.with_inner_delta(&fx.overlay);
                        }
                        spec
                    })
                    .collect();
                let hhnl = drive::<Forward>(&specs, None).unwrap();
                assert!(!tight || hhnl.stats.passes >= 3, "{}", hhnl.stats.passes);
                check(&hhnl, &specs, true);
                let fnl = drive::<Forward>(&specs, Some(&fx.index)).unwrap();
                assert!(!tight || fnl.stats.passes >= 3, "{}", fnl.stats.passes);
                check(&fnl, &specs, false);
            }
        }
    }

    /// Rounds and streams with nothing in them: no slots at all, an empty
    /// inner document, an empty outer document, and an outer document none
    /// of whose terms occur in the inner side.
    #[test]
    fn empty_rounds_documents_and_overlaps_score_nothing() {
        let nothing = Postings::build(Vec::<Vec<(u32, u16)>>::new());
        assert_eq!(nothing.position(7), None);
        assert!(nothing.bits.is_empty() && nothing.cells.is_empty());

        let disk = Arc::new(DiskSim::new(PAGE));
        let inner = vec![doc(&[(1, 2), (2, 1)]), doc(&[]), doc(&[(2, 3)])];
        let outer = vec![doc(&[(1, 1), (2, 2)]), doc(&[(100, 1), (200, 2)]), doc(&[])];
        let c1 = Collection::build(Arc::clone(&disk), "c1", inner).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", outer).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let tracer = Tracer::enabled(64);
        let specs = [JoinSpec::new(&c1, &c2).with_trace(&tracer)];
        let hhnl = drive::<Forward>(&specs, None).unwrap();
        check(&hhnl, &specs, true);
        let fnl = drive::<Forward>(&specs, Some(&index)).unwrap();
        check(&fnl, &specs, false);
        let rows: Vec<_> = hhnl.queries[0].result.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1.len(), 2);
        assert!(rows[1].1.is_empty() && rows[2].1.is_empty());
    }

    const MAX_KEY: u32 = (1 << 24) - 1;

    /// Builds the round `slots` (each slot's keys distinct) and looks up
    /// every key of it, both neighbours of each, the keys one word away and
    /// `probes`, against a `BTreeMap` of the same cells; then weighs the
    /// directory.
    fn check_directory(slots: &[BTreeMap<u32, u16>], probes: &[u32]) {
        let postings = Postings::build(slots.iter().map(|s| s.iter().map(|(&k, &w)| (k, w))));
        let mut oracle: BTreeMap<u32, Vec<(u32, u16)>> = BTreeMap::new();
        for (slot, cells) in slots.iter().enumerate() {
            for (&key, &weight) in cells {
                oracle.entry(key).or_default().push((slot as u32, weight));
            }
        }
        let near = |&k: &u32| {
            [
                k.wrapping_sub(64),
                k.wrapping_sub(1),
                k,
                k.wrapping_add(1),
                k.wrapping_add(64),
            ]
        };
        for key in oracle.keys().flat_map(near).chain(probes.iter().copied()) {
            let at = postings.position(key);
            assert_eq!(at.is_some(), oracle.contains_key(&key), "key {key}");
            let Some(at) = at else { continue };
            assert_eq!(at, oracle.range(..key).count(), "key {key}");
            let (lo, hi) = (
                postings.starts[at] as usize,
                postings.starts[at + 1] as usize,
            );
            let got: Vec<_> = postings.cells[lo..hi]
                .iter()
                .map(|p| (p.slot, p.weight))
                .collect();
            assert_eq!(got, oracle[&key], "key {key}");
        }
        assert_eq!(postings.starts.len(), oracle.len() + 1);
        // One bit per key of span plus one running count per word, exactly.
        let span = match (oracle.keys().next(), oracle.keys().next_back()) {
            (Some(first), Some(last)) => (last - first) as usize + 1,
            _ => 0,
        };
        let heap = postings.bits.capacity() * 8 + postings.ranks.capacity() * 4;
        assert_eq!(heap, span.div_ceil(64) * 12);
    }

    fn slot(keys: impl IntoIterator<Item = u32>) -> BTreeMap<u32, u16> {
        keys.into_iter().map(|k| (k, (k % 7) as u16 + 1)).collect()
    }

    #[test]
    fn the_directory_answers_like_a_btreemap_at_its_edges() {
        let outside = [0, 1, 63, 64, MAX_KEY, MAX_KEY + 1, u32::MAX];
        check_directory(&[], &outside);
        check_directory(&[slot([])], &outside);
        for only in [0, 5, 64, MAX_KEY, u32::MAX] {
            check_directory(&[slot([only])], &outside);
        }
        // Both ends of the key space in one round: the 3 MiB bound.
        check_directory(&[slot([0, MAX_KEY]), slot([MAX_KEY])], &outside);
        // Both sides of every word boundary, under a first key that is
        // itself on neither side of one; streamed keys below and above.
        for first in [0, 1, 37, 63, 64, 1000] {
            let edges = (0..8).flat_map(|w| [first + 64 * w + 63, first + 64 * w + 64]);
            let round = [slot([first]), slot(edges.clone()), slot(edges.step_by(3))];
            check_directory(&round, &outside);
        }
    }

    proptest! {
        #[test]
        fn prop_directory_equals_a_btreemap_oracle(
            base in prop_oneof![0u32..4, 0u32..=MAX_KEY, (MAX_KEY - 600)..=MAX_KEY],
            slots in proptest::collection::vec(
                proptest::collection::btree_map(
                    prop_oneof![0u32..16, 0u32..600, 0u32..100_000],
                    1u16..1000,
                    0..40,
                ),
                0..8,
            ),
            probes in proptest::collection::vec(0u32..=MAX_KEY, 0..32),
        ) {
            let round: Vec<BTreeMap<u32, u16>> = slots
                .iter()
                .map(|s| s.iter().map(|(&k, &w)| ((base + k).min(MAX_KEY), w)).collect())
                .collect();
            check_directory(&round, &probes);
        }
    }
}
