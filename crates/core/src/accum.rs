//! The term-at-a-time loop: HVNL (section 4.2) and VVM (section 4.3).
//!
//! Both advance the similarity of a pair `(r, s)` by `u·v` once per shared
//! term, one inverted-file entry at a time. They differ in two things, and
//! [`Source`] names them: where an inner entry comes from — a cached random
//! fetch (`hvnl.rs`) or a merge scan (`vvm.rs`) — and how the outer side is
//! chunked — one document, or `⌈Nᵢ/partitions⌉` of them. The rest is
//! written once, here: the prepare bookkeeping (the per-query
//! [`InnerMask`]s, [`reserve`]), the step one (query, term, entry) takes
//! ([`factor`], [`Rows::step`]), the emit of a resident chunk
//! ([`Rows::emit`]), and the pass counting and phase spans
//! ([`TermAtATime`]). [`Rows`] is where the sums live: one row per resident
//! outer document, indexed by inner document number.
//!
//! **What the tracker prices and what a row holds.** The paper budgets 4
//! bytes per *non-zero* pair (`SM = 4·δ·N1·N2/P`), and that is all the
//! [`MemTracker`](textjoin_storage::MemTracker) is ever charged: per
//! applied entry, the cells it makes non-zero are counted as they are
//! added and charged in one call after the adds — the same total, failure
//! condition and high-water as a charge per pair, so the ledger alone
//! decides passes and evictions. A refused charge leaves its entry's sums
//! in the row uncharged, and that is sound because no caller uses rows
//! whose charge was refused: HVNL's error ends the run, and VVM drops the
//! failed part's rows and runs the pass again on fresh ones
//! (`vvm::Merging::pass`). A flat row really holds 8 bytes and one
//! seen-bit per *possible* pair, which the ledger does not see; rows are
//! therefore flat only while `slots · width · 8 ≤ 4·B·P`
//! ([`FLAT_BUDGETS`] buffers' worth), decided once from the inputs, and
//! each row is a `HashMap` otherwise.
//!
//! **Why a flat add needs no branch.** A flat sum whose seen-bit is clear
//! is `+0.0` (growth zero-fills, a drain takes what it clears), so an add
//! sets the bit and adds, touched or not. A pair's first add is then
//! `+0.0 + v`, which has the bits of `v` for every `v` but `−0.0`, and no
//! step adds `−0.0`: a value is `u·w·factor` with `u16` weights and
//! `factor > 0` ([`factor`] drops the zero ones), and a fold adds sums of
//! such values. So the sparse arm, which stores a first value as it is,
//! and the flat arm agree to the bit, and scores do not depend on the arm.

use crate::driver::{Counters, Passes, Row as ResultRow, Run};
use crate::hvnl::{Fetch, HvnlOptions};
use crate::spec::JoinSpec;
use crate::topk::TopK;
use crate::vvm::{Merging, Part, PartDone};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use textjoin_common::{DocId, ICell, Result, TermId, SIM_VALUE_BYTES};
use textjoin_costmodel::Algorithm;
use textjoin_invfile::InvertedFile;
use textjoin_storage::MemTracker;

/// Bytes charged per non-zero pair — the paper's, so the partition count
/// matches the `⌈SM/M⌉` the model predicts.
pub(crate) const ACC_BYTES: u64 = SIM_VALUE_BYTES as u64;

/// Where the loop's inner entries come from; that also decides how its
/// outer side is chunked.
pub(crate) enum Source<'r> {
    /// HVNL: one outer document at a time, for every query that selects
    /// it; inner entries from the dictionary, the entry cache and the delta
    /// arena.
    Fetched(&'r InvertedFile, HvnlOptions),
    /// VVM: a chunk of each query's outer documents at a time (`Merging`);
    /// both sides' entries from each part's merge scan, and a hook per part.
    Merged(&'r [Part<'r>], Option<&'r PartDone<'r>>),
}

/// HVNL and VVM as the driver sees them: one [`Passes`] impl over the state
/// of either source.
pub(crate) enum TermAtATime<'r> {
    Fetched(Fetch<'r>),
    Merged(Merging<'r>),
}

impl<'r> Passes<'r> for TermAtATime<'r> {
    type Input = Source<'r>;

    fn tags(input: &Source<'r>) -> (Algorithm, &'static str) {
        match input {
            Source::Fetched(..) => (Algorithm::Hvnl, "hvnl"),
            Source::Merged(..) => (Algorithm::Vvm, "vvm"),
        }
    }

    fn prepare(input: Source<'r>, run: &mut Run<'r>) -> Result<Self> {
        let masks = run.specs.iter().map(JoinSpec::inner_mask).collect();
        Ok(match input {
            Source::Fetched(inv, options) => {
                Self::Fetched(Fetch::prepare(inv, options, masks, run)?)
            }
            Source::Merged(parts, done) => Self::Merged(Merging::prepare(parts, done, masks, run)?),
        })
    }

    /// HVNL's one pass is its outer scan, and every query is in it; a VVM
    /// pass is the next chunk of every query's outer documents, and a query
    /// is in it when its chunk is not empty.
    fn next_pass(&mut self, run: &mut Run<'r>) -> Result<bool> {
        match self {
            Self::Fetched(fetch) => {
                if std::mem::replace(&mut fetch.scanned, true) {
                    return Ok(false);
                }
                run.queries.iter_mut().for_each(|q| q.passes += 1);
                run.phase("hvnl.outer_scan", |run, span| fetch.scan(run, span))?;
            }
            Self::Merged(merging) => {
                if !merging.next_chunks(run) {
                    return Ok(false);
                }
                run.phase("vvm.merge_pass", |run, span| merging.pass(run, span))?;
            }
        }
        Ok(true)
    }

    fn finish(self, run: &mut Run<'r>) -> Result<()> {
        if let Self::Merged(merging) = self {
            run.root.record("splits", merging.splits);
            run.parts_high_water = merging.trackers.iter().map(MemTracker::high_water).sum();
        }
        Ok(())
    }
}

/// Reserves on `tracker` what the loop holds whatever it joins: the one
/// λ-heap alive at a time (the run's largest λ), then `entry_bytes` for the
/// entries it reads at once. The paper budgets the average `⌈J⌉` of each
/// file; the largest entry keeps the budget strict, so even an entry that
/// cannot be cached can be streamed through.
pub(crate) fn reserve(
    tracker: &MemTracker,
    run: &Run<'_>,
    entry_bytes: u64,
    [heap, entries]: [&str; 2],
) -> Result<()> {
    tracker.allocate(run.result_heap_bytes(), heap)?;
    tracker.allocate(entry_bytes.max(1), entries)
}

/// Query `spec`'s weighting factor for `term`; `None` when it zeroes the
/// term, and then the term takes no step and no entry is read for it.
pub(crate) fn factor(spec: &JoinSpec<'_>, term: TermId) -> Option<f64> {
    let factor = spec.weighting.term_factor(term, spec.inner.profile());
    (factor != 0.0).then_some(factor)
}

/// Flat rows may really occupy up to this many times the buffer `B·P`.
const FLAT_BUDGETS: u64 = 4;

/// Slot-table mark of an outer document that is not resident.
const ABSENT: u32 = u32::MAX;

/// The inner documents a run may score, by document number:
/// [`JoinSpec::inner_doc_allowed`] evaluated once per run instead of once
/// per posting.
pub(crate) struct InnerMask {
    allowed: Vec<bool>,
    /// The verdict on documents numbered past `allowed`.
    beyond: bool,
}

impl InnerMask {
    /// Everything minus `deleted`, intersected with `only` (ascending) when
    /// given; `None` when that is every document.
    pub(crate) fn new(deleted: Option<&BTreeSet<u32>>, only: Option<&[DocId]>) -> Option<Self> {
        let deleted = deleted.filter(|d| !d.is_empty());
        let top = match (only, deleted) {
            (None, None) => return None,
            (Some(ids), _) => ids.last().map(|d| d.index()),
            (None, Some(d)) => d.last().map(|&d| d as usize),
        };
        let mut allowed = vec![only.is_none(); top.map_or(0, |t| t + 1)];
        for id in only.into_iter().flatten() {
            allowed[id.index()] = true;
        }
        for &d in deleted.into_iter().flatten() {
            if let Some(allowed) = allowed.get_mut(d as usize) {
                *allowed = false;
            }
        }
        Some(Self {
            allowed,
            beyond: only.is_none(),
        })
    }

    #[inline]
    pub(crate) fn allows(&self, doc: DocId) -> bool {
        *self.allowed.get(doc.index()).unwrap_or(&self.beyond)
    }
}

/// One outer document's sums by inner document number. A flat row keeps a
/// seen-bit per number beside the sums, so a sum of `0.0`, an infinity or a
/// NaN is still a touched cell; the bits drive the fresh count, fold and
/// drain, and a sum is only ever read under a set bit. A flat sum without
/// its bit is `+0.0`: growth zero-fills, and a drain takes the sums under
/// the bits it clears.
enum Row {
    Flat { sums: Vec<f64>, seen: Vec<u64> },
    Sparse(HashMap<u32, f64>),
}

impl Row {
    /// Makes room in a flat row for document numbers below `width`
    /// (exactly: a row holds no capacity the `4·B·P` rule did not count).
    fn grow(&mut self, width: usize) {
        if let Row::Flat { sums, seen, .. } = self {
            if sums.len() < width {
                sums.reserve_exact(width - sums.len());
                sums.resize(width, 0.0);
                seen.resize(width.div_ceil(64), 0);
            }
        }
    }

    /// Adds each `(d, value)` to document `d`'s sum (a flat row has room
    /// for every `d`; an unseen flat sum is `+0.0`, see the module doc) and
    /// returns how many of those sums were unseen.
    #[inline]
    fn add_all(&mut self, adds: impl IntoIterator<Item = (u32, f64)>) -> u64 {
        let mut fresh = 0;
        match self {
            Row::Flat { sums, seen } => {
                for (d, value) in adds {
                    let (word, bit) = (&mut seen[d as usize / 64], 1 << (d % 64));
                    fresh += u64::from(*word & bit == 0);
                    *word |= bit;
                    sums[d as usize] += value;
                }
            }
            Row::Sparse(map) => {
                for (d, value) in adds {
                    match map.entry(d) {
                        Entry::Occupied(mut e) => *e.get_mut() += value,
                        Entry::Vacant(e) => {
                            fresh += 1;
                            e.insert(value);
                        }
                    }
                }
            }
        }
        fresh
    }

    fn for_each(&self, mut f: impl FnMut(u32, f64)) {
        match self {
            Row::Flat { sums, seen, .. } => {
                for (w, &word) in seen.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let d = w * 64 + bits.trailing_zeros() as usize;
                        f(d as u32, sums[d]);
                        bits &= bits - 1;
                    }
                }
            }
            Row::Sparse(map) => map.iter().for_each(|(&d, &sum)| f(d, sum)),
        }
    }

    /// Hands every touched `(d, sum)` to `f` and empties the row, keeping
    /// its memory: each sum is taken, so a flat row is left all `+0.0`.
    fn drain(&mut self, mut f: impl FnMut(u32, f64)) {
        match self {
            Row::Flat { sums, seen } => {
                for (w, word) in seen.iter_mut().enumerate() {
                    let mut bits = std::mem::take(word);
                    while bits != 0 {
                        let d = w * 64 + bits.trailing_zeros() as usize;
                        f(d as u32, std::mem::take(&mut sums[d]));
                        bits &= bits - 1;
                    }
                }
            }
            Row::Sparse(map) => map.drain().for_each(|(d, sum)| f(d, sum)),
        }
    }
}

/// Intermediate similarities of one query for the outer documents resident
/// in one pass: a slot per outer document, a row of sums per slot.
pub(crate) struct Rows {
    /// Outer document number → slot ([`ABSENT`] = not resident).
    slot_of: Vec<u32>,
    rows: Vec<Row>,
    /// Inner document numbers a flat row makes room for when first touched
    /// (`N1`; a larger number grows its row on demand).
    width: usize,
    /// Per slot, the bytes charged for the pairs it created (pairs folded
    /// in by [`Self::absorb`] carry no charge here).
    charged: Vec<u64>,
}

impl Rows {
    /// One empty row per outer document of `ids` (ascending; slot `k` is
    /// `ids[k]`'s) over inner documents numbered up to about `width`,
    /// under a buffer of `budget_bytes` (`B·P`).
    pub(crate) fn new(ids: &[DocId], width: u64, budget_bytes: u64) -> Self {
        let flat = (ids.len() as u64)
            .saturating_mul(width)
            .saturating_mul(std::mem::size_of::<f64>() as u64)
            <= FLAT_BUDGETS * budget_bytes;
        let row = || match flat {
            true => Row::Flat {
                sums: Vec::new(),
                seen: Vec::new(),
            },
            false => Row::Sparse(HashMap::new()),
        };
        let mut slot_of = vec![ABSENT; ids.last().map_or(0, |d| d.raw() as usize + 1)];
        for (slot, id) in ids.iter().enumerate() {
            slot_of[id.raw() as usize] = slot as u32;
        }
        Self {
            slot_of,
            rows: std::iter::repeat_with(row).take(ids.len()).collect(),
            width: width as usize,
            charged: vec![0; ids.len()],
        }
    }

    /// The slot of a resident outer document.
    #[inline]
    pub(crate) fn slot(&self, outer: DocId) -> Option<usize> {
        match self.slot_of.get(outer.raw() as usize) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Bytes charged for the pairs currently held.
    pub(crate) fn charged(&self) -> u64 {
        self.charged.iter().sum()
    }

    /// The loop's one step: the outer document resident in `slot`, holding
    /// the term with weight `outer.weight`, meets one inner entry of that
    /// term under the query's `factor`. Cells the query's mask or
    /// `exclude_self` rule out are skipped, and the pairs the rest create
    /// are priced by `charge` once they are added (HVNL's evicts from its
    /// cache, VVM's charges its part's tracker). Only non-zero postings
    /// are visited, so every applied cell is a similarity operation and a
    /// touched cell.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        slot: usize,
        outer: ICell,
        factor: f64,
        entry: &[ICell],
        (spec, mask): (&JoinSpec<'_>, Option<&InnerMask>),
        counters: &mut Counters,
        charge: impl FnOnce(u64) -> Result<()>,
    ) -> Result<()> {
        let skip = spec.exclude_self.then_some(outer.doc);
        let ops = self.apply(slot, entry, outer.weight, factor, mask, skip, charge)?;
        counters.sim_ops += ops;
        counters.cells_touched += ops;
        Ok(())
    }

    /// Applies one entry (`cells`, ascending by document, each document
    /// once) to `slot` in one walk: every cell that passes `mask` and is
    /// not `skip` advances its pair by `outer_weight · w · factor`. The
    /// pairs this creates are counted as they are added and handed to
    /// `charge` as bytes in one call after the adds; if it refuses, the
    /// rows are the caller's to drop (see the module doc). Returns the
    /// cells applied.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply(
        &mut self,
        slot: usize,
        cells: &[ICell],
        outer_weight: u16,
        factor: f64,
        mask: Option<&InnerMask>,
        skip: Option<DocId>,
        charge: impl FnOnce(u64) -> Result<()>,
    ) -> Result<u64> {
        let Some(last) = cells.last() else {
            return Ok(0);
        };
        let pass = |c: &&ICell| Some(c.doc) != skip && mask.is_none_or(|m| m.allows(c.doc));
        let row = &mut self.rows[slot];
        row.grow((last.doc.raw() as usize + 1).max(self.width));
        let (outer_weight, mut ops) = (outer_weight as f64, 0u64);
        let fresh = row.add_all(cells.iter().filter(pass).map(|c| {
            ops += 1;
            (c.doc.raw(), outer_weight * c.weight as f64 * factor)
        }));
        if fresh > 0 {
            charge(fresh * ACC_BYTES)?;
            self.charged[slot] += fresh * ACC_BYTES;
        }
        Ok(ops)
    }

    /// Adds every sum of `other` (rows over the same slots, from another
    /// part of the same merge) into this one's. The caller has released
    /// `other`'s charge; the sums carry none here.
    pub(crate) fn absorb(&mut self, other: Rows) {
        for (dst, src) in self.rows.iter_mut().zip(&other.rows) {
            src.for_each(|d, sum| {
                dst.grow((d as usize + 1).max(self.width));
                dst.add_all([(d, sum)]);
            });
        }
    }

    /// Emits the resident chunk (slot `k` holds `chunk[k]`) into `out`: per
    /// outer document one λ-heap over its row, ties broken by document id,
    /// so any executor emitting from equal sums produces identical rows.
    /// Each row is drained as it is offered, which leaves its slot empty,
    /// and what the slots' pairs were charged is released to `tracker`.
    pub(crate) fn emit(
        &mut self,
        chunk: &[DocId],
        spec: &JoinSpec<'_>,
        out: &mut Vec<ResultRow>,
        tracker: &MemTracker,
    ) {
        let mut bytes = 0;
        for (slot, &outer_id) in chunk.iter().enumerate() {
            let mut topk = TopK::new(spec.query.lambda);
            self.rows[slot].drain(|inner_raw, sum| {
                let inner_id = DocId::new(inner_raw);
                let score = (spec.weighting).finalize(sum, || spec.norms(inner_id, outer_id));
                if !score.is_zero() {
                    topk.offer(inner_id, score);
                }
            });
            out.push((outer_id, topk.into_matches()));
            bytes += std::mem::take(&mut self.charged[slot]);
        }
        tracker.release(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(pairs: &[(u32, u16)]) -> Vec<ICell> {
        let cell = |&(d, w)| ICell::new(DocId::new(d), w);
        pairs.iter().map(cell).collect()
    }

    /// Flat at `slots · width · 8 = 4·B·P`, sparse one byte past it.
    fn arms() -> [Rows; 2] {
        let two = [DocId::new(0), DocId::new(1)];
        let rows = [Rows::new(&two, 64, 256), Rows::new(&two, 64, 255)];
        assert!(matches!(rows[0].rows[0], Row::Flat { .. }));
        assert!(matches!(rows[1].rows[0], Row::Sparse(_)));
        rows
    }

    fn sums(rows: &Rows, slot: usize) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        rows.rows[slot].for_each(|d, sum| out.push((d, sum.to_bits())));
        out.sort_unstable();
        out
    }

    fn free(_: u64) -> Result<()> {
        Ok(())
    }

    /// What [`Rows::emit`] does to a slot, without a spec: the pairs its
    /// row hands over as it drains, and the bytes it releases.
    fn drain(rows: &mut Rows, slot: usize) -> (Vec<(u32, u64)>, u64) {
        let mut out = Vec::new();
        rows.rows[slot].drain(|d, sum| out.push((d, sum.to_bits())));
        out.sort_unstable();
        (out, std::mem::take(&mut rows.charged[slot]))
    }

    /// A drained slot's flat sums are all `+0.0`, bit for bit, whatever they
    /// held: the next add to any of them is a first add.
    fn assert_zeroed(rows: &Rows, slot: usize) {
        if let Row::Flat { sums, seen } = &rows.rows[slot] {
            assert!(!sums.is_empty(), "the row was grown");
            assert!(sums.iter().all(|s| s.to_bits() == 0), "{sums:?}");
            assert!(seen.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn a_pair_is_charged_once_and_both_arms_agree_to_the_bit() {
        let mut seen = Vec::new();
        for mut rows in arms() {
            let mut charges = Vec::new();
            let entry = cells(&[(3, 2), (9, 1), (70, 5)]);
            let ops = rows.apply(0, &entry, 3, 0.1, None, None, |b| {
                charges.push(b);
                Ok(())
            });
            assert_eq!(ops.unwrap(), 3);
            let entry = cells(&[(9, 4), (11, 1)]);
            let ops = rows.apply(0, &entry, 2, 0.7, None, None, |b| {
                charges.push(b);
                Ok(())
            });
            assert_eq!(ops.unwrap(), 2);
            // 3 new pairs, then 1: document 9 was already there.
            assert_eq!(charges, [3 * ACC_BYTES, ACC_BYTES]);
            assert_eq!(rows.charged(), 4 * ACC_BYTES);
            let nine: f64 = 3.0 * 1.0 * 0.1 + 2.0 * 4.0 * 0.7;
            assert!(sums(&rows, 0).contains(&(9, nine.to_bits())));
            // Document 70 is past the nominal width: the row grew.
            assert_eq!(sums(&rows, 0).len(), 4);
            assert!(sums(&rows, 1).is_empty());
            seen.push(sums(&rows, 0));
        }
        assert_eq!(seen[0], seen[1]);
    }

    /// The charge comes after the adds, so a refused one leaves sums that
    /// no caller keeps (see the module doc). What it asks for is what
    /// counting first asked for: the entry's cells that pass the mask and
    /// `exclude_self` and were not yet held, in one call.
    #[test]
    fn a_refused_charge_asks_for_what_a_count_first_asked() {
        let mask = InnerMask::new(Some(&BTreeSet::from([4])), None).unwrap();
        for mut rows in arms() {
            let held = cells(&[(1, 1), (3, 2), (70, 1)]);
            rows.apply(0, &held, 1, 1.0, Some(&mask), None, free)
                .unwrap();
            // 1 and 70 are held, 4 is masked out, 5 is the outer document
            // itself: 2, 6 and 90 are the fresh pairs.
            let entry = cells(&[(1, 1), (2, 1), (4, 1), (5, 1), (6, 1), (70, 1), (90, 1)]);
            let skip = Some(DocId::new(5));
            let before = sums(&rows, 0);
            let fresh = (entry.iter())
                .filter(|c| Some(c.doc) != skip && mask.allows(c.doc))
                .filter(|c| before.iter().all(|&(d, _)| d != c.doc.raw()))
                .count() as u64;
            assert_eq!(fresh, 3);
            let mut asked = Vec::new();
            let refuse = |bytes| {
                asked.push(bytes);
                Err(textjoin_common::Error::InvalidArgument("full".into()))
            };
            let refused = rows.apply(0, &entry, 1, 1.0, Some(&mask), skip, refuse);
            assert!(refused.is_err());
            assert_eq!(asked, [fresh * ACC_BYTES]);
            // What was refused is not held.
            assert_eq!(rows.charged(), 3 * ACC_BYTES);
        }
    }

    /// The touched marker is not a value: a pair whose sum is `0.0`, an
    /// infinity or a NaN is charged once, emitted and cleared like any other.
    #[test]
    fn zero_and_non_finite_sums_stay_touched() {
        for mut rows in arms() {
            let entry = cells(&[(5, 0), (6, 1)]);
            for factor in [1.0, f64::INFINITY] {
                // 1·0·∞ is NaN, 1·1·∞ is ∞; the first round leaves 0.0 and 1.0.
                rows.apply(0, &entry, 1, factor, None, None, free).unwrap();
                assert_eq!(rows.charged(), 2 * ACC_BYTES, "factor {factor}");
            }
            let held = sums(&rows, 0);
            assert!(f64::from_bits(held[0].1).is_nan() && held[0].0 == 5);
            assert_eq!(held[1], (6, f64::INFINITY.to_bits()));
            // A third visit still finds both pairs in place.
            let mut charged = 0;
            rows.apply(0, &entry, 1, 1.0, None, None, |b| {
                charged += b;
                Ok(())
            })
            .unwrap();
            assert_eq!(charged, 0);
            let (drained, bytes) = drain(&mut rows, 0);
            assert_eq!((drained.len(), bytes), (2, 2 * ACC_BYTES));
            assert!(f64::from_bits(drained[0].1).is_nan() && drained[0].0 == 5);
            assert_eq!(drained[1], (6, f64::INFINITY.to_bits()));
            // The NaN and the ∞ are gone with their bits.
            assert_zeroed(&rows, 0);
        }
        for mut rows in arms() {
            rows.apply(1, &cells(&[(8, 0)]), 7, 1.0, None, None, free)
                .unwrap();
            assert_eq!(sums(&rows, 1), [(8, 0f64.to_bits())]);
        }
    }

    /// HVNL reuses one row for every outer document: after a drain no sum,
    /// no touched mark and no charge of the previous document is left.
    #[test]
    fn a_drain_leaves_nothing_behind() {
        for mut rows in arms() {
            rows.apply(0, &cells(&[(2, 3), (40, 1)]), 2, 1.0, None, None, free)
                .unwrap();
            rows.apply(1, &cells(&[(2, 1)]), 1, 1.0, None, None, free)
                .unwrap();
            let f = |x: f64| x.to_bits();
            let drained = (vec![(2, f(6.0)), (40, f(2.0))], 2 * ACC_BYTES);
            assert_eq!(drain(&mut rows, 0), drained);
            assert!(sums(&rows, 0).is_empty());
            assert_zeroed(&rows, 0);
            assert_eq!(rows.charged(), ACC_BYTES, "slot 1 is untouched");
            // The next document starts from nothing: 2 is charged again and
            // its sum is the new value alone, 40 does not come back.
            let mut charged = 0;
            rows.apply(0, &cells(&[(2, 5)]), 1, 1.0, None, None, |b| {
                charged += b;
                Ok(())
            })
            .unwrap();
            assert_eq!(charged, ACC_BYTES);
            assert_eq!(sums(&rows, 0), [(2, 5f64.to_bits())]);
        }
    }

    #[test]
    fn absorb_adds_pair_by_pair() {
        let [flat, sparse] = arms();
        // Mixed arms on purpose: the fold only sees the interface.
        for [mut total, mut other] in [arms(), [sparse, flat]] {
            total
                .apply(0, &cells(&[(1, 1), (2, 1)]), 1, 1.0, None, None, free)
                .unwrap();
            other
                .apply(0, &cells(&[(2, 2), (90, 1)]), 1, 1.0, None, None, free)
                .unwrap();
            other
                .apply(1, &cells(&[(4, 4)]), 1, 1.0, None, None, free)
                .unwrap();
            total.absorb(other);
            let f = |x: f64| x.to_bits();
            assert_eq!(sums(&total, 0), [(1, f(1.0)), (2, f(3.0)), (90, f(1.0))]);
            assert_eq!(sums(&total, 1), [(4, f(4.0))]);
        }
    }

    #[test]
    fn masked_and_skipped_documents_are_neither_counted_nor_charged() {
        let only = [DocId::new(1), DocId::new(2), DocId::new(3)];
        let deleted = BTreeSet::from([2]);
        let mask = InnerMask::new(Some(&deleted), Some(&only)).unwrap();
        for mut rows in arms() {
            let entry = cells(&[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]);
            let skip = Some(DocId::new(3));
            let ops = rows.apply(0, &entry, 1, 1.0, Some(&mask), skip, free);
            assert_eq!(ops.unwrap(), 1);
            assert_eq!(sums(&rows, 0), [(1, 1f64.to_bits())]);
            assert_eq!(rows.charged(), ACC_BYTES);
        }
    }

    #[test]
    fn the_slot_table_knows_only_its_chunk() {
        let chunk = [DocId::new(4), DocId::new(7), DocId::new(9)];
        let rows = Rows::new(&chunk, 10, 1 << 20);
        assert_eq!(rows.slot(DocId::new(7)), Some(1));
        assert_eq!(rows.slot(DocId::new(9)), Some(2));
        for absent in [0, 5, 8, 10, 1_000_000] {
            assert_eq!(rows.slot(DocId::new(absent)), None, "{absent}");
        }
        assert_eq!(Rows::new(&[], 10, 1 << 20).slot(DocId::new(0)), None);
    }
}
