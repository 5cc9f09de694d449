//! Algorithm HVNL — Horizontal-Vertical Nested Loop (section 4.2): the
//! fetching source of the term-at-a-time loop (`accum.rs`).
//!
//! For each outer document, the terms it shares with the inner collection
//! are looked up in the inner B+tree (loaded into memory once, cost `Bt1`)
//! and their inverted-file entries are fetched (`⌈J1⌉` random pages each).
//! Entries read for earlier documents are kept in an in-memory cache; when
//! space runs out, the entry whose term has the **lowest document frequency
//! in the outer collection** is evicted — it is the least likely to be
//! needed again. Terms whose entries are already resident are processed
//! first.
//!
//! The paper proves that choosing an optimal processing order for the outer
//! documents is NP-hard (reduction from Optimal Batch Integrity Assertion
//! Verification); the default is storage order, and a greedy
//! largest-intersection order is available as the ablation the paper
//! discusses (and warns about: it turns the outer scan into random I/O).
//!
//! With several queries the outer collection is still scanned once: each
//! document is joined for every query that selects it against a *single
//! shared entry cache* and one dictionary (`costmodel::hvnl`'s batch form).

use crate::accum::{factor, reserve, InnerMask, Rows, Source, TermAtATime};
use crate::driver::{drive_one, Run};
use crate::result::JoinOutcome;
use crate::spec::{JoinSpec, OuterDocs};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use textjoin_collection::Document;
use textjoin_common::{DCell, DocId, FxHashMap, ICell, Result, TermId, CELL_BYTES, NUMBER_BYTES};
use textjoin_invfile::{DeltaOverlay, Dictionary, InvertedFile};
use textjoin_obs::{Histogram, Span, LATENCY_BOUNDS_NS};

/// Cache replacement policies for inverted-file entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// The paper's policy: evict the entry whose term has the lowest
    /// document frequency in the outer collection (least likely reuse).
    /// With several queries sharing the cache the frequency is aggregated
    /// over every query that can use the entry, so the entry least
    /// demanded by the batch as a whole goes first.
    #[default]
    LowestOuterDf,
    /// Plain least-recently-used, as the ablation baseline.
    Lru,
}

/// Order in which outer documents are processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OuterOrder {
    /// Storage order — cheap sequential reads (the paper's choice).
    #[default]
    Storage,
    /// Greedy: always pick the unprocessed document sharing the most terms
    /// with the entries currently cached. The optimal order is NP-hard;
    /// this heuristic maximises short-term reuse at the price of reading
    /// documents randomly, exactly the trade-off section 4.2 warns about.
    GreedyIntersection,
}

/// Tuning knobs (defaults reproduce the paper's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct HvnlOptions {
    /// Cache replacement policy.
    pub eviction: EvictionPolicy,
    /// Outer document processing order.
    pub order: OuterOrder,
}

/// Executes the join with HVNL under the paper's default options.
pub fn execute(spec: &JoinSpec<'_>, inner_inv: &InvertedFile) -> Result<JoinOutcome> {
    execute_with(spec, inner_inv, HvnlOptions::default())
}

/// Executes the join with HVNL under explicit options.
pub fn execute_with(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    options: HvnlOptions,
) -> Result<JoinOutcome> {
    drive_one::<TermAtATime>(spec, Source::Fetched(inner_inv, options))
}

/// Whether `id` is one of the spec's participating outer documents.
fn outer_participates(spec: &JoinSpec<'_>, id: DocId) -> bool {
    match spec.outer_docs {
        OuterDocs::Full => true,
        OuterDocs::Selected(ids) => ids.binary_search(&id).is_ok(),
    }
}

/// Bytes a cached entry charges: its i-cells plus one resident-term-list
/// slot of `|t#|` bytes (the list of section 4.2 that tracks which entries
/// are in memory).
fn cached_entry_bytes(cells: &[ICell]) -> u64 {
    (cells.len() * CELL_BYTES + NUMBER_BYTES) as u64
}

/// Lifecycle of the one-shot delta-postings load. The overlay cannot
/// change while an executor holds it (mutation needs `&mut
/// LiveCollection`), and the driver validates that every spec of a run
/// shares the same inner overlay pointer, so a single load serves the
/// whole run.
enum DeltaPostings {
    /// No delta lookup has happened yet.
    Unbuilt,
    /// The merged flushed+tail entries, bytes charged to the tracker.
    Built(Arc<DeltaArena>),
    /// The scan hit an unreadable page in degraded mode: the delta is
    /// dropped wholesale and every lookup counts a skip.
    Dropped,
    /// The entries did not fit in memory even after emptying the entry
    /// cache; fall back to per-term reads against the overlay.
    PerTerm,
}

/// Every merged delta entry back to back in one buffer, in term order,
/// and where each term's cells lie in it.
struct DeltaArena {
    cells: Vec<ICell>,
    index: FxHashMap<TermId, (usize, usize)>,
}

/// HVNL in the loop: the dictionary, the entry cache every query shares,
/// and one row of sums, emitted and emptied after each (outer document,
/// query) pair.
pub(crate) struct Fetch<'r> {
    inner_inv: &'r InvertedFile,
    order: OuterOrder,
    dict: Dictionary,
    cache: EntryCache,
    /// The similarities of the current (outer document, query) pair: one
    /// row, emitted and emptied after each [`Self::process_outer_doc`].
    acc: Rows,
    /// Per query, the inner documents it may score (`None` = all).
    masks: Vec<Option<InnerMask>>,
    /// The current document's cells with their dictionary ordinals, in
    /// processing order (scratch reused from document to document).
    ordered: Vec<(DCell, Option<u32>)>,
    /// Inner-delta postings, loaded with one sequential scan of the flushed
    /// side file on first use instead of a random read per outer term
    /// occurrence.
    delta_postings: DeltaPostings,
    /// Per-lookup latency histograms (cache hit, disk fetch), present only
    /// when a registry-backed tracer is attached to the run.
    lookup_hists: Option<(Histogram, Histogram)>,
    /// Whether the one outer pass has run.
    pub(crate) scanned: bool,
    /// Outer documents joined so far.
    docs_done: u64,
}

impl<'r> Fetch<'r> {
    pub(crate) fn prepare(
        inner_inv: &'r InvertedFile,
        options: HvnlOptions,
        masks: Vec<Option<InnerMask>>,
        run: &mut Run<'r>,
    ) -> Result<Self> {
        run.phase("hvnl.setup", |run, span| {
            let spec0 = &run.specs[0];
            // One-time cost: read the whole B+tree into memory (Bt1) and
            // keep it resident for the duration of the join. A corrupt
            // dictionary is a hard failure even in degraded mode — without
            // it no entry can be located, so the caller re-plans instead.
            let dict = inner_inv.btree().load_leaves()?;
            run.tracker
                .allocate(dict.size_bytes().max(1), "HVNL B+tree dictionary")?;
            // Room for the outer document currently being processed (⌈S2⌉).
            run.tracker
                .allocate(spec0.outer_slot_bytes(), "HVNL outer document slot")?;
            let labels = ["HVNL result heap", "HVNL current entry buffer"];
            reserve(&run.tracker, run, inner_inv.max_entry_bytes(), labels)?;
            // With a registry-backed tracer attached, each inverted-entry
            // lookup is timed separately by outcome, making the cache-hit
            // vs disk-fetch latency gap directly observable.
            let lookup_hists = spec0.trace.and_then(|t| t.registry()).map(|r| {
                (
                    r.histogram("hvnl.entry_hit_ns", "", &LATENCY_BOUNDS_NS),
                    r.histogram("hvnl.entry_fetch_ns", "", &LATENCY_BOUNDS_NS),
                )
            });
            let mut fetch = Self {
                inner_inv,
                order: options.order,
                cache: EntryCache::new(options.eviction, dict.len()),
                dict,
                // One row (slot 0), whichever outer document is current.
                acc: Rows::new(
                    &[DocId::new(0)],
                    spec0.inner_row_width(),
                    spec0.sys.buffer_bytes(),
                ),
                masks,
                ordered: Vec::new(),
                delta_postings: DeltaPostings::Unbuilt,
                lookup_hists,
                scanned: false,
                docs_done: 0,
            };
            fetch.maybe_preload_inverted_file(run)?;
            span.record("preloaded_entries", fetch.cache.len() as u64);
            Ok(fetch)
        })
    }

    /// The one outer pass, in storage or greedy order.
    pub(crate) fn scan(&mut self, run: &mut Run<'r>, span: &mut Span<'r>) -> Result<()> {
        match self.order {
            OuterOrder::Storage => {
                self.for_each_outer_doc(run, |fetch, run, id, doc| fetch.join_doc(run, id, &doc))?
            }
            OuterOrder::GreedyIntersection => self.greedy_scan(run)?,
        }
        let (fetches, hits) = run.queries.iter().fold((0, 0), |(f, h), q| {
            (f + q.counters.entry_fetches, h + q.counters.cache_hits)
        });
        span.record("entry_fetches", fetches);
        span.record("cache_hits", hits);
        run.root.record("entry_fetches", fetches);
        run.root.record("cache_hits", hits);
        Ok(())
    }

    /// Drives one outer pass, handing each readable document to `visit`
    /// until it asks to stop. When any query wants the full collection the
    /// store is scanned sequentially; otherwise only the union of the
    /// selected documents is read (each once, shared by every query that
    /// chose it).
    fn for_each_outer_doc(
        &mut self,
        run: &mut Run<'r>,
        mut visit: impl FnMut(&mut Self, &mut Run<'r>, DocId, Document) -> Result<bool>,
    ) -> Result<()> {
        let specs = run.specs;
        let spec0 = &specs[0];
        if let Some(full) = specs
            .iter()
            .find(|s| matches!(s.outer_docs, OuterDocs::Full))
        {
            for item in full.outer_iter() {
                let stop = match item {
                    Ok((id, doc)) => visit(self, run, id, doc)?,
                    Err(e) if spec0.skippable(&e) => {
                        run.shared_skipped_docs += 1;
                        false
                    }
                    Err(e) => return Err(e),
                };
                if stop {
                    break;
                }
            }
            return Ok(());
        }
        let mut union: Vec<DocId> = specs
            .iter()
            .flat_map(|s| match s.outer_docs {
                OuterDocs::Full => unreachable!("no Full spec in the run"),
                OuterDocs::Selected(ids) => ids.iter().copied(),
            })
            .collect();
        union.sort_unstable();
        union.dedup();
        for id in union {
            let stop = match spec0.outer.store().read_doc_direct(id) {
                Ok(doc) => visit(self, run, id, doc)?,
                Err(e) if spec0.skippable(&e) => {
                    // Attribute the skip to exactly the queries that chose
                    // this document.
                    for (spec, q) in specs.iter().zip(&mut run.queries) {
                        if outer_participates(spec, id) {
                            q.counters.skipped_docs += 1;
                        }
                    }
                    false
                }
                Err(e) => return Err(e),
            };
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// Joins one outer document for every live query that selects it, then
    /// checkpoints: HVNL's cost accrues per outer document (entry
    /// fetches), so that is its grain. Returns `true` once every query is
    /// cancelled.
    fn join_doc(&mut self, run: &mut Run<'r>, id: DocId, doc: &Document) -> Result<bool> {
        let specs = run.specs;
        for (si, spec) in specs.iter().enumerate() {
            if !run.cancelled(si) && outer_participates(spec, id) {
                self.process_outer_doc(run, si, id, doc)?;
            }
        }
        self.docs_done += 1;
        run.checkpoint(|| format!("hvnl.outer_doc {}", self.docs_done))
    }

    /// The greedy ablation: read all participating outer documents up
    /// front, then always process the one sharing the most terms with the
    /// entries currently cached.
    fn greedy_scan(&mut self, run: &mut Run<'r>) -> Result<()> {
        let mut remaining: Vec<(DocId, Document)> = Vec::new();
        let mut held_bytes = 0u64;
        self.for_each_outer_doc(run, |_, run, id, doc| {
            let bytes = doc.size_bytes().max(1);
            run.tracker
                .allocate(bytes, "HVNL greedy-order document set")?;
            held_bytes += bytes;
            remaining.push((id, doc));
            Ok(false)
        })?;
        while !remaining.is_empty() {
            let best = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, doc))| {
                    doc.cells()
                        .iter()
                        .filter_map(|c| self.dict.lookup(c.term))
                        .filter(|e| self.cache.contains(e.ordinal))
                        .count()
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let (id, doc) = remaining.swap_remove(best);
            if self.join_doc(run, id, &doc)? {
                break;
            }
        }
        run.tracker.release(held_bytes);
        Ok(())
    }

    /// The eviction key of `term`: its outer document frequency summed
    /// over every query that can actually use the entry (a query whose
    /// weighting zeroes the term contributes nothing). Aggregation only
    /// changes *which* entry is evicted first, never any result; the LRU
    /// cache ignores the value.
    fn demand(specs: &[JoinSpec<'_>], term: TermId) -> u64 {
        specs
            .iter()
            .filter(|s| factor(s, term).is_some())
            .map(|s| u64::from(s.outer.profile().doc_frequency(term)))
            .sum()
    }

    /// Loads the whole inner inverted file into the cache with one
    /// sequential scan when (a) it fits in the available memory and (b) the
    /// scan is cheaper than the expected on-demand random fetches — the
    /// first case of the paper's `hvs` formula (section 5.2, `X ≥ T1`).
    fn maybe_preload_inverted_file(&mut self, run: &mut Run<'r>) -> Result<()> {
        let specs = run.specs;
        let spec = &specs[0];
        let inv = self.inner_inv;
        if inv.num_entries() == 0 {
            return Ok(());
        }
        // What `cached_entry_bytes` will charge over all entries.
        let total_cached_bytes = inv.decoded_bytes() + inv.num_entries() * NUMBER_BYTES as u64;
        if total_cached_bytes > run.tracker.available() {
            return Ok(());
        }
        // Expected on-demand cost: every inner entry whose term also
        // appears in the outer collection is fetched once at ⌈J1⌉·α.
        let alpha = spec.sys.alpha;
        let entry_pages = inv.avg_entry_pages().ceil().max(1.0);
        let needed = spec
            .inner
            .profile()
            .term_overlap_probability(spec.outer.profile())
            * inv.num_entries() as f64;
        let scan_cost = inv.num_pages() as f64;
        if scan_cost >= needed * entry_pages * alpha {
            return Ok(());
        }
        let mut scan = inv.scan_with_prefetch(spec.prefetch_metrics("inv_preload"));
        let mut cells = Vec::new();
        // The scan yields every entry in ordinal order, unreadable ones too.
        for ordinal in 0.. {
            let Some(item) = scan.next_into(&mut cells) else {
                break;
            };
            let term = match item {
                Ok(term) => term,
                Err(e) if spec.skippable(&e) => {
                    // The entry stays out of the cache; a later lookup of
                    // this term will retry it on demand (and skip it there
                    // too if the page is genuinely unreadable).
                    continue;
                }
                Err(e) => return Err(e),
            };
            let bytes = cached_entry_bytes(&cells);
            run.tracker
                .allocate(bytes, "HVNL preloaded inverted file")?;
            let demand = Self::demand(specs, term);
            self.cache.insert(ordinal, &cells[..], bytes, demand);
        }
        Ok(())
    }

    /// Joins one outer document for query `si`: every term the query
    /// weights takes the loop's step with its base entry, then with its
    /// delta entry, and the document's row is emitted.
    fn process_outer_doc(
        &mut self,
        run: &mut Run<'r>,
        si: usize,
        outer_id: DocId,
        doc: &Document,
    ) -> Result<()> {
        let specs = run.specs;
        let spec = &specs[si];
        // Each cell is looked up in the dictionary once; terms that do not
        // appear in C1 have no ordinal, no entry and cost nothing.
        let mut ordered = std::mem::take(&mut self.ordered);
        ordered.clear();
        let lookup = |c: &DCell| (*c, self.dict.lookup(c.term).map(|e| e.ordinal));
        ordered.extend(doc.cells().iter().map(lookup));
        // Terms whose entries are already in memory are considered first
        // (section 4.2's reuse optimization); order within each group stays
        // by term number for determinism. Both groups are appended behind
        // the term-ordered run, which is then skipped.
        let n = ordered.len();
        for cached in [true, false] {
            for i in 0..n {
                if ordered[i].1.is_some_and(|o| self.cache.contains(o)) == cached {
                    ordered.push(ordered[i]);
                }
            }
        }

        // Entries this document is guaranteed to need are pinned so that
        // evictions forced while fetching its *uncached* terms cannot throw
        // away a hit we already counted on; each pin is released once the
        // term has been consumed. An uncached ordinal is left alone.
        for ordinal in ordered[n..].iter().filter_map(|&(_, o)| o) {
            self.cache.pin(ordinal, true);
        }
        for &(cell, ordinal) in &ordered[n..] {
            if let Some(ordinal) = ordinal {
                self.cache.pin(ordinal, false);
            }
            let Some(factor) = factor(spec, cell.term) else {
                continue;
            };
            let outer = ICell::new(outer_id, cell.weight);
            if let Some(ordinal) = ordinal {
                self.base_entry(run, si, outer, cell.term, ordinal, factor)?;
            }
            // Inner delta documents contribute through the overlay's side
            // postings — consulted for dictionary-known *and* delta-only
            // terms, since an inserted document may introduce new terms.
            if let Some(overlay) = spec.inner_delta {
                self.delta_entry(run, si, outer, cell.term, overlay, factor)?;
            }
        }
        self.ordered = ordered;
        let rows = &mut run.queries[si].rows;
        self.acc.emit(&[outer_id], spec, rows, &run.tracker);
        Ok(())
    }

    /// The step with `term`'s base entry: a cache hit, or a fetch that is
    /// cached when room can be made for it.
    fn base_entry(
        &mut self,
        run: &mut Run<'r>,
        si: usize,
        outer: ICell,
        term: TermId,
        ordinal: u32,
        factor: f64,
    ) -> Result<()> {
        // The Instant is only taken when a registry is attached, so the
        // untraced hot path pays nothing beyond an Option check.
        let lookup_start = self.lookup_hists.as_ref().map(|_| Instant::now());

        if let Some(cells) = self.cache.get(ordinal) {
            run.queries[si].counters.cache_hits += 1;
            // A share of the entry, not a longer pin: making room for its
            // sums may evict this very entry, exactly as it always could.
            self.step(run, si, outer, factor, &cells)?;
            if let (Some((hit, _)), Some(t0)) = (&self.lookup_hists, lookup_start) {
                hit.observe(t0.elapsed().as_nanos() as u64);
            }
            return Ok(());
        }

        // Fetch from disk (⌈J1⌉ random pages) and try to cache. A failed
        // fetch still counts as a fetch attempt; in degraded mode the
        // unreadable entry is skipped (its postings contribute nothing)
        // and counted, rather than failing the whole join.
        run.queries[si].counters.entry_fetches += 1;
        let cells = match self.inner_inv.read_entry(ordinal) {
            Ok(cells) => cells,
            Err(e) if run.specs[si].skippable(&e) => {
                run.queries[si].counters.skipped_entries += 1;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let (Some((_, fetch)), Some(t0)) = (&self.lookup_hists, lookup_start) {
            fetch.observe(t0.elapsed().as_nanos() as u64);
        }
        let bytes = cached_entry_bytes(&cells);

        // Make room by evicting lowest-priority entries; an entry larger
        // than everything evictable is used transiently instead.
        while run.tracker.available() < bytes {
            match self.cache.evict_one() {
                Some(freed) => run.tracker.release(freed),
                None => {
                    // Nothing left to evict: accumulate without caching.
                    return self.step(run, si, outer, factor, &cells);
                }
            }
        }
        run.tracker.allocate(bytes, "HVNL entry cache")?;
        self.step(run, si, outer, factor, &cells)?;
        let demand = Self::demand(run.specs, term);
        self.cache.insert(ordinal, cells, bytes, demand);
        Ok(())
    }

    /// The step with the inner overlay's postings for `term`. The whole
    /// overlay is loaded into memory on first use with one sequential scan
    /// of the flushed side file — fetching it per outer-term occurrence
    /// would cost a random entry read each time, swamping the join. Delta
    /// postings never enter the entry cache proper: the next flush or merge
    /// rewrites them, and the pristine path must not pay for the
    /// invalidation machinery that caching them would need. They also stay
    /// outside `entry_fetches`/`cache_hits`, which account for the base
    /// inverted file only.
    fn delta_entry(
        &mut self,
        run: &mut Run<'r>,
        si: usize,
        outer: ICell,
        term: TermId,
        overlay: &DeltaOverlay,
        factor: f64,
    ) -> Result<()> {
        if matches!(self.delta_postings, DeltaPostings::Unbuilt) {
            self.build_delta_postings(run, overlay)?;
        }
        match &self.delta_postings {
            DeltaPostings::Built(arena) => {
                // A share of the arena escapes the borrow of `self`.
                let arena = Arc::clone(arena);
                let &(start, end) = arena.index.get(&term).unwrap_or(&(0, 0));
                self.step(run, si, outer, factor, &arena.cells[start..end])
            }
            DeltaPostings::Dropped => {
                // The delta is unreadable: every lookup that would have
                // consulted it is a counted skip, so any query touching
                // the dropped overlay reports a Partial result.
                run.queries[si].counters.skipped_entries += 1;
                Ok(())
            }
            DeltaPostings::PerTerm => match overlay.postings_for(term) {
                Ok(cells) => self.step(run, si, outer, factor, &cells),
                Err(e) if run.specs[si].skippable(&e) => {
                    run.queries[si].counters.skipped_entries += 1;
                    Ok(())
                }
                Err(e) => Err(e),
            },
            DeltaPostings::Unbuilt => unreachable!("built above"),
        }
    }

    /// One-shot load of the inner delta overlay into one arena: a single
    /// sequential scan of the flushed side file merged with the in-memory
    /// tail. The bytes `cached_entry_bytes` charges over the merged entries
    /// are counted from the directories and charged before anything is
    /// read; if they cannot be even after emptying the entry cache, lookups
    /// fall back to per-term overlay reads. In degraded mode an unreadable
    /// page drops the delta wholesale.
    fn build_delta_postings(&mut self, run: &mut Run<'r>, overlay: &DeltaOverlay) -> Result<()> {
        let (cells, entries) = overlay.entry_totals();
        let bytes = cells * CELL_BYTES as u64 + entries * NUMBER_BYTES as u64;
        while run.tracker.available() < bytes {
            match self.cache.evict_one() {
                Some(freed) => run.tracker.release(freed),
                None => {
                    self.delta_postings = DeltaPostings::PerTerm;
                    return Ok(());
                }
            }
        }
        run.tracker.allocate(bytes, "HVNL delta postings")?;
        let mut arena = DeltaArena {
            cells: Vec::with_capacity(cells as usize),
            index: FxHashMap::with_capacity_and_hasher(entries as usize, Default::default()),
        };
        let (mut scan, mut entry) = (overlay.scan_between(0, None), Vec::new());
        while let Some(term) = scan.next_into(&mut entry) {
            let term = term.inspect_err(|_| run.tracker.release(bytes));
            let term = match term {
                Ok(term) => term,
                Err(e) if run.specs[0].skippable(&e) => {
                    self.delta_postings = DeltaPostings::Dropped;
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let start = arena.cells.len();
            arena.cells.extend_from_slice(&entry);
            arena.index.insert(term, (start, arena.cells.len()));
        }
        self.delta_postings = DeltaPostings::Built(Arc::new(arena));
        Ok(())
    }

    /// The loop's step for the current document and query `si`. Its charge
    /// is the paper's 4 bytes per non-zero similarity (the cost model's
    /// `4·N1·δ/P` term); the entry cache is discretionary, so it shrinks
    /// before mandatory accumulator space is given up on.
    fn step(
        &mut self,
        run: &mut Run<'r>,
        si: usize,
        outer: ICell,
        factor: f64,
        cells: &[ICell],
    ) -> Result<()> {
        let (cache, tracker) = (&mut self.cache, &run.tracker);
        let charge = |bytes| {
            while tracker.available() < bytes {
                match cache.evict_one() {
                    Some(freed) => tracker.release(freed),
                    // Mandatory space outranks pin hints: the pins are
                    // released first (so the entries become evictable)
                    // rather than ever evicting a pinned entry directly.
                    None if cache.has_pinned() => cache.unpin_all(),
                    None => break,
                }
            }
            tracker.allocate(bytes, "HVNL similarity accumulators")
        };
        let query = (&run.specs[si], self.masks[si].as_ref());
        let counters = &mut run.queries[si].counters;
        self.acc
            .step(0, outer, factor, cells, query, counters, charge)
    }
}

/// The in-memory entry cache with its two replacement policies, keyed by
/// dictionary ordinal.
struct EntryCache {
    policy: EvictionPolicy,
    /// Per ordinal, the position of its slot in `slots` ([`UNCACHED`] when
    /// the entry is not resident).
    index: Vec<u32>,
    slots: Vec<CacheSlot>,
    /// Eviction order: smallest key evicted first. The key is
    /// `(outer document frequency, ordinal)` for the paper's policy and
    /// `(last access tick, ordinal)` for LRU; ordinals ascend with terms.
    /// Every cached entry has its key here, pinned or not.
    order: BTreeSet<(u64, u32)>,
    tick: u64,
}

/// [`EntryCache::index`]'s mark of an ordinal with no slot.
const UNCACHED: u32 = u32::MAX;

struct CacheSlot {
    cells: Arc<[ICell]>,
    bytes: u64,
    key: (u64, u32),
    /// Pinned slots are exempt from eviction until [`EntryCache::pin`]
    /// releases them.
    pinned: bool,
}

impl EntryCache {
    /// An empty cache over a dictionary of `ordinals` entries.
    fn new(policy: EvictionPolicy, ordinals: usize) -> Self {
        Self {
            policy,
            index: vec![UNCACHED; ordinals],
            slots: Vec::new(),
            order: BTreeSet::new(),
            tick: 0,
        }
    }

    /// The slot of a cached ordinal; `None` when uncached, since
    /// [`UNCACHED`] lies past every slot.
    fn slot(&mut self, ordinal: u32) -> Option<&mut CacheSlot> {
        let at = self.index[ordinal as usize];
        self.slots.get_mut(at as usize)
    }

    fn contains(&self, ordinal: u32) -> bool {
        self.index[ordinal as usize] != UNCACHED
    }

    /// A share of the cached entry; it stays readable if the entry is
    /// evicted while in use.
    fn get(&mut self, ordinal: u32) -> Option<Arc<[ICell]>> {
        self.tick += 1;
        let (tick, policy) = (self.tick, self.policy);
        let slot = self.slot(ordinal)?;
        let cells = Arc::clone(&slot.cells);
        if policy == EvictionPolicy::Lru {
            let stale = std::mem::replace(&mut slot.key, (tick, ordinal));
            self.order.remove(&stale);
            self.order.insert((tick, ordinal));
        }
        Some(cells)
    }

    /// Caches an entry. `df` is the demand estimate
    /// [`EvictionPolicy::LowestOuterDf`] keys evictions by (ignored under
    /// LRU). Ties on `df` break by ordinal, so eviction order is
    /// reproducible.
    fn insert(&mut self, ordinal: u32, cells: impl Into<Arc<[ICell]>>, bytes: u64, df: u64) {
        debug_assert!(!self.contains(ordinal));
        self.tick += 1;
        let key = match self.policy {
            EvictionPolicy::LowestOuterDf => (df, ordinal),
            EvictionPolicy::Lru => (self.tick, ordinal),
        };
        self.order.insert(key);
        self.index[ordinal as usize] = self.slots.len() as u32;
        self.slots.push(CacheSlot {
            cells: cells.into(),
            bytes,
            key,
            pinned: false,
        });
    }

    /// Evicts the lowest-priority *unpinned* entry, returning the bytes it
    /// freed; a pinned entry is never evicted.
    fn evict_one(&mut self) -> Option<u64> {
        let (index, slots) = (&self.index, &self.slots);
        let key = *self
            .order
            .iter()
            .find(|&&(_, o)| !slots[index[o as usize] as usize].pinned)?;
        self.order.remove(&key);
        let at = std::mem::replace(&mut self.index[key.1 as usize], UNCACHED);
        let slot = self.slots.swap_remove(at as usize);
        if let Some(moved) = self.slots.get(at as usize) {
            self.index[moved.key.1 as usize] = at;
        }
        Some(slot.bytes)
    }

    /// Exempts a cached entry from eviction (`true`) or makes it evictable
    /// again (`false`).
    fn pin(&mut self, ordinal: u32, pinned: bool) {
        if let Some(slot) = self.slot(ordinal) {
            slot.pinned = pinned;
        }
    }

    /// Releases every pin (mandatory allocations outrank pin hints).
    fn unpin_all(&mut self) {
        for slot in &mut self.slots {
            slot.pinned = false;
        }
    }

    /// Whether any entry is currently pinned.
    fn has_pinned(&self) -> bool {
        self.slots.iter().any(|s| s.pinned)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, ICell, QueryParams, SystemParams};
    use textjoin_costmodel::Algorithm;
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
        InvertedFile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(page));
        let d1 = SynthSpec::from_stats(CollectionStats::new(n1, k, vocab), 31).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(n2, k, vocab), 32).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        (disk, c1, c2, inv, d1, d2)
    }

    #[test]
    fn matches_reference_on_small_collections() {
        let (_, c1, c2, inv, d1, d2) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.result, want);
        assert_eq!(got.stats.algorithm, Algorithm::Hvnl);
        assert_eq!(got.stats.passes, 1);
    }

    #[test]
    fn tight_cache_still_correct_with_more_fetches() {
        let (_, c1, c2, inv, d1, d2) = fixture(25, 25, 12.0, 60, 128);
        let roomy = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 400,
                page_size: 128,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let tight = roomy.with_sys(SystemParams {
            buffer_pages: 10,
            page_size: 128,
            alpha: 5.0,
        });
        let got_roomy = execute(&roomy, &inv).unwrap();
        let got_tight = execute(&tight, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got_roomy.result, want);
        assert_eq!(got_tight.result, want);
        assert!(
            got_tight.stats.entry_fetches > got_roomy.stats.entry_fetches,
            "tight cache must re-fetch more: {} vs {}",
            got_tight.stats.entry_fetches,
            got_roomy.stats.entry_fetches
        );
        assert!(got_tight.stats.mem_high_water_bytes <= tight.sys.buffer_bytes());
    }

    /// A compressing codec stores fewer bytes than the cells HVNL then
    /// holds. With `B·P` between the two totals the preload must be judged
    /// by what it will allocate and skipped — not started on the stored
    /// size and abandoned with `InsufficientMemory`.
    #[test]
    fn varint_file_is_sized_by_its_decoded_cells() {
        let (disk, c1, c2, _, d1, d2) = fixture(200, 40, 30.0, 60, 128);
        let codec = textjoin_invfile::PostingCodec::VarintGap;
        let inv = InvertedFile::build_with(Arc::clone(&disk), "c1v", &c1, codec).unwrap();
        let decoded: u64 = d1.iter().map(Document::size_bytes).sum();
        assert!(inv.total_bytes() * 2 < decoded, "the fixture must compress");
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        for mid in [1, 2, 3] {
            let between = inv.total_bytes() + (decoded - inv.total_bytes()) * mid / 4;
            let spec = JoinSpec::new(&c1, &c2)
                .with_sys(SystemParams {
                    buffer_pages: between / 128,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(5));
            let got = execute(&spec, &inv).unwrap();
            assert_eq!(got.result, want, "B = {}", spec.sys.buffer_pages);
            assert!(got.stats.mem_high_water_bytes <= spec.sys.buffer_bytes());
        }
    }

    /// A step charges after its adds, and a refused charge still ends the
    /// run with the error that counting first ended it with: the same
    /// request against the same room, pinned from the two-walk step.
    #[test]
    fn a_refused_step_ends_the_run_with_the_parents_error() {
        let (_, c1, c2, inv, _, _) = fixture(60, 10, 30.0, 40, 128);
        for (buffer_pages, required_pages) in [(8, 10), (11, 13)] {
            let sys = SystemParams {
                buffer_pages,
                page_size: 128,
                alpha: 5.0,
            };
            let spec = JoinSpec::new(&c1, &c2).with_sys(sys);
            let refused = textjoin_common::Error::InsufficientMemory {
                context: "HVNL similarity accumulators".into(),
                required_pages,
                available_pages: buffer_pages,
            };
            assert_eq!(execute(&spec, &inv).err(), Some(refused));
        }
    }

    #[test]
    fn large_cache_fetches_each_needed_entry_once() {
        let (_, c1, c2, inv, _, _) = fixture(30, 20, 10.0, 80, 256);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 10_000,
            page_size: 256,
            alpha: 5.0,
        });
        let got = execute(&spec, &inv).unwrap();
        // With unbounded cache every entry is read at most once.
        assert!(got.stats.entry_fetches <= inv.num_entries());
        assert!(got.stats.cache_hits > 0);
    }

    #[test]
    fn io_includes_btree_and_entry_fetches() {
        let (disk, c1, c2, inv, _, _) = fixture(20, 10, 8.0, 50, 128);
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 2_000,
            page_size: 128,
            alpha: 5.0,
        });
        disk.reset_stats();
        disk.reset_head();
        let got = execute(&spec, &inv).unwrap();
        let bt = inv.btree().num_pages();
        let d2 = c2.store().num_pages();
        // At least Bt + D2 + one page per fetch; at most that plus slack
        // for multi-page entries.
        let floor = bt + d2 + got.stats.entry_fetches;
        assert!(got.stats.io.total_reads() >= floor);
    }

    #[test]
    fn selected_outer_docs_match_reference() {
        let (_, c1, c2, inv, d1, d2) = fixture(20, 30, 10.0, 80, 256);
        let chosen = [DocId::new(1), DocId::new(15), DocId::new(22)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &inv).unwrap();
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
    fn greedy_order_and_lru_produce_identical_results() {
        let (_, c1, c2, inv, d1, d2) = fixture(25, 15, 10.0, 60, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 300,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        for options in [
            HvnlOptions {
                eviction: EvictionPolicy::Lru,
                order: OuterOrder::Storage,
            },
            HvnlOptions {
                eviction: EvictionPolicy::LowestOuterDf,
                order: OuterOrder::GreedyIntersection,
            },
        ] {
            let got = execute_with(&spec, &inv, options).unwrap();
            assert_eq!(got.result, want, "{options:?}");
        }
    }

    #[test]
    fn tfidf_weighting_matches_reference_approximately() {
        let (_, c1, c2, inv, d1, d2) = fixture(15, 10, 8.0, 40, 256);
        let spec = JoinSpec::new(&c1, &c2)
            .with_weighting(crate::Weighting::TfIdf)
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::TfIdf);
        assert!(got.result.approx_eq(&want, 1e-9));
    }

    #[test]
    fn eviction_cache_prefers_high_outer_df() {
        let mut cache = EntryCache::new(EvictionPolicy::LowestOuterDf, 4);
        let cells = vec![ICell::new(DocId::new(0), 1)];
        cache.insert(1, cells.clone(), 8, 100); // frequent in C2
        cache.insert(2, cells.clone(), 8, 1); // rare in C2
        cache.insert(3, cells, 8, 50);
        assert_eq!(cache.len(), 3);
        cache.evict_one();
        assert!(!cache.contains(2), "rare term evicted first");
        cache.evict_one();
        assert!(!cache.contains(3));
        assert!(cache.contains(1));
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache = EntryCache::new(EvictionPolicy::Lru, 3);
        let cells = vec![ICell::new(DocId::new(0), 1)];
        cache.insert(1, cells.clone(), 8, 0);
        cache.insert(2, cells.clone(), 8, 0);
        let _ = cache.get(1); // refresh ordinal 1
        cache.evict_one();
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
    }

    /// Regression: entries whose terms tie on document frequency must
    /// evict in ascending ordinal (= term) order, whatever order they were
    /// inserted in — `evict_one` is reproducible across runs and executors.
    #[test]
    fn equal_df_ties_evict_in_ascending_term_order() {
        let cells = vec![ICell::new(DocId::new(0), 1)];
        let mut forward = EntryCache::new(EvictionPolicy::LowestOuterDf, 28);
        let mut reverse = EntryCache::new(EvictionPolicy::LowestOuterDf, 28);
        let ordinals = [9u32, 3, 27, 14, 5];
        for &o in &ordinals {
            forward.insert(o, cells.clone(), 8, 7);
        }
        for &o in ordinals.iter().rev() {
            reverse.insert(o, cells.clone(), 8, 7);
        }
        let drain = |mut c: EntryCache| {
            let mut order = Vec::new();
            while c.evict_one().is_some() {
                let survivors: Vec<u32> = ordinals
                    .iter()
                    .copied()
                    .filter(|&o| c.contains(o))
                    .collect();
                order.push(survivors);
            }
            order
        };
        let f = drain(forward);
        assert_eq!(f, drain(reverse), "order depends on insertion");
        // Ascending ordinal order: 3 goes first, 27 survives longest.
        assert!(!f[0].contains(&3), "lowest ordinal evicts first");
        assert_eq!(f[3], vec![27], "highest ordinal evicts last");
    }

    /// Evictions are keyed by the caller-supplied demand — for a batch the
    /// aggregate over its queries, not one query's df — and higher demand
    /// survives longer.
    #[test]
    fn eviction_orders_by_aggregate_demand() {
        let mut cache = EntryCache::new(EvictionPolicy::LowestOuterDf, 3);
        let cells = vec![ICell::new(DocId::new(0), 1)];
        // Ordinal 1 is rare per query but demanded by many queries;
        // ordinal 2 is frequent in one query and zero-weighted in the rest.
        cache.insert(1, cells.clone(), 8, 4 * 3);
        cache.insert(2, cells.clone(), 8, 9);
        cache.evict_one();
        assert!(cache.contains(1), "aggregate demand wins");
        assert!(!cache.contains(2));
    }

    /// The fetch ladder on `tight_cache_still_correct_with_more_fetches`'
    /// collections, recorded before the cache was keyed by ordinal: a
    /// rewrite of the lookup path must fetch, hit and read exactly this.
    /// Rows: buffer pages, whether the outer side is the even documents
    /// only, policy, order → entry fetches, cache hits, (seq, rand) reads.
    #[test]
    fn fetch_ladder_is_unchanged() {
        use EvictionPolicy::{LowestOuterDf as Df, Lru};
        use OuterOrder::{GreedyIntersection as Greedy, Storage};
        let (_, c1, c2, inv, _, _) = fixture(25, 25, 12.0, 60, 128);
        let evens: Vec<DocId> = (0..25).step_by(2).map(DocId::new).collect();
        let spec = |buffer_pages, half: bool| {
            let spec = JoinSpec::new(&c1, &c2)
                .with_sys(SystemParams {
                    buffer_pages,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(4));
            match half {
                true => spec.with_outer_docs(OuterDocs::Selected(&evens)),
                false => spec,
            }
        };
        let observed = |stats: &crate::ExecStats| {
            let io = (stats.io.seq_reads, stats.io.rand_reads);
            (stats.entry_fetches, stats.cache_hits, io)
        };
        let ladder = [
            (10, false, Df, Storage, (192, 89, (89, 166))),
            (10, false, Lru, Storage, (199, 82, (91, 176))),
            (10, true, Df, Storage, (105, 43, (42, 112))),
            (10, true, Lru, Storage, (104, 44, (53, 103))),
            (14, false, Df, Storage, (95, 186, (46, 84))),
            (14, false, Lru, Storage, (98, 183, (50, 85))),
            (14, true, Df, Greedy, (118, 30, (44, 132))),
            (14, true, Lru, Greedy, (120, 28, (40, 141))),
            (18, false, Df, Storage, (3, 278, (26, 7))),
            (18, false, Lru, Storage, (18, 263, (30, 22))),
            (30, false, Df, Greedy, (0, 281, (26, 3))),
            (30, false, Lru, Greedy, (5, 276, (27, 7))),
        ];
        for (b, half, eviction, order, want) in ladder {
            let options = HvnlOptions { eviction, order };
            let got = execute_with(&spec(b, half), &inv, options).unwrap();
            assert_eq!(
                observed(&got.stats),
                want,
                "B = {b}, half = {half}, {options:?}"
            );
        }
        // A batch of three whose TF-IDF members zero the terms in every
        // inner document, so the eviction keys are aggregate demands.
        for (b, want) in [
            (10, (400, 310, (150, 364))),
            (14, (155, 555, (61, 139))),
            (18, (3, 707, (26, 7))),
        ] {
            let tfidf = spec(b, false).with_weighting(crate::Weighting::TfIdf);
            let specs = [
                spec(b, false),
                tfidf.with_query(QueryParams::paper_base().with_lambda(3)),
                tfidf.with_outer_docs(OuterDocs::Selected(&evens)),
            ];
            let got = crate::batch::execute_hvnl(&specs, &inv, HvnlOptions::default()).unwrap();
            assert_eq!(observed(&got.stats), want, "batch, B = {b}");
        }
    }

    /// The cache as it was before pins became flags, kept as the oracle:
    /// a pinned key is withdrawn from the eviction order and restored when
    /// the pin is released.
    struct Withdrawing {
        policy: EvictionPolicy,
        /// Ordinal → (key, pinned).
        slots: std::collections::BTreeMap<u32, ((u64, u32), bool)>,
        order: BTreeSet<(u64, u32)>,
        tick: u64,
    }

    impl Withdrawing {
        fn get(&mut self, ordinal: u32) {
            self.tick += 1;
            let Some((key, pinned)) = self.slots.get_mut(&ordinal) else {
                return;
            };
            if self.policy == EvictionPolicy::Lru {
                if !*pinned {
                    self.order.remove(key);
                }
                *key = (self.tick, ordinal);
                if !*pinned {
                    self.order.insert(*key);
                }
            }
        }

        fn insert(&mut self, ordinal: u32, df: u64) {
            self.tick += 1;
            let key = match self.policy {
                EvictionPolicy::LowestOuterDf => (df, ordinal),
                EvictionPolicy::Lru => (self.tick, ordinal),
            };
            self.order.insert(key);
            self.slots.insert(ordinal, (key, false));
        }

        fn evict_one(&mut self) -> Option<u32> {
            let (_, ordinal) = self.order.pop_first()?;
            self.slots.remove(&ordinal);
            Some(ordinal)
        }

        fn pin(&mut self, ordinal: u32, pin: bool) {
            if let Some((key, pinned)) = self.slots.get_mut(&ordinal).filter(|s| s.1 != pin) {
                *pinned = pin;
                match pin {
                    true => self.order.remove(key),
                    false => self.order.insert(*key),
                };
            }
        }

        fn unpin_all(&mut self) {
            for (key, pinned) in self.slots.values_mut().filter(|s| s.1) {
                *pinned = false;
                self.order.insert(*key);
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Accounting invariant: every inverted-entry lookup is either a
        /// disk fetch or a cache hit — `entry_fetches + cache_hits` equals
        /// the number of (outer document, term-known-to-C1) pairs, under
        /// any memory budget (raw-count weighting, where no term factor
        /// vanishes).
        #[test]
        fn fetches_plus_hits_account_for_every_lookup(
            n1 in 5u64..30,
            n2 in 5u64..20,
            vocab in 20u64..80,
            buffer_pages in 8u64..400,
            lambda in 1usize..6
        ) {
            let (_, c1, c2, inv, _, d2) = fixture(n1, n2, 10.0, vocab, 128);
            let spec = JoinSpec::new(&c1, &c2)
                .with_sys(SystemParams {
                    buffer_pages,
                    page_size: 128,
                    alpha: 5.0,
                })
                .with_query(QueryParams::paper_base().with_lambda(lambda));
            let got = match execute(&spec, &inv) {
                Ok(got) => got,
                // A budget too small for the mandatory structures is a
                // legitimate outcome, not an accounting violation.
                Err(textjoin_common::Error::InsufficientMemory { .. }) => return Ok(()),
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(e.to_string())),
            };
            let dict = inv.btree().load_leaves().unwrap();
            let lookups: u64 = d2
                .iter()
                .map(|doc| {
                    doc.cells()
                        .iter()
                        .filter(|c| dict.lookup(c.term).is_some())
                        .count() as u64
                })
                .sum();
            prop_assert_eq!(got.stats.entry_fetches + got.stats.cache_hits, lookups);
        }

        /// The lowest-outer-df eviction policy never evicts a pinned
        /// entry: after draining `evict_one`, exactly the pinned entries
        /// survive, and unpinning makes them evictable again.
        #[test]
        fn pinned_entries_are_never_evicted(
            dfs in prop::collection::vec(0u32..50, 1..20),
            pin_bits in prop::collection::vec(prop::bool::ANY, 20)
        ) {
            let mut cache = EntryCache::new(EvictionPolicy::LowestOuterDf, dfs.len());
            let cells = vec![ICell::new(DocId::new(0), 1)];
            for (i, &df) in dfs.iter().enumerate() {
                cache.insert(i as u32, cells.clone(), 8, u64::from(df));
            }
            let pinned: Vec<u32> = (0..dfs.len() as u32)
                .filter(|&i| pin_bits[i as usize])
                .collect();
            for &o in &pinned {
                cache.pin(o, true);
            }
            while cache.evict_one().is_some() {}
            for i in 0..dfs.len() as u32 {
                prop_assert_eq!(
                    cache.contains(i),
                    pinned.contains(&i),
                    "ordinal {} pinned={}",
                    i,
                    pinned.contains(&i)
                );
            }
            prop_assert_eq!(cache.has_pinned(), !pinned.is_empty());
            // Unpinning restores evictability; the cache drains fully.
            cache.unpin_all();
            prop_assert_eq!(cache.len(), pinned.len());
            while cache.evict_one().is_some() {}
            prop_assert_eq!(cache.len(), 0);
        }

        /// Random inserts, gets, pins, unpins, `unpin_all`s and evictions
        /// evict exactly what the withdrawing oracle evicts, under both
        /// policies: a pin flag skipped by `evict_one` chooses the parent's
        /// victim. An op is `(kind, ordinal, df)`.
        #[test]
        fn flag_pins_evict_what_withdrawn_keys_evict(
            lru in prop::bool::ANY,
            ops in prop::collection::vec((0u8..6, 0u32..12, 0u64..5), 1..120)
        ) {
            let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::LowestOuterDf };
            let mut cache = EntryCache::new(policy, 12);
            let mut oracle = Withdrawing {
                policy,
                slots: Default::default(),
                order: BTreeSet::new(),
                tick: 0,
            };
            let cells = vec![ICell::new(DocId::new(0), 1)];
            for (kind, o, df) in ops {
                match kind {
                    0 if !cache.contains(o) => {
                        // The bytes name the ordinal, so an eviction says which.
                        cache.insert(o, cells.clone(), u64::from(o) + 1, df);
                        oracle.insert(o, df);
                    }
                    0 | 1 => {
                        prop_assert_eq!(cache.get(o).is_some(), oracle.slots.contains_key(&o));
                        oracle.get(o);
                    }
                    2 | 3 => {
                        cache.pin(o, kind == 2);
                        oracle.pin(o, kind == 2);
                    }
                    4 => {
                        cache.unpin_all();
                        oracle.unpin_all();
                    }
                    _ => {
                        let evicted = cache.evict_one().map(|bytes| bytes as u32 - 1);
                        prop_assert_eq!(evicted, oracle.evict_one());
                    }
                }
                prop_assert_eq!(cache.len(), oracle.slots.len());
                prop_assert_eq!(cache.has_pinned(), oracle.slots.values().any(|s| s.1));
                for o in 0..12 {
                    prop_assert_eq!(cache.contains(o), oracle.slots.contains_key(&o));
                }
            }
            // Once every pin is released both drain in the same order.
            cache.unpin_all();
            oracle.unpin_all();
            while let Some(o) = oracle.evict_one() {
                prop_assert_eq!(cache.evict_one(), Some(u64::from(o) + 1));
            }
            prop_assert_eq!(cache.evict_one(), None);
        }
    }
}
