//! Base+delta overlays for incrementally-updated collections.
//!
//! The paper's storage model (section 3) is bulk-loaded and immutable:
//! documents packed in consecutive storage locations, inverted-file entries
//! packed in term order. An updatable collection keeps that base immutable
//! and accumulates changes in a [`DeltaOverlay`]:
//!
//! * **inserts** land in an in-memory *tail* of documents, inverted once
//!   when its entries are first read, and are periodically flushed to
//!   packed *side files* — a sparse-id [`DocumentStore`] and a small
//!   [`InvertedFile`] holding only the inserted documents;
//! * **deletes** are a tombstone set of document numbers masking both base
//!   and delta at read time — no page of the base is ever rewritten.
//!
//! Document numbers are never reused and grow monotonically, so for any
//! term the concatenation *base entry ++ flushed entry ++ tail entry* is
//! already in ascending document order — [`DeltaScan`] merges the three
//! layers without sorting. A background merge (the `textjoin-live` crate)
//! folds the overlay back into a pristine base; until then the overlay's
//! extra pages and tombstones are the *fragmentation* the cost model
//! charges for.

use crate::file::{postings_of, EntryScanner, InvertedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use textjoin_collection::{Document, DocumentStore};
use textjoin_common::{DocId, FragStats, ICell, Result, TermId};
use textjoin_storage::PrefetchMetrics;

/// The flushed (on-disk) part of a delta: side files holding previously
/// tailed inserts, read through the simulated disk like any base file.
pub struct FlushedDelta {
    /// Sparse-id store of the flushed inserted documents.
    pub store: DocumentStore,
    /// Inverted file over exactly those documents.
    pub inv: InvertedFile,
}

/// Pending mutations over an immutable base: flushed side files, an
/// in-memory tail of documents (inverted by the first read of its entries,
/// kept until the tail changes), and a tombstone set. Each insert's norm is
/// recorded and outlives flushes, so cosine and TF-IDF divide by it with no
/// page read; `idf` stays the base's until a merge, as the paper stores it
/// with the base's list heads.
#[derive(Default)]
pub struct DeltaOverlay {
    deleted: BTreeSet<u32>,
    flushed: Option<FlushedDelta>,
    tail_docs: BTreeMap<u32, Document>,
    /// The tail inverted, in term order, each entry in document order.
    tail_entries: OnceLock<Vec<(TermId, Vec<ICell>)>>,
    norms: BTreeMap<u32, f64>,
}

impl DeltaOverlay {
    /// An empty overlay (a pristine collection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the overlay holds no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty() && self.flushed.is_none() && self.tail_docs.is_empty()
    }

    /// Records an insert in the tail: its document and norm, nothing per
    /// term. `id` must exceed every document number already present (base,
    /// flushed or tail) — the caller hands out increasing numbers.
    pub fn insert_tail(&mut self, id: DocId, doc: Document) {
        debug_assert!(
            self.tail_docs
                .last_key_value()
                .is_none_or(|(&k, _)| k < id.raw()),
            "tail ids must ascend"
        );
        self.tail_entries.take();
        self.norms.insert(id.raw(), doc.norm());
        self.tail_docs.insert(id.raw(), doc);
    }

    /// The tail's entries in term order, inverted on first call.
    fn tail_entries(&self) -> &[(TermId, Vec<ICell>)] {
        self.tail_entries.get_or_init(|| {
            let docs = self
                .tail_docs
                .iter()
                .map(|(&id, d)| Ok((DocId::new(id), d)));
            let postings = postings_of(docs).expect("in-memory documents invert without error");
            let mut entries: Vec<_> = postings.into_iter().collect();
            entries.sort_unstable_by_key(|&(term, _)| term);
            entries
        })
    }

    /// The norm of inserted document `id`, recorded by
    /// [`insert_tail`](Self::insert_tail) (no I/O); `None` for an id never
    /// inserted here.
    pub fn norm(&self, id: DocId) -> Option<f64> {
        self.norms.get(&id.raw()).copied()
    }

    /// Records a delete: a tombstone masking `id` in every layer.
    pub fn delete(&mut self, id: DocId) {
        self.deleted.insert(id.raw());
    }

    /// Whether `id` is tombstoned.
    pub fn is_deleted(&self, id: DocId) -> bool {
        self.deleted.contains(&id.raw())
    }

    /// The tombstone set (document numbers).
    pub fn deleted_ids(&self) -> &BTreeSet<u32> {
        &self.deleted
    }

    /// Installs the flushed side files (replacing any previous ones) and
    /// clears the tail they absorbed; the recorded norms stay.
    pub fn set_flushed(&mut self, flushed: FlushedDelta) {
        self.flushed = Some(flushed);
        self.tail_docs.clear();
        self.tail_entries.take();
    }

    /// The flushed side files, if any.
    pub fn flushed(&self) -> Option<&FlushedDelta> {
        self.flushed.as_ref()
    }

    /// The in-memory tail, in ascending document order.
    pub fn tail_docs(&self) -> &BTreeMap<u32, Document> {
        &self.tail_docs
    }

    /// Number of insertions held (flushed + tail), including ones later
    /// tombstoned.
    pub fn num_insertions(&self) -> u64 {
        let flushed = self.flushed.as_ref().map_or(0, |f| f.store.num_docs());
        flushed + self.tail_docs.len() as u64
    }

    /// Pages of the flushed document side file (a fragmentation input —
    /// the tail is memory-resident and free).
    pub fn doc_pages(&self) -> u64 {
        self.flushed.as_ref().map_or(0, |f| f.store.num_pages())
    }

    /// Pages of the flushed inverted side file (a fragmentation input).
    pub fn inv_pages(&self) -> u64 {
        self.flushed.as_ref().map_or(0, |f| f.inv.num_pages())
    }

    /// Fragmentation statistics for the cost model: the flushed side-file
    /// pages every scan must pay for, and the tombstoned fraction of all
    /// stored documents (`base_docs` plus insertions). The in-memory tail
    /// costs no I/O and so contributes no pages.
    pub fn frag_stats(&self, base_docs: u64) -> FragStats {
        let stored = base_docs + self.num_insertions();
        FragStats {
            doc_delta_pages: self.doc_pages(),
            inv_delta_pages: self.inv_pages(),
            tombstone_ratio: if stored == 0 {
                0.0
            } else {
                self.deleted.len() as f64 / stored as f64
            },
        }
    }

    /// The live (non-tombstoned) inserted documents, ascending by id, one
    /// at a time: a sequential scan of the flushed side file, then the
    /// tail. Nothing is read before the first pull.
    pub fn stream_live_docs(&self) -> impl Iterator<Item = Result<(DocId, Document)>> + '_ {
        let flushed = self
            .flushed
            .iter()
            .flat_map(|f| f.store.scan())
            .filter(|item| !matches!(item, Ok((id, _)) if self.is_deleted(*id)));
        let tail = self
            .tail_docs
            .iter()
            .filter(|(id, _)| !self.deleted.contains(id))
            .map(|(&id, doc)| Ok((DocId::new(id), doc.clone())));
        flushed.chain(tail)
    }

    /// [`stream_live_docs`](Self::stream_live_docs), materialised.
    pub fn live_docs(&self) -> Result<Vec<(DocId, Document)>> {
        self.stream_live_docs().collect()
    }

    /// Size in bytes of the largest live inserted document (no I/O): what a
    /// one-document slot must hold for
    /// [`stream_live_docs`](Self::stream_live_docs) to pass through it.
    pub fn max_live_doc_bytes(&self) -> u64 {
        let flushed = self.flushed.iter().flat_map(|f| {
            let live = f
                .store
                .doc_ids()
                .into_iter()
                .filter(|&d| !self.is_deleted(d));
            live.map(|d| f.store.span(d).len)
        });
        let tail = self
            .tail_docs
            .iter()
            .filter(|(id, _)| !self.deleted.contains(id))
            .map(|(_, doc)| doc.size_bytes());
        flushed.chain(tail).max().unwrap_or(0)
    }

    /// A base document scan seen through the overlay: tombstoned documents
    /// drop out (errors pass through), then the live inserted documents
    /// follow, read on pull as [`stream_live_docs`](Self::stream_live_docs)
    /// does.
    pub fn docs_over<'a>(
        &'a self,
        base: impl Iterator<Item = Result<(DocId, Document)>> + 'a,
    ) -> impl Iterator<Item = Result<(DocId, Document)>> + 'a {
        let base = base.filter(|item| !matches!(item, Ok((id, _)) if self.is_deleted(*id)));
        base.chain(self.stream_live_docs())
    }

    /// Every live document number of `base` seen through the overlay,
    /// ascending (no I/O): the base's ids minus tombstones, then
    /// [`live_ids`](Self::live_ids).
    pub fn live_ids_over(&self, base: &DocumentStore) -> Vec<DocId> {
        let mut ids = base.doc_ids();
        ids.retain(|&id| !self.is_deleted(id));
        ids.extend(self.live_ids());
        ids
    }

    /// Whether `id` is a live inserted document (no I/O).
    pub fn holds(&self, id: DocId) -> bool {
        let inserted = self.tail_docs.contains_key(&id.raw())
            || self.flushed.as_ref().is_some_and(|f| f.store.contains(id));
        inserted && !self.is_deleted(id)
    }

    /// Live inserted document numbers, ascending (no I/O).
    pub fn live_ids(&self) -> Vec<DocId> {
        let flushed = self.flushed.iter().flat_map(|f| f.store.doc_ids());
        let tail = self.tail_docs.keys().map(|&id| DocId::new(id));
        flushed
            .chain(tail)
            .filter(|&id| !self.is_deleted(id))
            .collect()
    }

    /// Fetches one inserted document, or `None` if the overlay does not
    /// hold it (tombstoned, or never inserted here). Tail documents are
    /// free; flushed ones cost a random fetch of the side file.
    pub fn doc(&self, id: DocId) -> Result<Option<Document>> {
        if self.is_deleted(id) {
            return Ok(None);
        }
        if let Some(doc) = self.tail_docs.get(&id.raw()) {
            return Ok(Some(doc.clone()));
        }
        let flushed = self.flushed.as_ref().filter(|f| f.store.contains(id));
        flushed.map(|f| f.store.read_doc_direct(id)).transpose()
    }

    /// The delta postings of one term: flushed entry (a random fetch of
    /// `⌈J⌉` side-file pages, HVNL's access pattern) followed by the tail's
    /// cells — ascending document order by construction. Tombstoned
    /// documents are *not* filtered here; callers mask them exactly as they
    /// mask the base entry.
    pub fn postings_for(&self, term: TermId) -> Result<Vec<ICell>> {
        let mut cells = Vec::new();
        if let Some(f) = &self.flushed {
            if let Some(ordinal) = f.inv.find_term(term) {
                cells.extend_from_slice(&f.inv.read_entry(ordinal)?);
            }
        }
        let tail = self.tail_entries();
        if let Ok(i) = tail.binary_search_by_key(&term, |(t, _)| *t) {
            cells.extend_from_slice(&tail[i].1);
        }
        Ok(cells)
    }

    /// The delta entries with `lo <= term < hi` (`hi = None` = unbounded),
    /// streamed in ascending term order, flushed and tail cells combined per
    /// term: one sequential partial scan of the flushed side file (the
    /// access pattern of VVM) merged with the tail's entries, a slice of
    /// its one inversion. No page is read before the first pull.
    pub fn scan_between(&self, lo: u32, hi: Option<u32>) -> DeltaScan<'_> {
        let (lo_term, hi_term) = (TermId::new(lo), hi.map(|h| TermId::new(h.max(lo))));
        let flushed = self.flushed.as_ref().map(|f| {
            let start = f.inv.ordinal_at_or_after(lo_term);
            let end = hi_term.map_or(f.inv.num_entries() as u32, |h| f.inv.ordinal_at_or_after(h));
            f.inv.scan_range(start, end)
        });
        let tail = self.tail_entries();
        let at = |term: TermId| tail.partition_point(|(t, _)| *t < term);
        DeltaScan {
            base: None,
            flushed,
            tail: &tail[at(lo_term)..hi_term.map_or(tail.len(), at)],
            upper: Vec::new(),
            held: None,
        }
    }

    /// [`scan_between`](Self::scan_between), collected.
    pub fn entries_between(&self, lo: u32, hi: Option<u32>) -> Result<Vec<(TermId, Vec<ICell>)>> {
        self.scan_between(lo, hi).collect()
    }

    /// `(cells, entries)` of everything [`scan_between(0,
    /// None)`](Self::scan_between) yields, counted from the flushed side
    /// file's directory and the tail's keys — no I/O.
    pub fn entry_totals(&self) -> (u64, u64) {
        let dir = self.flushed.as_ref().map_or(&[][..], |f| f.inv.directory());
        let mut cells: u64 = dir.iter().map(|m| u64::from(m.doc_freq)).sum();
        let mut entries = dir.len() as u64;
        for (term, tail) in self.tail_entries() {
            cells += tail.len() as u64;
            entries += u64::from(dir.binary_search_by_key(term, |m| m.term).is_err());
        }
        (cells, entries)
    }
}

/// The overlay of a pristine collection: what [`DeltaScan::over`] reads
/// above a base that has none.
static PRISTINE: DeltaOverlay = DeltaOverlay {
    deleted: BTreeSet::new(),
    flushed: None,
    tail_docs: BTreeMap::new(),
    tail_entries: OnceLock::new(),
    norms: BTreeMap::new(),
};

/// A lending stream of overlaid entries in ascending term order, over up to
/// three layers: a base file ([`DeltaScan::over`]), the flushed side file
/// and the in-memory tail ([`DeltaOverlay::scan_between`]). A term in
/// several layers reads *base cells ++ flushed cells ++ tail cells*, which
/// is ascending document order by the id-allocation invariant; tombstones
/// are not masked here. An unreadable entry of either file is one error
/// and the stream goes on: the other layers' cells of that term follow as
/// an entry of their own.
pub struct DeltaScan<'a> {
    base: Option<EntryScanner<'a>>,
    flushed: Option<EntryScanner<'a>>,
    tail: &'a [(TermId, Vec<ICell>)],
    /// The upper layers' cells of a term the base also holds, read before
    /// the base's entry; `held` keeps them for the next call when that
    /// read fails.
    upper: Vec<ICell>,
    held: Option<TermId>,
}

impl<'a> DeltaScan<'a> {
    /// `base`'s entries with `lo <= term < hi` (`hi = None`: no bound), one
    /// partial scan counting its readahead into `metrics`, merged with the
    /// overlay's [`scan_between(lo, hi)`](DeltaOverlay::scan_between);
    /// `(0, None)` is the whole file; without an overlay the base passes.
    pub fn over(
        base: &'a InvertedFile,
        lo: u32,
        hi: Option<u32>,
        overlay: Option<&'a DeltaOverlay>,
        metrics: Option<PrefetchMetrics>,
    ) -> Self {
        let mut scan = overlay.unwrap_or(&PRISTINE).scan_between(lo, hi);
        let at = |term: u32| base.ordinal_at_or_after(TermId::new(term));
        let end = hi.map_or(base.num_entries() as u32, |h| at(h.max(lo)));
        scan.base = Some(base.scan_range_with_prefetch(at(lo), end, metrics));
        scan
    }

    /// The term of the entry the next call reads or skips, from the
    /// directories and the tail (no I/O); `None` at the end. An error that
    /// call returns is an error of this term.
    pub fn peek_term(&self) -> Option<TermId> {
        self.held
            .or_else(|| self.heads().into_iter().flatten().min())
    }

    /// The next term of each layer: base, flushed, tail.
    fn heads(&self) -> [Option<TermId>; 3] {
        [
            self.base.as_ref().and_then(EntryScanner::peek_term),
            self.flushed.as_ref().and_then(EntryScanner::peek_term),
            self.tail.first().map(|&(t, _)| t),
        ]
    }

    /// Reads the next merged entry into `cells` (replacing what it held,
    /// keeping its capacity) and returns its term; `None` at the end.
    pub fn next_into(&mut self, cells: &mut Vec<ICell>) -> Option<Result<TermId>> {
        self.advance(Some(cells))
    }

    /// Steps past the next merged entry without decoding it and returns its
    /// term; `None` at the end. It reads the pages
    /// [`next_into`](Self::next_into) would and fails where it would. When
    /// the base's entry of a term fails, the next call yields the term's
    /// upper layers; after a `step_past` that call must be a `step_past` too, as
    /// their cells were not read.
    pub fn step_past(&mut self) -> Option<Result<TermId>> {
        self.advance(None)
    }

    /// One merged entry: decoded into `cells` when given, stepped past
    /// otherwise.
    fn advance(&mut self, mut cells: Option<&mut Vec<ICell>>) -> Option<Result<TermId>> {
        let read = |scan: &mut EntryScanner, cells: Option<&mut Vec<ICell>>| match cells {
            Some(cells) => scan.next_into(cells),
            None => scan.step_past(),
        };
        if let Some(term) = self.held.take() {
            if let Some(cells) = cells {
                std::mem::swap(cells, &mut self.upper);
            }
            return Some(Ok(term));
        }
        if self.flushed.is_none() && self.tail.is_empty() {
            // Nothing above the base: its entries pass through.
            return read(self.base.as_mut()?, cells);
        }
        let heads = self.heads();
        let term = heads.into_iter().flatten().min()?;
        let [in_base, in_flushed, in_tail] = heads.map(|t| t == Some(term));
        // The upper layers first: straight into `cells` unless the base's
        // entry goes before them.
        let mut upper = (cells.as_deref_mut()).map(|cells| match in_base {
            true => &mut self.upper,
            false => cells,
        });
        if let Some(upper) = upper.as_deref_mut() {
            upper.clear();
        }
        if in_flushed {
            if let Err(e) = read(self.flushed.as_mut()?, upper.as_deref_mut())? {
                return Some(Err(e));
            }
        }
        if in_tail {
            let ((_, tail), rest) = self.tail.split_first()?;
            if let Some(upper) = upper {
                upper.extend_from_slice(tail);
            }
            self.tail = rest;
        }
        if in_base {
            if let Err(e) = read(self.base.as_mut()?, cells.as_deref_mut())? {
                self.held = (in_flushed || in_tail).then_some(term);
                return Some(Err(e));
            }
            if let Some(cells) = cells {
                cells.extend_from_slice(&self.upper);
            }
        }
        Some(Ok(term))
    }
}

impl Iterator for DeltaScan<'_> {
    type Item = Result<(TermId, Vec<ICell>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut cells = Vec::new();
        let term = self.next_into(&mut cells)?;
        Some(term.map(|term| (term, cells)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use textjoin_collection::DocumentStoreBuilder;
    use textjoin_storage::DiskSim;

    fn doc(terms: &[(u32, u16)]) -> Document {
        Document::from_term_counts(terms.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    /// An inverted file over `docs`, named `name`.
    fn inverted(disk: &Arc<DiskSim>, name: &str, docs: &[(u32, Document)]) -> InvertedFile {
        let docs = docs.iter().map(|(id, d)| Ok((DocId::new(*id), d)));
        let (postings, codec) = (postings_of(docs).unwrap(), crate::PostingCodec::Fixed5);
        InvertedFile::from_postings_with(Arc::clone(disk), name, postings, codec).unwrap()
    }

    fn flush(disk: &Arc<DiskSim>, name: &str, docs: &[(u32, Document)]) -> FlushedDelta {
        let mut b = DocumentStoreBuilder::new(Arc::clone(disk), &format!("{name}.docs")).unwrap();
        for (id, d) in docs {
            b.add_with_id(DocId::new(*id), d).unwrap();
        }
        let store = b.finish().unwrap();
        FlushedDelta {
            store,
            inv: inverted(disk, name, docs),
        }
    }

    /// Everything a stream yields, `None` for an error.
    type Drained = Vec<Option<(TermId, Vec<ICell>)>>;

    fn drain(mut scan: DeltaScan<'_>) -> Drained {
        let (mut cells, mut got) = (Vec::new(), Vec::new());
        while let Some(term) = scan.next_into(&mut cells) {
            got.push(term.ok().map(|term| (term, cells.clone())));
        }
        assert!(scan.next_into(&mut cells).is_none());
        got
    }

    /// Everything a stream yields when it steps past the entries of the
    /// terms `skip` picks: per entry its term and its cells (none for a
    /// skipped one), `None` for an error. Each returned term is the one
    /// `peek_term` showed before the call.
    #[allow(clippy::type_complexity)]
    fn drain_skipping(
        mut scan: DeltaScan<'_>,
        skip: impl Fn(TermId) -> bool,
    ) -> Vec<Option<(TermId, Option<Vec<ICell>>)>> {
        let (mut cells, mut got) = (Vec::new(), Vec::new());
        while let Some(term) = scan.peek_term() {
            let item = match skip(term) {
                true => scan.step_past().map(|r| r.map(|t| (t, None))),
                false => (scan.next_into(&mut cells)).map(|r| r.map(|t| (t, Some(cells.clone())))),
            };
            let item = item.expect("a peeked entry is there").ok();
            assert!(item.as_ref().is_none_or(|(t, _)| *t == term));
            got.push(item);
        }
        assert!(scan.step_past().is_none() && scan.next_into(&mut cells).is_none());
        got
    }

    /// The whole of `base` seen through `overlay`.
    fn whole<'a>(base: &'a InvertedFile, overlay: Option<&'a DeltaOverlay>) -> DeltaScan<'a> {
        DeltaScan::over(base, 0, None, overlay, None)
    }

    /// What [`DeltaScan::over`] must yield over `base` and `overlay`, each
    /// file's readable entries taken from a scan of that file alone: per
    /// term in ascending order, one error for an unreadable flushed entry,
    /// then one for an unreadable base entry, then the readable layers'
    /// cells — base ++ flushed ++ tail — as one entry.
    fn over_oracle(base: &InvertedFile, overlay: &DeltaOverlay) -> Drained {
        let layer = |inv: &InvertedFile| -> BTreeMap<TermId, Option<Vec<ICell>>> {
            let entries = inv.scan().zip(inv.directory());
            entries
                .map(|(item, m)| (m.term, item.ok().map(|(_, c)| c)))
                .collect()
        };
        let base = layer(base);
        let flushed = overlay
            .flushed()
            .map_or_else(BTreeMap::new, |f| layer(&f.inv));
        let tail = tail_map(overlay);
        let terms: BTreeSet<TermId> = base
            .keys()
            .chain(flushed.keys())
            .chain(tail.keys())
            .copied()
            .collect();
        let mut out = Vec::new();
        for term in terms {
            let (b, f) = (base.get(&term), flushed.get(&term));
            out.extend(
                [f, b]
                    .into_iter()
                    .flatten()
                    .filter(|e| e.is_none())
                    .map(|_| None),
            );
            let readable = [b, f].into_iter().flatten().flatten().flatten();
            let cells: Vec<ICell> = readable
                .chain(tail.get(&term).into_iter().flatten())
                .copied()
                .collect();
            if !cells.is_empty() {
                out.push(Some((term, cells)));
            }
        }
        out
    }

    #[test]
    fn tail_inserts_surface_in_docs_and_postings() {
        let mut overlay = DeltaOverlay::new();
        assert!(overlay.is_empty());
        overlay.insert_tail(DocId::new(10), doc(&[(1, 2), (5, 1)]));
        overlay.insert_tail(DocId::new(11), doc(&[(5, 3)]));
        assert_eq!(overlay.num_insertions(), 2);
        assert_eq!(overlay.live_ids(), vec![DocId::new(10), DocId::new(11)]);
        let p5 = overlay.postings_for(TermId::new(5)).unwrap();
        assert_eq!(
            p5,
            vec![ICell::new(DocId::new(10), 1), ICell::new(DocId::new(11), 3)]
        );
        assert_eq!(overlay.postings_for(TermId::new(9)).unwrap(), vec![]);
        assert_eq!(overlay.doc(DocId::new(11)).unwrap(), Some(doc(&[(5, 3)])));
        assert_eq!(overlay.doc(DocId::new(12)).unwrap(), None);
    }

    #[test]
    fn tombstones_mask_tail_and_lookups() {
        let mut overlay = DeltaOverlay::new();
        overlay.insert_tail(DocId::new(3), doc(&[(1, 1)]));
        overlay.delete(DocId::new(3));
        overlay.delete(DocId::new(0)); // a base doc
        assert!(overlay.is_deleted(DocId::new(0)));
        assert_eq!(overlay.live_ids(), vec![]);
        assert_eq!(overlay.doc(DocId::new(3)).unwrap(), None);
        assert_eq!(overlay.live_docs().unwrap(), vec![]);
        // postings_for does NOT filter — callers mask, same as for base.
        assert_eq!(overlay.postings_for(TermId::new(1)).unwrap().len(), 1);
    }

    #[test]
    fn flushed_and_tail_layers_combine_in_order() {
        let disk = Arc::new(DiskSim::new(64));
        let mut overlay = DeltaOverlay::new();
        overlay.insert_tail(DocId::new(10), doc(&[(1, 2), (2, 1)]));
        overlay.insert_tail(DocId::new(11), doc(&[(2, 4)]));
        // Flush absorbs the tail into side files.
        let f = flush(
            &disk,
            "delta.g1",
            &[(10, doc(&[(1, 2), (2, 1)])), (11, doc(&[(2, 4)]))],
        );
        overlay.set_flushed(f);
        assert!(overlay.tail_docs().is_empty());
        assert!(overlay.doc_pages() > 0);
        assert!(overlay.inv_pages() > 0);
        // New tail entries on top of the flushed layer.
        overlay.insert_tail(DocId::new(12), doc(&[(2, 9), (7, 1)]));

        let p2 = overlay.postings_for(TermId::new(2)).unwrap();
        assert_eq!(
            p2,
            vec![
                ICell::new(DocId::new(10), 1),
                ICell::new(DocId::new(11), 4),
                ICell::new(DocId::new(12), 9)
            ]
        );
        let docs: Vec<DocId> = overlay
            .live_docs()
            .unwrap()
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert_eq!(docs, vec![DocId::new(10), DocId::new(11), DocId::new(12)]);
        assert_eq!(
            overlay.doc(DocId::new(10)).unwrap(),
            Some(doc(&[(1, 2), (2, 1)]))
        );

        let entries = overlay.entries_between(0, None).unwrap();
        let terms: Vec<u32> = entries.iter().map(|(t, _)| t.raw()).collect();
        assert_eq!(terms, vec![1, 2, 7]);
        assert_eq!(overlay.entry_totals(), (5, 3));
        let bounded = overlay.entries_between(2, Some(7)).unwrap();
        assert_eq!(bounded.len(), 1);
        assert_eq!(bounded[0].0, TermId::new(2));
        assert_eq!(bounded[0].1, p2);
    }

    /// The tail as it stands, inverted into a `BTreeMap` document by
    /// document, as an index kept up per insert would hold it.
    fn tail_map(overlay: &DeltaOverlay) -> BTreeMap<TermId, Vec<ICell>> {
        let mut map: BTreeMap<TermId, Vec<ICell>> = BTreeMap::new();
        for (&id, doc) in overlay.tail_docs() {
            for cell in doc.cells() {
                let entry = map.entry(cell.term).or_default();
                entry.push(ICell::new(DocId::new(id), cell.weight));
            }
        }
        map
    }

    /// The parent commit's `entries_between`, kept as the oracle: every
    /// flushed entry of the interval keyed into a `BTreeMap`, the tail's
    /// cells appended per term (`hi < lo` clamped to an empty interval).
    fn oracle(overlay: &DeltaOverlay, lo: u32, hi: Option<u32>) -> Vec<(TermId, Vec<ICell>)> {
        let mut merged: BTreeMap<TermId, Vec<ICell>> = BTreeMap::new();
        if let Some(f) = &overlay.flushed {
            let start = f.inv.ordinal_at_or_after(TermId::new(lo));
            let end = match hi {
                Some(h) => f.inv.ordinal_at_or_after(TermId::new(h)),
                None => f.inv.num_entries() as u32,
            };
            for item in f.inv.scan_range(start, end.max(start)) {
                let (term, cells) = item.unwrap();
                merged.insert(term, cells);
            }
        }
        for (&term, cells) in tail_map(overlay).range(TermId::new(lo)..) {
            if hi.is_some_and(|h| term.raw() >= h) {
                break;
            }
            merged
                .entry(term)
                .or_default()
                .extend(cells.iter().copied());
        }
        merged.into_iter().collect()
    }

    use proptest::prelude::*;

    /// Up to ten documents of up to six terms out of forty.
    fn layer() -> impl Strategy<Value = Vec<BTreeMap<u32, u16>>> {
        prop::collection::vec(prop::collection::btree_map(0u32..40, 1u16..4, 0..6), 0..10)
    }

    fn to_doc(terms: &BTreeMap<u32, u16>) -> Document {
        doc(&terms.iter().map(|(&t, &w)| (t, w)).collect::<Vec<_>>())
    }

    proptest! {
        /// `DeltaScan::over` merges random base, flushed and tail layers
        /// (any of them empty, terms shared between them) into the
        /// collected base with `entries_between(0, None)` appended per
        /// term, and any term interval of it into that merge's entries in
        /// the interval; after random bit flips in the base and flushed
        /// files the whole range yields the oracle's errors and entries,
        /// and with no overlay the base's own. A stream that skips the
        /// entries of random terms yields the same terms and errors from
        /// the same page reads.
        #[test]
        fn over_matches_the_layer_oracle(
            base in layer(),
            flushed in layer(),
            tail in layer(),
            flips in prop::collection::vec((prop::bool::ANY, 0u64..64, 0u64..4096), 0..4),
            lo in 0u32..45,
            hi in 0u32..45,
            bounded: bool,
            skips in 0u64..u64::MAX
        ) {
            let disk = Arc::new(DiskSim::new(32));
            let number = |from: usize, layer: &[BTreeMap<u32, u16>]| -> Vec<(u32, Document)> {
                (from as u32..).zip(layer.iter().map(to_doc)).collect()
            };
            let base_inv = inverted(&disk, "base", &number(0, &base));
            let mut overlay = DeltaOverlay::new();
            if !flushed.is_empty() {
                overlay.set_flushed(flush(&disk, "delta.p", &number(base.len(), &flushed)));
            }
            for (id, d) in number(base.len() + flushed.len(), &tail) {
                overlay.insert_tail(DocId::new(id), d);
            }
            let mut merged: BTreeMap<TermId, Vec<ICell>> =
                base_inv.scan().map(Result::unwrap).collect();
            for (term, cells) in overlay.entries_between(0, None).unwrap() {
                merged.entry(term).or_default().extend(cells);
            }
            let want: Drained = merged.iter().map(|(&t, c)| Some((t, c.clone()))).collect();
            prop_assert_eq!(drain(whole(&base_inv, Some(&overlay))), want);
            let hi = bounded.then_some(hi);
            let inside = |t: &TermId| t.raw() >= lo && hi.is_none_or(|h| t.raw() < h);
            let want: Drained = merged.into_iter().filter(|(t, _)| inside(t)).map(Some).collect();
            let range = DeltaScan::over(&base_inv, lo, hi, Some(&overlay), None);
            prop_assert_eq!(drain(range), want);

            for (in_base, page, bit) in flips {
                let inv = match overlay.flushed() {
                    Some(f) if !in_base => &f.inv,
                    _ => &base_inv,
                };
                if inv.num_pages() > 0 {
                    disk.flip_bit(inv.file(), page % inv.num_pages(), bit).unwrap();
                }
            }
            let skip = |t: TermId| skips >> (t.raw() % 64) & 1 == 1;
            for overlay in [Some(&overlay), None] {
                disk.reset_stats();
                disk.reset_head();
                let got = drain(whole(&base_inv, overlay));
                let read = disk.stats();
                prop_assert_eq!(&got, &over_oracle(&base_inv, overlay.unwrap_or(&PRISTINE)));
                disk.reset_stats();
                disk.reset_head();
                let skipping = drain_skipping(whole(&base_inv, overlay), skip);
                prop_assert_eq!(disk.stats(), read);
                let want: Vec<_> = got
                    .into_iter()
                    .map(|e| e.map(|(t, c)| (t, (!skip(t)).then_some(c))))
                    .collect();
                prop_assert_eq!(skipping, want);
            }
        }

        /// The stream yields the oracle's entries through one reused
        /// buffer, over random flushed and tail layers (either may be
        /// empty, terms shared between them) and any bounds — `hi < lo`,
        /// `hi = None`, `lo` past the last term — and its totals are the
        /// whole-range oracle's.
        #[test]
        fn scan_between_matches_the_map_oracle(
            flushed in layer(),
            tail in layer(),
            lo in 0u32..45,
            hi in 0u32..45,
            bounded: bool
        ) {
            let disk = Arc::new(DiskSim::new(32));
            let mut overlay = DeltaOverlay::new();
            if !flushed.is_empty() {
                let docs: Vec<(u32, Document)> =
                    flushed.iter().enumerate().map(|(i, t)| (i as u32, to_doc(t))).collect();
                overlay.set_flushed(flush(&disk, "delta.p", &docs));
            }
            for (i, terms) in tail.iter().enumerate() {
                overlay.insert_tail(DocId::new((flushed.len() + i) as u32), to_doc(terms));
            }
            let hi = bounded.then_some(hi);
            let want = oracle(&overlay, lo, hi);
            let mut scan = overlay.scan_between(lo, hi);
            let (mut cells, mut got) = (vec![ICell::new(DocId::new(99), 9)], Vec::new());
            while let Some(term) = scan.next_into(&mut cells) {
                got.push((term.unwrap(), cells.clone()));
            }
            prop_assert_eq!(&got, &want);
            prop_assert!(scan.next_into(&mut cells).is_none());
            prop_assert_eq!(overlay.entries_between(lo, hi).unwrap(), want);
            let whole = oracle(&overlay, 0, None);
            let cells_total = whole.iter().map(|(_, c)| c.len() as u64).sum();
            prop_assert_eq!(overlay.entry_totals(), (cells_total, whole.len() as u64));
        }
    }

    /// Every tail read — `postings_for`, `scan_between`, `entry_totals` —
    /// equals the oracles of the tail as it stands.
    fn assert_reads_follow_the_tail(overlay: &DeltaOverlay) {
        let flushed = |term| {
            let f = overlay.flushed();
            let ordinal = f.and_then(|f| Some((f, f.inv.find_term(term)?)));
            ordinal.map_or_else(Vec::new, |(f, o)| f.inv.read_entry(o).unwrap().to_vec())
        };
        let tail = tail_map(overlay);
        for term in (0..12).map(TermId::new) {
            let mut want = flushed(term);
            want.extend(tail.get(&term).into_iter().flatten());
            assert_eq!(overlay.postings_for(term).unwrap(), want, "{term:?}");
        }
        let ranges = [
            (0, None),
            (2, Some(7)),
            (5, Some(3)),
            (7, None),
            (11, Some(12)),
        ];
        for (lo, hi) in ranges {
            let got: Vec<_> = overlay.scan_between(lo, hi).map(Result::unwrap).collect();
            assert_eq!(got, oracle(overlay, lo, hi), "[{lo}, {hi:?})");
        }
        let whole = oracle(overlay, 0, None);
        let cells = whole.iter().map(|(_, c)| c.len() as u64).sum();
        assert_eq!(overlay.entry_totals(), (cells, whole.len() as u64));
    }

    /// The tail's inversion is rebuilt after each insert and each flush:
    /// reads between them see the tail as it stands, not as it was first
    /// read.
    #[test]
    fn the_tail_index_follows_the_tail() {
        let disk = Arc::new(DiskSim::new(64));
        let docs = [
            (10, doc(&[(1, 2), (5, 1)])),
            (11, doc(&[(0, 1), (5, 3), (9, 2)])),
            (12, doc(&[(5, 4), (11, 1)])),
        ];
        let mut overlay = DeltaOverlay::new();
        assert_reads_follow_the_tail(&overlay);
        overlay.insert_tail(DocId::new(10), docs[0].1.clone());
        assert_reads_follow_the_tail(&overlay);
        overlay.insert_tail(DocId::new(11), docs[1].1.clone());
        assert_reads_follow_the_tail(&overlay);
        assert_eq!(overlay.postings_for(TermId::new(5)).unwrap().len(), 2);
        overlay.set_flushed(flush(&disk, "delta.t", &docs[..2]));
        assert_reads_follow_the_tail(&overlay);
        assert_eq!(overlay.entry_totals(), (5, 4));
        overlay.insert_tail(DocId::new(12), docs[2].1.clone());
        assert_reads_follow_the_tail(&overlay);
        assert_eq!(overlay.postings_for(TermId::new(5)).unwrap().len(), 3);
    }

    /// Two readers that both find the tail's inversion missing build it at
    /// once through `&self` and read the same entries.
    #[test]
    fn concurrent_readers_build_one_tail_index() {
        let mut overlay = DeltaOverlay::new();
        for id in 0..40u32 {
            overlay.insert_tail(DocId::new(id), doc(&[(id % 7, 1), (7 + id % 3, 2)]));
        }
        let start = std::sync::Barrier::new(2);
        let read = || {
            start.wait();
            overlay.entries_between(0, None).unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(read), s.spawn(read));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, oracle(&overlay, 0, None));
    }

    /// The base entry of a term that the flushed file and the tail also
    /// hold is unreadable: one error, then the flushed and tail cells of
    /// that term as an entry of their own, then the rest.
    #[test]
    fn an_unreadable_base_entry_leaves_the_flushed_and_tail_cells() {
        let disk = Arc::new(DiskSim::new(64));
        let base = inverted(&disk, "base", &[(0, doc(&[(5, 1)]))]);
        let mut overlay = DeltaOverlay::new();
        overlay.set_flushed(flush(&disk, "delta.f", &[(1, doc(&[(5, 2), (7, 3)]))]));
        overlay.insert_tail(DocId::new(2), doc(&[(5, 4), (9, 5)]));
        disk.flip_bit(base.file(), 0, 3).unwrap();
        let (t, c) = (TermId::new, |id, w| ICell::new(DocId::new(id), w));
        let want = vec![
            None,
            Some((t(5), vec![c(1, 2), c(2, 4)])),
            Some((t(7), vec![c(1, 3)])),
            Some((t(9), vec![c(2, 5)])),
        ];
        assert_eq!(drain(whole(&base, Some(&overlay))), want);
    }

    /// The flushed entry of a term that the base and the tail also hold is
    /// unreadable: one error, then the base and tail cells of that term.
    #[test]
    fn an_unreadable_flushed_entry_leaves_the_base_and_tail_cells() {
        let disk = Arc::new(DiskSim::new(64));
        let base = inverted(&disk, "base", &[(0, doc(&[(3, 1), (5, 2)]))]);
        let mut overlay = DeltaOverlay::new();
        overlay.set_flushed(flush(&disk, "delta.f", &[(1, doc(&[(5, 3)]))]));
        overlay.insert_tail(DocId::new(2), doc(&[(5, 4), (8, 1)]));
        let side = &overlay.flushed().unwrap().inv;
        disk.flip_bit(side.file(), 0, 3).unwrap();
        let (t, c) = (TermId::new, |id, w| ICell::new(DocId::new(id), w));
        let want = vec![
            Some((t(3), vec![c(0, 1)])),
            None,
            Some((t(5), vec![c(0, 2), c(2, 4)])),
            Some((t(8), vec![c(2, 1)])),
        ];
        assert_eq!(drain(whole(&base, Some(&overlay))), want);
    }

    /// An unreadable flushed entry is one error: the stream continues with
    /// the next entry, and a tail term it shared comes through on its own.
    #[test]
    fn an_unreadable_flushed_entry_costs_only_itself() {
        let disk = Arc::new(DiskSim::new(16));
        let docs: Vec<(u32, Document)> = (0..6)
            .map(|i| (i, doc(&[(i % 3, 1), (3 + i % 2, 2)])))
            .collect();
        let mut overlay = DeltaOverlay::new();
        overlay.set_flushed(flush(&disk, "delta.bad", &docs));
        overlay.insert_tail(DocId::new(6), doc(&[(1, 7)]));
        let whole = overlay.entries_between(0, None).unwrap();
        let inv = &overlay.flushed().unwrap().inv;
        let bad_page = inv.meta(1).span.first_page(16);
        disk.flip_bit(inv.file(), bad_page, 3).unwrap();
        let on_bad_page = |m: &&crate::EntryMeta| {
            let (first, n) = m.span.page_range(16);
            (first..first + n).contains(&bad_page)
        };
        let lost: Vec<TermId> = inv
            .directory()
            .iter()
            .filter(on_bad_page)
            .map(|m| m.term)
            .collect();
        assert!(lost.contains(&TermId::new(1)) && lost.len() < inv.directory().len());
        let mut scan = overlay.scan_between(0, None);
        let (mut cells, mut errors, mut got) = (Vec::new(), 0, Vec::new());
        while let Some(term) = scan.next_into(&mut cells) {
            match term {
                Ok(term) => got.push((term, cells.clone())),
                Err(_) => errors += 1,
            }
        }
        assert_eq!(errors, lost.len());
        let tail_only = vec![ICell::new(DocId::new(6), 7)];
        let want: Vec<_> = whole
            .into_iter()
            .filter_map(|(t, c)| match (lost.contains(&t), t.raw()) {
                (false, _) => Some((t, c)),
                (true, 1) => Some((t, tail_only.clone())),
                (true, _) => None,
            })
            .collect();
        assert_eq!(got, want);
    }
}
