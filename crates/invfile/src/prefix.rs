//! The FNL signature index: per-document rarity-ordered signatures.
//!
//! The filtered nested loop (FNL) keeps HHNL's loop structure but scans a
//! *signature file* instead of the document store: for each base document,
//! its d-cells re-encoded as `(rank, weight)` pairs where `rank` is the
//! term's position in the **global rarity order** — document frequency
//! ascending, term number as the tie-break, a total order. What makes this
//! worth a second copy of the collection is compression: ranks within one
//! signature are strictly increasing, so they gap-code as varints exactly
//! like posting lists; the signature file (`Ip` pages) is typically 40–60%
//! of the document store (`D1`), and FNL's per-pass scan bill shrinks by
//! the same factor.
//!
//! The index is built from the **base** collection only. Delta-overlay
//! documents are not in it; executors rescore them from the raw side file
//! each pass (the `ΔD1` term of the cost model). Tombstones are masked at
//! probe time via the executor's usual `inner_doc_allowed` check, so a
//! stale signature entry can never resurrect a deleted document.
//!
//! On disk the index is two files, both written through
//! [`PackedWriter`] and read back with real page I/O:
//!
//! * `<name>.fnlsig` — the signatures, gap-coded, tightly packed;
//! * `<name>.fnlmeta` — the term-order sidecar: for each rank, the term
//!   number and its document frequency (varints). Executors read it once
//!   at start-up (`M` pages) to translate outer documents into rank space.

use crate::codec::{read_varint, write_varint};
use std::sync::Arc;
use textjoin_collection::{Collection, Document};
use textjoin_common::{DocId, Error, FnlStats, FxHashMap, Result, TermId};
use textjoin_storage::{
    packed, ByteSpan, DiskSim, FileId, PackedReader, PackedWriter, PageKind, PrefetchMetrics,
    PrefetchStats,
};

/// One cell of a rank-space signature: the term's global rarity rank and
/// its weight in the document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCell {
    /// Position of the term in the global rarity order (df asc, term asc).
    pub rank: u32,
    /// The term's weight in the document.
    pub weight: u16,
}

/// Directory record of one document's signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigMeta {
    /// The document the signature encodes.
    pub doc: DocId,
    /// Where the gap-coded cells live in the signature file.
    pub span: ByteSpan,
    /// Number of cells (= the document's distinct terms).
    pub num_terms: u32,
}

/// The decoded term-order sidecar: rank ↔ term translation plus document
/// frequencies, resident for the duration of a run.
#[derive(Clone, Debug, Default)]
pub struct TermOrder {
    /// `terms[rank] = (term, document frequency)`.
    terms: Vec<(TermId, u32)>,
    rank_of: FxHashMap<TermId, u32>,
}

impl TermOrder {
    /// The order of `terms`, already sorted by rank.
    fn from_ranked(terms: Vec<(TermId, u32)>) -> Self {
        let rank_of = (terms.iter().enumerate())
            .map(|(rank, &(term, _))| (term, rank as u32))
            .collect();
        Self { terms, rank_of }
    }

    /// The global rarity rank of `term`, or `None` for a term absent from
    /// the indexed collection.
    #[inline]
    pub fn rank(&self, term: TermId) -> Option<u32> {
        self.rank_of.get(&term).copied()
    }

    /// The term at `rank`.
    #[inline]
    pub fn term(&self, rank: u32) -> TermId {
        self.terms[rank as usize].0
    }

    /// Document frequency of the term at `rank`.
    #[inline]
    pub fn doc_freq(&self, rank: u32) -> u32 {
        self.terms[rank as usize].1
    }

    /// Number of ranked terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Translates a document into rank space, in increasing rank order.
    /// Terms the indexed collection has never seen carry no rank and are
    /// dropped: they cannot match any signature entry (overlay documents,
    /// where they could match, are rescored from raw cells instead).
    pub fn rank_cells(&self, doc: &Document) -> Vec<RankCell> {
        let mut cells: Vec<RankCell> = doc
            .cells()
            .iter()
            .filter_map(|c| {
                self.rank(c.term).map(|rank| RankCell {
                    rank,
                    weight: c.weight,
                })
            })
            .collect();
        cells.sort_unstable_by_key(|c| c.rank);
        cells
    }
}

/// The FNL signature index over one collection: the rarity order, the
/// gap-coded signature file and its in-memory directory.
pub struct FnlIndex {
    disk: Arc<DiskSim>,
    sig_file: FileId,
    meta_file: FileId,
    directory: Vec<SigMeta>,
    sig_bytes: u64,
    meta_bytes: u64,
    max_entry_bytes: u64,
}

impl FnlIndex {
    /// Builds the signature index for a collection: the rarity order from
    /// the collection profile's document frequencies (a profile of the
    /// store's own documents), one scan to collect the documents, then both
    /// files through a [`PackedWriter`].
    pub fn build(disk: Arc<DiskSim>, name: &str, collection: &Collection) -> Result<Self> {
        let docs: Vec<(DocId, Document)> = collection.store().scan().collect::<Result<_>>()?;

        // The global rarity order: document frequency ascending, term
        // number as the tie-break — a total order even when every
        // frequency ties.
        let df = collection.profile().doc_freqs();
        let mut ranked: Vec<(TermId, u32)> = df.iter().map(|(&t, &f)| (t, f)).collect();
        ranked.sort_unstable_by_key(|&(term, freq)| (freq, term));
        let order = TermOrder::from_ranked(ranked);

        // The term-order sidecar: per rank, varint term and frequency.
        let meta_file = disk.create_file_with_kind(&format!("{name}.fnlmeta"), PageKind::Raw)?;
        let mut meta_buf = Vec::new();
        for &(term, freq) in &order.terms {
            write_varint(&mut meta_buf, term.raw() as u64);
            write_varint(&mut meta_buf, freq as u64);
        }
        let mut meta = PackedWriter::new(Arc::clone(&disk), meta_file);
        meta.append(&meta_buf)?;
        let meta_bytes = meta.finish()?;

        // The signature file: per document, gap-coded (rank, weight)
        // cells in increasing rank order.
        let sig_file = disk.create_file_with_kind(&format!("{name}.fnlsig"), PageKind::Raw)?;
        let mut sigs = PackedWriter::new(Arc::clone(&disk), sig_file);
        let mut directory = Vec::with_capacity(docs.len());
        for (id, doc) in &docs {
            let mut cells: Vec<RankCell> = doc
                .cells()
                .iter()
                .map(|c| RankCell {
                    rank: order.rank_of[&c.term],
                    weight: c.weight,
                })
                .collect();
            cells.sort_unstable_by_key(|c| c.rank);
            let mut bytes = Vec::with_capacity(cells.len() * 2);
            let mut prev = 0u32;
            for (i, c) in cells.iter().enumerate() {
                let gap = if i == 0 { c.rank } else { c.rank - prev - 1 };
                prev = c.rank;
                write_varint(&mut bytes, gap as u64);
                write_varint(&mut bytes, c.weight as u64);
            }
            directory.push(SigMeta {
                doc: *id,
                span: sigs.append(&bytes)?,
                num_terms: cells.len() as u32,
            });
        }
        let sig_bytes = sigs.finish()?;

        Ok(Self {
            disk,
            sig_file,
            meta_file,
            max_entry_bytes: directory.iter().map(|m| m.num_terms).max().unwrap_or(0) as u64
                * std::mem::size_of::<RankCell>() as u64,
            directory,
            sig_bytes,
            meta_bytes,
        })
    }

    /// The measured sizes the cost model prices FNL with.
    pub fn stats(&self) -> FnlStats {
        FnlStats {
            meta_pages: self.meta_pages(),
            index_pages: self.num_pages(),
            meta_bytes: self.meta_bytes,
        }
    }

    /// Pages of the signature file (tightly packed).
    pub fn num_pages(&self) -> u64 {
        self.sig_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// Pages of the term-order sidecar.
    pub fn meta_pages(&self) -> u64 {
        self.meta_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// Logical bytes of the sidecar — what a resident decoded copy costs
    /// the buffer budget (to first order).
    pub fn meta_bytes(&self) -> u64 {
        self.meta_bytes
    }

    /// Bytes of the largest signature entry once decoded into
    /// [`RankCell`]s — what a buffer holding "the current entry" must
    /// reserve. Stored bytes (`span.len`) are the wrong measure: the gap
    /// code stores fewer than the cells an executor then holds.
    pub fn max_entry_bytes(&self) -> u64 {
        self.max_entry_bytes
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> u64 {
        self.directory.len() as u64
    }

    /// The signature directory, in document order.
    pub fn directory(&self) -> &[SigMeta] {
        &self.directory
    }

    /// The simulated disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// The gap-coded signature file's id — fault-injection harnesses
    /// target it the way they target the document store and inverted file.
    pub fn sig_file(&self) -> FileId {
        self.sig_file
    }

    /// The term-order sidecar file's id.
    pub fn meta_file(&self) -> FileId {
        self.meta_file
    }

    /// Reads the term-order sidecar back with real page I/O (`M` pages,
    /// sequential) and decodes it. Executors call this once per run and
    /// keep the result resident.
    pub fn read_term_order(&self) -> Result<TermOrder> {
        let span = ByteSpan::new(0, self.meta_bytes);
        let pages = self.disk.read_run(self.meta_file, 0, self.meta_pages())?;
        let mut scratch = Vec::new();
        let bytes = packed::record(&pages, span, &mut scratch);
        let mut terms = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (term, n) = read_varint(&bytes[pos..])?;
            pos += n;
            let (freq, n) = read_varint(&bytes[pos..])?;
            pos += n;
            if term > u32::MAX as u64 || freq > u32::MAX as u64 {
                return Err(Error::Corrupt("term-order sidecar value overflow".into()));
            }
            terms.push((TermId::new(term as u32), freq as u32));
        }
        Ok(TermOrder::from_ranked(terms))
    }

    /// Scans the whole signature file sequentially in document order.
    pub fn scan(&self) -> SigScanner<'_> {
        self.scan_with_prefetch(None)
    }

    /// [`scan`](Self::scan) with prefetch counters mirrored into an
    /// observability registry.
    pub fn scan_with_prefetch(&self, metrics: Option<PrefetchMetrics>) -> SigScanner<'_> {
        let last = self.directory.last();
        let end_page = last.map_or(0, |meta| meta.span.end_page(self.disk.page_size()));
        SigScanner {
            index: self,
            next: 0,
            reader: PackedReader::new(&self.disk, self.sig_file, end_page, metrics),
        }
    }
}

/// Decodes one signature — gap-coded `(rank, weight)` varint pairs — and
/// checks it against its directory record.
fn decode_signature(bytes: &[u8], meta: &SigMeta) -> Result<Vec<RankCell>> {
    let mut cells = Vec::with_capacity(meta.num_terms as usize);
    let mut pos = 0usize;
    let mut prev: Option<u32> = None;
    while pos < bytes.len() {
        let (gap, n) = read_varint(&bytes[pos..])?;
        pos += n;
        let (weight, n) = read_varint(&bytes[pos..])?;
        pos += n;
        let rank = match prev {
            None => gap as u32,
            Some(p) => p
                .checked_add(gap as u32)
                .and_then(|v| v.checked_add(1))
                .ok_or_else(|| Error::Corrupt("signature rank gap overflow".into()))?,
        };
        prev = Some(rank);
        if weight > u16::MAX as u64 {
            return Err(Error::Corrupt("signature weight exceeds 16 bits".into()));
        }
        cells.push(RankCell {
            rank,
            weight: weight as u16,
        });
    }
    if cells.len() != meta.num_terms as usize {
        return Err(Error::Corrupt(format!(
            "signature for doc {} decoded {} cells, directory says {}",
            meta.doc.raw(),
            cells.len(),
            meta.num_terms
        )));
    }
    Ok(cells)
}

/// Sequential scanner over the signature file, yielding
/// `(DocId, Vec<RankCell>)` in document order through a [`PackedReader`].
pub struct SigScanner<'a> {
    index: &'a FnlIndex,
    next: usize,
    reader: PackedReader<'a>,
}

impl SigScanner<'_> {
    /// Readahead counters accumulated so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.reader.prefetch_stats()
    }
}

impl Iterator for SigScanner<'_> {
    type Item = Result<(DocId, Vec<RankCell>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let meta = *self.index.directory.get(self.next)?;
        self.next += 1;
        let bytes = self.reader.record(meta.span);
        Some(bytes.and_then(|b| Ok((meta.doc, decode_signature(b, &meta)?))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_collection::SynthSpec;
    use textjoin_common::CollectionStats;

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn build(page: usize, docs: Vec<Document>) -> (Arc<DiskSim>, FnlIndex, Vec<Document>) {
        let disk = Arc::new(DiskSim::new(page));
        let coll = Collection::build(Arc::clone(&disk), "c", docs.clone()).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c", &coll).unwrap();
        (disk, index, docs)
    }

    #[test]
    fn all_tied_frequencies_still_give_a_total_order() {
        // Every term occurs exactly once, so every frequency ties and the
        // term number must break them: ranks are a permutation, and the
        // order round-trips through the sidecar.
        let docs = vec![doc(&[(30, 1), (10, 1)]), doc(&[(20, 1)])];
        let (_, index, _) = build(64, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(order.len(), 3);
        let ranked: Vec<u32> = (0..3).map(|r| order.term(r).raw()).collect();
        assert_eq!(ranked, vec![10, 20, 30], "df ties break by term number");
        for r in 0..3u32 {
            assert_eq!(order.rank(order.term(r)), Some(r));
            assert_eq!(order.doc_freq(r), 1);
        }
    }

    // ---- index structure ----

    #[test]
    fn rarest_terms_rank_first() {
        // Term 5 is in every doc (df 3), term 9 in one (df 1).
        let docs = vec![
            doc(&[(5, 1), (9, 2)]),
            doc(&[(5, 1), (7, 1)]),
            doc(&[(5, 2), (7, 3)]),
        ];
        let (_, index, _) = build(64, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(order.term(0), TermId::new(9), "df 1 outranks df 2 and 3");
        assert_eq!(order.term(order.len() as u32 - 1), TermId::new(5));
        assert!(order.rank(TermId::new(999)).is_none());
    }

    /// The rarity order is the `(df, term)` sort whatever the build maps
    /// hash with: counted here with a `BTreeMap`, it ranks every term the
    /// way the sidecar does.
    #[test]
    fn the_term_order_is_the_df_then_term_sort() {
        let docs = SynthSpec::from_stats(CollectionStats::new(200, 15.0, 400), 5).generate_docs();
        let mut df = std::collections::BTreeMap::<TermId, u32>::new();
        for cell in docs.iter().flat_map(|d| d.cells()) {
            *df.entry(cell.term).or_default() += 1;
        }
        let mut want: Vec<(TermId, u32)> = df.into_iter().collect();
        want.sort_by_key(|&(term, freq)| (freq, term));
        let (_, index, _) = build(128, docs);
        let order = index.read_term_order().unwrap();
        let got: Vec<(TermId, u32)> = (0..order.len() as u32)
            .map(|r| (order.term(r), order.doc_freq(r)))
            .collect();
        assert_eq!(got, want);
        for (rank, &(term, _)) in want.iter().enumerate() {
            assert_eq!(order.rank(term), Some(rank as u32));
        }
    }

    #[test]
    fn signatures_round_trip_every_document() {
        let docs = SynthSpec::from_stats(CollectionStats::new(40, 12.0, 60), 7).generate_docs();
        let (_, index, docs) = build(128, docs);
        let order = index.read_term_order().unwrap();
        assert_eq!(index.num_docs(), 40);
        let scanned: Vec<(DocId, Vec<RankCell>)> = index.scan().map(|r| r.unwrap()).collect();
        assert_eq!(scanned.len(), 40);
        for (i, (id, cells)) in scanned.iter().enumerate() {
            assert_eq!(id.raw() as usize, i);
            // The signature is exactly the document translated to rank
            // space: same weights, ranks strictly increasing.
            assert_eq!(cells, &order.rank_cells(&docs[i]));
            assert!(cells.windows(2).all(|w| w[0].rank < w[1].rank));
            assert_eq!(cells.len(), docs[i].num_terms());
        }
    }

    #[test]
    fn signature_file_is_smaller_than_the_document_store() {
        let docs = SynthSpec::from_stats(CollectionStats::new(120, 18.0, 300), 3).generate_docs();
        let doc_bytes: u64 = docs.iter().map(|d| d.size_bytes()).sum();
        let (_, index, _) = build(256, docs);
        assert!(
            index.sig_bytes * 3 < doc_bytes * 2,
            "gap-coded signatures should be < 2/3 of the 5-byte store: {} vs {}",
            index.sig_bytes,
            doc_bytes
        );
        assert!(index.stats().index_pages > 0);
        assert_eq!(index.stats().meta_bytes, index.meta_bytes());
    }

    #[test]
    fn scan_reads_index_pages_sequentially_and_meta_costs_its_pages() {
        let docs = SynthSpec::from_stats(CollectionStats::new(80, 10.0, 100), 9).generate_docs();
        let (disk, index, _) = build(64, docs);
        disk.reset_stats();
        disk.reset_head();
        let n = index.scan().count() as u64;
        assert_eq!(n, index.num_docs());
        let s = disk.stats();
        assert_eq!(s.total_reads(), index.num_pages());
        assert_eq!(s.rand_reads, 1, "one seek, then sequential");
        disk.reset_stats();
        disk.reset_head();
        index.read_term_order().unwrap();
        assert_eq!(disk.stats().total_reads(), index.meta_pages());
    }

    /// The slot FNL reserves for "the current entry" is sized for the entry
    /// as it is held — decoded `RankCell`s — not as the gap code stores it.
    #[test]
    fn the_entry_slot_covers_the_largest_decoded_entry() {
        let docs = SynthSpec::from_stats(CollectionStats::new(120, 18.0, 300), 3).generate_docs();
        let (_, index, _) = build(256, docs);
        let held = |cells: &Vec<RankCell>| std::mem::size_of_val(cells.as_slice()) as u64;
        let largest = index.scan().map(|e| held(&e.unwrap().1)).max().unwrap();
        assert_eq!(index.max_entry_bytes(), largest);
        let stored = index.directory().iter().map(|m| m.span.len).max().unwrap();
        assert!(stored < largest, "{stored} stored, {largest} held");
    }

    #[test]
    fn empty_collection_builds_an_empty_index() {
        let (_, index, _) = build(64, Vec::new());
        assert_eq!(index.max_entry_bytes(), 0);
        assert_eq!(index.num_docs(), 0);
        assert_eq!(index.num_pages(), 0);
        assert_eq!(index.scan().count(), 0);
        let order = index.read_term_order().unwrap();
        assert!(order.is_empty());
        assert_eq!(order.rank_cells(&doc(&[(1, 1)])), Vec::new());
    }
}
