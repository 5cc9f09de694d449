//! The inverted file: tightly packed entries in term-number order.
//!
//! For each term of a collection, the inverted file holds an entry — a list
//! of i-cells `(d#, w)` in increasing document order (section 3). Entries
//! are stored in consecutive locations in ascending term order, so
//!
//! * VVM can merge two inverted files with **one sequential scan each**
//!   (the "very much like the merge phase of sort merge" property of
//!   section 4.3), and
//! * HVNL can fetch the entry for one term at the cost of `⌈J⌉` random
//!   page reads after locating it through the B+tree.

use crate::btree::{BTreeFile, TermEntry};
use crate::codec::PostingCodec;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use textjoin_collection::{Collection, Document};
use textjoin_common::{DocId, FxHashMap, ICell, Result, TermId, CELL_BYTES};
use textjoin_storage::{
    packed, ByteSpan, DiskSim, FileId, PackedReader, PackedWriter, PageKind, PrefetchMetrics,
    PrefetchStats,
};

/// Directory record of one inverted-file entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryMeta {
    /// The entry's term.
    pub term: TermId,
    /// Where the entry's i-cells live.
    pub span: ByteSpan,
    /// Document frequency (number of i-cells).
    pub doc_freq: u32,
}

/// An inverted file over one collection, with its B+tree dictionary.
pub struct InvertedFile {
    disk: Arc<DiskSim>,
    file: FileId,
    directory: Vec<EntryMeta>,
    btree: BTreeFile,
    total_bytes: u64,
    codec: PostingCodec,
    /// The largest `doc_freq` and `Σ doc_freq` of the directory: what the
    /// entries take once decoded, whatever the codec stored them as.
    max_doc_freq: u64,
    total_doc_freq: u64,
}

impl InvertedFile {
    /// Builds the inverted file (and its B+tree) for a collection by
    /// scanning the documents once. Files are named `<name>.inv` and
    /// `<name>.btree`.
    pub fn build(disk: Arc<DiskSim>, name: &str, collection: &Collection) -> Result<Self> {
        Self::build_with(disk, name, collection, PostingCodec::Fixed5)
    }

    /// Like [`build`](Self::build) with an explicit posting codec —
    /// [`PostingCodec::VarintGap`] shrinks entries (and with them `J` and
    /// `I`), shifting the cost trade-offs towards HVNL and VVM.
    pub fn build_with(
        disk: Arc<DiskSim>,
        name: &str,
        collection: &Collection,
        codec: PostingCodec,
    ) -> Result<Self> {
        let postings = postings_of(collection.store().scan())?;
        Self::from_postings_with(disk, name, postings, codec)
    }

    /// Builds an inverted file directly from a postings map (documents per
    /// term must have been appended in increasing document order, which a
    /// scan guarantees) with entries stored by `codec`: the map's terms
    /// sorted, then [`from_entries`](Self::from_entries), so the map's
    /// hasher does not reach the file.
    pub fn from_postings_with<S: BuildHasher>(
        disk: Arc<DiskSim>,
        name: &str,
        postings: HashMap<TermId, Vec<ICell>, S>,
        codec: PostingCodec,
    ) -> Result<Self> {
        let mut terms: Vec<TermId> = postings.keys().copied().collect();
        terms.sort();
        let entries = terms.iter().map(|term| Ok((*term, &postings[term][..])));
        Self::from_entries(disk, name, entries, codec)
    }

    /// Writes the inverted file (and its B+tree) from entries arriving in
    /// strictly ascending term order, each a non-empty list of i-cells in
    /// strictly ascending document order, stored by `codec`. The first
    /// error of `entries` ends the build and is returned.
    pub fn from_entries<C: Borrow<[ICell]>>(
        disk: Arc<DiskSim>,
        name: &str,
        entries: impl IntoIterator<Item = Result<(TermId, C)>>,
        codec: PostingCodec,
    ) -> Result<Self> {
        let file = disk.create_file_with_kind(&format!("{name}.inv"), PageKind::Postings)?;
        let mut writer = PackedWriter::new(Arc::clone(&disk), file);
        let (mut directory, mut dict) = (Vec::new(), Vec::new());
        for entry in entries {
            let (term, cells) = entry?;
            let cells = cells.borrow();
            debug_assert!(directory.last().is_none_or(|m: &EntryMeta| m.term < term));
            debug_assert!(
                cells.windows(2).all(|w| w[0].doc < w[1].doc),
                "i-cells must be strictly increasing by document"
            );
            let ordinal = directory.len() as u32;
            directory.push(EntryMeta {
                term,
                span: writer.append(&codec.encode(cells))?,
                doc_freq: cells.len() as u32,
            });
            dict.push((
                term,
                TermEntry {
                    ordinal,
                    doc_freq: cells.len().min(u16::MAX as usize) as u16,
                },
            ));
        }
        let total_bytes = writer.finish()?;

        let btree = BTreeFile::bulk_load(Arc::clone(&disk), &format!("{name}.btree"), &dict)?;
        Ok(Self::from_parts(
            disk,
            file,
            directory,
            btree,
            total_bytes,
            codec,
        ))
    }

    /// Reassembles an inverted file from already-persisted parts — the
    /// recovery path: the entry pages are on disk in `file`, the directory
    /// was loaded from a persisted catalog, the tree was reopened with
    /// [`BTreeFile::from_parts`].
    pub fn from_parts(
        disk: Arc<DiskSim>,
        file: FileId,
        directory: Vec<EntryMeta>,
        btree: BTreeFile,
        total_bytes: u64,
        codec: PostingCodec,
    ) -> Self {
        let doc_freqs = || directory.iter().map(|m| u64::from(m.doc_freq));
        Self {
            max_doc_freq: doc_freqs().max().unwrap_or(0),
            total_doc_freq: doc_freqs().sum(),
            disk,
            file,
            directory,
            btree,
            total_bytes,
            codec,
        }
    }

    /// The full entry directory, in term order (for persisting).
    pub fn directory(&self) -> &[EntryMeta] {
        &self.directory
    }

    /// Logical bytes of all entries (excludes tail-page padding).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Ordinal of the entry for `term`, if present (binary search over the
    /// term-ordered directory; no I/O).
    pub fn find_term(&self, term: TermId) -> Option<u32> {
        self.directory
            .binary_search_by_key(&term, |m| m.term)
            .ok()
            .map(|i| i as u32)
    }

    /// First ordinal whose term is `>= term` (for converting term bounds to
    /// ordinal ranges when partitioning the file).
    pub fn ordinal_at_or_after(&self, term: TermId) -> u32 {
        self.directory.partition_point(|m| m.term < term) as u32
    }

    /// The posting codec entries are stored with.
    pub fn codec(&self) -> PostingCodec {
        self.codec
    }

    /// The simulated disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// The entry file.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The B+tree dictionary file.
    pub fn btree(&self) -> &BTreeFile {
        &self.btree
    }

    /// `T` — number of entries (distinct terms).
    pub fn num_entries(&self) -> u64 {
        self.directory.len() as u64
    }

    /// `I` — pages occupied by the entries (tightly packed).
    pub fn num_pages(&self) -> u64 {
        self.total_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// `J` — measured average entry size in pages.
    pub fn avg_entry_pages(&self) -> f64 {
        if self.directory.is_empty() {
            0.0
        } else {
            self.total_bytes as f64 / (self.disk.page_size() as f64 * self.directory.len() as f64)
        }
    }

    /// Directory record by ordinal.
    pub fn meta(&self, ordinal: u32) -> &EntryMeta {
        &self.directory[ordinal as usize]
    }

    /// Pages a random fetch of entry `ordinal` touches (`⌈J⌉` on average).
    pub fn entry_pages(&self, ordinal: u32) -> u64 {
        self.meta(ordinal).span.num_pages(self.disk.page_size())
    }

    /// Bytes of the largest entry once decoded into i-cells — what a
    /// buffer holding "the current entry" must reserve. Stored bytes
    /// (`span.len`) are the wrong measure: a compressing codec stores fewer
    /// than the cells an executor then holds.
    pub fn max_entry_bytes(&self) -> u64 {
        self.max_doc_freq * CELL_BYTES as u64
    }

    /// Bytes of all entries once decoded into i-cells.
    pub fn decoded_bytes(&self) -> u64 {
        self.total_doc_freq * CELL_BYTES as u64
    }

    /// Fetches one entry at the random-I/O rate (`⌈J⌉·α`): the access
    /// pattern of HVNL (section 5.2). Its cells are decoded straight into
    /// the shared slice a cache keeps, allocated once at the entry's length.
    pub fn read_entry(&self, ordinal: u32) -> Result<Arc<[ICell]>> {
        let meta = self.meta(ordinal);
        let (first, n) = meta.span.page_range(self.disk.page_size());
        let pages = self.disk.read_run(self.file, first, n)?;
        let mut scratch = Vec::new();
        let bytes = packed::record(&pages, meta.span, &mut scratch);
        self.codec.decode_shared(bytes, meta.doc_freq as usize)
    }

    /// Scans the whole inverted file sequentially in term order — the
    /// access pattern of VVM (cost `I`, one seek).
    pub fn scan(&self) -> EntryScanner<'_> {
        self.scan_with_prefetch(None)
    }

    /// [`scan`](Self::scan) with prefetch counters mirrored into an
    /// observability registry.
    pub fn scan_with_prefetch(&self, metrics: Option<PrefetchMetrics>) -> EntryScanner<'_> {
        self.scan_range_with_prefetch(0, self.num_entries() as u32, metrics)
    }

    /// Scans the half-open ordinal range `[start, end)` sequentially — one
    /// term interval of the file, as [`crate::DeltaOverlay::scan_between`]
    /// reads a flushed delta. The readahead window is clamped to the
    /// range's last page, so a scan never prefetches past what it yields.
    pub fn scan_range(&self, start: u32, end: u32) -> EntryScanner<'_> {
        self.scan_range_with_prefetch(start, end, None)
    }

    /// [`scan_range`](Self::scan_range) with mirrored prefetch counters.
    pub fn scan_range_with_prefetch(
        &self,
        start: u32,
        end: u32,
        metrics: Option<PrefetchMetrics>,
    ) -> EntryScanner<'_> {
        debug_assert!(start <= end && end as u64 <= self.num_entries());
        let last = (end > start).then(|| self.meta(end - 1).span);
        let end_page = last.map_or(0, |span| span.end_page(self.disk.page_size()));
        EntryScanner {
            inv: self,
            next_ordinal: start,
            end_ordinal: end,
            reader: PackedReader::new(&self.disk, self.file, end_page, metrics),
        }
    }
}

/// Inverts documents into a postings map: each document's cells become
/// i-cells of its number. Fed in ascending document order, every entry is
/// ascending by document, as [`InvertedFile::from_postings_with`] expects.
pub fn postings_of<D: Borrow<Document>>(
    docs: impl IntoIterator<Item = Result<(DocId, D)>>,
) -> Result<FxHashMap<TermId, Vec<ICell>>> {
    let mut postings: FxHashMap<TermId, Vec<ICell>> = FxHashMap::default();
    for item in docs {
        let (id, doc) = item?;
        for cell in doc.borrow().cells() {
            let posting = ICell::new(id, cell.weight);
            postings.entry(cell.term).or_default().push(posting);
        }
    }
    Ok(postings)
}

/// Sequential scanner over an inverted file (or an ordinal sub-range of
/// it), yielding `(TermId, Vec<ICell>)` in increasing term order. Entries
/// are pulled through a [`PackedReader`], so adjacent entry reads coalesce
/// into windowed scan-priced batches and an entry inside one page is
/// decoded where it lies. [`next_into`](Self::next_into) is the
/// lending step for callers that consume an entry before asking for the
/// next; the `Iterator` impl wraps it for callers that keep the entry.
pub struct EntryScanner<'a> {
    inv: &'a InvertedFile,
    next_ordinal: u32,
    end_ordinal: u32,
    reader: PackedReader<'a>,
}

impl EntryScanner<'_> {
    /// Readahead counters accumulated so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.reader.prefetch_stats()
    }

    /// The term of the entry [`next_into`](Self::next_into) reads next,
    /// from the directory (no I/O); `None` at the end of the range.
    pub(crate) fn peek_term(&self) -> Option<TermId> {
        (self.next_ordinal < self.end_ordinal).then(|| self.inv.meta(self.next_ordinal).term)
    }

    /// Reads the next entry into `cells` (replacing what it held, keeping
    /// its capacity) and returns the entry's term; `None` at the end of the
    /// range. After an error `cells` is unspecified and the scan continues
    /// with the following entry.
    pub fn next_into(&mut self, cells: &mut Vec<ICell>) -> Option<Result<TermId>> {
        let meta = self.take()?;
        let bytes = self.reader.record(meta.span);
        Some(bytes.and_then(|b| self.inv.codec.decode_into(b, cells).map(|()| meta.term)))
    }

    /// Steps past the next entry without decoding it and returns its term;
    /// `None` at the end of the range. It reads the pages
    /// [`next_into`](Self::next_into) would and fails where its read would.
    pub fn step_past(&mut self) -> Option<Result<TermId>> {
        let meta = self.take()?;
        Some(self.reader.step_past(meta.span).map(|()| meta.term))
    }

    /// The next entry's directory record, moving past it.
    fn take(&mut self) -> Option<EntryMeta> {
        if self.next_ordinal >= self.end_ordinal {
            return None;
        }
        self.next_ordinal += 1;
        Some(*self.inv.meta(self.next_ordinal - 1))
    }
}

impl Iterator for EntryScanner<'_> {
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
    use textjoin_collection::Document;

    fn build_fixture(page_size: usize) -> (Arc<DiskSim>, InvertedFile, Vec<Document>) {
        let disk = Arc::new(DiskSim::new(page_size));
        let docs = vec![
            Document::from_term_counts([(TermId::new(1), 2u32), (TermId::new(3), 1)]),
            Document::from_term_counts([(TermId::new(1), 1u32), (TermId::new(2), 4)]),
            Document::from_term_counts([(TermId::new(3), 5u32)]),
        ];
        let coll = Collection::build(Arc::clone(&disk), "c", docs.clone()).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "c", &coll).unwrap();
        (disk, inv, docs)
    }

    #[test]
    fn entries_are_sorted_by_term_with_correct_postings() {
        let (_, inv, _) = build_fixture(64);
        assert_eq!(inv.num_entries(), 3);
        let all: Vec<(TermId, Vec<ICell>)> = inv.scan().map(|r| r.unwrap()).collect();
        let terms: Vec<u32> = all.iter().map(|(t, _)| t.raw()).collect();
        assert_eq!(terms, vec![1, 2, 3]);
        // Term 1 appears in docs 0 (w=2) and 1 (w=1).
        assert_eq!(
            all[0].1,
            vec![
                ICell::new(textjoin_common::DocId::new(0), 2),
                ICell::new(textjoin_common::DocId::new(1), 1)
            ]
        );
        // Term 3 appears in docs 0 (w=1) and 2 (w=5).
        assert_eq!(all[2].1.len(), 2);
        assert_eq!(all[2].1[1].weight, 5);
    }

    #[test]
    fn btree_locates_every_entry() {
        let (_, inv, _) = build_fixture(64);
        let dict = inv.btree().load_leaves().unwrap();
        for ordinal in 0..inv.num_entries() as u32 {
            let meta = inv.meta(ordinal);
            let hit = dict.lookup(meta.term).expect("term in dictionary");
            assert_eq!(hit.ordinal, ordinal);
            assert_eq!(hit.doc_freq as u32, meta.doc_freq);
        }
        assert_eq!(dict.lookup(TermId::new(999)), None);
    }

    #[test]
    fn random_entry_fetch_is_charged_at_random_rate() {
        let (disk, inv, _) = build_fixture(16); // tiny pages force multi-page entries
        disk.reset_stats();
        disk.reset_head();
        let cells = inv.read_entry(0).unwrap();
        assert_eq!(cells.len(), 2);
        let s = disk.stats();
        assert_eq!(s.rand_reads, inv.entry_pages(0));
        assert_eq!(s.seq_reads, 0);
    }

    #[test]
    fn full_scan_costs_i_pages_with_one_seek() {
        let (disk, inv, _) = build_fixture(16);
        disk.reset_stats();
        disk.reset_head();
        let n = inv.scan().count();
        assert_eq!(n as u64, inv.num_entries());
        let s = disk.stats();
        assert_eq!(s.total_reads(), inv.num_pages());
        assert_eq!(s.rand_reads, 1);
    }

    #[test]
    fn inverted_file_size_tracks_collection_size() {
        // Section 3: document numbers and term numbers have the same size,
        // so the inverted file's total bytes equal the collection's.
        let (_, inv, docs) = build_fixture(64);
        let doc_bytes: u64 = docs.iter().map(|d| d.size_bytes()).sum();
        assert_eq!(inv.total_bytes, doc_bytes);
    }

    #[test]
    fn empty_collection_gives_empty_inverted_file() {
        let disk = Arc::new(DiskSim::new(64));
        let coll = Collection::build(Arc::clone(&disk), "e", Vec::<Document>::new()).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "e", &coll).unwrap();
        assert_eq!(inv.num_entries(), 0);
        assert_eq!(inv.num_pages(), 0);
        assert_eq!(inv.scan().count(), 0);
        assert_eq!(inv.avg_entry_pages(), 0.0);
    }

    #[test]
    fn varint_codec_shrinks_the_file_and_preserves_content() {
        let disk = Arc::new(DiskSim::new(4096));
        // Dense postings (small gaps) compress well.
        let docs: Vec<Document> = (0..200u32)
            .map(|i| {
                Document::from_term_counts(
                    (0..20u32).map(move |t| (TermId::new((i + t) % 40), 1u32)),
                )
            })
            .collect();
        let coll = Collection::build(Arc::clone(&disk), "c", docs).unwrap();
        let fixed = InvertedFile::build_with(
            Arc::clone(&disk),
            "fixed",
            &coll,
            crate::codec::PostingCodec::Fixed5,
        )
        .unwrap();
        let varint = InvertedFile::build_with(
            Arc::clone(&disk),
            "varint",
            &coll,
            crate::codec::PostingCodec::VarintGap,
        )
        .unwrap();
        assert!(
            varint.total_bytes * 2 < fixed.total_bytes,
            "expected >2× compression"
        );
        // Identical logical content, entry by entry.
        let a: Vec<_> = fixed.scan().map(|r| r.unwrap()).collect();
        let b: Vec<_> = varint.scan().map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
        for ordinal in 0..fixed.num_entries() as u32 {
            assert_eq!(
                fixed.read_entry(ordinal).unwrap(),
                varint.read_entry(ordinal).unwrap()
            );
        }
    }

    fn big_fixture(page_size: usize) -> (Arc<DiskSim>, InvertedFile) {
        let disk = Arc::new(DiskSim::new(page_size));
        let docs: Vec<Document> = (0..60u32)
            .map(|i| {
                Document::from_term_counts(
                    (0..8u32).map(move |t| (TermId::new((i + t) % 30), 2u32)),
                )
            })
            .collect();
        let coll = Collection::build(Arc::clone(&disk), "big", docs).unwrap();
        let inv = InvertedFile::build(Arc::clone(&disk), "big", &coll).unwrap();
        (disk, inv)
    }

    #[test]
    fn prefetching_scan_reads_each_page_exactly_once() {
        let (disk, inv) = big_fixture(64);
        assert!(inv.num_pages() > 8, "fixture must exceed one window");
        disk.reset_stats();
        disk.reset_head();
        let mut scanner = inv.scan();
        assert_eq!(scanner.by_ref().count() as u64, inv.num_entries());
        let prefetch = scanner.prefetch_stats();
        let s = disk.stats();
        assert_eq!(s.total_reads(), inv.num_pages());
        assert_eq!(s.rand_reads, 1);
        assert!(prefetch.hits > 0, "readahead should serve most of the scan");
        assert_eq!(prefetch.wasted, 0);
    }

    /// The lending step yields what the iterator yields, through one
    /// buffer, for entries inside a page and entries across several, and an
    /// unreadable entry costs only itself.
    #[test]
    fn next_into_lends_the_iterators_entries_through_one_buffer() {
        for page_size in [16, 64, 4096] {
            let (disk, inv) = big_fixture(page_size);
            let full: Vec<(TermId, Vec<ICell>)> = inv.scan().map(|r| r.unwrap()).collect();
            disk.reset_stats();
            disk.reset_head();
            let mut scan = inv.scan();
            let mut cells = vec![ICell::new(textjoin_common::DocId::new(9), 9)];
            let mut lent = Vec::new();
            while let Some(term) = scan.next_into(&mut cells) {
                lent.push((term.unwrap(), cells.clone()));
            }
            assert_eq!(lent, full, "page size {page_size}");
            assert_eq!(disk.stats().total_reads(), inv.num_pages());
            assert!(scan.next_into(&mut cells).is_none(), "stays finished");
        }
        let (disk, inv) = big_fixture(64);
        let full: Vec<(TermId, Vec<ICell>)> = inv.scan().map(|r| r.unwrap()).collect();
        let bad_page = inv.meta(7).span.first_page(64);
        disk.flip_bit(inv.file(), bad_page, 5).unwrap();
        let on_bad_page = |m: &EntryMeta| {
            let (first, n) = m.span.page_range(64);
            (first..first + n).contains(&bad_page)
        };
        let mut scan = inv.scan_range(7, inv.num_entries() as u32);
        let mut cells = Vec::new();
        let mut readable = Vec::new();
        while let Some(term) = scan.next_into(&mut cells) {
            if let Ok(term) = term {
                readable.push((term, cells.clone()));
            }
        }
        let want: Vec<_> = (full.iter().zip(inv.directory()).skip(7))
            .filter(|(_, m)| !on_bad_page(m))
            .map(|(e, _)| e.clone())
            .collect();
        assert!(!want.is_empty() && want.len() < full.len() - 7);
        assert_eq!(readable, want);
    }

    #[test]
    fn scan_range_partitions_cover_the_full_scan() {
        let (disk, inv) = big_fixture(64);
        let full: Vec<(TermId, Vec<ICell>)> = inv.scan().map(|r| r.unwrap()).collect();
        let t = inv.num_entries() as u32;
        for parts in [1u32, 2, 3, 4] {
            let mut stitched = Vec::new();
            for p in 0..parts {
                let start = t * p / parts;
                let end = t * (p + 1) / parts;
                stitched.extend(inv.scan_range(start, end).map(|r| r.unwrap()));
            }
            assert_eq!(stitched, full, "{parts} partitions");
        }
        // Each partition is a scan: pages read ≤ I + one shared boundary
        // page per split, seeks ≤ one per partition.
        disk.reset_stats();
        disk.reset_head();
        let parts = 3u32;
        for p in 0..parts {
            let start = t * p / parts;
            let end = t * (p + 1) / parts;
            assert_eq!(
                inv.scan_range(start, end).count() as u64,
                (end - start) as u64
            );
        }
        let s = disk.stats();
        assert!(s.total_reads() <= inv.num_pages() + (parts as u64 - 1));
        assert!(s.rand_reads <= parts as u64);
    }

    #[test]
    fn empty_scan_range_yields_nothing_and_reads_nothing() {
        let (disk, inv) = big_fixture(64);
        disk.reset_stats();
        assert_eq!(inv.scan_range(2, 2).count(), 0);
        assert_eq!(disk.stats().total_reads(), 0);
    }

    #[test]
    fn scan_prefetch_metrics_are_mirrored() {
        use textjoin_obs::Registry;
        let (_, inv) = big_fixture(64);
        let registry = Registry::new();
        let metrics = PrefetchMetrics::register(&registry, "inv1");
        let n = inv.scan_with_prefetch(Some(metrics)).count() as u64;
        assert_eq!(n, inv.num_entries());
        let text = registry.to_prometheus_text();
        assert!(text.contains("prefetch_issued"), "{text}");
        let issued = registry.counter("prefetch.issued", "inv1").get();
        let hits = registry.counter("prefetch.hits", "inv1").get();
        assert!(issued > 0 && hits > 0, "issued={issued} hits={hits}");
    }

    /// The build map's hasher reaches no byte on disk: `build` (an Fx map)
    /// and `from_postings_with` fed the same postings through a SipHash map
    /// write page-for-page identical entry and B+tree files.
    #[test]
    fn the_build_maps_hasher_changes_no_page() {
        use textjoin_collection::SynthSpec;
        use textjoin_common::CollectionStats;
        let disk = Arc::new(DiskSim::new(256));
        let docs = SynthSpec::from_stats(CollectionStats::new(300, 20.0, 500), 11).generate_docs();
        let coll = Collection::build(Arc::clone(&disk), "c", docs).unwrap();
        let fx = InvertedFile::build(Arc::clone(&disk), "fx", &coll).unwrap();
        let mut postings: HashMap<TermId, Vec<ICell>> = HashMap::new();
        for item in coll.store().scan() {
            let (doc_id, doc) = item.unwrap();
            for cell in doc.cells() {
                let entry = postings.entry(cell.term).or_default();
                entry.push(ICell::new(doc_id, cell.weight));
            }
        }
        let codec = PostingCodec::Fixed5;
        let sip =
            InvertedFile::from_postings_with(Arc::clone(&disk), "sip", postings, codec).unwrap();
        assert_eq!(fx.directory(), sip.directory());
        let pages = |name: String| {
            let file = disk.file_by_name(&name).unwrap();
            let n = disk.num_pages(file);
            (0..n)
                .map(|p| disk.read_page(file, p).unwrap())
                .collect::<Vec<_>>()
        };
        for ext in ["inv", "btree"] {
            let fx_pages = pages(format!("fx.{ext}"));
            assert!(fx_pages.len() > 1, "{ext}: {} pages", fx_pages.len());
            assert_eq!(fx_pages, pages(format!("sip.{ext}")), "{ext}");
        }
    }

    #[test]
    fn avg_entry_pages_matches_bytes() {
        let (_, inv, _) = build_fixture(16);
        let expect = inv.total_bytes as f64 / (16.0 * inv.num_entries() as f64);
        assert!((inv.avg_entry_pages() - expect).abs() < 1e-12);
    }
}
