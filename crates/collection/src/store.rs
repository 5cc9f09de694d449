//! Paged, tightly-packed document storage.
//!
//! Documents of a collection are serialized back-to-back (they may straddle
//! page boundaries) into one simulated file, in document-number order — the
//! *consecutive storage locations* assumption of section 3. Scanning the
//! collection in storage order therefore costs `D` (mostly sequential)
//! page reads, while fetching documents one at a time in arbitrary order
//! costs about `⌈S⌉` page reads each, at the random rate.
//!
//! The in-memory directory of byte spans plays the role of the record
//! directory a real system would keep in its catalog; the paper's cost
//! model does not charge I/O for it, and neither do we.

use crate::document::Document;
use crate::profile::CollectionProfile;
use std::sync::Arc;
use textjoin_common::{DocId, Result};
use textjoin_storage::{
    packed, BufferPool, ByteSpan, DiskSim, FileId, PackedReader, PackedWriter, PageKind,
    PrefetchMetrics, PrefetchStats,
};

/// A read-only paged document store.
///
/// Document numbers are *dense* for a bulk-built store (doc `i` is the
/// `i`-th appended document) and may be *sparse* for a store produced by
/// an incremental merge: deletions leave holes in the id space, and the
/// merged store keeps the surviving documents' original ids (`ids` maps
/// storage ordinal → document number). All lookups go through the ordinal
/// mapping, so both layouts share every read path.
pub struct DocumentStore {
    disk: Arc<DiskSim>,
    file: FileId,
    directory: Vec<ByteSpan>,
    /// `None` = dense ids `0..directory.len()`; `Some` = strictly
    /// ascending sparse document numbers, one per directory slot.
    ids: Option<Vec<u32>>,
    total_bytes: u64,
}

impl DocumentStore {
    /// The simulated disk holding the store.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// The file the documents live in.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// `N` — number of documents.
    pub fn num_docs(&self) -> u64 {
        self.directory.len() as u64
    }

    /// `D` — occupied pages (tightly packed).
    pub fn num_pages(&self) -> u64 {
        self.total_bytes.div_ceil(self.disk.page_size() as u64)
    }

    /// Total serialized bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The document number of the `ordinal`-th stored document.
    #[inline]
    pub fn doc_at(&self, ordinal: usize) -> DocId {
        match &self.ids {
            None => DocId::new(ordinal as u32),
            Some(ids) => DocId::new(ids[ordinal]),
        }
    }

    /// The storage ordinal of a document number, if the store holds it.
    #[inline]
    pub fn ordinal_of(&self, doc: DocId) -> Option<usize> {
        match &self.ids {
            None => (doc.index() < self.directory.len()).then(|| doc.index()),
            Some(ids) => ids.binary_search(&doc.raw()).ok(),
        }
    }

    /// Whether the store holds this document number.
    #[inline]
    pub fn contains(&self, doc: DocId) -> bool {
        self.ordinal_of(doc).is_some()
    }

    /// The stored document numbers, in ascending order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        (0..self.directory.len()).map(|i| self.doc_at(i)).collect()
    }

    /// The sparse id map, when the store's ids are not dense (for
    /// persisting the catalog).
    pub fn sparse_ids(&self) -> Option<&[u32]> {
        self.ids.as_deref()
    }

    /// The byte span of a document.
    ///
    /// # Panics
    /// If the store does not hold `doc`.
    pub fn span(&self, doc: DocId) -> ByteSpan {
        let ordinal = self
            .ordinal_of(doc)
            .unwrap_or_else(|| panic!("document {doc} not in store"));
        self.directory[ordinal]
    }

    /// Size of the largest document in bytes — what an executor must
    /// reserve to hold "at least one document" of this collection
    /// (section 4.1 reserves `⌈S1⌉` pages; we reserve the exact worst
    /// case so the budget can never be silently exceeded).
    pub fn max_doc_bytes(&self) -> u64 {
        self.directory.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// Pages a single random fetch of `doc` touches (`⌈Sᵢ⌉` for an average
    /// document).
    pub fn doc_pages(&self, doc: DocId) -> u64 {
        self.span(doc).num_pages(self.disk.page_size())
    }

    /// Sequentially scans the whole collection in storage order, yielding
    /// `(DocId, Document)`. Pages are read once each, in order, so the I/O
    /// bill is `D` pages (the first at the random rate if the head is
    /// elsewhere). Under the hood the scan runs through a [`PackedReader`]:
    /// contiguous demands are batched into windowed readahead without
    /// changing the page count or the seek count.
    pub fn scan(&self) -> Scanner<'_> {
        self.scan_with_prefetch(None)
    }

    /// Like [`scan`](Self::scan), with readahead counters mirrored into
    /// the given metrics handles (`prefetch.issued` / `.hits` / `.wasted`).
    pub fn scan_with_prefetch(&self, metrics: Option<PrefetchMetrics>) -> Scanner<'_> {
        Scanner {
            store: self,
            next_doc: 0,
            reader: PackedReader::new(&self.disk, self.file, self.num_pages(), metrics),
        }
    }

    /// Reads one document through a buffer pool (document-at-a-time access,
    /// e.g. after a selection on another attribute picked out a subset).
    /// Consecutive small documents sharing a page hit the pool, giving the
    /// `min{D, N}` behaviour of section 5.1.
    pub fn read_doc(&self, pool: &BufferPool<'_>, doc: DocId) -> Result<Document> {
        let span = self.span(doc);
        let (first, n) = span.page_range(self.disk.page_size());
        let pages = pool.get_run(self.file, first, n)?;
        Document::decode(packed::record(&pages, span, &mut Vec::new()))
    }

    /// Reads one document directly from disk, bypassing any cache.
    pub fn read_doc_direct(&self, doc: DocId) -> Result<Document> {
        let span = self.span(doc);
        let (first, n) = span.page_range(self.disk.page_size());
        let pages = self.disk.read_run(self.file, first, n)?;
        Document::decode(packed::record(&pages, span, &mut Vec::new()))
    }

    /// Reassembles a store from already-persisted parts — the recovery
    /// path: the pages are on `disk` in `file`, the directory (and sparse
    /// id map, if any) was loaded from a persisted catalog.
    pub fn from_parts(
        disk: Arc<DiskSim>,
        file: FileId,
        directory: Vec<ByteSpan>,
        ids: Option<Vec<u32>>,
        total_bytes: u64,
    ) -> Self {
        debug_assert!(ids.as_ref().is_none_or(|ids| ids.len() == directory.len()));
        DocumentStore {
            disk,
            file,
            directory,
            ids,
            total_bytes,
        }
    }

    /// The raw directory of byte spans, in storage order (for persisting).
    pub fn directory(&self) -> &[ByteSpan] {
        &self.directory
    }
}

/// Sequential scanner over a [`DocumentStore`], reading through a
/// [`PackedReader`].
pub struct Scanner<'s> {
    store: &'s DocumentStore,
    next_doc: usize,
    reader: PackedReader<'s>,
}

impl Scanner<'_> {
    /// Readahead counters accumulated by this scan so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.reader.prefetch_stats()
    }
}

impl Iterator for Scanner<'_> {
    type Item = Result<(DocId, Document)>;

    fn next(&mut self) -> Option<Self::Item> {
        let span = *self.store.directory.get(self.next_doc)?;
        let doc_id = self.store.doc_at(self.next_doc);
        self.next_doc += 1;
        let doc = self.reader.record(span).and_then(Document::decode);
        Some(doc.map(|d| (doc_id, d)))
    }
}

/// Builds a [`DocumentStore`] by appending documents in document-number
/// order, packing them tightly across page boundaries.
pub struct DocumentStoreBuilder {
    disk: Arc<DiskSim>,
    file: FileId,
    directory: Vec<ByteSpan>,
    ids: Vec<u32>,
    writer: PackedWriter,
}

impl DocumentStoreBuilder {
    /// Starts a new store in file `name` on `disk`.
    pub fn new(disk: Arc<DiskSim>, name: &str) -> Result<Self> {
        let file = disk.create_file_with_kind(name, PageKind::Documents)?;
        Ok(Self {
            writer: PackedWriter::new(Arc::clone(&disk), file),
            disk,
            file,
            directory: Vec::new(),
            ids: Vec::new(),
        })
    }

    /// Appends a document; its document number is the append position
    /// (or one past the highest explicit id if
    /// [`add_with_id`](Self::add_with_id) has been used).
    pub fn add(&mut self, doc: &Document) -> Result<DocId> {
        let next = self.ids.last().map_or(0, |&i| i + 1);
        self.add_with_id(DocId::new(next), doc)
    }

    /// Appends a document under an explicit document number. Ids must be
    /// strictly ascending across the build — this is how a merge preserves
    /// surviving documents' original numbers across deletion holes.
    pub fn add_with_id(&mut self, id: DocId, doc: &Document) -> Result<DocId> {
        if let Some(&last) = self.ids.last() {
            if id.raw() <= last {
                return Err(textjoin_common::Error::InvalidArgument(format!(
                    "document ids must be strictly ascending: {} after {last}",
                    id.raw()
                )));
            }
        }
        self.directory.push(self.writer.append(&doc.encode())?);
        self.ids.push(id.raw());
        Ok(id)
    }

    /// Finishes the store, flushing the final partial page.
    pub fn finish(self) -> Result<DocumentStore> {
        let dense = self.ids.iter().enumerate().all(|(i, &id)| id as usize == i);
        Ok(DocumentStore {
            total_bytes: self.writer.finish()?,
            disk: self.disk,
            file: self.file,
            directory: self.directory,
            ids: (!dense).then_some(self.ids),
        })
    }
}

/// A named collection: the paged store plus its measured profile.
pub struct Collection {
    name: String,
    store: DocumentStore,
    profile: CollectionProfile,
}

impl Collection {
    /// Builds a collection from in-memory documents, writing them to `disk`
    /// and profiling them in one pass.
    pub fn build(
        disk: Arc<DiskSim>,
        name: &str,
        docs: impl IntoIterator<Item = Document>,
    ) -> Result<Self> {
        let mut builder = DocumentStoreBuilder::new(disk, &format!("{name}.docs"))?;
        let mut profiler = CollectionProfile::builder();
        for doc in docs {
            builder.add(&doc)?;
            profiler.observe(&doc);
        }
        let store = builder.finish()?;
        Ok(Self {
            name: name.to_string(),
            store,
            profile: profiler.finish(),
        })
    }

    /// Builds a collection directly from raw texts, tokenizing through the
    /// given shared term registry (the standard mapping of section 3).
    pub fn from_texts<'a>(
        disk: Arc<DiskSim>,
        name: &str,
        registry: &mut crate::text::TermRegistry,
        texts: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self> {
        let docs: Vec<Document> = texts.into_iter().map(|t| registry.ingest(t)).collect();
        Self::build(disk, name, docs)
    }

    /// Reassembles a collection from an already-built store and a profile
    /// of exactly that store's documents (a signature index ranks terms by
    /// its document frequencies) — the recovery / merge path.
    pub fn from_store(name: &str, store: DocumentStore, profile: CollectionProfile) -> Self {
        Self {
            name: name.to_string(),
            store,
            profile,
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The paged store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The measured profile.
    pub fn profile(&self) -> &CollectionProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::TermId;

    fn tiny_disk() -> Arc<DiskSim> {
        Arc::new(DiskSim::new(16)) // 16-byte pages: 3 cells per page
    }

    fn doc(terms: &[(u32, u16)]) -> Document {
        Document::from_term_counts(terms.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn build_store(disk: &Arc<DiskSim>, docs: &[Document]) -> DocumentStore {
        let mut b = DocumentStoreBuilder::new(Arc::clone(disk), "c.docs").unwrap();
        for d in docs {
            b.add(d).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn scan_round_trips_documents_across_page_boundaries() {
        let disk = tiny_disk();
        let docs = vec![
            doc(&[(1, 1), (2, 2)]),
            doc(&[(3, 3), (4, 4), (5, 5), (6, 6)]),
            doc(&[(7, 7)]),
        ];
        let store = build_store(&disk, &docs);
        let scanned: Vec<Document> = store.scan().map(|r| r.unwrap()).map(|(_, d)| d).collect();
        assert_eq!(scanned, docs);
    }

    #[test]
    fn scan_costs_d_pages_with_one_seek() {
        let disk = tiny_disk();
        // 5 docs x 2 cells x 5 bytes = 50 bytes → 4 pages of 16 bytes.
        let docs: Vec<Document> = (0..5).map(|i| doc(&[(2 * i, 1), (2 * i + 1, 1)])).collect();
        let store = build_store(&disk, &docs);
        assert_eq!(store.num_pages(), 4);
        disk.reset_stats();
        disk.reset_head();
        let n = store.scan().count();
        assert_eq!(n, 5);
        let s = disk.stats();
        assert_eq!(s.total_reads(), 4, "each page read exactly once");
        assert_eq!(s.rand_reads, 1, "only the initial seek is random");
    }

    #[test]
    fn prefetching_scan_reads_each_page_exactly_once() {
        let disk = tiny_disk();
        // Enough docs to span well past one readahead window.
        let docs: Vec<Document> = (0..40)
            .map(|i| doc(&[(2 * i, 1), (2 * i + 1, 1)]))
            .collect();
        let store = build_store(&disk, &docs);
        assert!(store.num_pages() > 8, "spans multiple readahead windows");
        disk.reset_stats();
        disk.reset_head();
        let mut scanner = store.scan();
        let n = scanner.by_ref().count();
        assert_eq!(n, 40);
        let s = disk.stats();
        assert_eq!(s.total_reads(), store.num_pages(), "no page read twice");
        assert_eq!(s.rand_reads, 1, "only the initial seek is random");
        let ps = scanner.prefetch_stats();
        assert!(ps.hits > 0, "sequential scan must hit the readahead");
        assert_eq!(ps.wasted, 0, "a full scan consumes every issued page");
    }

    #[test]
    fn scan_prefetch_metrics_are_mirrored() {
        let registry = textjoin_obs::Registry::new();
        let disk = tiny_disk();
        let docs: Vec<Document> = (0..40)
            .map(|i| doc(&[(2 * i, 1), (2 * i + 1, 1)]))
            .collect();
        let store = build_store(&disk, &docs);
        let metrics = textjoin_storage::PrefetchMetrics::register(&registry, "outer_scan");
        store.scan_with_prefetch(Some(metrics)).count();
        assert!(registry.counter("prefetch.issued", "outer_scan").get() > 0);
        assert!(registry.counter("prefetch.hits", "outer_scan").get() > 0);
    }

    #[test]
    fn random_doc_reads_cost_ceil_s_pages() {
        let disk = tiny_disk();
        // Each doc is 4 cells = 20 bytes: straddles two 16-byte pages.
        let docs: Vec<Document> = (0..4u32)
            .map(|i| doc(&[(4 * i, 1), (4 * i + 1, 1), (4 * i + 2, 1), (4 * i + 3, 1)]))
            .collect();
        let store = build_store(&disk, &docs);
        disk.reset_stats();
        disk.reset_head();
        let d = store.read_doc_direct(DocId::new(2)).unwrap();
        assert_eq!(d, docs[2]);
        assert!(disk.stats().rand_reads >= 1);
        assert!(disk.stats().total_reads() <= 2);
    }

    #[test]
    fn pooled_reads_share_pages_between_small_docs() {
        let disk = Arc::new(DiskSim::new(64));
        // 6 docs of 1 cell (5 bytes) → all in one 64-byte page... use 2 pages.
        let docs: Vec<Document> = (0..20u32).map(|i| doc(&[(i, 1)])).collect();
        let store = build_store(&disk, &docs);
        let pool = BufferPool::new(&disk, 4);
        disk.reset_stats();
        for i in 0..20u32 {
            store.read_doc(&pool, DocId::new(i)).unwrap();
        }
        // min{D, N}: reads cost at most D pages, not N.
        assert_eq!(disk.stats().total_reads(), store.num_pages());
    }

    #[test]
    fn directory_spans_are_contiguous_and_tight() {
        let disk = tiny_disk();
        let docs = vec![doc(&[(1, 1)]), doc(&[(2, 1), (3, 1)]), doc(&[(4, 1)])];
        let store = build_store(&disk, &docs);
        assert_eq!(store.span(DocId::new(0)), ByteSpan::new(0, 5));
        assert_eq!(store.span(DocId::new(1)), ByteSpan::new(5, 10));
        assert_eq!(store.span(DocId::new(2)), ByteSpan::new(15, 5));
        assert_eq!(store.total_bytes(), 20);
    }

    #[test]
    fn collection_build_profiles_while_writing() {
        let disk = tiny_disk();
        let c = Collection::build(
            Arc::clone(&disk),
            "tiny",
            vec![doc(&[(1, 2), (2, 1)]), doc(&[(2, 3)])],
        )
        .unwrap();
        assert_eq!(c.name(), "tiny");
        assert_eq!(c.store().num_docs(), 2);
        let stats = c.profile().stats();
        assert_eq!(stats.num_docs, 2);
        assert_eq!(stats.distinct_terms, 2);
        assert!((stats.avg_terms_per_doc - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_texts_tokenizes_through_shared_registry() {
        let disk = Arc::new(DiskSim::new(4096));
        let mut registry = crate::text::TermRegistry::new();
        let c = Collection::from_texts(
            Arc::clone(&disk),
            "texts",
            &mut registry,
            ["join processing engines", "query engines and joins"],
        )
        .unwrap();
        assert_eq!(c.store().num_docs(), 2);
        let join = registry.lookup("join").expect("stemmed, interned");
        assert_eq!(c.profile().doc_frequency(join), 2);
    }

    #[test]
    fn empty_collection_is_representable() {
        let disk = tiny_disk();
        let store = build_store(&disk, &[]);
        assert_eq!(store.num_docs(), 0);
        assert_eq!(store.num_pages(), 0);
        assert_eq!(store.scan().count(), 0);
    }
}
