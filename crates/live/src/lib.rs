//! Crash-safe incremental collections.
//!
//! The paper's storage model (section 3) is bulk-loaded and immutable; a
//! production join service sees live traffic that inserts and deletes
//! documents. This crate layers a crash-safe mutation path over the
//! immutable base structures:
//!
//! 1. every mutation is appended to a checksummed **write-ahead update
//!    log** ([`wal`]) before it is applied anywhere;
//! 2. mutations materialize into an in-memory **delta overlay**
//!    ([`textjoin_invfile::DeltaOverlay`]) — inserts in a tail inverted on
//!    first read, deletes as tombstones — optionally flushed to side files;
//! 3. a **background merge** folds base + overlay into a fresh generation
//!    of base files — one stream of live documents (store, profile), one of
//!    live entries ([`textjoin_invfile::DeltaScan::over`] the base) —
//!    killable at any page write: it builds them under temporary names,
//!    publishes them by rename, and commits with a single-page append to
//!    the **manifest** ([`manifest`]); no live base page is ever overwritten;
//! 4. **recovery** ([`LiveCollection::recover`]) reads the manifest to
//!    find the last committed generation, reopens its files through the
//!    persisted catalog ([`catalog`]), replays the WAL (dropping a torn
//!    tail), and deletes any orphan files an interrupted merge left
//!    behind.
//!
//! The overlay's side-file pages and tombstone ratio are exported as
//! [`FragStats`] — the fragmentation term the cost model charges scans
//! with until the next merge.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod manifest;
pub mod wal;

use parking_lot::RwLock;
use std::sync::Arc;
use textjoin_collection::{
    Collection, CollectionProfile, Document, DocumentStore, DocumentStoreBuilder,
};
use textjoin_common::{DocId, Error, FragStats, ICell, Result, TermId};
use textjoin_invfile::{BTreeFile, DeltaOverlay, DeltaScan, FlushedDelta, InvertedFile};
use textjoin_storage::{DiskSim, FileId};
use wal::WalOp;

/// A mutable, crash-safe collection: an immutable base generation plus a
/// WAL-backed delta overlay, with a recoverable background merge.
pub struct LiveCollection {
    disk: Arc<DiskSim>,
    name: String,
    generation: u64,
    manifest: FileId,
    wal: FileId,
    base: Collection,
    base_inv: InvertedFile,
    overlay: DeltaOverlay,
    next_id: u32,
    flush_seq: u64,
}

/// A merge prepared but not yet committed: the complete next-generation
/// structures, built under temporary names, plus the WAL snapshot point.
/// Dropping it without committing abandons the merge (recovery or the next
/// prepare cleans up the temporary files).
pub struct PreparedMerge {
    new_generation: u64,
    wal_pages_at_snapshot: u64,
    base: Collection,
    inv: InvertedFile,
}

impl LiveCollection {
    fn gen_name(name: &str, generation: u64) -> String {
        format!("{name}.g{generation}")
    }

    /// Creates generation 0 from bulk documents: base files, catalog, an
    /// empty WAL, and the manifest committing the generation.
    pub fn create(
        disk: Arc<DiskSim>,
        name: &str,
        docs: impl IntoIterator<Item = Document>,
    ) -> Result<Self> {
        let gen_name = Self::gen_name(name, 0);
        let base = Collection::build(Arc::clone(&disk), &gen_name, docs)?;
        let base_inv = InvertedFile::build(Arc::clone(&disk), &gen_name, &base)?;
        catalog::write(&disk, &format!("{gen_name}.dir"), base.store(), &base_inv)?;
        let wal = disk.create_file(&format!("{gen_name}.wal"))?;
        let manifest = disk.create_file(&format!("{name}.manifest"))?;
        manifest::commit(&disk, manifest, 0)?;
        let next_id = base.store().num_docs() as u32;
        Ok(Self {
            disk,
            name: name.to_string(),
            generation: 0,
            manifest,
            wal,
            base,
            base_inv,
            overlay: DeltaOverlay::new(),
            next_id,
            flush_seq: 0,
        })
    }

    /// The user-visible collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The live generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The immutable base of the live generation.
    pub fn base(&self) -> &Collection {
        &self.base
    }

    /// The base inverted file of the live generation.
    pub fn base_inv(&self) -> &InvertedFile {
        &self.base_inv
    }

    /// The pending mutations over the base.
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// The simulated disk.
    pub fn disk(&self) -> &Arc<DiskSim> {
        &self.disk
    }

    /// Number of live documents (base minus tombstones plus live inserts).
    pub fn num_live_docs(&self) -> u64 {
        self.live_ids().len() as u64
    }

    /// All live document numbers, ascending.
    pub fn live_ids(&self) -> Vec<DocId> {
        self.overlay.live_ids_over(self.base.store())
    }

    /// The fragmentation the overlay has accumulated since the last merge.
    pub fn frag_stats(&self) -> FragStats {
        self.overlay.frag_stats(self.base.store().num_docs())
    }

    /// Inserts a document: WAL first, then the in-memory tail. The
    /// assigned document number is monotonic and never reused.
    pub fn insert(&mut self, doc: Document) -> Result<DocId> {
        let id = DocId::new(self.next_id);
        wal::append(
            &self.disk,
            self.wal,
            &WalOp::Insert {
                id,
                doc: doc.clone(),
            },
        )?;
        self.overlay.insert_tail(id, doc);
        self.next_id += 1;
        Ok(id)
    }

    /// Deletes a document, returning whether it was live. A miss writes
    /// nothing.
    pub fn delete(&mut self, id: DocId) -> Result<bool> {
        let live_in_base = self.base.store().contains(id) && !self.overlay.is_deleted(id);
        if !live_in_base && !self.overlay.holds(id) {
            return Ok(false);
        }
        wal::append(&self.disk, self.wal, &WalOp::Delete { id })?;
        self.overlay.delete(id);
        Ok(true)
    }

    /// Fetches one live document (base or delta), or `None`.
    pub fn doc(&self, id: DocId) -> Result<Option<Document>> {
        if self.overlay.is_deleted(id) {
            return Ok(None);
        }
        if let Some(doc) = self.overlay.doc(id)? {
            return Ok(Some(doc));
        }
        if self.base.store().contains(id) {
            return Ok(Some(self.base.store().read_doc_direct(id)?));
        }
        Ok(None)
    }

    /// Flushes the in-memory tail (together with any previously flushed
    /// inserts) into fresh packed side files, shrinking resident memory
    /// without touching the base. Crash-safe trivially: the WAL remains
    /// the recovery source and side files are rebuilt or discarded.
    pub fn flush(&mut self) -> Result<()> {
        if self.overlay.tail_docs().is_empty() {
            return Ok(());
        }
        let live = self.overlay.live_docs()?;
        let seq = self.flush_seq + 1;
        let side_name = format!("{}.f{seq}", Self::gen_name(&self.name, self.generation));
        let mut builder =
            DocumentStoreBuilder::new(Arc::clone(&self.disk), &format!("{side_name}.docs"))?;
        for (id, doc) in &live {
            builder.add_with_id(*id, doc)?;
        }
        let store = builder.finish()?;
        let entries = self.live_entries(self.overlay.scan_between(0, None));
        let inv = InvertedFile::from_entries(
            Arc::clone(&self.disk),
            &side_name,
            entries,
            self.base_inv.codec(),
        )?;
        self.remove_side_files(self.flush_seq);
        self.overlay.set_flushed(FlushedDelta { store, inv });
        self.flush_seq = seq;
        Ok(())
    }

    /// `scan`'s entries less their tombstoned cells (a bit set indexed by
    /// document number, built once), a term left with none skipped.
    fn live_entries<'a>(
        &self,
        scan: DeltaScan<'a>,
    ) -> impl Iterator<Item = Result<(TermId, Vec<ICell>)>> + 'a {
        let deleted = self.overlay.deleted_ids();
        let mut dead = vec![0u64; deleted.last().map_or(0, |&id| id as usize / 64 + 1)];
        for &id in deleted {
            dead[id as usize / 64] |= 1 << (id % 64);
        }
        let dead = move |i: usize| dead.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
        scan.filter_map(move |entry| {
            let entry = entry.map(|(term, mut cells)| {
                cells.retain(|c| !dead(c.doc.index()));
                (!cells.is_empty()).then_some((term, cells))
            });
            entry.transpose()
        })
    }

    fn remove_side_files(&self, seq: u64) {
        if seq == 0 {
            return;
        }
        let side_name = format!("{}.f{seq}", Self::gen_name(&self.name, self.generation));
        for suffix in ["docs", "inv", "btree"] {
            let _ = self.disk.remove_file(&format!("{side_name}.{suffix}"));
        }
    }

    /// Phase 1 of a merge: streams every live document (base minus
    /// tombstones, plus delta inserts, original ids preserved) into the next
    /// store and profile, then every live entry of [`DeltaScan::over`] the
    /// base into its inverted file, all under `.tmp`-suffixed names.
    /// Killable at any page write — on error the temporaries are garbage
    /// that the next prepare or a recovery sweeps up; the live generation
    /// is untouched. Takes `&self`: reads may proceed concurrently.
    pub fn prepare_merge(&self) -> Result<PreparedMerge> {
        let new_generation = self.generation + 1;
        let tmp_name = format!("{}.tmp", Self::gen_name(&self.name, new_generation));
        // Sweep temporaries a previously killed merge may have left.
        for suffix in ["docs", "inv", "btree", "dir"] {
            let _ = self.disk.remove_file(&format!("{tmp_name}.{suffix}"));
        }
        let wal_pages_at_snapshot = self.disk.num_pages(self.wal);

        let mut builder =
            DocumentStoreBuilder::new(Arc::clone(&self.disk), &format!("{tmp_name}.docs"))?;
        let mut profiler = CollectionProfile::builder();
        for item in self.overlay.docs_over(self.base.store().scan()) {
            let (id, doc) = item?;
            builder.add_with_id(id, &doc)?;
            profiler.observe_at(id, &doc);
        }
        let store = builder.finish()?;
        let scan = DeltaScan::over(&self.base_inv, 0, None, Some(&self.overlay), None);
        let entries = self.live_entries(scan);
        let codec = self.base_inv.codec();
        let inv = InvertedFile::from_entries(Arc::clone(&self.disk), &tmp_name, entries, codec)?;
        catalog::write(&self.disk, &format!("{tmp_name}.dir"), &store, &inv)?;
        let base = Collection::from_store(
            &Self::gen_name(&self.name, new_generation),
            store,
            profiler.finish(),
        );
        Ok(PreparedMerge {
            new_generation,
            wal_pages_at_snapshot,
            base,
            inv,
        })
    }

    /// Phase 2 of a merge: publishes the prepared generation. Renames the
    /// temporaries to their final names, carries WAL records appended
    /// after the snapshot into the new generation's WAL, commits with one
    /// manifest append (the atomic point), then removes the old
    /// generation's files. A crash before the manifest append leaves the
    /// old generation live and complete; after it, the new one.
    pub fn commit_merge(&mut self, prepared: PreparedMerge) -> Result<()> {
        let old_gen_name = Self::gen_name(&self.name, self.generation);
        let new_gen_name = Self::gen_name(&self.name, prepared.new_generation);
        let tmp_name = format!("{new_gen_name}.tmp");
        for suffix in ["docs", "inv", "btree", "dir"] {
            self.disk.rename_file(
                &format!("{tmp_name}.{suffix}"),
                &format!("{new_gen_name}.{suffix}"),
            )?;
        }
        // Carry forward mutations that arrived after the snapshot: copy
        // their raw WAL pages (records are page-aligned) to the new log.
        let new_wal = self.disk.create_file(&format!("{new_gen_name}.wal"))?;
        let old_wal_pages = self.disk.num_pages(self.wal);
        for page in prepared.wal_pages_at_snapshot..old_wal_pages {
            let data = self.disk.read_page(self.wal, page)?;
            self.disk.append_page(new_wal, &data)?;
        }
        manifest::commit(&self.disk, self.manifest, prepared.new_generation)?;

        // Committed: everything below is cleanup and in-memory swap.
        let old_flush_seq = self.flush_seq;
        for suffix in ["docs", "inv", "btree", "dir", "wal"] {
            let _ = self.disk.remove_file(&format!("{old_gen_name}.{suffix}"));
        }
        self.remove_side_files(old_flush_seq);

        let replayed = wal::replay(&self.disk, new_wal);
        let mut overlay = DeltaOverlay::new();
        for op in replayed.ops {
            match op {
                WalOp::Insert { id, doc } => overlay.insert_tail(id, doc),
                WalOp::Delete { id } => overlay.delete(id),
            }
        }
        self.generation = prepared.new_generation;
        self.wal = new_wal;
        self.base = prepared.base;
        self.base_inv = prepared.inv;
        self.overlay = overlay;
        self.flush_seq = 0;
        Ok(())
    }

    /// Prepares and commits a merge in one call.
    pub fn merge(&mut self) -> Result<()> {
        let prepared = self.prepare_merge()?;
        self.commit_merge(prepared)
    }

    /// Reopens a live collection from disk alone — the restart path. Reads
    /// the manifest for the last committed generation, reopens its files
    /// through the persisted catalog, rebuilds the profile with one base
    /// scan, replays the WAL into a fresh overlay (dropping any torn
    /// tail), and removes every file a killed merge or flush left behind.
    pub fn recover(disk: Arc<DiskSim>, name: &str) -> Result<Self> {
        let manifest = disk
            .file_by_name(&format!("{name}.manifest"))
            .ok_or_else(|| Error::NotFound(format!("manifest of collection '{name}'")))?;
        let generation = manifest::live_generation(&disk, manifest)?;
        let gen_name = Self::gen_name(name, generation);

        let open = |suffix: &str| -> Result<FileId> {
            disk.file_by_name(&format!("{gen_name}.{suffix}"))
                .ok_or_else(|| Error::NotFound(format!("{gen_name}.{suffix}")))
        };
        let cat = catalog::read(&disk, open("dir")?)?;
        let store = DocumentStore::from_parts(
            Arc::clone(&disk),
            open("docs")?,
            cat.doc_directory,
            cat.doc_ids,
            cat.doc_total_bytes,
        );
        let (root, height, num_terms, first_leaf, num_leaf_pages) = cat.btree;
        let btree = BTreeFile::from_parts(
            Arc::clone(&disk),
            open("btree")?,
            root,
            height,
            num_terms,
            first_leaf,
            num_leaf_pages,
        );
        let inv = InvertedFile::from_parts(
            Arc::clone(&disk),
            open("inv")?,
            cat.inv_directory,
            btree,
            cat.inv_total_bytes,
            cat.codec,
        );
        // The profile is not persisted: one sequential base scan rebuilds
        // it (recovery cost, not query cost).
        let mut profiler = CollectionProfile::builder();
        for item in store.scan() {
            let (id, doc) = item?;
            profiler.observe_at(id, &doc);
        }
        let mut max_id = store.doc_ids().last().map(|d| d.raw());
        let base = Collection::from_store(&gen_name, store, profiler.finish());

        let wal = match disk.file_by_name(&format!("{gen_name}.wal")) {
            Some(f) => f,
            None => disk.create_file(&format!("{gen_name}.wal"))?,
        };
        let mut overlay = DeltaOverlay::new();
        for op in wal::replay(&disk, wal).ops {
            match op {
                WalOp::Insert { id, doc } => {
                    max_id = Some(max_id.map_or(id.raw(), |m| m.max(id.raw())));
                    overlay.insert_tail(id, doc);
                }
                WalOp::Delete { id } => overlay.delete(id),
            }
        }
        let next_id = max_id.map_or(0, |m| m + 1);

        // Sweep orphans: any generation-qualified file that is not part of
        // the live generation (killed merges, stale flush side files).
        let keep: Vec<String> = ["docs", "inv", "btree", "dir", "wal"]
            .iter()
            .map(|s| format!("{gen_name}.{s}"))
            .collect();
        let prefix = format!("{name}.g");
        for file in disk.file_names() {
            if file.starts_with(&prefix) && !keep.contains(&file) {
                let _ = disk.remove_file(&file);
            }
        }

        Ok(Self {
            disk,
            name: name.to_string(),
            generation,
            manifest,
            wal,
            base,
            base_inv: inv,
            overlay,
            next_id,
            flush_seq: 0,
        })
    }
}

/// Runs a merge against a shared live collection on a background thread:
/// the slow prepare phase holds only a read lock (queries and even
/// mutations proceed — the WAL snapshot point makes late mutations carry
/// forward), and the fast commit takes the write lock briefly.
pub fn merge_in_background(
    live: Arc<RwLock<LiveCollection>>,
) -> std::thread::JoinHandle<Result<()>> {
    std::thread::spawn(move || {
        let prepared = live.read().prepare_merge()?;
        live.write().commit_merge(prepared)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_invfile::postings_of;

    fn doc(terms: &[(u32, u16)]) -> Document {
        Document::from_term_counts(terms.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn seed_docs(n: u32) -> Vec<Document> {
        (0..n)
            .map(|i| doc(&[(i % 7, 1 + (i % 3) as u16), (7 + i % 5, 2)]))
            .collect()
    }

    fn disk() -> Arc<DiskSim> {
        Arc::new(DiskSim::new(64))
    }

    /// The reference: all live documents, rebuilt from scratch.
    fn live_contents(lc: &LiveCollection) -> Vec<(DocId, Document)> {
        let mut out = Vec::new();
        for item in lc.base().store().scan() {
            let (id, d) = item.unwrap();
            if !lc.overlay().is_deleted(id) {
                out.push((id, d));
            }
        }
        out.extend(lc.overlay().live_docs().unwrap());
        out
    }

    #[test]
    fn insert_delete_and_lookup() {
        let mut lc = LiveCollection::create(disk(), "c", seed_docs(5)).unwrap();
        assert_eq!(lc.num_live_docs(), 5);
        let id = lc.insert(doc(&[(50, 9)])).unwrap();
        assert_eq!(id, DocId::new(5));
        assert_eq!(lc.doc(id).unwrap(), Some(doc(&[(50, 9)])));
        assert!(lc.delete(DocId::new(2)).unwrap());
        assert!(!lc.delete(DocId::new(2)).unwrap(), "double delete misses");
        assert!(!lc.delete(DocId::new(77)).unwrap(), "unknown id misses");
        assert_eq!(lc.num_live_docs(), 5);
        assert_eq!(lc.doc(DocId::new(2)).unwrap(), None);
        let ids = lc.live_ids();
        assert!(!ids.contains(&DocId::new(2)) && ids.contains(&DocId::new(5)));
    }

    /// `delete` hits a live base, flushed or tail document and misses a
    /// tombstoned or never-inserted one, and only a hit appends to the WAL.
    #[test]
    fn delete_hits_only_live_ids_and_logs_only_hits() {
        let d = disk();
        let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(4)).unwrap();
        let flushed = lc.insert(doc(&[(20, 1)])).unwrap();
        lc.flush().unwrap();
        let tail = lc.insert(doc(&[(21, 1)])).unwrap();
        let (base, unborn) = (DocId::new(1), DocId::new(6));
        let cases = [
            (base, true),
            (flushed, true),
            (tail, true),
            (base, false),
            (flushed, false),
            (tail, false),
            (unborn, false),
            (DocId::new(77), false),
        ];
        for (id, hit) in cases {
            let wal_pages = d.num_pages(lc.wal);
            assert_eq!(lc.delete(id).unwrap(), hit, "{id:?}");
            assert_eq!(d.num_pages(lc.wal) > wal_pages, hit, "{id:?}");
        }
        assert_eq!(lc.live_ids(), [0, 2, 3].map(DocId::new));
        assert_eq!(lc.num_live_docs(), 3);
    }

    #[test]
    fn recovery_replays_the_wal() {
        let d = disk();
        let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(4)).unwrap();
        lc.insert(doc(&[(9, 9)])).unwrap();
        lc.delete(DocId::new(1)).unwrap();
        let before = live_contents(&lc);
        drop(lc);
        let lc = LiveCollection::recover(d, "c").unwrap();
        assert_eq!(live_contents(&lc), before);
        assert_eq!(lc.num_live_docs(), 4);
        assert_eq!(lc.generation(), 0);
    }

    #[test]
    fn merge_folds_overlay_into_next_generation() {
        let d = disk();
        let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(6)).unwrap();
        lc.insert(doc(&[(11, 3)])).unwrap();
        lc.delete(DocId::new(0)).unwrap();
        lc.flush().unwrap();
        lc.insert(doc(&[(12, 4)])).unwrap();
        let before = live_contents(&lc);
        lc.merge().unwrap();
        assert_eq!(lc.generation(), 1);
        assert!(lc.overlay().is_empty(), "merge absorbs the whole overlay");
        assert!(lc.frag_stats().is_pristine());
        assert_eq!(live_contents(&lc), before);
        // Old generation files are gone; ids preserved across the merge.
        assert!(d.file_by_name("c.g0.docs").is_none());
        assert_eq!(lc.base().store().doc_ids().first(), Some(&DocId::new(1)));
        // Mutations keep working after the merge and survive recovery.
        let id = lc.insert(doc(&[(13, 1)])).unwrap();
        assert_eq!(id, DocId::new(8));
        let after = live_contents(&lc);
        drop(lc);
        let lc = LiveCollection::recover(d, "c").unwrap();
        assert_eq!(lc.generation(), 1);
        assert_eq!(live_contents(&lc), after);
    }

    /// Merges `lc` and checks the new generation's inverted file against
    /// one rebuilt from its live documents under another name: the same
    /// directory, the same `.inv` and `.btree` pages.
    fn assert_merge_is_a_rebuild(lc: &mut LiveCollection) {
        let live = live_contents(lc);
        lc.merge().unwrap();
        let (d, generation) = (Arc::clone(lc.disk()), lc.generation());
        let postings = postings_of(live.iter().map(|(id, doc)| Ok((*id, doc)))).unwrap();
        let name = format!("rebuilt{generation}");
        let codec = lc.base_inv().codec();
        let rebuilt = InvertedFile::from_postings_with(Arc::clone(&d), &name, postings, codec);
        assert_eq!(lc.base_inv().directory(), rebuilt.unwrap().directory());
        let pages = |file: String| {
            let file = d.file_by_name(&file).unwrap();
            let n = d.num_pages(file);
            (0..n)
                .map(|p| d.read_page(file, p).unwrap())
                .collect::<Vec<_>>()
        };
        for ext in ["inv", "btree"] {
            let merged = pages(format!("c.g{generation}.{ext}"));
            assert!(!merged.is_empty(), "{ext}");
            assert_eq!(merged, pages(format!("{name}.{ext}")), "{ext}");
        }
    }

    /// A merge streams the base file seen through the overlay and writes
    /// what a rebuild from the live documents writes: tombstoned cells
    /// dropped, a term left with none absent, a term only the tail holds
    /// present; and so does a second merge over the first one's base.
    #[test]
    fn a_merge_writes_what_a_rebuild_writes() {
        let mut docs = seed_docs(8);
        docs[2] = doc(&[(1, 1), (40, 2)]);
        docs[5] = doc(&[(40, 1), (41, 3)]);
        let mut lc = LiveCollection::create(disk(), "c", docs).unwrap();
        let flushed = lc.insert(doc(&[(3, 2), (42, 1)])).unwrap();
        lc.insert(doc(&[(41, 1)])).unwrap();
        for id in [DocId::new(2), DocId::new(5), flushed] {
            assert!(lc.delete(id).unwrap());
        }
        lc.flush().unwrap();
        lc.insert(doc(&[(2, 1), (50, 4)])).unwrap();
        assert!(lc.base_inv().find_term(TermId::new(50)).is_none());
        assert_merge_is_a_rebuild(&mut lc);
        for gone in [40, 42] {
            assert!(
                lc.base_inv().find_term(TermId::new(gone)).is_none(),
                "{gone}"
            );
        }
        let tail_term = lc.base_inv().find_term(TermId::new(50));
        assert_eq!(tail_term.map(|o| lc.base_inv().meta(o).doc_freq), Some(1));

        lc.insert(doc(&[(50, 1), (60, 2)])).unwrap();
        assert!(lc.delete(DocId::new(0)).unwrap());
        lc.flush().unwrap();
        lc.insert(doc(&[(1, 5)])).unwrap();
        assert_merge_is_a_rebuild(&mut lc);
        assert_eq!(lc.generation(), 2);
    }

    #[test]
    fn frag_stats_track_overlay_decay() {
        let d = disk();
        let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(10)).unwrap();
        assert!(lc.frag_stats().is_pristine());
        lc.delete(DocId::new(3)).unwrap();
        let f = lc.frag_stats();
        assert!(f.tombstone_ratio > 0.0 && f.doc_delta_pages == 0);
        lc.insert(doc(&[(20, 1)])).unwrap();
        lc.flush().unwrap();
        let f = lc.frag_stats();
        assert!(f.doc_delta_pages > 0 && f.inv_delta_pages > 0);
        lc.merge().unwrap();
        assert!(lc.frag_stats().is_pristine());
    }

    #[test]
    fn crash_at_every_merge_write_recovers_to_consistent_state() {
        // The acceptance property, exhaustively at unit scale: kill the
        // merge at the k-th page write for every k, restart, and check the
        // recovered contents equal either the pre-merge or post-merge
        // state (the manifest append decides which) — never a mix.
        let reference = {
            let d = disk();
            let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(6)).unwrap();
            lc.insert(doc(&[(11, 3)])).unwrap();
            lc.delete(DocId::new(2)).unwrap();
            live_contents(&lc)
        };
        let mut killed_some = false;
        let mut survived_some = false;
        for k in 0.. {
            let d = disk();
            let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(6)).unwrap();
            lc.insert(doc(&[(11, 3)])).unwrap();
            lc.delete(DocId::new(2)).unwrap();
            d.set_write_crash_after(k);
            let merged = lc.merge();
            d.clear_write_crash();
            if merged.is_ok() {
                survived_some = true;
            } else {
                killed_some = true;
            }
            drop(lc);
            let lc = LiveCollection::recover(Arc::clone(&d), "c").unwrap();
            assert_eq!(live_contents(&lc), reference, "crash after {k} writes");
            // Whatever generation survived, it must merge cleanly now.
            let mut lc = lc;
            lc.merge().unwrap();
            assert_eq!(live_contents(&lc), reference);
            if merged.is_ok() {
                break;
            }
        }
        assert!(killed_some && survived_some);
    }

    #[test]
    fn background_merge_with_concurrent_mutations_carries_them_forward() {
        let d = disk();
        let mut lc = LiveCollection::create(Arc::clone(&d), "c", seed_docs(8)).unwrap();
        lc.insert(doc(&[(30, 1)])).unwrap();
        let live = Arc::new(RwLock::new(lc));
        let handle = merge_in_background(Arc::clone(&live));
        // Mutations racing the merge: the RwLock admits them during the
        // prepare phase; whichever side of the snapshot they land on, the
        // carry-forward keeps them.
        {
            let mut guard = live.write();
            guard.insert(doc(&[(31, 2)])).unwrap();
            guard.delete(DocId::new(1)).unwrap();
        }
        handle.join().unwrap().unwrap();
        let guard = live.read();
        assert_eq!(guard.generation(), 1);
        let contents = live_contents(&guard);
        let ids: Vec<u32> = contents.iter().map(|(d, _)| d.raw()).collect();
        assert!(!ids.contains(&1), "racing delete survived the merge");
        assert!(ids.contains(&9), "racing insert survived the merge");
        assert_eq!(guard.num_live_docs(), 9);
    }
}
