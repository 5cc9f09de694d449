//! Collection statistics and the derived quantities of section 3.
//!
//! Every cost formula of section 5 sees a collection only through the
//! statistics gathered here:
//!
//! | symbol | meaning | derivation |
//! |--------|---------|------------|
//! | `N`    | number of documents | primary |
//! | `K`    | average number of terms per document | primary |
//! | `T`    | number of distinct terms | primary |
//! | `S`    | average document size in pages | `5·K / P` |
//! | `D`    | collection size in pages | `S·N` (tightly packed) |
//! | `J`    | average inverted-entry size in pages | `5·(K·N) / (T·P)` |
//! | `I`    | inverted-file size in pages | `J·T` (tightly packed) |
//! | `Bt`   | B+tree size in pages | `9·T / P` (leaf level only) |
//!
//! The constructors [`CollectionStats::wsj`], [`fr`](CollectionStats::fr) and
//! [`doe`](CollectionStats::doe) carry the primary statistics of the three
//! TREC-1 collections from the paper's section 6 table.

use crate::cell::CELL_BYTES;
use crate::params::{SystemParams, BTREE_CELL_BYTES};

/// Primary statistics of a document collection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectionStats {
    /// `N` — number of documents.
    pub num_docs: u64,
    /// `K` — average number of terms (d-cells) per document.
    pub avg_terms_per_doc: f64,
    /// `T` — number of distinct terms in the collection.
    pub distinct_terms: u64,
}

impl CollectionStats {
    /// Builds statistics from primary quantities.
    pub fn new(num_docs: u64, avg_terms_per_doc: f64, distinct_terms: u64) -> Self {
        Self {
            num_docs,
            avg_terms_per_doc,
            distinct_terms,
        }
    }

    /// Wall Street Journal (TREC-1): 98 736 documents, 329 terms/doc,
    /// 156 298 distinct terms.
    pub fn wsj() -> Self {
        Self::new(98_736, 329.0, 156_298)
    }

    /// Federal Register (TREC-1): 26 207 documents, 1 017 terms/doc,
    /// 126 258 distinct terms — fewer but larger documents.
    pub fn fr() -> Self {
        Self::new(26_207, 1017.0, 126_258)
    }

    /// Department of Energy abstracts (TREC-1): 226 087 documents,
    /// 89 terms/doc, 186 225 distinct terms — many small documents.
    pub fn doe() -> Self {
        Self::new(226_087, 89.0, 186_225)
    }

    /// `S` — average document size in pages: `5·K / P`.
    #[inline]
    pub fn avg_doc_pages(&self, page_size: usize) -> f64 {
        (CELL_BYTES as f64 * self.avg_terms_per_doc) / page_size as f64
    }

    /// `D` — collection size in pages: `S·N`, tightly packed.
    #[inline]
    pub fn collection_pages(&self, page_size: usize) -> f64 {
        self.avg_doc_pages(page_size) * self.num_docs as f64
    }

    /// `J` — average inverted-file entry size in pages:
    /// `5·(K·N) / (T·P)`.
    #[inline]
    pub fn avg_entry_pages(&self, page_size: usize) -> f64 {
        (CELL_BYTES as f64 * self.avg_terms_per_doc * self.num_docs as f64)
            / (self.distinct_terms as f64 * page_size as f64)
    }

    /// `I` — inverted-file size in pages: `J·T`, tightly packed. Equal to
    /// `D` by construction when document and term numbers have the same
    /// size, as the paper observes.
    #[inline]
    pub fn inverted_file_pages(&self, page_size: usize) -> f64 {
        self.avg_entry_pages(page_size) * self.distinct_terms as f64
    }

    /// `Bt` — B+tree size in pages, counting only the leaf level of
    /// 9-byte cells: `9·T / P`.
    #[inline]
    pub fn btree_pages(&self, page_size: usize) -> f64 {
        (BTREE_CELL_BYTES as f64 * self.distinct_terms as f64) / page_size as f64
    }

    /// Average document frequency of a term: `K·N / T` postings per entry.
    #[inline]
    pub fn avg_doc_frequency(&self) -> f64 {
        self.avg_terms_per_doc * self.num_docs as f64 / self.distinct_terms as f64
    }

    /// Scales the collection for group-5 experiments: divides the number of
    /// documents by `factor` and multiplies the terms per document by the
    /// same factor, keeping the collection size (and with it `D`, `J`, `I`)
    /// unchanged while shrinking `N` — the regime where VVM's `N₁·N₂`
    /// intermediate state becomes affordable.
    pub fn derive_scaled(&self, factor: u64) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        Self {
            num_docs: (self.num_docs / factor).max(1),
            avg_terms_per_doc: self.avg_terms_per_doc * factor as f64,
            distinct_terms: self.distinct_terms,
        }
    }

    /// Restricts the statistics to a selected subset of `selected` documents
    /// (group 3/4 experiments). Only `N` changes; `K` and `T` keep the
    /// per-document shape. `T` is reduced by the expected vocabulary of the
    /// subset, `T·(1 - (1 - K/T)^n)` — the same vocabulary-growth model the
    /// paper uses for `f(m)` in section 5.2.
    pub fn select_docs(&self, selected: u64) -> Self {
        let n = selected.min(self.num_docs);
        let t = self.distinct_terms as f64;
        let k = self.avg_terms_per_doc;
        let expected_vocab = t * (1.0 - (1.0 - k / t).powf(n as f64));
        Self {
            num_docs: n,
            avg_terms_per_doc: k,
            distinct_terms: (expected_vocab.round() as u64).clamp(1, self.distinct_terms),
        }
    }

    /// Expected number of distinct terms among `m` documents:
    /// `f(m) = T - (1 - K/T)^m · T` (section 5.2).
    #[inline]
    pub fn expected_vocabulary(&self, m: f64) -> f64 {
        let t = self.distinct_terms as f64;
        t - (1.0 - self.avg_terms_per_doc / t).powf(m) * t
    }

    /// Convenience accessor bundling the derived sizes for a given system
    /// configuration.
    pub fn derived(&self, params: &SystemParams) -> DerivedSizes {
        let p = params.page_size;
        DerivedSizes {
            avg_doc_pages: self.avg_doc_pages(p),
            collection_pages: self.collection_pages(p),
            avg_entry_pages: self.avg_entry_pages(p),
            inverted_file_pages: self.inverted_file_pages(p),
            btree_pages: self.btree_pages(p),
        }
    }
}

/// Fragmentation of an incrementally-updated collection: the extra pages
/// and dead postings a base+delta overlay accumulates between merges. A
/// pristine (just-merged or bulk-loaded) collection is all zeros. Scans of
/// a fragmented collection pay for the delta side files on top of the base,
/// and tombstoned documents inflate every base page count relative to the
/// live data actually returned — the decay the cost model charges for.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FragStats {
    /// Pages of the flushed delta document side file.
    pub doc_delta_pages: u64,
    /// Pages of the flushed delta inverted side file.
    pub inv_delta_pages: u64,
    /// Tombstoned fraction of the stored documents (0 = pristine).
    pub tombstone_ratio: f64,
}

impl FragStats {
    /// Whether the collection is pristine (no fragmentation at all).
    pub fn is_pristine(&self) -> bool {
        self.doc_delta_pages == 0 && self.inv_delta_pages == 0 && self.tombstone_ratio == 0.0
    }
}

/// Measured sizes of a collection's FNL signature index: the rarity-ordered,
/// gap-compressed re-encoding of the base collection that the FNL executor
/// scans instead of the document store, plus its term-ordering sidecar. Both
/// counts are *measured* at build time (actual pages written through the
/// buffer pool), not derived from averages — the index is variable-length
/// coded, so no closed formula predicts its size the way `5·K/P` predicts
/// `S`. Cost inputs carry an `Option<FnlStats>`; `None` means no signature
/// index exists for the inner side and FNL is infeasible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FnlStats {
    /// Pages of the term-ordering sidecar (rank → term/df table plus the
    /// per-document term counts) read once at executor start-up.
    pub meta_pages: u64,
    /// Pages of the signature file proper — one gap-coded, rarity-ordered
    /// entry per base document — read once per outer pass.
    pub index_pages: u64,
    /// In-memory footprint of the decoded sidecar (rank tables both ways),
    /// charged against the buffer budget for the whole run.
    pub meta_bytes: u64,
}

/// The derived page-size quantities `S`, `D`, `J`, `I`, `Bt` for one
/// collection under one system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DerivedSizes {
    /// `S` — average document size in pages.
    pub avg_doc_pages: f64,
    /// `D` — collection size in pages.
    pub collection_pages: f64,
    /// `J` — average inverted-entry size in pages.
    pub avg_entry_pages: f64,
    /// `I` — inverted-file size in pages.
    pub inverted_file_pages: f64,
    /// `Bt` — B+tree size in pages.
    pub btree_pages: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DEFAULT_PAGE_SIZE;

    const P: usize = DEFAULT_PAGE_SIZE;

    #[test]
    fn wsj_derived_sizes_match_paper_table() {
        let wsj = CollectionStats::wsj();
        // Paper's table: avg doc size 0.41 pages, avg entry size 0.26 pages,
        // collection ~40 605 pages. Our formula-derived values should agree
        // to the table's rounding.
        assert!((wsj.avg_doc_pages(P) - 0.41).abs() < 0.015);
        assert!((wsj.avg_entry_pages(P) - 0.26).abs() < 0.015);
        assert!((wsj.collection_pages(P) - 40_605.0).abs() / 40_605.0 < 0.03);
    }

    #[test]
    fn fr_and_doe_derived_sizes_match_paper_table() {
        let fr = CollectionStats::fr();
        assert!((fr.avg_doc_pages(P) - 1.27).abs() < 0.03);
        assert!((fr.avg_entry_pages(P) - 0.264).abs() < 0.015);
        assert!((fr.collection_pages(P) - 33_315.0).abs() / 33_315.0 < 0.03);

        let doe = CollectionStats::doe();
        assert!((doe.avg_doc_pages(P) - 0.111).abs() < 0.01);
        assert!((doe.avg_entry_pages(P) - 0.135).abs() < 0.015);
        assert!((doe.collection_pages(P) - 25_152.0).abs() / 25_152.0 < 0.03);
    }

    #[test]
    fn inverted_file_size_equals_collection_size() {
        // Section 3: with |d#| = |t#|, the inverted file has the same total
        // size as the collection.
        for stats in [
            CollectionStats::wsj(),
            CollectionStats::fr(),
            CollectionStats::doe(),
        ] {
            let d = stats.collection_pages(P);
            let i = stats.inverted_file_pages(P);
            assert!((d - i).abs() < 1e-6, "D = {d} vs I = {i}");
        }
    }

    #[test]
    fn btree_pages_small_example_from_paper() {
        // Section 5.2: 100 000 distinct terms → about 220 pages of 4KB.
        let stats = CollectionStats::new(1, 1.0, 100_000);
        assert!((stats.btree_pages(P) - 219.7).abs() < 1.0);
    }

    #[test]
    fn derive_scaled_keeps_collection_size() {
        let fr = CollectionStats::fr();
        let scaled = fr.derive_scaled(8);
        assert_eq!(scaled.num_docs, fr.num_docs / 8);
        assert!(
            (scaled.collection_pages(P) - fr.collection_pages(P)).abs() / fr.collection_pages(P)
                < 1e-3
        );
    }

    #[test]
    fn select_docs_shrinks_vocabulary_monotonically() {
        let wsj = CollectionStats::wsj();
        let s10 = wsj.select_docs(10);
        let s100 = wsj.select_docs(100);
        assert_eq!(s10.num_docs, 10);
        assert!(s10.distinct_terms < s100.distinct_terms);
        assert!(s100.distinct_terms < wsj.distinct_terms);
        // Ten documents of ~329 terms can have at most ~3 290 distinct terms.
        assert!(s10.distinct_terms <= 3_290);
    }

    #[test]
    fn expected_vocabulary_is_monotone_and_bounded() {
        let doe = CollectionStats::doe();
        let f1 = doe.expected_vocabulary(1.0);
        let f10 = doe.expected_vocabulary(10.0);
        let fbig = doe.expected_vocabulary(1e9);
        assert!((f1 - doe.avg_terms_per_doc).abs() < 1e-6);
        assert!(f1 < f10 && f10 < fbig);
        assert!(fbig <= doe.distinct_terms as f64 + 1e-6);
    }

    #[test]
    fn avg_doc_frequency_matches_definition() {
        let wsj = CollectionStats::wsj();
        let expect = 329.0 * 98_736.0 / 156_298.0;
        assert!((wsj.avg_doc_frequency() - expect).abs() < 1e-9);
    }
}
