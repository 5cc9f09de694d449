//! Measured collection profiles.
//!
//! The inverted file keeps a *document frequency* per term — the number of
//! documents containing it — because IR systems store it anyway for
//! similarity computation (section 4.2 relies on this when choosing cache
//! victims). The profile also precomputes document norms (for the cosine
//! variant of the similarity function, section 3) and the primary
//! statistics `(N, K, T)` that feed the cost models.

use crate::document::Document;
use textjoin_common::{CollectionStats, DocId, FxHashMap, TermId};

/// Measured statistics of a collection: primary stats, per-term document
/// frequencies and per-document norms.
#[derive(Clone, Debug, Default)]
pub struct CollectionProfile {
    num_docs: u64,
    total_cells: u64,
    doc_freqs: FxHashMap<TermId, u32>,
    norms: Vec<f64>,
}

impl CollectionProfile {
    /// Starts an incremental profile builder.
    pub fn builder() -> ProfileBuilder {
        ProfileBuilder {
            profile: CollectionProfile::default(),
        }
    }

    /// Profiles an in-memory slice of documents.
    pub fn from_docs<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Self {
        let mut b = Self::builder();
        for d in docs {
            b.observe(d);
        }
        b.finish()
    }

    /// `N` — number of documents observed.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// `T` — number of distinct terms observed.
    pub fn distinct_terms(&self) -> u64 {
        self.doc_freqs.len() as u64
    }

    /// `K` — average number of d-cells per document.
    pub fn avg_terms_per_doc(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_cells as f64 / self.num_docs as f64
        }
    }

    /// Document frequency of `term` (0 when absent).
    pub fn doc_frequency(&self, term: TermId) -> u32 {
        self.doc_freqs.get(&term).copied().unwrap_or(0)
    }

    /// Whether the collection contains `term` at all.
    pub fn contains_term(&self, term: TermId) -> bool {
        self.doc_freqs.contains_key(&term)
    }

    /// The full document-frequency table.
    pub fn doc_freqs(&self) -> &FxHashMap<TermId, u32> {
        &self.doc_freqs
    }

    /// Precomputed Euclidean norm of a document's weight vector. Documents
    /// never observed at that id (holes left by deletions) report norm 0.
    pub fn norm(&self, doc: DocId) -> f64 {
        self.norms.get(doc.index()).copied().unwrap_or(0.0)
    }

    /// Inverse document frequency weight of a term:
    /// `ln(1 + N / df)` (0 when the term is absent). Section 3 notes idf
    /// weights can be precomputed per term and stored with the inverted-file
    /// list heads.
    pub fn idf(&self, term: TermId) -> f64 {
        match self.doc_freqs.get(&term) {
            Some(&df) if df > 0 => (1.0 + self.num_docs as f64 / df as f64).ln(),
            _ => 0.0,
        }
    }

    /// The primary statistics `(N, K, T)` used by every cost formula.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats::new(
            self.num_docs,
            self.avg_terms_per_doc(),
            self.distinct_terms(),
        )
    }

    /// What the two vocabularies share, in one walk of this profile's
    /// table: the number of terms also in `other`, and `Σ_t df(t)·df'(t)`
    /// over them — exactly the cell pairs a join of the two collections
    /// multiplies (every executor's `sim_ops`), and an upper bound on its
    /// non-zero document pairs, since each such pair shares a term.
    pub fn overlap(&self, other: &CollectionProfile) -> (u64, u64) {
        let (mut shared, mut matches) = (0u64, 0u64);
        for (term, &df) in &self.doc_freqs {
            let theirs = other.doc_frequency(*term);
            if theirs > 0 {
                shared += 1;
                matches = matches.saturating_add(u64::from(df) * u64::from(theirs));
            }
        }
        (shared, matches)
    }

    /// Measured fraction of term pairs shared with `other`: the probability
    /// `p` (or `q`, depending on direction) that a term of this collection
    /// also appears in `other`.
    pub fn term_overlap_probability(&self, other: &CollectionProfile) -> f64 {
        self.overlap(other).0 as f64 / (self.doc_freqs.len() as f64).max(1.0)
    }
}

/// Incremental builder for [`CollectionProfile`].
pub struct ProfileBuilder {
    profile: CollectionProfile,
}

impl ProfileBuilder {
    /// Accounts one document (documents must be observed in id order, which
    /// [`Collection::build`](crate::store::Collection::build) guarantees).
    pub fn observe(&mut self, doc: &Document) {
        let at = DocId::new(self.profile.norms.len() as u32);
        self.observe_at(at, doc);
    }

    /// Accounts one document stored under an explicit (possibly sparse)
    /// document number. Ids must still arrive in ascending order; holes
    /// left by deletions get a zero norm slot so `norm()` stays id-indexed.
    pub fn observe_at(&mut self, id: DocId, doc: &Document) {
        debug_assert!(id.index() >= self.profile.norms.len(), "ids must ascend");
        self.profile.num_docs += 1;
        self.profile.total_cells += doc.num_terms() as u64;
        for cell in doc.cells() {
            *self.profile.doc_freqs.entry(cell.term).or_insert(0) += 1;
        }
        self.profile.norms.resize(id.index(), 0.0);
        self.profile.norms.push(doc.norm());
    }

    /// Finishes the profile.
    pub fn finish(self) -> CollectionProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(terms: &[(u32, u16)]) -> Document {
        Document::from_term_counts(terms.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn sample() -> CollectionProfile {
        CollectionProfile::from_docs(&[
            doc(&[(1, 2), (2, 1)]),
            doc(&[(2, 3), (3, 1)]),
            doc(&[(2, 1)]),
        ])
    }

    #[test]
    fn counts_docs_terms_and_cells() {
        let p = sample();
        assert_eq!(p.num_docs(), 3);
        assert_eq!(p.distinct_terms(), 3);
        assert!((p.avg_terms_per_doc() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn document_frequencies() {
        let p = sample();
        assert_eq!(p.doc_frequency(TermId::new(1)), 1);
        assert_eq!(p.doc_frequency(TermId::new(2)), 3);
        assert_eq!(p.doc_frequency(TermId::new(9)), 0);
        assert!(p.contains_term(TermId::new(3)));
        assert!(!p.contains_term(TermId::new(9)));
    }

    #[test]
    fn norms_are_per_document() {
        let p = sample();
        assert!((p.norm(DocId::new(0)) - (4.0f64 + 1.0).sqrt()).abs() < 1e-12);
        assert!((p.norm(DocId::new(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idf_decreases_with_frequency() {
        let p = sample();
        assert!(p.idf(TermId::new(1)) > p.idf(TermId::new(2)));
        assert_eq!(p.idf(TermId::new(9)), 0.0);
    }

    #[test]
    fn stats_round_trip() {
        let s = sample().stats();
        assert_eq!(s.num_docs, 3);
        assert_eq!(s.distinct_terms, 3);
    }

    #[test]
    fn overlap_probability_counts_shared_vocabulary() {
        let a = sample(); // terms {1,2,3}
        let b = CollectionProfile::from_docs(&[doc(&[(2, 1), (4, 1)])]); // {2,4}
        assert!((a.term_overlap_probability(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.term_overlap_probability(&a) - 0.5).abs() < 1e-12);
        let empty = CollectionProfile::default();
        assert_eq!(empty.term_overlap_probability(&a), 0.0);
    }

    #[test]
    fn overlap_counts_shared_terms_and_cell_pairs() {
        let a = sample(); // df: {1: 1, 2: 3, 3: 1}
        let b = CollectionProfile::from_docs(&[doc(&[(2, 1), (4, 1)]), doc(&[(2, 2), (3, 1)])]);
        // Shared {2, 3}: 3·2 + 1·1.
        assert_eq!(a.overlap(&b), (2, 7));
        assert_eq!(b.overlap(&a), (2, 7));
        assert_eq!(a.overlap(&CollectionProfile::default()), (0, 0));
    }
}
