//! Similarity weighting schemes.
//!
//! Section 3 defines the similarity of two documents as `Σ uᵢ·vᵢ` over
//! their common terms and notes two refinements used by real IR systems:
//! dividing by the document norms (cosine) and weighting terms by inverse
//! document frequency. Both refinements rely only on precomputed per-term
//! or per-document values, so every algorithm can apply them with the same
//! access pattern — the choice of scheme never changes the I/O story.
//!
//! A pair divides by its documents' norms: a stored one's from its profile,
//! a delta insert's as its overlay recorded it. `idf` is the inner base's
//! until a merge folds the delta in, as the paper stores it with list heads.

use textjoin_collection::{CollectionProfile, Document};
use textjoin_common::{DocId, Score, TermId};

/// How term-match contributions are weighted and combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Weighting {
    /// The paper's presentation similarity: `Σ u·v` over common terms.
    /// Integer-exact, so every accumulation order gives identical scores.
    #[default]
    RawCount,
    /// `Σ u·v` divided by the product of the two documents' norms.
    Cosine,
    /// `Σ u·v·idf(t)²` (idf from the inner collection, squared because both
    /// sides are weighted), divided by the norm product.
    TfIdf,
}

impl Weighting {
    /// Multiplier applied to each term's `u·v` contribution.
    #[inline]
    pub fn term_factor(&self, term: TermId, inner_profile: &CollectionProfile) -> f64 {
        match self {
            Weighting::RawCount | Weighting::Cosine => 1.0,
            Weighting::TfIdf => {
                let idf = inner_profile.idf(term);
                idf * idf
            }
        }
    }

    /// Turns an accumulated weighted sum into the final score for a
    /// document pair; `norms` yields the pair's `(inner, outer)` norms and
    /// is called only by the weightings that divide by them.
    #[inline]
    pub fn finalize(&self, accumulated: f64, norms: impl FnOnce() -> (f64, f64)) -> Score {
        match self {
            Weighting::RawCount => Score::new(accumulated),
            Weighting::Cosine | Weighting::TfIdf => match norms() {
                (inner, outer) if inner * outer == 0.0 => Score::ZERO,
                (inner, outer) => Score::new(accumulated / (inner * outer)),
            },
        }
    }

    /// Scores one pair directly from the two documents by merging their
    /// sorted cell lists — the pairwise form of HHNL's inner loop, kept by
    /// the reference oracle and the backward-order ablation.
    pub fn score_pair(
        &self,
        inner_doc_id: DocId,
        inner: &Document,
        outer_doc_id: DocId,
        outer: &Document,
        inner_profile: &CollectionProfile,
        outer_profile: &CollectionProfile,
    ) -> Score {
        self.score_pair_counted(
            inner_doc_id,
            inner,
            outer_doc_id,
            outer,
            inner_profile,
            outer_profile,
        )
        .0
    }

    /// Like [`score_pair`](Self::score_pair), additionally reporting the
    /// CPU work: `(score, multiply-adds, cells visited)`. The visited count
    /// exposes the paper's section 4.2 observation that the document-based
    /// method "requires almost all entries in the document-term matrix be
    /// accessed", while the inverted-file methods only touch non-zero
    /// structure. It divides by the documents' own norms, equal to their
    /// profiles'; the ids and `outer_profile` go unread.
    pub fn score_pair_counted(
        &self,
        _inner_doc_id: DocId,
        inner: &Document,
        _outer_doc_id: DocId,
        outer: &Document,
        inner_profile: &CollectionProfile,
        _outer_profile: &CollectionProfile,
    ) -> (Score, u64, u64) {
        let mut acc = 0.0f64;
        let mut ops = 0u64;
        let (a, b) = (inner.cells(), outer.cells());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].term.cmp(&b[j].term) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].weight as f64
                        * b[j].weight as f64
                        * self.term_factor(a[i].term, inner_profile);
                    ops += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let visited = (i + j) as u64;
        (
            self.finalize(acc, || (inner.norm(), outer.norm())),
            ops,
            visited,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::TermId;

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    fn profiles() -> (
        CollectionProfile,
        CollectionProfile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let inner = vec![doc(&[(1, 3), (2, 4)]), doc(&[(2, 1)])];
        let outer = vec![doc(&[(1, 1), (2, 2)])];
        (
            CollectionProfile::from_docs(&inner),
            CollectionProfile::from_docs(&outer),
            inner,
            outer,
        )
    }

    #[test]
    fn raw_count_matches_document_dot() {
        let (pi, po, inner, outer) = profiles();
        let s = Weighting::RawCount.score_pair(
            DocId::new(0),
            &inner[0],
            DocId::new(0),
            &outer[0],
            &pi,
            &po,
        );
        assert_eq!(s, inner[0].dot(&outer[0]));
        assert_eq!(s, Score::new(3.0 + 8.0));
    }

    #[test]
    fn cosine_divides_by_norm_product() {
        let (pi, po, inner, outer) = profiles();
        let s = Weighting::Cosine.score_pair(
            DocId::new(0),
            &inner[0],
            DocId::new(0),
            &outer[0],
            &pi,
            &po,
        );
        let expect = 11.0 / (5.0 * (5.0f64).sqrt());
        assert!((s.value() - expect).abs() < 1e-12);
        // Cosine of a document with itself would be 1; here just bounded.
        assert!(s.value() <= 1.0);
    }

    #[test]
    fn tfidf_downweights_common_terms() {
        let (pi, po, inner, outer) = profiles();
        // Term 1 is rarer (df 1) than term 2 (df 2) in the inner collection.
        let f1 = Weighting::TfIdf.term_factor(TermId::new(1), &pi);
        let f2 = Weighting::TfIdf.term_factor(TermId::new(2), &pi);
        assert!(f1 > f2);
        let s = Weighting::TfIdf.score_pair(
            DocId::new(0),
            &inner[0],
            DocId::new(0),
            &outer[0],
            &pi,
            &po,
        );
        let expect = (3.0 * f1 + 8.0 * f2) / (5.0 * (5.0f64).sqrt());
        assert!((s.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_norm_pairs_score_zero() {
        let (pi, po, _, _) = profiles();
        let empty = doc(&[]);
        let other = doc(&[(1, 1)]);
        let s =
            Weighting::Cosine.score_pair(DocId::new(0), &empty, DocId::new(0), &other, &pi, &po);
        assert!(s.is_zero());
    }

    #[test]
    fn finalize_raw_is_identity() {
        let (pi, _, _, _) = profiles();
        let s = Weighting::RawCount.finalize(42.0, || unreachable!("raw counts read no norm"));
        assert_eq!(s, Score::new(42.0));
        let s = Weighting::Cosine.finalize(12.0, || (pi.norm(DocId::new(0)), 2.0));
        assert_eq!(s, Score::new(12.0 / (5.0 * 2.0)));
    }
}
