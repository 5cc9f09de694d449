//! In-memory documents.

use textjoin_common::{DCell, Score, TermId, CELL_BYTES};

/// A document: a list of d-cells `(t#, w)` in strictly increasing term
/// order. The similarity between two documents is `Σ uᵢ·vᵢ` over their
/// common terms (section 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Document {
    cells: Vec<DCell>,
}

impl Document {
    /// Builds a document from cells that are already sorted by term and
    /// free of duplicates.
    ///
    /// # Panics
    /// In debug builds, panics if the invariant is violated.
    pub fn from_sorted_cells(cells: Vec<DCell>) -> Self {
        debug_assert!(
            cells.windows(2).all(|w| w[0].term < w[1].term),
            "cells must be strictly increasing by term"
        );
        Self { cells }
    }

    /// Builds a document from arbitrary `(term, count)` pairs, summing
    /// duplicate terms and sorting. Counts saturate at `u16::MAX` to respect
    /// the 2-byte weight encoding.
    pub fn from_term_counts(pairs: impl IntoIterator<Item = (TermId, u32)>) -> Self {
        let mut pairs: Vec<(TermId, u32)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(t, _)| t);
        let mut cells: Vec<DCell> = Vec::with_capacity(pairs.len());
        for (term, count) in pairs {
            match cells.last_mut() {
                Some(last) if last.term == term => {
                    last.weight = last
                        .weight
                        .saturating_add(count.min(u16::MAX as u32) as u16);
                }
                _ => cells.push(DCell::new(term, count.min(u16::MAX as u32) as u16)),
            }
        }
        cells.retain(|c| c.weight > 0);
        Self { cells }
    }

    /// The document's cells, sorted by term.
    #[inline]
    pub fn cells(&self) -> &[DCell] {
        &self.cells
    }

    /// Takes the document apart into its cells, still sorted by term.
    pub fn into_cells(self) -> Vec<DCell> {
        self.cells
    }

    /// Number of distinct terms.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.cells.len()
    }

    /// Whether the document has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// On-disk size in bytes (`5` bytes per cell).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        (self.cells.len() * CELL_BYTES) as u64
    }

    /// Occurrence count of `term`, or 0.
    pub fn weight_of(&self, term: TermId) -> u16 {
        self.cells
            .binary_search_by_key(&term, |c| c.term)
            .map(|i| self.cells[i].weight)
            .unwrap_or(0)
    }

    /// Euclidean norm of the occurrence vector, used by the cosine
    /// similarity of section 3 ("divide the similarity by the norms of the
    /// documents"). Norms are precomputed and stored in the collection
    /// profile.
    pub fn norm(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| (c.weight as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Raw inner-product similarity `Σ uᵢ·vᵢ` with another document,
    /// computed by merging the two sorted cell lists.
    pub fn dot(&self, other: &Document) -> Score {
        let mut acc: u64 = 0;
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.cells, &other.cells);
        while i < a.len() && j < b.len() {
            match a[i].term.cmp(&b[j].term) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].weight as u64 * b[j].weight as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        Score::from(acc)
    }

    /// Serializes the document into its tightly-packed byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.cells.len() * CELL_BYTES);
        for cell in &self.cells {
            out.extend_from_slice(&cell.encode());
        }
        out
    }

    /// Deserializes a document from bytes produced by [`encode`](Self::encode).
    ///
    /// Returns an error if the byte length is not a multiple of the cell
    /// size or the terms are not strictly increasing.
    pub fn decode(bytes: &[u8]) -> textjoin_common::Result<Self> {
        if !bytes.len().is_multiple_of(CELL_BYTES) {
            return Err(textjoin_common::Error::Corrupt(format!(
                "document byte length {} is not a multiple of {}",
                bytes.len(),
                CELL_BYTES
            )));
        }
        let mut cells = Vec::with_capacity(bytes.len() / CELL_BYTES);
        let mut prev: Option<TermId> = None;
        for chunk in bytes.chunks_exact(CELL_BYTES) {
            let cell = DCell::decode(chunk.try_into().expect("chunk of CELL_BYTES"));
            if let Some(p) = prev {
                if cell.term <= p {
                    return Err(textjoin_common::Error::Corrupt(
                        "document cells out of order".into(),
                    ));
                }
            }
            prev = Some(cell.term);
            cells.push(cell);
        }
        Ok(Self { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn doc(pairs: &[(u32, u16)]) -> Document {
        Document::from_term_counts(pairs.iter().map(|&(t, w)| (TermId::new(t), w as u32)))
    }

    #[test]
    fn from_term_counts_sorts_and_merges() {
        let d = doc(&[(5, 2), (1, 1), (5, 3)]);
        assert_eq!(d.num_terms(), 2);
        assert_eq!(d.weight_of(TermId::new(5)), 5);
        assert_eq!(d.weight_of(TermId::new(1)), 1);
        assert_eq!(d.weight_of(TermId::new(99)), 0);
    }

    #[test]
    fn zero_weights_are_dropped() {
        let d = Document::from_term_counts([(TermId::new(1), 0u32), (TermId::new(2), 1)]);
        assert_eq!(d.num_terms(), 1);
    }

    #[test]
    fn weights_saturate_at_u16_max() {
        let d = Document::from_term_counts([(TermId::new(1), 70_000u32)]);
        assert_eq!(d.weight_of(TermId::new(1)), u16::MAX);
    }

    #[test]
    fn dot_product_over_common_terms() {
        // Section 3's example similarity: Σ uᵢ·vᵢ over common terms.
        let a = doc(&[(1, 2), (3, 4), (7, 1)]);
        let b = doc(&[(3, 5), (7, 2), (9, 9)]);
        assert_eq!(a.dot(&b), Score::from(4 * 5 + 2u64));
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn dot_of_disjoint_docs_is_zero() {
        let a = doc(&[(1, 2)]);
        let b = doc(&[(2, 2)]);
        assert!(a.dot(&b).is_zero());
    }

    #[test]
    fn norm_matches_hand_computation() {
        let d = doc(&[(1, 3), (2, 4)]);
        assert!((d.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_round_trip() {
        let d = doc(&[(1, 2), (3, 4), (1 << 20, 9)]);
        assert_eq!(Document::decode(&d.encode()).unwrap(), d);
        assert_eq!(d.size_bytes(), 15);
    }

    #[test]
    fn decode_rejects_bad_length_and_order() {
        assert!(Document::decode(&[0u8; 7]).is_err());
        let mut bytes = doc(&[(5, 1)]).encode();
        bytes.extend_from_slice(&doc(&[(2, 1)]).encode());
        assert!(Document::decode(&bytes).is_err());
    }

    #[test]
    fn empty_document() {
        let d = Document::from_term_counts(std::iter::empty());
        assert!(d.is_empty());
        assert_eq!(d.size_bytes(), 0);
        assert_eq!(Document::decode(&d.encode()).unwrap(), d);
    }

    proptest! {
        #[test]
        fn prop_round_trip(pairs in proptest::collection::vec((0u32..10_000, 1u32..500), 0..60)) {
            let d = Document::from_term_counts(
                pairs.into_iter().map(|(t, w)| (TermId::new(t), w)),
            );
            prop_assert_eq!(Document::decode(&d.encode()).unwrap(), d);
        }

        #[test]
        fn prop_dot_symmetric(
            a in proptest::collection::vec((0u32..200, 1u32..10), 0..40),
            b in proptest::collection::vec((0u32..200, 1u32..10), 0..40),
        ) {
            let da = Document::from_term_counts(a.into_iter().map(|(t, w)| (TermId::new(t), w)));
            let db = Document::from_term_counts(b.into_iter().map(|(t, w)| (TermId::new(t), w)));
            prop_assert_eq!(da.dot(&db), db.dot(&da));
        }
    }
}
