//! Document cells and inverted-file cells with their on-disk encoding.
//!
//! Section 3 of the paper: a document is a list of *d-cells* `(t#, w)` sorted
//! by term number, an inverted-file entry is a list of *i-cells* `(d#, w)`
//! sorted by document number. Both occupy `|t#| + |w| = 3 + 2 = 5` bytes on
//! disk, which is where the `5 * K / P` document-size and
//! `5 * (K*N) / (T*P)` entry-size estimates come from.

use crate::ids::{DocId, TermId};

/// Bytes used to encode a term or document number on disk (`|t#| = |d#|`).
pub const NUMBER_BYTES: usize = 3;
/// Bytes used to encode a within-document occurrence count (`|w|`).
pub const WEIGHT_BYTES: usize = 2;
/// Total on-disk size of a d-cell or i-cell.
pub const CELL_BYTES: usize = NUMBER_BYTES + WEIGHT_BYTES;

/// A document cell `(t#, w)`: term number and its occurrence count in the
/// document.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DCell {
    /// The term number.
    pub term: TermId,
    /// Number of occurrences of the term in the document (capped at
    /// `u16::MAX` by the 2-byte encoding).
    pub weight: u16,
}

/// An inverted-file cell `(d#, w)`: document number and the occurrence count
/// of the entry's term in that document.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ICell {
    /// The document number.
    pub doc: DocId,
    /// Number of occurrences of the entry's term in the document.
    pub weight: u16,
}

impl DCell {
    /// Creates a document cell.
    #[inline]
    pub fn new(term: TermId, weight: u16) -> Self {
        Self { term, weight }
    }

    /// Serializes the cell into its 5-byte on-disk form (little-endian
    /// 3-byte number followed by a little-endian 2-byte weight).
    #[inline]
    pub fn encode(self) -> [u8; CELL_BYTES] {
        encode(self.term.raw(), self.weight)
    }

    /// Deserializes a cell from its 5-byte on-disk form.
    #[inline]
    pub fn decode(bytes: [u8; CELL_BYTES]) -> Self {
        let (number, weight) = decode(bytes);
        Self {
            term: TermId::new(number),
            weight,
        }
    }
}

impl ICell {
    /// Creates an inverted-file cell.
    #[inline]
    pub fn new(doc: DocId, weight: u16) -> Self {
        Self { doc, weight }
    }

    /// Serializes the cell into its 5-byte on-disk form.
    #[inline]
    pub fn encode(self) -> [u8; CELL_BYTES] {
        encode(self.doc.raw(), self.weight)
    }

    /// Deserializes a cell from its 5-byte on-disk form.
    #[inline]
    pub fn decode(bytes: [u8; CELL_BYTES]) -> Self {
        let (number, weight) = decode(bytes);
        Self {
            doc: DocId::new(number),
            weight,
        }
    }
}

#[inline]
fn encode(number: u32, weight: u16) -> [u8; CELL_BYTES] {
    debug_assert!(number < (1 << 24));
    let n = number.to_le_bytes();
    let w = weight.to_le_bytes();
    [n[0], n[1], n[2], w[0], w[1]]
}

#[inline]
fn decode(bytes: [u8; CELL_BYTES]) -> (u32, u16) {
    let number = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], 0]);
    let weight = u16::from_le_bytes([bytes[3], bytes[4]]);
    (number, weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cell_is_five_bytes() {
        assert_eq!(CELL_BYTES, 5);
    }

    #[test]
    fn dcell_round_trip() {
        let cell = DCell::new(TermId::new(0xAB_CDEF), 0x1234);
        assert_eq!(DCell::decode(cell.encode()), cell);
    }

    #[test]
    fn icell_round_trip() {
        let cell = ICell::new(DocId::new(0), u16::MAX);
        assert_eq!(ICell::decode(cell.encode()), cell);
    }

    #[test]
    fn encoding_is_little_endian_split() {
        let cell = DCell::new(TermId::new(0x01_0203), 0x0405);
        assert_eq!(cell.encode(), [0x03, 0x02, 0x01, 0x05, 0x04]);
    }

    #[test]
    fn cells_sort_by_number_then_weight() {
        let a = DCell::new(TermId::new(1), 9);
        let b = DCell::new(TermId::new(2), 1);
        assert!(a < b);
    }

    proptest! {
        #[test]
        fn prop_dcell_round_trip(raw in 0u32..(1 << 24), w: u16) {
            let cell = DCell::new(TermId::new(raw), w);
            prop_assert_eq!(DCell::decode(cell.encode()), cell);
        }

        #[test]
        fn prop_icell_round_trip(raw in 0u32..(1 << 24), w: u16) {
            let cell = ICell::new(DocId::new(raw), w);
            prop_assert_eq!(ICell::decode(cell.encode()), cell);
        }
    }
}
