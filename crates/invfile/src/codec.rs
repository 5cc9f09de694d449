//! Posting-list codecs.
//!
//! The paper fixes the on-disk cell at `|d#| + |w| = 5` bytes (section 3)
//! and derives every size — `S`, `D`, `J`, `I` — from it. Real IR systems
//! compress posting lists: document numbers within an entry are ascending,
//! so storing *gaps* as variable-length integers shrinks entries by 2-3×,
//! which shrinks `J` and `I` and shifts the cost trade-offs towards the
//! inverted-file algorithms (HVNL's `⌈J⌉·α` fetches and VVM's `I1 + I2`
//! scans both drop). This module provides:
//!
//! * [`PostingCodec::Fixed5`] — the paper's layout, byte-for-byte;
//! * [`PostingCodec::VarintGap`] — LEB128 varint deltas for document
//!   numbers plus varint weights.
//!
//! The inverted-file builder accepts either codec; entry spans are byte
//! ranges, so nothing above the codec changes.

use std::sync::Arc;
use textjoin_common::{DocId, Error, ICell, Result, CELL_BYTES};

/// How an inverted-file entry's i-cells are serialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PostingCodec {
    /// The paper's fixed 5-byte cells (3-byte document number, 2-byte
    /// weight).
    #[default]
    Fixed5,
    /// Delta-encoded document numbers and weights as LEB128 varints —
    /// the standard IR compression (gaps are small for frequent terms,
    /// which is exactly where entries are long).
    VarintGap,
}

impl PostingCodec {
    /// Serializes an entry (i-cells in strictly increasing document order).
    pub fn encode(&self, cells: &[ICell]) -> Vec<u8> {
        match self {
            PostingCodec::Fixed5 => {
                let mut out = Vec::with_capacity(cells.len() * CELL_BYTES);
                for c in cells {
                    out.extend_from_slice(&c.encode());
                }
                out
            }
            PostingCodec::VarintGap => {
                let mut out = Vec::with_capacity(cells.len() * 2);
                let mut prev = 0u32;
                for (i, c) in cells.iter().enumerate() {
                    let gap = if i == 0 {
                        c.doc.raw()
                    } else {
                        c.doc.raw() - prev - 1
                    };
                    prev = c.doc.raw();
                    write_varint(&mut out, gap as u64);
                    write_varint(&mut out, c.weight as u64);
                }
                out
            }
        }
    }

    /// Deserializes an entry.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<ICell>> {
        let mut cells = Vec::new();
        self.decode_into(bytes, &mut cells)?;
        Ok(cells)
    }

    /// Deserializes an entry into `cells`, replacing what it held — the
    /// caller's buffer is reused from entry to entry. On error the buffer's
    /// content is unspecified.
    pub fn decode_into(&self, bytes: &[u8], cells: &mut Vec<ICell>) -> Result<()> {
        cells.clear();
        match self {
            PostingCodec::Fixed5 => cells.extend(fixed_cells(bytes)?),
            PostingCodec::VarintGap => {
                let (mut pos, mut prev) = (0, None);
                while pos < bytes.len() {
                    let cell = gap_cell(bytes, &mut pos, prev)?;
                    prev = Some(cell.doc.raw());
                    cells.push(cell);
                }
            }
        }
        Ok(())
    }

    /// Deserializes an entry of `n` cells (its directory's `doc_freq`)
    /// into one shared slice of exactly that length, each cell decoded
    /// where the slice keeps it: one allocation, no vector in between.
    /// Fails where [`decode_into`](Self::decode_into) fails, and where a
    /// varint entry does not hold exactly `n` cells.
    pub(crate) fn decode_shared(&self, bytes: &[u8], n: usize) -> Result<Arc<[ICell]>> {
        let PostingCodec::VarintGap = self else {
            return Ok(fixed_cells(bytes)?.collect());
        };
        // A map over a range has an exact length, which the slice is
        // allocated at; the first error is kept and the rest is filler.
        let (mut pos, mut prev, mut failed) = (0, None, Ok(()));
        let cells = (0..n)
            .map(|_| {
                let cell = gap_cell(bytes, &mut pos, prev);
                prev = cell.as_ref().ok().map(|c| c.doc.raw());
                cell.unwrap_or_else(|e| {
                    if failed.is_ok() {
                        failed = Err(e);
                    }
                    ICell::new(DocId::new(0), 0)
                })
            })
            .collect();
        failed?;
        match pos == bytes.len() {
            true => Ok(cells),
            false => Err(Error::Corrupt("entry longer than its cell count".into())),
        }
    }

    /// Serialized size of an entry in bytes, without materialising it.
    pub fn encoded_len(&self, cells: &[ICell]) -> usize {
        match self {
            PostingCodec::Fixed5 => cells.len() * CELL_BYTES,
            PostingCodec::VarintGap => {
                let mut len = 0usize;
                let mut prev = 0u32;
                for (i, c) in cells.iter().enumerate() {
                    let gap = if i == 0 {
                        c.doc.raw()
                    } else {
                        c.doc.raw() - prev - 1
                    };
                    prev = c.doc.raw();
                    len += varint_len(gap as u64) + varint_len(c.weight as u64);
                }
                len
            }
        }
    }
}

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The cells of a [`PostingCodec::Fixed5`] entry, each decoded where it is
/// consumed.
fn fixed_cells(bytes: &[u8]) -> Result<impl Iterator<Item = ICell> + '_> {
    if !bytes.len().is_multiple_of(CELL_BYTES) {
        return Err(Error::Corrupt(
            "entry byte length not a multiple of the cell size".into(),
        ));
    }
    let cell = |chunk: &[u8]| ICell::decode(chunk.try_into().expect("5-byte chunk"));
    Ok(bytes.chunks_exact(CELL_BYTES).map(cell))
}

/// The [`PostingCodec::VarintGap`] cell at `*pos`, after the cell of
/// document `prev`; `pos` moves past it.
fn gap_cell(bytes: &[u8], pos: &mut usize, prev: Option<u32>) -> Result<ICell> {
    let (gap, n) = read_varint(&bytes[*pos..])?;
    *pos += n;
    let (weight, n) = read_varint(&bytes[*pos..])?;
    *pos += n;
    let doc = match prev {
        None => gap as u32,
        Some(p) => p
            .checked_add(gap as u32)
            .and_then(|v| v.checked_add(1))
            .ok_or_else(|| Error::Corrupt("document gap overflow".into()))?,
    };
    if weight > u16::MAX as u64 {
        return Err(Error::Corrupt("weight exceeds 16 bits".into()));
    }
    Ok(ICell::new(DocId::new(doc), weight as u16))
}

pub(crate) fn read_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            return Err(Error::Corrupt("varint too long".into()));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(Error::Corrupt("truncated varint".into()))
}

fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cells(pairs: &[(u32, u16)]) -> Vec<ICell> {
        pairs
            .iter()
            .map(|&(d, w)| ICell::new(DocId::new(d), w))
            .collect()
    }

    #[test]
    fn fixed5_matches_the_papers_size() {
        let entry = cells(&[(1, 2), (5, 1), (100, 7)]);
        let codec = PostingCodec::Fixed5;
        let bytes = codec.encode(&entry);
        assert_eq!(bytes.len(), 15);
        assert_eq!(codec.encoded_len(&entry), 15);
        assert_eq!(codec.decode(&bytes).unwrap(), entry);
    }

    #[test]
    fn varint_gap_round_trips_and_compresses_dense_entries() {
        // A dense entry (every document contains the term): gaps are 0, so
        // each cell costs ~2 bytes instead of 5.
        let entry: Vec<ICell> = (0..1000u32).map(|d| ICell::new(DocId::new(d), 1)).collect();
        let codec = PostingCodec::VarintGap;
        let bytes = codec.encode(&entry);
        assert_eq!(codec.decode(&bytes).unwrap(), entry);
        assert_eq!(bytes.len(), codec.encoded_len(&entry));
        assert!(
            bytes.len() * 2 < entry.len() * CELL_BYTES,
            "dense entry should compress >2×: {} vs {}",
            bytes.len(),
            entry.len() * CELL_BYTES
        );
    }

    #[test]
    fn varint_gap_handles_sparse_entries_and_big_ids() {
        let entry = cells(&[(0, 65535), (1 << 23, 1), ((1 << 24) - 1, 9)]);
        let codec = PostingCodec::VarintGap;
        assert_eq!(codec.decode(&codec.encode(&entry)).unwrap(), entry);
    }

    #[test]
    fn decode_rejects_corruption() {
        assert!(PostingCodec::Fixed5.decode(&[1, 2, 3]).is_err());
        // Truncated varint (continuation bit set, no next byte).
        assert!(PostingCodec::VarintGap.decode(&[0x80]).is_err());
        // Weight too large for 16 bits.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, 0);
        write_varint(&mut bytes, 1 << 20);
        assert!(PostingCodec::VarintGap.decode(&bytes).is_err());
        // The shared decode fails where the vector one does, and where a
        // varint entry holds fewer or more cells than its count.
        let varint = PostingCodec::VarintGap;
        assert!(PostingCodec::Fixed5.decode_shared(&[1, 2, 3], 0).is_err());
        assert!(varint.decode_shared(&[0x80], 1).is_err());
        assert!(varint.decode_shared(&bytes, 1).is_err());
        let two = varint.encode(&cells(&[(3, 1), (9, 2)]));
        assert!(varint.decode_shared(&two, 3).is_err());
        assert!(varint.decode_shared(&two, 1).is_err());
    }

    #[test]
    fn varint_primitives() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let (back, n) = read_varint(&buf).unwrap();
            assert_eq!((back, n), (v, buf.len()));
        }
    }

    proptest! {
        #[test]
        fn prop_codecs_round_trip(
            raw in proptest::collection::btree_map(0u32..(1 << 24), 1u16..1000, 0..200)
        ) {
            let entry: Vec<ICell> =
                raw.into_iter().map(|(d, w)| ICell::new(DocId::new(d), w)).collect();
            for codec in [PostingCodec::Fixed5, PostingCodec::VarintGap] {
                let bytes = codec.encode(&entry);
                prop_assert_eq!(bytes.len(), codec.encoded_len(&entry));
                prop_assert_eq!(codec.decode(&bytes).unwrap(), entry.clone());
                let shared = codec.decode_shared(&bytes, entry.len()).unwrap();
                prop_assert_eq!(&shared[..], &entry[..]);
            }
        }

        #[test]
        fn prop_varint_never_larger_than_fixed_plus_slack(
            raw in proptest::collection::btree_map(0u32..100_000, 1u16..10, 1..300)
        ) {
            // With small weights and ids, varint-gap always wins or ties.
            let entry: Vec<ICell> =
                raw.into_iter().map(|(d, w)| ICell::new(DocId::new(d), w)).collect();
            let varint = PostingCodec::VarintGap.encoded_len(&entry);
            let fixed = PostingCodec::Fixed5.encoded_len(&entry);
            prop_assert!(varint <= fixed, "varint {varint} > fixed {fixed}");
        }
    }
}
