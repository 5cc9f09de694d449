//! The page format: an out-of-band header (magic, format version,
//! [`PageKind`], CRC32 of the payload) and the checksum kernel that stamps
//! and checks it. Nothing here takes a lock — `verify` works on bytes
//! the caller already holds.

/// On-page format version. Version 1 was the raw payload-only layout;
/// version 2 added the out-of-band page header (magic + kind + CRC32).
pub const PAGE_FORMAT_VERSION: u8 = 2;

/// Magic bytes opening every page header.
pub const PAGE_MAGIC: [u8; 2] = *b"TJ";

/// Size of the out-of-band page header in bytes: 2 magic, 1 version,
/// 1 kind, 4 CRC32 (little-endian). Stored *next to* the page, not inside
/// it, so payload capacity — and hence every page-count formula in the
/// cost model — is unchanged.
pub const PAGE_HEADER_BYTES: usize = 8;

pub(crate) type Header = [u8; PAGE_HEADER_BYTES];

/// What a file's pages hold. Stamped into every page header on write and
/// checked on read, so a page that wanders between files (or a corrupted
/// kind byte) is caught before a codec sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// Unstructured payload (tests, scratch files).
    #[default]
    Raw = 0,
    /// Packed document store pages.
    Documents = 1,
    /// Inverted-file posting pages.
    Postings = 2,
    /// B+tree dictionary nodes.
    BTree = 3,
}

impl PageKind {
    fn from_u8(v: u8) -> Option<PageKind> {
        match v {
            0 => Some(PageKind::Raw),
            1 => Some(PageKind::Documents),
            2 => Some(PageKind::Postings),
            3 => Some(PageKind::BTree),
            _ => None,
        }
    }
}

/// Slice-by-16 tables for the reflected IEEE polynomial: `[0]` is the
/// classic bytewise table, `[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups instead of a sixteen-step dependency chain.
static CRC32_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE polynomial) over `data` — the checksum stored in every
/// page header.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut c = 0xFFFF_FFFFu32;
    for block in blocks {
        let state = c.to_le_bytes();
        c = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ state[i] } else { b };
            c ^= t[15 - i][b as usize];
        }
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The header stored beside a page of `kind` whose payload hashes to `crc`.
pub(crate) fn header(kind: PageKind, crc: u32) -> Header {
    let [m0, m1] = PAGE_MAGIC;
    let [c0, c1, c2, c3] = crc.to_le_bytes();
    [m0, m1, PAGE_FORMAT_VERSION, kind as u8, c0, c1, c2, c3]
}

/// Checks one stored page: magic, version, kind against the file's, CRC
/// against the payload. The error is the reason alone; the caller knows
/// which file and page it was looking at.
pub(crate) fn verify(h: &Header, payload: &[u8], kind: PageKind) -> Result<(), String> {
    if h[0..2] != PAGE_MAGIC {
        return Err("bad page magic".into());
    }
    if h[2] != PAGE_FORMAT_VERSION {
        return Err(format!(
            "page format version {} (expected {PAGE_FORMAT_VERSION})",
            h[2]
        ));
    }
    match PageKind::from_u8(h[3]) {
        Some(k) if k == kind => {}
        Some(k) => return Err(format!("page kind {k:?} in a {kind:?} file")),
        None => return Err(format!("unknown page kind {}", h[3])),
    }
    let stored = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop the kernel replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);

        // The slice-by-16 kernel against the bytewise loop: every length
        // around the 16-byte block size, page-sized inputs, and every
        // alignment of the slice within its buffer.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let buf: Vec<u8> = (0..4_096 + 17 + 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for len in (0..=64).chain(4_096 - 17..=4_096 + 17) {
            for offset in 0..16 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} offset {offset}");
            }
        }
    }
}
