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
    !update(!0, data)
}

/// Advances the CRC state `c` (before the final inversion) over `data`:
/// by carry-less multiplication where the CPU can, else slice-by-16.
#[allow(unsafe_code)]
fn update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the kernel needs exactly the two CPU features just detected.
        return unsafe { clmul::update(c, data) };
    }
    slice16(c, data)
}

/// The portable kernel, and the tail of the folding one.
fn slice16(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
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
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn load(lane: &[u8; 16]) -> __m128i {
        let word = |i: usize| i64::from_le_bytes(lane[i..i + 8].try_into().expect("in the lane"));
        _mm_set_epi64x(word(8), word(0))
    }

    /// `a` multiplied forward by the constant pair `k` onto the lane `b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    #[inline]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo_b = _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(a, k), b);
        _mm_xor_si128(lo_b, _mm_clmulepi64_si128::<0x11>(a, k))
    }

    /// CRC-32 of ≥ 64 bytes as in Gopal et al., *Fast CRC Computation for
    /// Generic Polynomials Using PCLMULQDQ* (Intel, 2009): four lanes folded
    /// 64 bytes at a time, then into one, to 64 bits, and by Barrett to 32;
    /// the constants are its `x^k mod P(x)` and `⌊x^64 / P(x)⌋`, bit-reflected.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let mut x = [0, 1, 2, 3].map(|i| load(&lanes[i]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
        let (blocks, rest) = lanes[4..].as_chunks::<4>();
        let k = _mm_set_epi64x(0x1_C6E4_1596, 0x1_5444_2BD4);
        for block in blocks {
            x = [0, 1, 2, 3].map(|i| fold(x[i], load(&block[i]), k));
        }
        let k = _mm_set_epi64x(0x0_CCAA_009E, 0x1_7519_97D0);
        let r = fold(fold(fold(x[0], x[1], k), x[2], k), x[3], k);
        let r = rest.iter().fold(r, |r, lane| fold(r, load(lane), k));
        let low = _mm_set_epi32(0, 0, 0, -1);
        let r = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(r, k), _mm_srli_si128::<8>(r));
        let k5 = _mm_cvtsi64_si128(0x1_63CD_6124);
        let r0 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low), k5);
        let r = _mm_xor_si128(r0, _mm_srli_si128::<4>(r));
        let pu = _mm_set_epi64x(0x1_F701_1641, 0x1_DB71_0641);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low), pu);
        super::slice16(_mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32, tail)
    }
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
    use proptest::prelude::*;

    /// The bytewise table loop the kernels replaced, kept as the oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// The portable kernel called directly, whatever the CPU offers.
    fn crc32_slice16(data: &[u8]) -> u32 {
        !slice16(0xFFFF_FFFF, data)
    }

    /// `len` pseudo-random bytes from `seed`.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (seed >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);

        // The dispatched kernel against the portable one and the bytewise
        // loop: every length around the 16-byte block and the 64-byte
        // folding threshold, around 512-byte and 4 KiB pages, and every
        // alignment of the slice within its buffer.
        let buf = noise(4_096 + 17 + 16, 0x1234_5678_9ABC_DEF0);
        let lens = (0..=200).chain(512 - 17..=512 + 17);
        for len in lens.chain(4_096 - 17..=4_096 + 17) {
            for offset in 0..16 {
                let s = &buf[offset..offset + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32_slice16(s), want, "slice16, len {len} offset {offset}");
                assert_eq!(crc32(s), want, "crc32, len {len} offset {offset}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// At any length up to three pages and any alignment, the
        /// dispatched kernel, the portable one and the bytewise loop agree.
        #[test]
        fn crc32_equals_both_reference_kernels(
            seed: u64,
            len in 0usize..=3 * 4_096,
            offset in 0usize..16,
        ) {
            let buf = noise(offset + len, seed);
            let s = &buf[offset..];
            let want = crc32_bytewise(s);
            prop_assert_eq!(crc32_slice16(s), want);
            prop_assert_eq!(crc32(s), want);
        }
    }

    #[test]
    fn verify_rejects_every_single_bit_flip_of_a_page() {
        let mut payload = noise(4_096, 7);
        let h = header(PageKind::Postings, crc32(&payload));
        assert_eq!(verify(&h, &payload, PageKind::Postings), Ok(()));
        for bit in 0..payload.len() * 8 {
            payload[bit / 8] ^= 1 << (bit % 8);
            assert!(
                verify(&h, &payload, PageKind::Postings).is_err(),
                "bit {bit}"
            );
            payload[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
