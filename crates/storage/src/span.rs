//! Byte spans and their page ranges.
//!
//! Documents and inverted-file entries are tightly packed: a structure's
//! location on disk is a byte offset and length within its file, and reading
//! it touches every page its span overlaps — which is why a randomly fetched
//! inverted entry of average size `J` costs `⌈J⌉` page reads even when the
//! entry occupies a small fraction of a page (section 5.4 calls this out as
//! one of HVNL's handicaps).

/// A contiguous byte range within a simulated file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ByteSpan {
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl ByteSpan {
    /// Creates a span.
    #[inline]
    pub fn new(offset: u64, len: u64) -> Self {
        Self { offset, len }
    }

    /// First page the span overlaps.
    #[inline]
    pub fn first_page(&self, page_size: usize) -> u64 {
        self.offset / page_size as u64
    }

    /// Number of pages the span overlaps (0 for an empty span).
    #[inline]
    pub fn num_pages(&self, page_size: usize) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let first = self.first_page(page_size);
        let last = (self.offset + self.len - 1) / page_size as u64;
        last - first + 1
    }

    /// `(first_page, num_pages)` in one call.
    #[inline]
    pub fn page_range(&self, page_size: usize) -> (u64, u64) {
        (self.first_page(page_size), self.num_pages(page_size))
    }

    /// One past the last page the span overlaps — where a scan that ends
    /// with this span stops reading.
    #[inline]
    pub fn end_page(&self, page_size: usize) -> u64 {
        self.first_page(page_size) + self.num_pages(page_size)
    }

    /// Byte immediately past the span.
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn span_within_one_page() {
        let s = ByteSpan::new(10, 20);
        assert_eq!(s.page_range(4096), (0, 1));
        assert_eq!(s.end(), 30);
    }

    #[test]
    fn span_straddling_page_boundary() {
        let s = ByteSpan::new(4090, 10);
        assert_eq!(s.page_range(4096), (0, 2));
    }

    #[test]
    fn span_aligned_to_pages() {
        let s = ByteSpan::new(8192, 4096);
        assert_eq!(s.page_range(4096), (2, 1));
    }

    #[test]
    fn empty_span_touches_no_pages() {
        let s = ByteSpan::new(500, 0);
        assert_eq!(s.num_pages(4096), 0);
    }

    #[test]
    fn small_entry_still_costs_whole_page() {
        // Section 5.4: even when an inverted entry occupies a small fraction
        // of a page, the whole page must be read.
        let s = ByteSpan::new(100, 5);
        assert_eq!(s.num_pages(4096), 1);
    }

    proptest! {
        #[test]
        fn prop_pages_cover_span(offset in 0u64..100_000, len in 1u64..50_000) {
            let s = ByteSpan::new(offset, len);
            let (first, n) = s.page_range(4096);
            // The page range covers every byte of the span and no more than
            // one page of slack on either side.
            prop_assert!(first * 4096 <= offset);
            prop_assert!((first + n) * 4096 >= s.end());
            prop_assert!(offset - first * 4096 < 4096);
            prop_assert!((first + n) * 4096 - s.end() < 4096);
        }
    }
}
