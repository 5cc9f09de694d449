//! System and query parameters.
//!
//! The cost analysis of section 5 is parameterised by three system-level
//! quantities — the buffer size `B` (pages), the page size `P` (bytes) and
//! the random-over-sequential I/O cost ratio `α` — plus the query-level
//! quantities `λ` (the SIMILAR_TO argument) and `δ` (fraction of non-zero
//! similarities). The simulation section fixes `P = 4KB`, `δ = 0.1`,
//! `λ = 20` and uses base values `B = 10 000` pages, `α = 5`.

/// Default page size `P` in bytes (the paper fixes 4KB).
pub const DEFAULT_PAGE_SIZE: usize = 4096;
/// Bytes needed to hold one intermediate similarity value (section 4.1
/// assumes 4 bytes per similarity).
pub const SIM_VALUE_BYTES: usize = 4;
/// Bytes per B+tree leaf cell: 3 for the term number, 4 for the entry
/// address and 2 for the document frequency (section 5.2).
pub const BTREE_CELL_BYTES: usize = 9;

/// System-level parameters shared by the executors and the cost models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemParams {
    /// `B` — available memory buffer, in pages.
    pub buffer_pages: u64,
    /// `P` — page size in bytes.
    pub page_size: usize,
    /// `α` — cost of a random I/O relative to a sequential I/O.
    pub alpha: f64,
}

impl SystemParams {
    /// The paper's base configuration: `B = 10 000` pages of 4KB, `α = 5`.
    pub fn paper_base() -> Self {
        Self {
            buffer_pages: 10_000,
            page_size: DEFAULT_PAGE_SIZE,
            alpha: 5.0,
        }
    }

    /// Replaces the buffer size, keeping everything else.
    pub fn with_buffer_pages(self, buffer_pages: u64) -> Self {
        Self {
            buffer_pages,
            ..self
        }
    }

    /// Replaces the random/sequential cost ratio, keeping everything else.
    pub fn with_alpha(self, alpha: f64) -> Self {
        Self { alpha, ..self }
    }

    /// Total buffer budget in bytes.
    #[inline]
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_pages * self.page_size as u64
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        Self::paper_base()
    }
}

/// Query-level parameters of a `SIMILAR_TO(λ)` join.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryParams {
    /// `λ` — how many most-similar inner documents to return per outer
    /// document.
    pub lambda: usize,
    /// `δ` — fraction of document pairs expected to have a non-zero
    /// similarity. Only the cost model reads it, and only for inputs that
    /// carry no measured match count (the paper tables, which fix 0.1);
    /// inputs built from collection profiles measure δ instead, and no
    /// executor reads it.
    pub delta: f64,
}

impl QueryParams {
    /// The paper's simulation setting: `λ = 20`, `δ = 0.1`.
    pub const fn paper_base() -> Self {
        Self {
            lambda: 20,
            delta: 0.1,
        }
    }

    /// Replaces `λ`, keeping `δ`.
    pub const fn with_lambda(self, lambda: usize) -> Self {
        Self { lambda, ..self }
    }

    /// Replaces `δ`, keeping `λ`.
    pub fn with_delta(self, delta: f64) -> Self {
        Self { delta, ..self }
    }
}

impl Default for QueryParams {
    fn default() -> Self {
        Self::paper_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_matches_section6() {
        let s = SystemParams::paper_base();
        assert_eq!(s.buffer_pages, 10_000);
        assert_eq!(s.page_size, 4096);
        assert_eq!(s.alpha, 5.0);
        let q = QueryParams::paper_base();
        assert_eq!(q.lambda, 20);
        assert_eq!(q.delta, 0.1);
    }

    #[test]
    fn buffer_bytes_multiplies_pages_by_page_size() {
        let s = SystemParams::paper_base().with_buffer_pages(3);
        assert_eq!(s.buffer_bytes(), 3 * 4096);
    }

    #[test]
    fn builders_replace_single_fields() {
        let s = SystemParams::paper_base()
            .with_alpha(2.5)
            .with_buffer_pages(77);
        assert_eq!(s.alpha, 2.5);
        assert_eq!(s.buffer_pages, 77);
        assert_eq!(s.page_size, DEFAULT_PAGE_SIZE);

        let q = QueryParams::paper_base().with_lambda(5).with_delta(0.25);
        assert_eq!(q.lambda, 5);
        assert_eq!(q.delta, 0.25);
    }
}
