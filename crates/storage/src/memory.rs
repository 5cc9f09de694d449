//! Byte-level memory budget tracking.
//!
//! The paper's algorithms are all parameterised by the buffer size `B`
//! (pages). Rather than trusting each executor to do its own arithmetic,
//! every in-memory structure (outer document batches, similarity
//! accumulators, the B+tree, cached inverted entries, resident-term lists)
//! charges its bytes against a shared [`MemTracker`] whose capacity is
//! `B · P` bytes. Exceeding the budget is an [`Error::InsufficientMemory`],
//! and the executors' budget-compliance tests assert the high-water mark
//! never passes `B · P`.

use parking_lot::Mutex;
use textjoin_common::{Error, Result, SystemParams};

#[derive(Debug, Default)]
struct Inner {
    used: u64,
    high_water: u64,
}

/// A byte-granular memory budget.
#[derive(Debug)]
pub struct MemTracker {
    capacity: u64,
    page_size: usize,
    inner: Mutex<Inner>,
}

impl MemTracker {
    /// Creates a tracker with a capacity of `params.buffer_pages` pages.
    pub fn new(params: &SystemParams) -> Self {
        Self {
            capacity: params.buffer_bytes(),
            page_size: params.page_size,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates a tracker with an explicit byte capacity.
    pub fn with_capacity_bytes(capacity: u64, page_size: usize) -> Self {
        Self {
            capacity,
            page_size,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.inner.lock().used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        let inner = self.inner.lock();
        self.capacity - inner.used
    }

    /// Largest allocation level ever observed.
    pub fn high_water(&self) -> u64 {
        self.inner.lock().high_water
    }

    /// Claims `bytes`, failing with [`Error::InsufficientMemory`] when the
    /// budget would be exceeded (a sum past `u64::MAX` included). `context`
    /// names the requester for the error message.
    pub fn allocate(&self, bytes: u64, context: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(used) = inner
            .used
            .checked_add(bytes)
            .filter(|&u| u <= self.capacity)
        else {
            let page = self.page_size as u64;
            return Err(Error::InsufficientMemory {
                context: context.to_string(),
                required_pages: inner.used.saturating_add(bytes).div_ceil(page),
                available_pages: self.capacity / page,
            });
        };
        inner.used = used;
        inner.high_water = inner.high_water.max(inner.used);
        Ok(())
    }

    /// Returns `bytes` to the budget.
    ///
    /// # Panics
    /// Panics if more is released than was allocated — a sign of broken
    /// bookkeeping in the caller.
    pub fn release(&self, bytes: u64) {
        let mut inner = self.inner.lock();
        assert!(
            inner.used >= bytes,
            "releasing {} bytes but only {} allocated",
            bytes,
            inner.used
        );
        inner.used -= bytes;
    }

    /// Resets usage and the high-water mark.
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::SystemParams;

    #[test]
    fn capacity_is_pages_times_page_size() {
        let t = MemTracker::new(&SystemParams::paper_base().with_buffer_pages(10));
        assert_eq!(t.capacity(), 10 * 4096);
        assert_eq!(t.available(), 10 * 4096);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let t = MemTracker::with_capacity_bytes(100, 10);
        t.allocate(60, "a").unwrap();
        t.allocate(40, "b").unwrap();
        assert_eq!(t.used(), 100);
        t.release(50);
        assert_eq!(t.used(), 50);
        assert_eq!(t.high_water(), 100);
    }

    #[test]
    fn over_allocation_fails_with_context() {
        let t = MemTracker::with_capacity_bytes(100, 10);
        t.allocate(90, "warmup").unwrap();
        let err = t.allocate(20, "HVNL entry cache").unwrap_err();
        assert!(err.to_string().contains("HVNL entry cache"));
        // Failed allocation must not consume budget.
        assert_eq!(t.used(), 90);
        t.allocate(10, "fits").unwrap();
    }

    #[test]
    fn a_sum_past_u64_max_is_refused_not_wrapped() {
        let t = MemTracker::with_capacity_bytes(100, 10);
        t.allocate(10, "warmup").unwrap();
        let err = t.allocate(u64::MAX, "huge").unwrap_err();
        // The sum saturates at `u64::MAX` bytes.
        let saturated = u64::MAX.div_ceil(10);
        assert!(matches!(
            err,
            Error::InsufficientMemory { required_pages, .. } if required_pages == saturated
        ));
        assert_eq!(t.used(), 10);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let t = MemTracker::with_capacity_bytes(100, 10);
        t.allocate(10, "x").unwrap();
        t.release(11);
    }

    #[test]
    fn reset_clears_usage_and_high_water() {
        let t = MemTracker::with_capacity_bytes(100, 10);
        t.allocate(80, "x").unwrap();
        t.reset();
        assert_eq!(t.used(), 0);
        assert_eq!(t.high_water(), 0);
    }
}
