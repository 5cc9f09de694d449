//! The packed layout: records back to back across page boundaries.
//!
//! Section 3 stores documents and inverted-file entries *tightly packed in
//! consecutive storage locations*: a record starts on the byte its
//! predecessor ended on, every page but the last is full, and only the
//! file's tail page is zero-padded. `D`, `I`, `⌈S⌉·α` and `⌈J⌉·α` all follow
//! from it. This module is the only code that knows the layout:
//! [`PackedWriter`] produces it, [`record`] cuts one record out of a page
//! run fetched at random, and [`PackedReader`] walks records in storage
//! order. Where each record lies is the caller's directory of [`ByteSpan`]s
//! — the catalog the paper does not charge for.

use crate::buffer::{PrefetchMetrics, PrefetchStats, Prefetcher};
use crate::disk::{DiskSim, FileId};
use crate::span::ByteSpan;
use std::sync::Arc;
use textjoin_common::Result;

/// Appends records to a file in the packed layout.
pub struct PackedWriter {
    disk: Arc<DiskSim>,
    file: FileId,
    /// The page being filled; never full between calls.
    page_buf: Vec<u8>,
    /// Bytes in the pages already on disk.
    flushed: u64,
}

impl PackedWriter {
    /// A writer appending to `file`, which must be empty.
    pub fn new(disk: Arc<DiskSim>, file: FileId) -> Self {
        let page_buf = Vec::with_capacity(disk.page_size());
        Self {
            disk,
            file,
            page_buf,
            flushed: 0,
        }
    }

    /// Appends one record and returns where it lies.
    pub fn append(&mut self, mut record: &[u8]) -> Result<ByteSpan> {
        let page_size = self.disk.page_size();
        let offset = self.flushed + self.page_buf.len() as u64;
        let span = ByteSpan::new(offset, record.len() as u64);
        while !record.is_empty() {
            let room = page_size - self.page_buf.len();
            let (head, rest) = record.split_at(room.min(record.len()));
            self.page_buf.extend_from_slice(head);
            record = rest;
            if self.page_buf.len() == page_size {
                self.disk.append_page(self.file, &self.page_buf)?;
                self.flushed += page_size as u64;
                self.page_buf.clear();
            }
        }
        Ok(span)
    }

    /// Writes the partial tail page, if any, and returns the file's logical
    /// length in bytes. The disk takes whole pages, so the tail is
    /// zero-padded; the padding is not part of the length.
    pub fn finish(mut self) -> Result<u64> {
        let logical = self.flushed + self.page_buf.len() as u64;
        if !self.page_buf.is_empty() {
            self.page_buf.resize(self.disk.page_size(), 0);
            self.disk.append_page(self.file, &self.page_buf)?;
        }
        Ok(logical)
    }
}

/// The record at `span` out of `pages` — the pages the span overlaps, in
/// order (what a `read_run` or `get_run` over [`ByteSpan::page_range`]
/// returns). A record inside one page is lent where it lies; one that
/// crosses pages is gathered into `scratch` first.
pub fn record<'a>(pages: &'a [Arc<[u8]>], span: ByteSpan, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    // Every page a disk hands out is exactly one page long.
    let Some(head) = pages.first() else {
        return &[];
    };
    let page_size = head.len();
    let offset = (span.offset % page_size as u64) as usize;
    let len = span.len as usize;
    if offset + len <= page_size {
        return &head[offset..offset + len];
    }
    scratch.clear();
    scratch.extend_from_slice(&head[offset..]);
    for page in &pages[1..] {
        let take = (len - scratch.len()).min(page_size);
        scratch.extend_from_slice(&page[..take]);
    }
    debug_assert_eq!(scratch.len(), len, "span not covered by page run");
    scratch
}

/// Reads the records of a packed file in storage order through a
/// [`Prefetcher`], each page once.
///
/// A record inside one page is lent straight from that page, with no copy;
/// the reader keeps the page, by number, so that the borrow has an owner.
/// The next record usually starts on the same page, and then it is lent
/// from the held page without asking the prefetcher, which would hand out
/// that page again without I/O.
pub struct PackedReader<'d> {
    prefetcher: Prefetcher<'d>,
    page_size: usize,
    /// The page the last in-page record was lent from.
    page: Arc<[u8]>,
    /// `page`'s number while it is the page the prefetcher demanded last:
    /// forgotten on a failed demand and after a record across pages.
    held: Option<u64>,
    /// The bytes of a record that crosses pages.
    scratch: Vec<u8>,
}

impl<'d> PackedReader<'d> {
    /// A reader over `file` whose records end before page `end_page` (where
    /// readahead stops), mirroring its readahead counters into `metrics`.
    pub fn new(
        disk: &'d DiskSim,
        file: FileId,
        end_page: u64,
        metrics: Option<PrefetchMetrics>,
    ) -> Self {
        Self {
            prefetcher: Prefetcher::new(disk, file, end_page).with_metrics(metrics),
            page_size: disk.page_size(),
            page: Arc::from([]),
            held: None,
            scratch: Vec::new(),
        }
    }

    /// Readahead counters so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher.stats()
    }

    /// The record at `span`, lent until the next call. Spans must not
    /// decrease from call to call. After an error the reader is still good
    /// for the records that follow.
    pub fn record(&mut self, span: ByteSpan) -> Result<&[u8]> {
        let (first, n) = span.page_range(self.page_size);
        let offset = (span.offset % self.page_size as u64) as usize;
        let len = span.len as usize;
        if n == 1 {
            let page = self.hold(first)?;
            return Ok(&page[offset..offset + len]);
        }
        self.held = None;
        self.scratch.clear();
        for page_no in first..first + n {
            let page = self.prefetcher.get(page_no)?;
            let from = if page_no == first { offset } else { 0 };
            let take = (len - self.scratch.len()).min(self.page_size - from);
            self.scratch.extend_from_slice(&page[from..from + take]);
        }
        Ok(&self.scratch)
    }

    /// Steps past the record at `span` without copying it: the same pages
    /// are demanded as [`record`](Self::record) would demand, in the same
    /// order, and the same read errors come back.
    pub fn step_past(&mut self, span: ByteSpan) -> Result<()> {
        let (first, n) = span.page_range(self.page_size);
        if n == 1 {
            return self.hold(first).map(drop);
        }
        self.held = None;
        (first..first + n).try_for_each(|page_no| self.prefetcher.get(page_no).map(drop))
    }

    /// Page `page_no`, held: lent again when it is the page already held,
    /// demanded from the prefetcher otherwise.
    fn hold(&mut self, page_no: u64) -> Result<&[u8]> {
        if self.held != Some(page_no) {
            self.held = None;
            self.page = self.prefetcher.get(page_no)?;
            self.held = Some(page_no);
        }
        Ok(&self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultPlan, READ_ATTEMPTS};
    use proptest::prelude::*;

    /// Record `i`'s bytes: distinct from its neighbours' at every offset.
    fn payload(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the page size and the record lengths — empty records
        /// and exact page multiples included — the writer's spans are
        /// contiguous, every record comes back in order through the reader
        /// and at random through `record`, the ordered pass reads each page
        /// once, an in-page record is lent from the page itself, and a
        /// failed read costs the reader one record. A pass that skips some
        /// of the records demands what reading them all does: the same
        /// disk and readahead counters, the same record lost to a fault.
        #[test]
        fn records_round_trip_in_order_and_at_random(
            page_size in 64usize..=512,
            shapes in proptest::collection::vec((0u8..6, 0usize..10_000, proptest::bool::ANY), 0..40),
            faulty in 0u64..10_000,
        ) {
            let skipped: Vec<bool> = shapes.iter().map(|&(.., skip)| skip).collect();
            let lens: Vec<usize> = shapes
                .iter()
                .map(|&(kind, raw, _)| match kind {
                    0 => 0,
                    1 => page_size,
                    2 => 2 * page_size,
                    _ => raw % (3 * page_size),
                })
                .collect();
            let disk = Arc::new(DiskSim::new(page_size));
            let file = disk.create_file("packed").unwrap();
            let mut writer = PackedWriter::new(Arc::clone(&disk), file);
            let mut spans = Vec::new();
            for (i, &len) in lens.iter().enumerate() {
                spans.push(writer.append(&payload(i, len)).unwrap());
            }
            let total: u64 = lens.iter().map(|&l| l as u64).sum();
            prop_assert_eq!(writer.finish().unwrap(), total);
            let num_pages = total.div_ceil(page_size as u64);
            prop_assert_eq!(disk.num_pages(file), num_pages);
            let mut at = 0;
            for (span, &len) in spans.iter().zip(&lens) {
                prop_assert_eq!(*span, ByteSpan::new(at, len as u64));
                at += len as u64;
            }

            // In order: every record, each page once, one seek.
            disk.reset_stats();
            disk.reset_head();
            let mut reader = PackedReader::new(&disk, file, num_pages, None);
            let mut lent = Vec::new();
            for (i, &span) in spans.iter().enumerate() {
                let bytes = reader.record(span).unwrap();
                prop_assert_eq!(bytes, &payload(i, lens[i])[..], "record {}", i);
                if span.num_pages(page_size) == 1 {
                    lent.push((span.first_page(page_size), bytes.as_ptr_range()));
                }
            }
            let stats = disk.stats();
            prop_assert_eq!(stats.total_reads(), num_pages);
            prop_assert_eq!(stats.rand_reads, num_pages.min(1));
            prop_assert_eq!(reader.prefetch_stats().wasted, 0);
            for (page_no, bytes) in lent {
                let page = disk.read_page(file, page_no).unwrap().as_ptr_range();
                prop_assert!(page.start <= bytes.start && bytes.end <= page.end, "copied");
            }

            // In order, stepping past a random subset: the same I/O.
            disk.reset_stats();
            disk.reset_head();
            let mut skipper = PackedReader::new(&disk, file, num_pages, None);
            for (i, &span) in spans.iter().enumerate() {
                if skipped[i] {
                    skipper.step_past(span).unwrap();
                } else {
                    prop_assert_eq!(skipper.record(span).unwrap(), &payload(i, lens[i])[..]);
                }
            }
            prop_assert_eq!(disk.stats(), stats);
            prop_assert_eq!(skipper.prefetch_stats(), reader.prefetch_stats());

            // At random: each record out of the run its span overlaps.
            let mut scratch = Vec::new();
            for i in (0..spans.len()).rev().step_by(3).chain(0..spans.len()) {
                let (first, n) = spans[i].page_range(page_size);
                let pages = disk.read_run(file, first, n).unwrap();
                let bytes = record(&pages, spans[i], &mut scratch);
                prop_assert_eq!(bytes, &payload(i, lens[i])[..], "record {}", i);
            }

            // One page fails once: the scan loses one record, no more, and
            // the skipping scan loses the same one.
            if num_pages > 0 {
                let fault = FaultKind::TransientRead { failures: READ_ATTEMPTS };
                let plan = || FaultPlan::new().with_fault(file, faulty % num_pages, 0, fault);
                let mut lost = [Vec::new(), Vec::new()];
                for (skipping, lost) in [false, true].into_iter().zip(&mut lost) {
                    disk.set_fault_plan(plan());
                    let mut reader = PackedReader::new(&disk, file, num_pages, None);
                    for (i, &span) in spans.iter().enumerate() {
                        let read = match skipping && skipped[i] {
                            true => reader.step_past(span),
                            false => reader.record(span).map(|bytes| {
                                assert_eq!(bytes, &payload(i, lens[i])[..], "record {i}");
                            }),
                        };
                        if read.is_err() {
                            lost.push(i);
                        }
                    }
                }
                prop_assert_eq!(lost[0].len(), 1);
                prop_assert_eq!(&lost[0], &lost[1]);
            }
        }
    }
}
