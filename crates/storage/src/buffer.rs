//! A budgeted LRU page cache over the simulated disk.
//!
//! The buffer pool gives document-at-a-time readers the behaviour the paper
//! assumes in section 5.1: when documents are smaller than a page, fetching
//! them one at a time touches each *page* at most once while it stays
//! resident, so a random scan of collection 1 costs `min{D₁, N₁}` random
//! I/Os rather than `N₁·⌈S₁⌉`.
//!
//! Reads go through [`BufferPool::get_run`]: pages already resident are
//! served from memory (no I/O charged), and each maximal missing sub-run is
//! fetched from the [`DiskSim`] as one run, so contiguous access patterns
//! keep their sequential pricing. Eviction is strict LRU over unpinned
//! pages.

use crate::disk::{DiskSim, FileId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use textjoin_common::Result;
use textjoin_obs::{Counter, Histogram, Registry, LATENCY_BOUNDS_NS};

/// Cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Pages served from the pool without I/O.
    pub hits: u64,
    /// Pages that had to be read from disk.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl fmt::Display for BufferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evictions",
            self.hits, self.misses, self.evictions
        )
    }
}

/// Counter handles a [`BufferPool`] emits hit/miss/eviction events into
/// when attached via [`BufferPool::set_metrics`].
#[derive(Clone)]
pub struct PoolMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    get_wall_ns: Histogram,
}

impl PoolMetrics {
    /// Registers the pool counters and the get-path latency histogram
    /// under `label`.
    pub fn register(registry: &Registry, label: &str) -> Self {
        Self {
            hits: registry.counter("buffer.hits", label),
            misses: registry.counter("buffer.misses", label),
            evictions: registry.counter("buffer.evictions", label),
            get_wall_ns: registry.histogram("buffer.get_wall_ns", label, &LATENCY_BOUNDS_NS),
        }
    }

    /// Wall-clock latency distribution of [`BufferPool::get_run`] calls
    /// (hits and misses alike, so the hit/miss latency gap is visible).
    pub fn get_wall_ns(&self) -> &Histogram {
        &self.get_wall_ns
    }
}

type Key = (FileId, u64);

const NIL: usize = usize::MAX;

struct Slot {
    key: Key,
    data: Arc<[u8]>,
    prev: usize,
    next: usize,
}

/// Intrusive doubly-linked LRU over a slot arena. `head` is most recently
/// used, `tail` least recently used.
struct LruState {
    map: HashMap<Key, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    capacity: usize,
    stats: BufferStats,
    /// Optional observability sink, updated under this same lock.
    metrics: Option<PoolMetrics>,
}

impl LruState {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Serves `key` if it is resident: counts the hit and makes the page
    /// the most recently used.
    fn lookup(&mut self, key: Key) -> Option<Arc<[u8]>> {
        let idx = *self.map.get(&key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.stats.hits += 1;
        if let Some(m) = &self.metrics {
            m.hits.inc();
        }
        Some(Arc::clone(&self.slots[idx].data))
    }

    /// Counts the miss that fetched `data` and caches it — in the least
    /// recently used page's slot once the pool is full — unless another
    /// reader got there first.
    fn install(&mut self, key: Key, data: &Arc<[u8]>) {
        self.stats.misses += 1;
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
        if self.map.contains_key(&key) {
            return;
        }
        let slot = Slot {
            key,
            data: Arc::clone(data),
            prev: NIL,
            next: NIL,
        };
        let idx = if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 guaranteed at construction");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.stats.evictions += 1;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
            self.slots[victim] = slot;
            victim
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }
}

/// An LRU page cache of fixed capacity (in pages) over a [`DiskSim`].
pub struct BufferPool<'d> {
    disk: &'d DiskSim,
    state: Mutex<LruState>,
    /// Whether `state.metrics` is set, so an unobserved `get` reads no
    /// clock. Only a statistic depends on it.
    timed: AtomicBool,
}

impl<'d> BufferPool<'d> {
    /// Creates a pool caching at most `capacity_pages` pages.
    ///
    /// # Panics
    /// Panics if `capacity_pages == 0`.
    pub fn new(disk: &'d DiskSim, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "buffer pool needs at least one page");
        Self {
            disk,
            state: Mutex::new(LruState {
                map: HashMap::new(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity: capacity_pages,
                stats: BufferStats::default(),
                metrics: None,
            }),
            timed: AtomicBool::new(false),
        }
    }

    /// Cache capacity in pages.
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// Whether the pool holds no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> BufferStats {
        self.state.lock().stats
    }

    /// Attaches (or with `None`, detaches) an observability sink: cache
    /// hits, misses and evictions are mirrored into the registered
    /// counters under the pool's existing lock.
    pub fn set_metrics(&self, metrics: Option<PoolMetrics>) {
        let mut st = self.state.lock();
        self.timed.store(metrics.is_some(), Ordering::Relaxed);
        st.metrics = metrics;
    }

    /// Runs one `get*` call, timing it while a sink is attached.
    fn time_get<R>(&self, get: impl FnOnce() -> Result<R>) -> Result<R> {
        if !self.timed.load(Ordering::Relaxed) {
            return get();
        }
        let started = Instant::now();
        let out = get()?;
        if let Some(m) = &self.state.lock().metrics {
            m.get_wall_ns.observe(started.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// Whether a page is resident (does not touch recency).
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.state.lock().map.contains_key(&(file, page))
    }

    /// Drops every cached page (counters are kept).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.map.clear();
        st.slots.clear();
        st.head = NIL;
        st.tail = NIL;
    }

    /// Reads one page through the cache, with no `Vec` on the way: the
    /// one-page case of [`get_run`](Self::get_run).
    pub fn get(&self, file: FileId, page: u64) -> Result<Arc<[u8]>> {
        self.time_get(|| {
            let resident = self.state.lock().lookup((file, page));
            if let Some(data) = resident {
                return Ok(data);
            }
            let data = self.disk.read_page(file, page)?;
            self.state.lock().install((file, page), &data);
            Ok(data)
        })
    }

    /// Reads `len` consecutive pages through the cache. Resident pages cost
    /// nothing; each maximal missing sub-run is fetched from disk as one
    /// run so contiguity (and with it the sequential discount) is preserved.
    pub fn get_run(&self, file: FileId, start: u64, len: u64) -> Result<Vec<Arc<[u8]>>> {
        self.time_get(|| {
            // A run no file holds is the disk's to refuse, before it sizes a `Vec`.
            let in_file = |end| end <= self.disk.num_pages(file);
            if !start.checked_add(len).is_some_and(in_file) {
                return self.disk.read_run(file, start, len);
            }
            let mut out: Vec<Option<Arc<[u8]>>> = vec![None; len as usize];

            // Pass 1: serve hits and find missing sub-runs.
            let mut missing_runs: Vec<(u64, u64)> = Vec::new(); // (start, len)
            {
                let mut st = self.state.lock();
                let mut run_start: Option<u64> = None;
                for (page, slot) in (start..).zip(&mut out) {
                    *slot = st.lookup((file, page));
                    if slot.is_none() {
                        run_start.get_or_insert(page);
                    } else if let Some(rs) = run_start.take() {
                        missing_runs.push((rs, page - rs));
                    }
                }
                if let Some(rs) = run_start {
                    missing_runs.push((rs, start + len - rs));
                }
            }

            // Pass 2: fetch missing runs (disk classifies them) and install.
            for (rs, rl) in missing_runs {
                let pages = self.disk.read_run(file, rs, rl)?;
                let mut st = self.state.lock();
                for (page, data) in (rs..).zip(pages) {
                    st.install((file, page), &data);
                    out[(page - start) as usize] = Some(data);
                }
            }
            Ok(out
                .into_iter()
                .map(|p| p.expect("all pages filled"))
                .collect())
        })
    }
}

/// Default readahead window of a [`Prefetcher`], in pages.
pub const DEFAULT_PREFETCH_WINDOW: u64 = 8;

/// Readahead counters of one [`Prefetcher`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Pages fetched ahead of demand (batch length minus the demanded
    /// page). Always equals `hits + wasted` once the prefetcher is dropped.
    pub issued: u64,
    /// Demanded pages served from a previously issued batch without I/O.
    pub hits: u64,
    /// Prefetched pages that were never demanded (the scan jumped or
    /// ended first).
    pub wasted: u64,
}

impl fmt::Display for PrefetchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} issued, {} hits, {} wasted",
            self.issued, self.hits, self.wasted
        )
    }
}

/// Counter handles a [`Prefetcher`] mirrors its stats into when attached
/// at construction.
#[derive(Clone)]
pub struct PrefetchMetrics {
    issued: Counter,
    hits: Counter,
    wasted: Counter,
    batch_wall_ns: Histogram,
}

impl PrefetchMetrics {
    /// Registers `prefetch.issued` / `prefetch.hits` / `prefetch.wasted`
    /// counters and the `prefetch.batch_wall_ns` latency histogram under
    /// `label`.
    pub fn register(registry: &Registry, label: &str) -> Self {
        Self {
            issued: registry.counter("prefetch.issued", label),
            hits: registry.counter("prefetch.hits", label),
            wasted: registry.counter("prefetch.wasted", label),
            batch_wall_ns: registry.histogram("prefetch.batch_wall_ns", label, &LATENCY_BOUNDS_NS),
        }
    }

    /// Wall-clock latency distribution of issued readahead batches.
    pub fn batch_wall_ns(&self) -> &Histogram {
        &self.batch_wall_ns
    }
}

/// Sequential-run readahead over one file.
///
/// A `Prefetcher` sits between a page-at-a-time reader (a
/// [`PackedReader`](crate::PackedReader) under a document, inverted-file
/// or signature scanner) and the disk. It watches the demanded page
/// numbers; once two consecutive demands are adjacent it issues the next
/// `window` pages as one batched [`DiskSim::read_scan`], so a logically
/// sequential scan reaches the disk as a few large scan-priced reads
/// instead of `D` single-page reads — same page count, same seek count,
/// but each batch is one locking round-trip and one pricing decision.
/// (Scan pricing, not run pricing: if another reader moved the device
/// head, the batch pays the single seek a page-at-a-time scan would have
/// paid instead of having the whole window reclassified as random.)
/// Non-sequential demands fall back to single-page fetches and flush any
/// unconsumed readahead into the `wasted` counter.
///
/// It keeps no pool: a scan never comes back to a page behind it, so what
/// it holds is the page demanded last — the one page a scan does ask for
/// twice, when a record ends mid-page and its successor starts there —
/// and the window it has read ahead of that page.
pub struct Prefetcher<'d> {
    disk: &'d DiskSim,
    file: FileId,
    window: u64,
    /// One past the last readable page — readahead never runs off the
    /// end of the file.
    end_page: u64,
    last_demanded: Option<u64>,
    /// `pages[k]` is page `last_demanded + k`: the page demanded last (not
    /// there after a failed read) and the prefetched-but-not-yet-demanded
    /// pages that follow it.
    pages: VecDeque<Arc<[u8]>>,
    stats: PrefetchStats,
    metrics: Option<PrefetchMetrics>,
}

impl<'d> Prefetcher<'d> {
    /// A prefetcher over `file` (`num_pages` long) with the default
    /// 8-page window.
    pub fn new(disk: &'d DiskSim, file: FileId, num_pages: u64) -> Self {
        Self {
            disk,
            file,
            window: DEFAULT_PREFETCH_WINDOW,
            end_page: num_pages,
            last_demanded: None,
            pages: VecDeque::new(),
            stats: PrefetchStats::default(),
            metrics: None,
        }
    }

    /// Attaches an observability sink mirroring the prefetch counters.
    pub fn with_metrics(mut self, metrics: Option<PrefetchMetrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Readahead counters so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Drops the held pages; all but the first, which was demanded, were
    /// read ahead for nothing.
    fn flush_outstanding(&mut self) {
        let stranded = self.pages.len().saturating_sub(1) as u64;
        self.pages.clear();
        self.waste(stranded);
    }

    fn waste(&mut self, pages: u64) {
        if pages > 0 {
            self.stats.wasted += pages;
            if let Some(m) = &self.metrics {
                m.wasted.inc_by(pages);
            }
        }
    }

    /// Demand-reads one page. Sequential demand patterns are detected and
    /// served from readahead batches; anything else degrades to plain
    /// single-page reads.
    pub fn get(&mut self, page: u64) -> Result<Arc<[u8]>> {
        let ahead = self.last_demanded.and_then(|last| page.checked_sub(last));
        if let Some(ahead) = ahead.filter(|&k| k < self.pages.len() as u64) {
            // `ahead == 0`: a document ending mid-page makes its successor
            // demand the same page again; it is held, and the readahead
            // state is untouched.
            if ahead > 0 {
                // Served from readahead. Pages skipped over were wasted.
                self.pages.drain(..ahead as usize);
                self.waste(ahead - 1);
                self.stats.hits += 1;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                self.last_demanded = Some(page);
            }
            return Ok(Arc::clone(&self.pages[0]));
        }
        self.flush_outstanding();
        let sequential = self.last_demanded == Some(page.wrapping_sub(1));
        self.last_demanded = Some(page);
        if sequential && self.window > 1 && page < self.end_page {
            // The scan continues: fetch a window in one scan-priced batch.
            // The batch covers the demanded page, so a batch-wide failure
            // (a fault or corrupt page anywhere in the window) fails this
            // demand — speculation must not absorb errors the page-at-a-time
            // path would have surfaced.
            // Clamp the readahead window to the pages the run actually
            // has left: issuing past `end_page` would charge I/O for
            // pages no demand can ever claim (phantom "hits" past the
            // last run). Saturating keeps the clamp safe even if a
            // caller's `end_page` went stale.
            let len = self.window.min(self.end_page.saturating_sub(page)).max(1);
            let started = Instant::now();
            self.pages = match self.disk.read_scan(self.file, page, len) {
                Ok(pages) => pages.into(),
                Err(e) => {
                    // Forget the run so a retried demand degrades to a
                    // cold single-page read instead of re-batching.
                    self.last_demanded = None;
                    return Err(e);
                }
            };
            if let Some(m) = &self.metrics {
                m.batch_wall_ns.observe(started.elapsed().as_nanos() as u64);
            }
            if len > 1 {
                self.stats.issued += len - 1;
                if let Some(m) = &self.metrics {
                    m.issued.inc_by(len - 1);
                }
            }
        } else {
            // Cold or non-sequential: one page, priced by the disk as-is.
            let cold = self.disk.read_page(self.file, page)?;
            self.pages.push_back(cold);
        }
        Ok(Arc::clone(&self.pages[0]))
    }
}

impl Drop for Prefetcher<'_> {
    fn drop(&mut self) {
        self.flush_outstanding();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A prefetcher over `file` with a readahead window of `window` pages.
    fn windowed(disk: &DiskSim, file: FileId, num_pages: u64, window: u64) -> Prefetcher<'_> {
        let mut pf = Prefetcher::new(disk, file, num_pages);
        pf.window = window;
        pf
    }

    fn setup(pages: u64, pool_pages: usize) -> (DiskSim, FileId, usize) {
        let disk = DiskSim::new(32);
        let f = disk.create_file("docs").unwrap();
        for i in 0..pages {
            let mut page = vec![0u8; 32];
            page[0] = i as u8;
            disk.append_page(f, &page).unwrap();
        }
        disk.reset_stats();
        disk.reset_head();
        (disk, f, pool_pages)
    }

    #[test]
    fn second_read_hits_cache_without_io() {
        let (disk, f, cap) = setup(4, 4);
        let pool = BufferPool::new(&disk, cap);
        pool.get(f, 1).unwrap();
        pool.get(f, 1).unwrap();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(disk.stats().total_reads(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (disk, f, _) = setup(4, 0);
        let pool = BufferPool::new(&disk, 2);
        pool.get(f, 0).unwrap();
        pool.get(f, 1).unwrap();
        pool.get(f, 0).unwrap(); // page 0 now most recent
        pool.get(f, 2).unwrap(); // evicts page 1
        assert!(pool.contains(f, 0));
        assert!(!pool.contains(f, 1));
        assert!(pool.contains(f, 2));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn run_with_cached_interior_reads_only_gaps() {
        let (disk, f, _) = setup(6, 6);
        let pool = BufferPool::new(&disk, 6);
        pool.get(f, 2).unwrap();
        disk.reset_stats();
        // Run 0..6 with page 2 resident: reads runs [0,2) and [3,6).
        let pages = pool.get_run(f, 0, 6).unwrap();
        assert_eq!(pages.len(), 6);
        assert_eq!(disk.stats().total_reads(), 5);
        assert_eq!(pool.stats().hits, 1);
        // Data is correct and in order.
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p[0], i as u8);
        }
    }

    #[test]
    fn consecutive_small_docs_share_page_cost() {
        // Two "documents" living in one page cost a single read: the
        // min{D, N} effect of section 5.1.
        let (disk, f, _) = setup(1, 2);
        let pool = BufferPool::new(&disk, 2);
        pool.get(f, 0).unwrap(); // doc A
        pool.get(f, 0).unwrap(); // doc B on the same page
        assert_eq!(disk.stats().total_reads(), 1);
    }

    #[test]
    fn a_run_past_the_end_is_refused_before_it_is_sized() {
        let (disk, f, _) = setup(4, 4);
        let pool = BufferPool::new(&disk, 4);
        for (start, len) in [(2, 3), (0, u64::MAX), (u64::MAX - 1, 4)] {
            let err = pool.get_run(f, start, len).unwrap_err();
            assert!(matches!(
                err,
                textjoin_common::Error::PageOutOfBounds { .. }
            ));
        }
        assert_eq!(disk.stats().total_reads(), 0);
    }

    #[test]
    fn clear_empties_pool() {
        let (disk, f, _) = setup(3, 3);
        let pool = BufferPool::new(&disk, 3);
        pool.get_run(f, 0, 3).unwrap();
        assert_eq!(pool.len(), 3);
        pool.clear();
        assert!(pool.is_empty());
        pool.get(f, 0).unwrap();
        assert_eq!(pool.stats().misses, 4);
    }

    #[test]
    fn capacity_one_pool_works() {
        let (disk, f, _) = setup(3, 1);
        let pool = BufferPool::new(&disk, 1);
        for round in 0..2 {
            for p in 0..3 {
                let page = pool.get(f, p).unwrap();
                assert_eq!(page[0], p as u8, "round {round}");
            }
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 6);
        assert_eq!(pool.stats().evictions, 5);
    }

    #[test]
    fn attached_metrics_mirror_pool_events() {
        let registry = textjoin_obs::Registry::new();
        let (disk, f, _) = setup(4, 2);
        let pool = BufferPool::new(&disk, 2);
        pool.set_metrics(Some(PoolMetrics::register(&registry, "pool")));
        pool.get(f, 0).unwrap(); // miss
        pool.get(f, 0).unwrap(); // hit
        pool.get(f, 1).unwrap(); // miss
        pool.get(f, 2).unwrap(); // miss + eviction
        assert_eq!(registry.counter("buffer.hits", "pool").get(), 1);
        assert_eq!(registry.counter("buffer.misses", "pool").get(), 3);
        assert_eq!(registry.counter("buffer.evictions", "pool").get(), 1);
        assert_eq!(pool.stats().to_string(), "1 hits, 3 misses, 1 evictions");
    }

    #[test]
    fn attached_metrics_time_get_path() {
        let registry = textjoin_obs::Registry::new();
        let (disk, f, _) = setup(4, 2);
        let pool = BufferPool::new(&disk, 2);
        let metrics = PoolMetrics::register(&registry, "pool");
        pool.set_metrics(Some(metrics.clone()));
        pool.get(f, 0).unwrap(); // miss
        pool.get(f, 0).unwrap(); // hit
        pool.get_run(f, 0, 4).unwrap(); // mixed
        assert_eq!(metrics.get_wall_ns().count(), 3);
        assert!(metrics.get_wall_ns().max() > 0);
    }

    #[test]
    fn eviction_reuses_slots() {
        let (disk, f, _) = setup(8, 2);
        let pool = BufferPool::new(&disk, 2);
        for p in 0..8 {
            pool.get(f, p).unwrap();
        }
        // The slot arena must not grow beyond capacity.
        assert!(pool.state.lock().slots.len() <= 2);
    }

    #[test]
    fn sequential_scan_through_prefetcher_costs_d_pages_one_seek() {
        let (disk, f, _) = setup(20, 0);
        let mut pf = Prefetcher::new(&disk, f, 20);
        for p in 0..20 {
            let page = pf.get(p).unwrap();
            assert_eq!(page[0], p as u8);
        }
        let s = disk.stats();
        // Identical pricing to a page-at-a-time scan: every page read
        // exactly once, a single seek up front.
        assert_eq!(s.total_reads(), 20);
        assert_eq!(s.rand_reads, 1);
        // Page 0 cold, page 1 starts a batch; hits cover the rest.
        let ps = pf.stats();
        assert!(ps.issued > 0);
        assert!(ps.hits > 0);
        assert_eq!(ps.wasted, 0);
        assert_eq!(ps.issued, ps.hits, "every issued page was demanded");
    }

    #[test]
    fn prefetcher_reads_each_page_exactly_once() {
        let (disk, f, _) = setup(13, 0);
        let mut pf = windowed(&disk, f, 13, 4);
        for p in 0..13 {
            pf.get(p).unwrap();
        }
        assert_eq!(disk.stats().total_reads(), 13, "no page read twice");
    }

    #[test]
    fn repeated_demand_is_served_resident() {
        // A document ending mid-page makes its successor demand the same
        // page again; that must not cost I/O or disturb the readahead.
        let (disk, f, _) = setup(10, 0);
        let mut pf = Prefetcher::new(&disk, f, 10);
        pf.get(0).unwrap();
        pf.get(0).unwrap(); // straddling successor
        pf.get(1).unwrap();
        pf.get(1).unwrap();
        pf.get(2).unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 1, "one cold seek only");
        assert!(s.total_reads() <= 10);
    }

    #[test]
    fn jump_flushes_outstanding_to_wasted() {
        let (disk, f, _) = setup(30, 0);
        let mut pf = Prefetcher::new(&disk, f, 30);
        pf.get(0).unwrap();
        pf.get(1).unwrap(); // batch issued: 2..9 outstanding
        pf.get(20).unwrap(); // jump: outstanding wasted
        let ps = pf.stats();
        assert_eq!(ps.issued, 7);
        assert_eq!(ps.wasted, 7);
        assert_eq!(ps.hits, 0);
    }

    #[test]
    fn drop_flushes_outstanding_to_metrics() {
        let registry = textjoin_obs::Registry::new();
        let (disk, f, _) = setup(30, 0);
        {
            let mut pf = Prefetcher::new(&disk, f, 30)
                .with_metrics(Some(PrefetchMetrics::register(&registry, "scan")));
            pf.get(0).unwrap();
            pf.get(1).unwrap(); // issues 7 ahead
            pf.get(2).unwrap(); // one hit
        }
        assert_eq!(registry.counter("prefetch.issued", "scan").get(), 7);
        assert_eq!(registry.counter("prefetch.hits", "scan").get(), 1);
        assert_eq!(registry.counter("prefetch.wasted", "scan").get(), 6);
    }

    #[test]
    fn issued_equals_hits_plus_wasted_after_drop() {
        let (disk, f, _) = setup(40, 0);
        let stats = {
            let mut pf = windowed(&disk, f, 40, 8);
            // A scan with a skip and an early stop.
            for p in 0..10 {
                pf.get(p).unwrap();
            }
            pf.get(25).unwrap();
            pf.get(26).unwrap();
            let s = pf.stats();
            drop(pf);
            s
        };
        // Can't read post-drop stats; re-derive: issued pages are either
        // hit or wasted (some wasted only at drop).
        assert!(stats.issued >= stats.hits);
    }

    #[test]
    fn early_stop_overshoot_lands_in_wasted_not_hits() {
        // A scan that stops mid-batch: the unconsumed readahead must be
        // accounted as wasted, never as hits.
        let (disk, f, _) = setup(10, 0);
        let stats = {
            let mut pf = Prefetcher::new(&disk, f, 10); // window 8
            for p in 0..4 {
                pf.get(p).unwrap();
            }
            // Page 0 cold; page 1 issued the 8-page batch [1, 9); pages
            // 2 and 3 hit. Dropping here strands [4, 9).
            drop_stats(pf)
        };
        assert_eq!(stats.issued, 7);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.wasted, 5);
        assert_eq!(
            stats.issued,
            stats.hits + stats.wasted,
            "every issued page is either demanded or wasted"
        );
    }

    #[test]
    fn clamped_tail_batch_never_issues_past_last_run() {
        // The last batch of a file shorter than the window must clamp:
        // issuing past the final run would charge phantom I/O and, once
        // demanded-never, misattribute the overshoot.
        let (disk, f, _) = setup(6, 0);
        let stats = {
            let mut pf = Prefetcher::new(&disk, f, 6); // window 8 > file
            pf.get(0).unwrap();
            pf.get(1).unwrap(); // batch clamps to [1, 6), issuing 4 ahead
            pf.get(2).unwrap(); // one hit, then stop early
            drop_stats(pf)
        };
        assert_eq!(disk.stats().total_reads(), 6, "no page past the run read");
        assert_eq!(stats.issued, 4, "window clamped to the 5 remaining pages");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.wasted, 3, "stranded tail pages are wasted");
        assert_eq!(stats.issued, stats.hits + stats.wasted);
    }

    /// Drops the prefetcher (flushing outstanding readahead to `wasted`)
    /// and returns the final counters.
    fn drop_stats(mut pf: Prefetcher<'_>) -> PrefetchStats {
        pf.flush_outstanding();
        pf.stats()
    }

    #[test]
    fn window_clamps_at_end_of_file() {
        let (disk, f, _) = setup(5, 0);
        let mut pf = Prefetcher::new(&disk, f, 5); // window 8 > file
        for p in 0..5 {
            pf.get(p).unwrap();
        }
        assert_eq!(disk.stats().total_reads(), 5, "readahead never over-runs");
        assert_eq!(pf.stats().wasted, 0);
    }

    /// What a pool-less prefetcher has to do, in ten lines: pages
    /// `last + 1 .. ahead_end` are in memory; a demand among them is a hit
    /// (what it skips is wasted), the held page is free, anything else
    /// strands the window and reads one page — or, right after its
    /// predecessor, a window clamped to `end_page`.
    #[derive(Default)]
    struct Model {
        last: Option<u64>,
        ahead_end: u64,
        stats: PrefetchStats,
        reads: u64,
    }

    impl Model {
        fn get(&mut self, page: u64, window: u64, end_page: u64) {
            match self.last {
                Some(last) if page == last => return,
                Some(last) if last < page && page < self.ahead_end => {
                    self.stats.wasted += page - last - 1;
                    self.stats.hits += 1;
                }
                _ => {
                    self.stats.wasted += self.last.map_or(0, |l| self.ahead_end - l - 1);
                    let sequential = page > 0 && self.last == Some(page - 1);
                    let batch = sequential && window > 1 && page < end_page;
                    let len = if batch {
                        window.min(end_page - page)
                    } else {
                        1
                    };
                    self.stats.issued += len - 1;
                    self.reads += len;
                    self.ahead_end = page + len;
                }
            }
            self.last = Some(page);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Non-decreasing demands with repeats and skips, any window, files
        /// shorter than the window: the bytes are the page's, the disk sees
        /// the reads the model predicts (each demanded page once, plus the
        /// readahead nobody claimed), readahead stops at `end_page`, and
        /// every issued page ends up a hit or wasted.
        #[test]
        fn prefetcher_matches_its_model(
            pages in 1u64..40,
            window in 1u64..=8,
            tail in 0u64..4,
            steps in proptest::collection::vec(0u64..4, 1..60),
            jump in 0usize..60,
        ) {
            use proptest::prelude::*;
            let (disk, f, _) = setup(pages + tail, 0);
            let registry = textjoin_obs::Registry::new();
            let metrics = PrefetchMetrics::register(&registry, "m");
            let mut pf = windowed(&disk, f, pages, window).with_metrics(Some(metrics));
            let mut model = Model::default();
            let (mut page, mut demanded) = (0, std::collections::BTreeSet::new());
            for (i, step) in steps.iter().enumerate() {
                page += if i == jump { 11 } else { *step };
                if page >= pages {
                    break;
                }
                prop_assert_eq!(pf.get(page).unwrap()[0], page as u8);
                model.get(page, window, pages);
                demanded.insert(page);
                prop_assert_eq!(pf.stats(), model.stats);
                prop_assert_eq!(disk.stats().total_reads(), model.reads);
            }
            drop(pf);
            let counter = |name| registry.counter(name, "m").get();
            let wasted = counter("prefetch.wasted");
            prop_assert_eq!(counter("prefetch.issued"), counter("prefetch.hits") + wasted);
            prop_assert_eq!(disk.stats().total_reads(), demanded.len() as u64 + wasted);
        }

        /// A transient fault anywhere in a sequential scan fails exactly
        /// the demand whose read covered it, and that demand's retry is one
        /// cold page — not the batch again.
        #[test]
        fn a_failed_demand_retries_as_one_cold_page(
            pages in 2u64..40,
            window in 1u64..=8,
            faulty in 0u64..40,
        ) {
            use proptest::prelude::*;
            let (disk, f, _) = setup(pages, 0);
            let fault = crate::FaultKind::TransientRead { failures: crate::READ_ATTEMPTS };
            disk.set_fault_plan(crate::FaultPlan::new().with_fault(f, faulty % pages, 0, fault));
            let mut pf = windowed(&disk, f, pages, window);
            let mut failed = 0;
            for page in 0..pages {
                let data = match pf.get(page) {
                    Ok(data) => data,
                    Err(_) => {
                        failed += 1;
                        let before = disk.stats();
                        let data = pf.get(page).unwrap();
                        prop_assert_eq!(disk.stats().since(&before).total_reads(), 1);
                        data
                    }
                };
                prop_assert_eq!(data[0], page as u8);
            }
            prop_assert_eq!(failed, 1);
        }
    }

    #[test]
    fn scan_pricing_survives_head_disturbance() {
        // Another reader moves the head mid-scan: the next batch pays one
        // seek, not a window of random reads.
        let (disk, f, _) = setup(20, 0);
        let g = disk.create_file("other").unwrap();
        disk.append_page(g, &[0u8; 32]).unwrap();
        let mut pf = windowed(&disk, f, 20, 4);
        for p in 0..4 {
            pf.get(p).unwrap();
        }
        disk.read_page(f, 19).unwrap(); // same-file interloper breaks the head
        let before = disk.stats();
        for p in 4..12 {
            pf.get(p).unwrap();
        }
        let delta = disk.stats().since(&before);
        assert_eq!(delta.total_reads(), 8);
        assert_eq!(delta.rand_reads, 1, "one seek to resume, not a window");
    }
}
