//! The simulated disk.
//!
//! A [`DiskSim`] holds a set of named, page-structured files entirely in
//! memory and *accounts* for I/O instead of performing it. The accounting
//! follows section 3 of the paper:
//!
//! * a read run that begins exactly where the previous read on the device
//!   left off is **sequential** — all of its pages cost 1 unit;
//! * any other run is **random** — *all* of its pages cost `α` units. This
//!   matches the paper's `N·⌈S⌉·α` estimate for document-at-a-time access
//!   and `T₂·q·⌈J₁⌉·α` for inverted-entry fetches, both of which charge the
//!   full run at the random rate;
//! * in **interference mode** every run is random: the device is assumed to
//!   serve other obligations between any two of our requests, which is the
//!   worst-case scenario behind the `hhr`, `hvr` and `vvr` formulas.
//!
//! Head positions are tracked **per (thread, file)** — the paper's
//! sequential estimates assume "each document collection is read by a
//! dedicated drive with no or little interference from other I/O requests"
//! (section 5.1), so interleaved scans of two files (e.g. VVM's merge)
//! each stay sequential, and parallel workers scanning partitions of the
//! same file are each assumed to stream from their own drive — they do not
//! perturb each other's sequentiality, matching the parallel cost model's
//! dedicated-drive assumption (and keeping multi-worker page accounting
//! deterministic under scheduling). The shared-device worst case is
//! modeled by interference mode, which is what the `hhr`/`hvr`/`vvr`
//! formulas describe.
//!
//! Reads can optionally cost *time* as well as pages: a
//! [`PageLatency`] (default zero — pure accounting) makes every charged
//! page accrue a simulated service delay, paid by the reading thread as a
//! real sleep outside the locks. Concurrent workers therefore overlap
//! their simulated I/O exactly as parallel drives would, which is what
//! lets the bench harness measure parallel speedup in wall clock even
//! though page data is just memcpys.
//!
//! # Robustness, and what is locked when
//!
//! Every page carries an out-of-band header ([`crate::page`]: magic,
//! format version, [`PageKind`], CRC32 of the payload) stamped on write
//! and verified on every read — corruption surfaces as [`Error::Corrupt`]
//! with file/page context instead of decoding garbage. A read holds the
//! `files` mutex only to bounds-check the run and snapshot it (`Arc`
//! clones of the payloads, copies of the headers), verifies the snapshot
//! with no lock held — concurrent scans overlap their hashing — and takes
//! the `state` mutex once to price the run. A write hashes and copies its
//! payload before it takes `files`. Device misbehaviour on demand lives in
//! [`crate::fault`]; its mutex is taken (as `files` → faults) only while a
//! planned fault is pending or a write-crash is set, and the clock is read
//! only while a [`DiskMetrics`] sink is attached.

pub use crate::fault::{Fault, FaultKind, FaultPlan, FaultStats, READ_ATTEMPTS};
pub use crate::page::{crc32, PageKind, PAGE_FORMAT_VERSION, PAGE_HEADER_BYTES, PAGE_MAGIC};

use crate::fault::FaultMachinery;
use crate::page::{self, Header};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use textjoin_common::{Error, Result};
use textjoin_obs::{Counter, Histogram, Registry, LATENCY_BOUNDS_NS};

/// Identifier of a file within a [`DiskSim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FileId(u32);

impl FileId {
    /// The raw index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Cumulative I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read at the sequential rate.
    pub seq_reads: u64,
    /// Pages read at the random rate.
    pub rand_reads: u64,
    /// Pages written (always sequential appends in this workspace).
    pub writes: u64,
}

impl IoStats {
    /// Total pages read.
    #[inline]
    pub fn total_reads(&self) -> u64 {
        self.seq_reads + self.rand_reads
    }

    /// The paper's cost metric: sequential pages cost 1, random pages `α`.
    #[inline]
    pub fn cost(&self, alpha: f64) -> f64 {
        self.seq_reads as f64 + self.rand_reads as f64 * alpha
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            seq_reads: self.seq_reads - earlier.seq_reads,
            rand_reads: self.rand_reads - earlier.rand_reads,
            writes: self.writes - earlier.writes,
        }
    }

    /// Saturating element-wise accumulation — the aggregation parallel
    /// executors and the sim harness need when summing per-worker or
    /// per-run counters.
    pub fn merge(&mut self, other: &IoStats) {
        self.seq_reads = self.seq_reads.saturating_add(other.seq_reads);
        self.rand_reads = self.rand_reads.saturating_add(other.rand_reads);
        self.writes = self.writes.saturating_add(other.writes);
    }
}

impl std::ops::AddAssign<IoStats> for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        self.merge(&other);
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seq + {} rand reads ({} total), {} writes",
            self.seq_reads,
            self.rand_reads,
            self.total_reads(),
            self.writes
        )
    }
}
/// Counter handles a [`DiskSim`] emits read/write and fault events into
/// when attached via [`DiskSim::set_metrics`].
#[derive(Clone)]
pub struct DiskMetrics {
    seq_reads: Counter,
    rand_reads: Counter,
    writes: Counter,
    retries: Counter,
    gave_up: Counter,
    faults_transient: Counter,
    faults_torn: Counter,
    faults_bit_flip: Counter,
    faults_latency: Counter,
    read_wall_ns: Histogram,
    write_wall_ns: Histogram,
}

impl DiskMetrics {
    /// Registers the disk and fault counters under `label` (typically the
    /// experiment or catalog name).
    pub fn register(registry: &Registry, label: &str) -> Self {
        Self {
            seq_reads: registry.counter("disk.seq_reads", label),
            rand_reads: registry.counter("disk.rand_reads", label),
            writes: registry.counter("disk.writes", label),
            retries: registry.counter("disk.retries", label),
            gave_up: registry.counter("disk.gave_up", label),
            faults_transient: registry.counter("faults.transient", label),
            faults_torn: registry.counter("faults.torn_write", label),
            faults_bit_flip: registry.counter("faults.bit_flip", label),
            faults_latency: registry.counter("faults.latency", label),
            read_wall_ns: registry.histogram("disk.read_wall_ns", label, &LATENCY_BOUNDS_NS),
            write_wall_ns: registry.histogram("disk.write_wall_ns", label, &LATENCY_BOUNDS_NS),
        }
    }

    /// Wall-clock latency distribution of read operations.
    pub fn read_wall_ns(&self) -> &Histogram {
        &self.read_wall_ns
    }

    /// Wall-clock latency distribution of write operations.
    pub fn write_wall_ns(&self) -> &Histogram {
        &self.write_wall_ns
    }

    fn mirror_faults(&self, d: &FaultStats) {
        self.retries.inc_by(d.retries);
        self.gave_up.inc_by(d.gave_up);
        self.faults_transient.inc_by(d.injected_transient);
        self.faults_torn.inc_by(d.injected_torn);
        self.faults_bit_flip.inc_by(d.injected_bit_flips);
        self.faults_latency.inc_by(d.injected_latency);
    }
}

/// One page as the device holds it: the payload and its out-of-band
/// header. Cloning is the snapshot a read verifies — the payload is
/// immutable behind its `Arc`, a later write or flip replaces it.
#[derive(Clone)]
struct StoredPage {
    header: Header,
    data: Arc<[u8]>,
}

#[derive(Default)]
struct FileData {
    name: String,
    kind: PageKind,
    pages: Vec<StoredPage>,
}

impl FileData {
    /// The error for touching `page` of a file that ends before it.
    fn out_of_bounds(&self, page: u64) -> Error {
        Error::PageOutOfBounds {
            file: self.name.clone(),
            page,
            len: self.pages.len() as u64,
        }
    }

    fn flip_stored_bit(&mut self, page: u64, bit_offset: u64) {
        let stored = &mut self.pages[page as usize];
        let total_bits = ((PAGE_HEADER_BYTES + stored.data.len()) * 8) as u64;
        let bit = bit_offset % total_bits;
        let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
        if byte < PAGE_HEADER_BYTES {
            stored.header[byte] ^= mask;
        } else {
            // Copy-on-write: a reader's snapshot keeps the bytes it took.
            Arc::make_mut(&mut stored.data)[byte - PAGE_HEADER_BYTES] ^= mask;
        }
    }
}

/// Simulated per-page service time, charged alongside the page counters.
/// Zero (the default) keeps the disk a pure accountant; non-zero values
/// make each read sleep `seq_ns`/`rand_ns` per page at its charged rate,
/// so concurrent readers overlap their waits like parallel drives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageLatency {
    /// Simulated nanoseconds per sequentially-charged page.
    pub seq_ns: u64,
    /// Simulated nanoseconds per randomly-charged page.
    pub rand_ns: u64,
}

/// Wall nanoseconds per payload byte of a page read with no simulated
/// latency: 205 ns for a 4 KiB page, the carry-less-multiply CRC32 and the
/// copy together (`storage.disk.seq_read_ns_per_page` 175–240 and
/// `rand_read_ns_per_page` 220–232 on the benchmark's four workloads). The
/// cost model's CPU prices were fitted beside it, so the two are refitted
/// together.
pub const READ_NS_PER_BYTE: f64 = 0.05;

#[derive(Default)]
struct HeadState {
    /// Per-(thread, file) head positions — a dedicated drive per scanning
    /// thread per file: the next page a sequential continuation would
    /// start at, `None` after a failed read.
    heads: HashMap<(std::thread::ThreadId, FileId), Option<u64>>,
    stats: IoStats,
    interference: bool,
    latency: PageLatency,
    /// Optional observability sink, updated under this lock.
    metrics: Option<DiskMetrics>,
}

thread_local! {
    /// Per-thread mirror of the global counters. Every charge bumps both
    /// under the same lock acquisition, so for any set of threads the sum
    /// of their thread-local deltas equals the global delta exactly —
    /// including the sequential/random split. Parallel executors use this
    /// to attribute shared-disk traffic to individual workers.
    static THREAD_IO: std::cell::Cell<IoStats> = const {
        std::cell::Cell::new(IoStats {
            seq_reads: 0,
            rand_reads: 0,
            writes: 0,
        })
    };
    /// Simulated latency owed by this thread but not yet slept off. Debts
    /// are paid in chunks of at least [`LATENCY_CHUNK_NS`], so µs-scale
    /// per-page latencies are not drowned out by OS timer slack.
    static LATENCY_DEBT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Sleep granularity for simulated page latency.
const LATENCY_CHUNK_NS: u64 = 100_000;

/// Accrues `ns` of simulated service time on the calling thread, sleeping
/// once the accumulated debt is worth a timer round-trip. Called outside
/// every lock, so concurrent readers overlap their waits.
fn pay_latency(ns: u64) {
    LATENCY_DEBT.with(|d| {
        let debt = d.get() + ns;
        if debt >= LATENCY_CHUNK_NS {
            d.set(0);
            std::thread::sleep(std::time::Duration::from_nanos(debt));
        } else {
            d.set(debt);
        }
    });
}

impl HeadState {
    /// Adds `d` to the global counters, the calling thread's and the sink's.
    fn charge(&mut self, d: IoStats) {
        self.stats += d;
        THREAD_IO.with(|t| {
            let mut s = t.get();
            s += d;
            t.set(s);
        });
        if let Some(m) = &self.metrics {
            m.seq_reads.inc_by(d.seq_reads);
            m.rand_reads.inc_by(d.rand_reads);
            m.writes.inc_by(d.writes);
        }
    }

    /// Prices and charges the calling thread's run of `len` pages at
    /// `start` of `file` — one seek then streaming if `scan`, else all
    /// sequential or all random — and moves its head past it, or nowhere
    /// when the read `failed`: the next access pays a seek. A latency spike
    /// in `hit` makes the run random as interference mode would, every
    /// retry is one more random page, and the sink sees the events.
    fn charge_read(
        &mut self,
        file: FileId,
        start: u64,
        len: u64,
        scan: bool,
        hit: Option<&FaultStats>,
        failed: bool,
    ) -> IoStats {
        let disturbed = self.interference || hit.is_some_and(|d| d.injected_latency > 0);
        let head = self
            .heads
            .entry((std::thread::current().id(), file))
            .or_default();
        let rand_reads = match (disturbed, scan) {
            (false, _) if *head == Some(start) => 0,
            (false, true) => 1,
            _ => len,
        };
        *head = start.checked_add(len).filter(|_| !failed);
        let charged = IoStats {
            seq_reads: len - rand_reads,
            rand_reads: rand_reads + hit.map_or(0, |d| d.retries),
            writes: 0,
        };
        self.charge(charged);
        if let (Some(m), Some(d)) = (&self.metrics, hit) {
            m.mirror_faults(d);
        }
        charged
    }
}

/// An in-memory disk simulator with sequential/random accounting,
/// checksummed pages, fault injection and retrying reads.
///
/// All methods take `&self`, so a `DiskSim` can be shared (e.g. between a
/// document store and its inverted file, or between scanning threads)
/// without threading `&mut` through every layer: bytes, head pricing and
/// fault state each sit behind their own mutex, none of them held while a
/// page is hashed (see the [module docs](self)). A [`FileId`] from another
/// disk is answered [`Error::NotFound`] by every read and write, and like
/// a removed file — no name, no pages — by the accessors that cannot fail.
pub struct DiskSim {
    page_size: usize,
    files: Mutex<Vec<FileData>>,
    names: Mutex<HashMap<String, FileId>>,
    state: Mutex<HeadState>,
    /// Whether `state.metrics` is set, so an unobserved operation reads no
    /// clock. Only a statistic depends on it.
    timed: AtomicBool,
    faults: FaultMachinery,
}

/// The file a handle names, unless another disk minted the handle.
fn file_mut(files: &mut [FileData], file: FileId) -> Result<&mut FileData> {
    let f = files.get_mut(file.0 as usize);
    f.ok_or_else(|| Error::NotFound(format!("{file} on this disk")))
}

impl DiskSim {
    /// Creates an empty disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            files: Mutex::new(Vec::new()),
            names: Mutex::new(HashMap::new()),
            state: Mutex::default(),
            timed: AtomicBool::new(false),
            faults: FaultMachinery::default(),
        }
    }

    /// The page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Creates a new empty file of [`PageKind::Raw`] pages. Names are
    /// informational but must be unique.
    pub fn create_file(&self, name: &str) -> Result<FileId> {
        self.create_file_with_kind(name, PageKind::Raw)
    }

    /// Creates a new empty file whose pages will be stamped (and checked)
    /// as `kind`.
    pub fn create_file_with_kind(&self, name: &str, kind: PageKind) -> Result<FileId> {
        let mut names = self.names.lock();
        if names.contains_key(name) {
            return Err(Error::InvalidArgument(format!(
                "file '{name}' already exists"
            )));
        }
        let mut files = self.files.lock();
        let id = FileId(files.len() as u32);
        files.push(FileData {
            name: name.to_string(),
            kind,
            pages: Vec::new(),
        });
        names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a file by name.
    pub fn file_by_name(&self, name: &str) -> Option<FileId> {
        self.names.lock().get(name).copied()
    }

    /// The names of all files currently on the disk, sorted. Recovery uses
    /// this to find (and clean up) orphaned files left by an interrupted
    /// merge.
    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.names.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Atomically renames a file, *replacing* any existing file called
    /// `to` — POSIX `rename(2)` semantics, the primitive behind
    /// compact-by-rename: a merge builds a complete new structure under a
    /// temporary name and publishes it with one rename, so readers only
    /// ever see the old complete file or the new complete file.
    pub fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        let mut names = self.names.lock();
        let id = names
            .get(from)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("file '{from}'")))?;
        if from == to {
            return Ok(());
        }
        let mut files = self.files.lock();
        if let Some(old) = names.remove(to) {
            // The replaced file's pages are gone; stale handles to it read
            // out of bounds, exactly like a unix fd would after truncate.
            files[old.0 as usize] = FileData::default();
        }
        names.remove(from);
        names.insert(to.to_string(), id);
        files[id.0 as usize].name = to.to_string();
        Ok(())
    }

    /// Deletes a file. Stale [`FileId`] handles to it read out of bounds.
    pub fn remove_file(&self, name: &str) -> Result<()> {
        let mut names = self.names.lock();
        let id = names
            .remove(name)
            .ok_or_else(|| Error::NotFound(format!("file '{name}'")))?;
        self.files.lock()[id.0 as usize] = FileData::default();
        Ok(())
    }

    /// One property of a file; `None` for a handle this disk did not mint.
    fn file_info<R>(&self, file: FileId, get: impl FnOnce(&FileData) -> R) -> Option<R> {
        self.files.lock().get(file.0 as usize).map(get)
    }

    /// The name a file was created with.
    pub fn file_name(&self, file: FileId) -> String {
        self.file_info(file, |f| f.name.clone()).unwrap_or_default()
    }

    /// The page kind a file was created with.
    pub fn file_kind(&self, file: FileId) -> PageKind {
        self.file_info(file, |f| f.kind).unwrap_or_default()
    }

    /// Number of pages currently in the file.
    pub fn num_pages(&self, file: FileId) -> u64 {
        self.file_info(file, |f| f.pages.len() as u64).unwrap_or(0)
    }

    /// Arms a simulated power-cut: the next `after` page writes succeed,
    /// then every subsequent write (append or overwrite) fails with
    /// [`Error::Io`] until [`clear_write_crash`](Self::clear_write_crash)
    /// — the "restart". Reads are unaffected, so recovery code can run
    /// against exactly the pages that made it to disk before the cut.
    pub fn set_write_crash_after(&self, after: u64) {
        self.faults.with(|fm| fm.write_crash = Some(after));
    }

    /// Disarms a simulated power-cut (the machine came back up).
    pub fn clear_write_crash(&self) {
        self.faults.with(|fm| fm.write_crash = None);
    }

    /// The write path: stores `data` as page `at` of `file` (`None`
    /// appends) and returns the page number. The payload is hashed and
    /// copied — once — before the `files` lock is taken.
    fn store_page(&self, file: FileId, at: Option<u64>, data: &[u8]) -> Result<u64> {
        let started = self.timed.load(Ordering::Relaxed).then(Instant::now);
        if data.len() != self.page_size {
            return Err(Error::InvalidArgument(format!(
                "payload of {} bytes does not match page size {} \
                 (pad partial pages explicitly — short writes are torn writes)",
                data.len(),
                self.page_size
            )));
        }
        let crc = crc32(data);
        let mut data: Arc<[u8]> = Arc::from(data);
        let mut files = self.files.lock();
        let f = file_mut(&mut files, file)?;
        let page = match at {
            Some(page) if page >= f.pages.len() as u64 => return Err(f.out_of_bounds(page)),
            Some(page) => page,
            None => f.pages.len() as u64,
        };
        let torn = self.faults.on_write(file, page, &f.name)?;
        if torn {
            // The header keeps the checksum of the intended bytes.
            let bytes = Arc::get_mut(&mut data).expect("payload not shared yet");
            bytes[self.page_size / 2..].fill(0);
        }
        let stored = StoredPage {
            header: page::header(f.kind, crc),
            data,
        };
        match at {
            Some(_) => f.pages[page as usize] = stored,
            None => f.pages.push(stored),
        }
        drop(files);
        let mut st = self.state.lock();
        st.charge(IoStats {
            writes: 1,
            ..IoStats::default()
        });
        if let Some(m) = &st.metrics {
            m.faults_torn.inc_by(u64::from(torn));
            if let Some(started) = started {
                m.write_wall_ns.observe(started.elapsed().as_nanos() as u64);
            }
        }
        Ok(page)
    }

    /// Appends a page to the file, returning its page number. The payload
    /// must be exactly one page; partial pages must be padded by the
    /// caller (logical byte counts live in the callers' directories, not
    /// here). The header (magic, version, kind, CRC32) is stored out of
    /// band. Writes are not charged to the read-cost model — the paper's
    /// analysis covers query processing, not index construction — but are
    /// counted in [`IoStats::writes`].
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<u64> {
        self.store_page(file, None, data)
    }

    /// Overwrites an existing page in place (used by mutable structures
    /// such as the B+tree during inserts). Same exact-length contract as
    /// [`Self::append_page`]; counted in [`IoStats::writes`].
    pub fn write_page(&self, file: FileId, page: u64, data: &[u8]) -> Result<()> {
        self.store_page(file, Some(page), data).map(|_| ())
    }

    /// Sets the simulated per-page service time. Zero (the default) keeps
    /// reads instantaneous; non-zero values make every charged page cost
    /// real wall time on the reading thread, which is what lets parallel
    /// workers show wall-clock I/O overlap in benchmarks.
    pub fn set_page_latency(&self, latency: PageLatency) {
        self.state.lock().latency = latency;
    }

    /// The current simulated per-page service time.
    pub fn page_latency(&self) -> PageLatency {
        self.state.lock().latency
    }

    /// What serving one page costs this store in wall time at each rate:
    /// the simulated [`PageLatency`] plus verifying and handing over
    /// `page_size` bytes at [`READ_NS_PER_BYTE`]. With no simulated latency
    /// a random page costs what a sequential one does (a lookup and a
    /// checksum either way), so the device's own `α̂ = rand/seq` is 1; a
    /// latency with `rand_ns = 5·seq_ns` takes it to the paper's 5.
    pub fn page_service(&self) -> PageLatency {
        let verify = (self.page_size as f64 * READ_NS_PER_BYTE).round() as u64;
        let latency = self.page_latency();
        PageLatency {
            seq_ns: latency.seq_ns + verify,
            rand_ns: latency.rand_ns + verify,
        }
    }

    /// Enables or disables interference mode (every run random).
    pub fn set_interference(&self, on: bool) {
        self.state.lock().interference = on;
    }

    /// Whether interference mode is on.
    pub fn interference(&self) -> bool {
        self.state.lock().interference
    }

    /// Snapshot of the cumulative I/O counters.
    pub fn stats(&self) -> IoStats {
        self.state.lock().stats
    }

    /// Cumulative I/O charged *by the calling thread*, across every
    /// `DiskSim` it has touched. Monotonically increasing, so a worker can
    /// snapshot it before and after a unit of work and take
    /// [`IoStats::since`] to attribute shared-disk traffic to itself; the
    /// per-worker deltas of a parallel scope sum exactly to the global
    /// delta of [`Self::stats`] when the workers are the only readers.
    pub fn thread_io_stats() -> IoStats {
        THREAD_IO.with(|t| t.get())
    }

    /// Resets the I/O counters (head position and interference mode are
    /// kept).
    pub fn reset_stats(&self) {
        self.state.lock().stats = IoStats::default();
    }

    /// Forgets all head positions, so the next read of any file is random.
    /// Used between experiment phases.
    pub fn reset_head(&self) {
        self.state.lock().heads.clear();
    }

    /// Installs a fault schedule (replacing any previous one) and resets
    /// the per-page access counters it is keyed on. [`FaultStats`] are
    /// *not* reset — use [`Self::reset_fault_stats`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.with(|fm| fm.install(plan));
    }

    /// Removes any installed fault schedule.
    pub fn clear_fault_plan(&self) {
        self.set_fault_plan(FaultPlan::new());
    }

    /// Number of planned faults that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.faults.with(|fm| fm.pending())
    }

    /// Snapshot of the cumulative fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.with(|fm| fm.stats)
    }

    /// Resets the fault counters (the installed plan is kept).
    pub fn reset_fault_stats(&self) {
        self.faults.with(|fm| fm.stats = FaultStats::default());
    }

    /// Permanently flips one stored bit of a page — the corruption hook
    /// behind [`FaultKind::BitFlip`], also usable directly by tests. The
    /// offset addresses `header ‖ payload` bit space (modulo-reduced), so
    /// any flip lands somewhere header verification can see.
    pub fn flip_bit(&self, file: FileId, page: u64, bit_offset: u64) -> Result<()> {
        let mut files = self.files.lock();
        let f = file_mut(&mut files, file)?;
        if page >= f.pages.len() as u64 {
            return Err(f.out_of_bounds(page));
        }
        f.flip_stored_bit(page, bit_offset);
        Ok(())
    }

    /// Reads a single page: `read_run(file, page, 1)` without the `Vec`.
    pub fn read_page(&self, file: FileId, page: u64) -> Result<Arc<[u8]>> {
        let [one] = self.read_pages(file, page, 1, false, |run| [run[0].clone()])?;
        Ok(one.data)
    }

    /// Reads `len` consecutive pages starting at `start`, classifying the
    /// whole run as sequential (it continues the head position) or random
    /// (all pages charged at the `α` rate), per the paper's model.
    pub fn read_run(&self, file: FileId, start: u64, len: u64) -> Result<Vec<Arc<[u8]>>> {
        self.read_vec(file, start, len, false)
    }

    /// Reads `len` consecutive pages as a *streamed scan*: only the first
    /// page pays the seek (random) when the run does not continue the head
    /// position; the rest stream sequentially. This is the pricing of the
    /// paper's full-structure scans (`D` for a collection, `I` for an
    /// inverted file, `Bt` for the B+tree), in contrast to [`read_run`]
    /// which prices short random fetches (`⌈S⌉·α`, `⌈J⌉·α`) entirely at the
    /// random rate. In interference mode every page is random, matching the
    /// worst-case variants.
    ///
    /// [`read_run`]: Self::read_run
    pub fn read_scan(&self, file: FileId, start: u64, len: u64) -> Result<Vec<Arc<[u8]>>> {
        self.read_vec(file, start, len, true)
    }

    fn read_vec(&self, file: FileId, start: u64, len: u64, scan: bool) -> Result<Vec<Arc<[u8]>>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let run = self.read_pages(file, start, len, scan, <[StoredPage]>::to_vec)?;
        Ok(run.into_iter().map(|p| p.data).collect())
    }

    /// Shared read path: bounds check, fault injection and `snapshot` of
    /// the run under the `files` lock; header verification of that
    /// snapshot under no lock; then retry accounting and I/O pricing.
    /// Transient faults are retried up to [`READ_ATTEMPTS`] attempts in
    /// all (each retry re-charged at the random rate); verification
    /// failures are *not* retried — corruption is permanent, so a re-read
    /// cannot help.
    fn read_pages<S: AsRef<[StoredPage]>>(
        &self,
        file: FileId,
        start: u64,
        len: u64,
        scan: bool,
        snapshot: impl FnOnce(&[StoredPage]) -> S,
    ) -> Result<S> {
        let started = self.timed.load(Ordering::Relaxed).then(Instant::now);
        let mut files = self.files.lock();
        let f = file_mut(&mut files, file)?;
        let end = match start.checked_add(len) {
            Some(end) if end <= f.pages.len() as u64 => end,
            _ => return Err(f.out_of_bounds(start.saturating_add(len - 1))),
        };
        let hit = self.faults.on_read(file, start..end);
        for &(page, bit_offset) in hit.iter().flat_map(|h| &h.bit_flips) {
            f.flip_stored_bit(page, bit_offset);
        }
        let gave_up = hit.as_ref().and_then(|h| h.gave_up);
        let io_error = gave_up.map(|(page, attempts)| Error::Io {
            file: f.name.clone(),
            page,
            attempts,
        });
        let kind = f.kind;
        let snap = snapshot(&f.pages[start as usize..end as usize]);
        drop(files);

        let checked = io_error.map_or(Ok(()), Err).and_then(|()| {
            (start..end).zip(snap.as_ref()).try_for_each(|(p, stored)| {
                page::verify(&stored.header, &stored.data, kind).map_err(|reason| {
                    let name = self.file_name(file);
                    Error::Corrupt(format!("file '{name}' page {p}: {reason}"))
                })
            })
        });

        let mut st = self.state.lock();
        let hit = hit.as_ref().map(|h| &h.delta);
        let charged = st.charge_read(file, start, len, scan, hit, checked.is_err());
        if let (Some(m), Some(started)) = (&st.metrics, started) {
            // Failed reads are timed too: an abandoned page cost real latency.
            m.read_wall_ns.observe(started.elapsed().as_nanos() as u64);
        }
        let latency = st.latency;
        drop(st);
        if latency != PageLatency::default() {
            pay_latency(charged.seq_reads * latency.seq_ns + charged.rand_reads * latency.rand_ns);
        }
        checked.map(|()| snap)
    }

    /// Charges a synthetic run without materialising data — used by the
    /// simulation harness when running the cost accounting at paper scale
    /// where the files are never populated. Bypasses fault injection and
    /// verification (there are no bytes to fault or verify).
    pub fn charge_run(&self, file: FileId, start: u64, len: u64) {
        if len > 0 {
            let mut st = self.state.lock();
            st.charge_read(file, start, len, false, None, false);
        }
    }

    /// Attaches (or with `None`, detaches) an observability sink: every
    /// page read/write and every injected fault is mirrored into the
    /// registered counters under the accounting lock the operation takes
    /// anyway, and every operation is timed — the clock is read only
    /// while a sink is attached.
    pub fn set_metrics(&self, metrics: Option<DiskMetrics>) {
        let mut st = self.state.lock();
        self.timed.store(metrics.is_some(), Ordering::Relaxed);
        st.metrics = metrics;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_page(size: usize, tag: u8) -> Vec<u8> {
        let mut p = vec![tag; size];
        p[0] = tag;
        p
    }

    fn disk_with_file(pages: u64) -> (DiskSim, FileId) {
        let disk = DiskSim::new(64);
        let f = disk.create_file("test").unwrap();
        for i in 0..pages {
            disk.append_page(f, &full_page(64, i as u8)).unwrap();
        }
        disk.reset_stats();
        disk.reset_head();
        (disk, f)
    }

    #[test]
    fn sequential_scan_costs_one_random_then_sequential() {
        let (disk, f) = disk_with_file(10);
        // First run: head unknown → random. Continuation runs: sequential.
        disk.read_run(f, 0, 4).unwrap();
        disk.read_run(f, 4, 6).unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 4);
        assert_eq!(s.seq_reads, 6);
    }

    #[test]
    fn non_contiguous_run_is_fully_random() {
        let (disk, f) = disk_with_file(10);
        disk.read_run(f, 0, 2).unwrap();
        disk.read_run(f, 5, 3).unwrap(); // skips pages 2-4
        let s = disk.stats();
        assert_eq!(s.rand_reads, 5); // 2 (cold head) + 3 (jump)
        assert_eq!(s.seq_reads, 0);
    }

    #[test]
    fn re_reading_same_page_is_random() {
        let (disk, f) = disk_with_file(3);
        disk.read_page(f, 1).unwrap();
        disk.read_page(f, 1).unwrap(); // head is now at page 2; going back seeks
        assert_eq!(disk.stats().rand_reads, 2);
    }

    #[test]
    fn thread_local_deltas_sum_to_the_global_delta() {
        let (disk, f) = disk_with_file(12);
        let global_start = disk.stats();
        let deltas: Vec<IoStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3u64)
                .map(|w| {
                    let disk = &disk;
                    s.spawn(move || {
                        let before = DiskSim::thread_io_stats();
                        disk.read_run(f, w * 4, 4).unwrap();
                        DiskSim::thread_io_stats().since(&before)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sum = IoStats::default();
        for d in &deltas {
            sum.merge(d);
            assert_eq!(d.total_reads(), 4, "each worker read its 4 pages");
        }
        let global = disk.stats().since(&global_start);
        assert_eq!(sum, global, "worker deltas account for all traffic");
    }

    #[test]
    fn concurrent_flips_never_leak_unverified_bytes() {
        // Two scanners and a thread toggling stored bits, released together.
        // A read verifies the snapshot it took, so it returns either the
        // bytes that were written or `Corrupt` — never bytes nobody checked
        // — and a failed read is charged like any other.
        let (disk, f) = disk_with_file(16);
        let gate = std::sync::Barrier::new(3);
        let global_start = disk.stats();
        let deltas: Vec<IoStats> = std::thread::scope(|s| {
            let scanners: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let before = DiskSim::thread_io_stats();
                        gate.wait();
                        let (mut clean, mut corrupt) = (0u32, 0u32);
                        for start in (0..16).step_by(4).cycle().take(2_000) {
                            match disk.read_scan(f, start, 4) {
                                Ok(pages) => {
                                    clean += 1;
                                    for (page, tag) in pages.iter().zip(start as u8..) {
                                        assert!(page.iter().all(|&b| b == tag), "page {tag}");
                                    }
                                }
                                Err(Error::Corrupt(_)) => corrupt += 1,
                                Err(other) => panic!("unexpected {other:?}"),
                            }
                        }
                        assert_eq!(clean + corrupt, 2_000);
                        DiskSim::thread_io_stats().since(&before)
                    })
                })
                .collect();
            s.spawn(|| {
                gate.wait();
                // Header bits and payload bits alike; every flip is undone
                // by the next one on that page, so pages keep coming back.
                for i in 0..4_000u64 {
                    let page = (i / 2 * 7) % 16;
                    disk.flip_bit(f, page, (i / 2 * 37) % (8 * 72)).unwrap();
                }
            });
            scanners.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sum = IoStats::default();
        for d in &deltas {
            sum.merge(d);
            assert_eq!(d.total_reads(), 8_000, "failed reads are charged too");
        }
        assert_eq!(sum, disk.stats().since(&global_start));
        // Every flip was paired: the file reads clean again.
        assert_eq!(disk.read_scan(f, 0, 16).unwrap().len(), 16);
    }

    #[test]
    fn a_plan_armed_mid_scan_is_seen_by_the_next_read() {
        // The idle path asks the fault machinery nothing; the read after
        // another thread arms a plan must.
        let (disk, f) = disk_with_file(8);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for p in 0..4 {
                    disk.read_page(f, p).unwrap();
                }
                assert_eq!(disk.fault_stats(), FaultStats::default());
                gate.wait(); // the plan is armed between these two
                gate.wait();
                disk.read_page(f, 4).unwrap();
                assert_eq!(disk.fault_stats().injected_latency, 1);
            });
            gate.wait();
            disk.set_fault_plan(FaultPlan::new().with_fault(f, 4, 0, FaultKind::LatencySpike));
            gate.wait();
        });
        assert_eq!(disk.pending_faults(), 0);
        assert_eq!(
            disk.stats().seq_reads,
            3,
            "pages 1-3; the spiked page 4 is random"
        );
    }

    #[test]
    fn per_thread_heads_make_concurrent_scans_deterministic() {
        // Two threads stream the same file concurrently. Each is a
        // dedicated drive: whatever the interleaving, each thread's scan
        // is one cold seek plus sequential pages — never perturbed by the
        // other thread's head movement.
        let (disk, f) = disk_with_file(8);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let disk = &disk;
                s.spawn(move || disk.read_scan(f, 0, 8).unwrap());
            }
        });
        let st = disk.stats();
        assert_eq!(st.rand_reads, 2);
        assert_eq!(st.seq_reads, 14);
    }

    #[test]
    fn page_service_is_latency_plus_the_checksum_of_a_page() {
        let disk = DiskSim::new(4096);
        let checksum = (4096.0 * READ_NS_PER_BYTE).round() as u64;
        assert!(checksum > 0, "a page is never free");
        let idle = disk.page_service();
        assert_eq!(idle.seq_ns, idle.rand_ns, "α̂ = 1 on the zero-latency store");
        assert_eq!(idle.seq_ns, checksum);
        disk.set_page_latency(PageLatency {
            seq_ns: 10_000,
            rand_ns: 50_000,
        });
        let seeking = disk.page_service();
        assert_eq!(
            (seeking.seq_ns, seeking.rand_ns),
            (10_000 + checksum, 50_000 + checksum)
        );
    }

    #[test]
    fn page_latency_costs_wall_time_per_charged_page() {
        let (disk, f) = disk_with_file(10);
        assert_eq!(disk.page_latency(), PageLatency::default());
        disk.set_page_latency(PageLatency {
            seq_ns: 200_000,
            rand_ns: 200_000,
        });
        let started = Instant::now();
        disk.read_scan(f, 0, 10).unwrap();
        // 10 pages × 200µs = 2ms of simulated service time; the debt
        // chunking may defer the tail below one chunk, never more.
        let floor = std::time::Duration::from_nanos(10 * 200_000 - LATENCY_CHUNK_NS);
        assert!(
            started.elapsed() >= floor,
            "elapsed {:?} < {floor:?}",
            started.elapsed()
        );
    }

    #[test]
    fn per_file_heads_keep_interleaved_scans_sequential() {
        // The dedicated-drive assumption of section 5.1: a merge that
        // alternates between two files keeps each file's scan sequential.
        let disk = DiskSim::new(64);
        let a = disk.create_file("a").unwrap();
        let b = disk.create_file("b").unwrap();
        for _ in 0..4 {
            disk.append_page(a, &[0; 64]).unwrap();
            disk.append_page(b, &[0; 64]).unwrap();
        }
        disk.reset_stats();
        disk.read_run(a, 0, 2).unwrap();
        disk.read_run(b, 0, 2).unwrap(); // cold head on b: random
        disk.read_run(a, 2, 2).unwrap(); // continues a: sequential
        disk.read_run(b, 2, 2).unwrap(); // continues b: sequential
        let s = disk.stats();
        assert_eq!(s.rand_reads, 4);
        assert_eq!(s.seq_reads, 4);
    }

    #[test]
    fn interference_makes_everything_random() {
        let (disk, f) = disk_with_file(8);
        disk.set_interference(true);
        disk.read_run(f, 0, 4).unwrap();
        disk.read_run(f, 4, 4).unwrap(); // would be sequential otherwise
        let s = disk.stats();
        assert_eq!(s.rand_reads, 8);
        assert_eq!(s.seq_reads, 0);
    }

    #[test]
    fn read_scan_pays_one_seek_then_streams() {
        let (disk, f) = disk_with_file(10);
        disk.read_scan(f, 0, 10).unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 1);
        assert_eq!(s.seq_reads, 9);
    }

    #[test]
    fn read_scan_continuation_is_fully_sequential() {
        let (disk, f) = disk_with_file(10);
        disk.read_scan(f, 0, 4).unwrap();
        disk.read_scan(f, 4, 6).unwrap();
        let s = disk.stats();
        assert_eq!(s.rand_reads, 1);
        assert_eq!(s.seq_reads, 9);
    }

    #[test]
    fn read_scan_under_interference_is_all_random() {
        let (disk, f) = disk_with_file(10);
        disk.set_interference(true);
        disk.read_scan(f, 0, 10).unwrap();
        assert_eq!(disk.stats().rand_reads, 10);
    }

    #[test]
    fn write_page_overwrites_in_place() {
        let (disk, f) = disk_with_file(3);
        disk.write_page(f, 1, &full_page(64, 42)).unwrap();
        assert_eq!(disk.read_page(f, 1).unwrap()[0], 42);
        assert!(disk.write_page(f, 3, &full_page(64, 1)).is_err());
        assert_eq!(disk.num_pages(f), 3);
    }

    #[test]
    fn cost_weights_random_by_alpha() {
        let s = IoStats {
            seq_reads: 10,
            rand_reads: 4,
            writes: 0,
        };
        assert_eq!(s.cost(5.0), 10.0 + 20.0);
        assert_eq!(s.total_reads(), 14);
    }

    #[test]
    fn stats_since_subtracts() {
        let (disk, f) = disk_with_file(6);
        disk.read_run(f, 0, 2).unwrap();
        let snap = disk.stats();
        disk.read_run(f, 2, 4).unwrap();
        let delta = disk.stats().since(&snap);
        assert_eq!(delta.seq_reads, 4);
        assert_eq!(delta.rand_reads, 0);
    }

    #[test]
    fn out_of_bounds_read_is_reported() {
        let (disk, f) = disk_with_file(2);
        // Past the end, and runs whose end does not fit a u64: neither may
        // wrap into bounds (release) or panic on the add (debug).
        for (start, len) in [(1, 5), (u64::MAX, 1), (u64::MAX - 1, 4), (1, u64::MAX)] {
            for read in [DiskSim::read_run, DiskSim::read_scan] {
                let err = read(&disk, f, start, len).unwrap_err();
                assert!(
                    matches!(err, Error::PageOutOfBounds { .. }),
                    "{start}+{len}: {err:?}"
                );
            }
        }
        let err = disk.read_page(f, u64::MAX).unwrap_err();
        assert!(matches!(err, Error::PageOutOfBounds { .. }));
        assert_eq!(disk.stats(), IoStats::default(), "a refused read is free");
        // A synthetic run has no file to be out of bounds of; its head
        // position saturates instead of wrapping.
        disk.charge_run(f, u64::MAX - 1, 4);
        disk.charge_run(f, 1, 2);
        assert_eq!(disk.stats().rand_reads, 6);
    }

    #[test]
    fn a_handle_from_another_disk_is_not_found() {
        let (disk, _) = disk_with_file(2);
        let other = DiskSim::new(64);
        other.create_file("a").unwrap();
        let foreign = other.create_file("b").unwrap(); // index 1: `disk` has one file
        let page = full_page(64, 1);
        for result in [
            disk.read_page(foreign, 0).map(|_| ()),
            disk.read_run(foreign, 0, 1).map(|_| ()),
            disk.read_scan(foreign, 0, 1).map(|_| ()),
            disk.append_page(foreign, &page).map(|_| ()),
            disk.write_page(foreign, 0, &page),
            disk.flip_bit(foreign, 0, 0),
        ] {
            assert!(matches!(result, Err(Error::NotFound(_))), "{result:?}");
        }
        // The accessors that cannot fail answer as for a removed file.
        assert_eq!(disk.num_pages(foreign), 0);
        assert_eq!(disk.file_name(foreign), "");
        assert_eq!(disk.file_kind(foreign), PageKind::Raw);
        assert_eq!(disk.stats(), IoStats::default());
    }

    #[test]
    fn duplicate_file_names_rejected() {
        let disk = DiskSim::new(64);
        disk.create_file("x").unwrap();
        assert!(disk.create_file("x").is_err());
        assert!(disk.file_by_name("x").is_some());
        assert!(disk.file_by_name("y").is_none());
    }

    #[test]
    fn append_and_write_validate_payload_length() {
        let disk = DiskSim::new(8);
        let f = disk.create_file("f").unwrap();
        assert_eq!(disk.append_page(f, &[7; 8]).unwrap(), 0);
        for bad in [&[1u8, 2, 3] as &[u8], &[0; 9], &[]] {
            let err = disk.append_page(f, bad).unwrap_err();
            match err {
                Error::InvalidArgument(msg) => {
                    assert!(msg.contains(&bad.len().to_string()), "{msg}");
                    assert!(msg.contains('8'), "{msg}");
                }
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
            assert!(disk.write_page(f, 0, bad).is_err());
        }
        assert_eq!(disk.num_pages(f), 1);
        assert_eq!(disk.stats().writes, 1);
    }

    #[test]
    fn display_and_merge_io_stats() {
        let mut a = IoStats {
            seq_reads: 10,
            rand_reads: 4,
            writes: 2,
        };
        assert_eq!(a.to_string(), "10 seq + 4 rand reads (14 total), 2 writes");
        a += IoStats {
            seq_reads: 1,
            rand_reads: u64::MAX,
            writes: 0,
        };
        assert_eq!(a.seq_reads, 11);
        assert_eq!(a.rand_reads, u64::MAX, "merge saturates");
        assert_eq!(a.writes, 2);
    }

    #[test]
    fn attached_metrics_mirror_io_events() {
        let registry = Registry::new();
        let (disk, f) = disk_with_file(10);
        disk.set_metrics(Some(DiskMetrics::register(&registry, "t1")));
        disk.read_scan(f, 0, 10).unwrap(); // 1 rand + 9 seq
        disk.read_run(f, 0, 2).unwrap(); // head at 10 → 2 rand
        disk.append_page(f, &full_page(64, 1)).unwrap();
        assert_eq!(registry.counter("disk.seq_reads", "t1").get(), 9);
        assert_eq!(registry.counter("disk.rand_reads", "t1").get(), 3);
        assert_eq!(registry.counter("disk.writes", "t1").get(), 1);
        // Detach: further I/O leaves the counters untouched.
        disk.set_metrics(None);
        disk.read_run(f, 0, 2).unwrap();
        assert_eq!(registry.counter("disk.rand_reads", "t1").get(), 3);
    }

    #[test]
    fn attached_metrics_time_reads_and_writes() {
        let registry = Registry::new();
        let (disk, f) = disk_with_file(10);
        let metrics = DiskMetrics::register(&registry, "t1");
        disk.set_metrics(Some(metrics.clone()));
        disk.read_scan(f, 0, 10).unwrap();
        disk.read_run(f, 0, 2).unwrap();
        disk.append_page(f, &full_page(64, 1)).unwrap();
        disk.write_page(f, 0, &full_page(64, 2)).unwrap();
        assert_eq!(metrics.read_wall_ns().count(), 2);
        assert_eq!(metrics.write_wall_ns().count(), 2);
        assert!(metrics.read_wall_ns().max() > 0);
        assert!(metrics.read_wall_ns().quantile(0.5) > 0);
    }

    #[test]
    fn charge_run_accounts_without_data() {
        let disk = DiskSim::new(4096);
        let f = disk.create_file("ghost").unwrap();
        disk.charge_run(f, 0, 100);
        disk.charge_run(f, 100, 50);
        let s = disk.stats();
        assert_eq!(s.rand_reads, 100);
        assert_eq!(s.seq_reads, 50);
    }

    // ---- page-header and fault-injection coverage ----

    #[test]
    fn kinded_files_round_trip_and_verify() {
        let disk = DiskSim::new(16);
        let f = disk
            .create_file_with_kind("docs", PageKind::Documents)
            .unwrap();
        assert_eq!(disk.file_kind(f), PageKind::Documents);
        disk.append_page(f, &full_page(16, 5)).unwrap();
        assert_eq!(disk.read_page(f, 0).unwrap()[0], 5);
    }

    #[test]
    fn payload_bit_flip_surfaces_corrupt_with_context() {
        let (disk, f) = disk_with_file(4);
        // Offset past the 64-bit header lands in the payload.
        disk.flip_bit(f, 2, (PAGE_HEADER_BYTES as u64) * 8 + 13)
            .unwrap();
        disk.read_page(f, 1).unwrap(); // untouched pages still read
        let err = disk.read_run(f, 0, 4).unwrap_err();
        match err {
            Error::Corrupt(msg) => {
                assert!(msg.contains("test"), "{msg}");
                assert!(msg.contains("page 2"), "{msg}");
                assert!(msg.contains("checksum"), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn header_bit_flips_are_detected_too() {
        // Byte 0-1: magic; byte 2: version; byte 3: kind; bytes 4-7: CRC.
        for (byte, what) in [
            (0u64, "magic"),
            (2, "version"),
            (3, "kind"),
            (5, "checksum"),
        ] {
            let (disk, f) = disk_with_file(2);
            disk.flip_bit(f, 0, byte * 8).unwrap();
            let err = disk.read_page(f, 0).unwrap_err();
            match err {
                Error::Corrupt(msg) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("expected Corrupt for {what}, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_faults_are_retried_and_absorbed() {
        let (disk, f) = disk_with_file(6);
        disk.set_fault_plan(FaultPlan::new().with_fault(
            f,
            2,
            0,
            FaultKind::TransientRead { failures: 1 },
        ));
        let pages = disk.read_run(f, 0, 6).unwrap();
        assert_eq!(pages.len(), 6);
        let fs = disk.fault_stats();
        assert_eq!(fs.injected_transient, 1);
        assert_eq!(fs.retries, 1);
        assert_eq!(fs.gave_up, 0);
        // Cold run of 6 pages + 1 re-read of the faulted page.
        assert_eq!(disk.stats().rand_reads, 7);
        assert_eq!(disk.pending_faults(), 0);
    }

    #[test]
    fn access_counts_are_kept_only_while_a_fault_is_pending() {
        let (disk, f) = disk_with_file(10);
        for _ in 0..1_000 {
            disk.read_run(f, 0, 10).unwrap();
        }
        for i in 0..1_000u64 {
            disk.write_page(f, i % 10, &full_page(64, 7)).unwrap();
        }
        let counted_pages = || disk.faults.with(|fm| fm.counted_pages());
        assert_eq!(
            counted_pages(),
            0,
            "10 000 unplanned page reads, 1 000 unplanned page writes"
        );
        assert_eq!(disk.fault_stats(), FaultStats::default());
        // A plan armed now counts from its own installation: `nth_access =
        // 2` fires on the third read after it, whatever came before.
        disk.set_fault_plan(FaultPlan::new().with_fault(f, 4, 2, FaultKind::LatencySpike));
        for expected in [0, 0, 1] {
            disk.read_run(f, 4, 1).unwrap();
            assert_eq!(disk.fault_stats().injected_latency, expected);
        }
        // With the last fault fired the counting stops again.
        let before = counted_pages();
        disk.read_run(f, 0, 10).unwrap();
        assert_eq!(counted_pages(), before);
    }

    #[test]
    fn exhausted_retries_give_up_with_typed_error() {
        let (disk, f) = disk_with_file(3);
        disk.set_fault_plan(FaultPlan::new().with_fault(
            f,
            1,
            0,
            FaultKind::TransientRead { failures: 5 },
        ));
        let err = disk.read_run(f, 0, 3).unwrap_err();
        assert_eq!(
            err,
            Error::Io {
                file: "test".into(),
                page: 1,
                attempts: READ_ATTEMPTS
            }
        );
        let fs = disk.fault_stats();
        assert_eq!(fs.gave_up, 1);
        assert_eq!(fs.retries, u64::from(READ_ATTEMPTS - 1));
        // The page recovers once the fault is spent: re-read succeeds.
        assert!(disk.read_page(f, 1).is_ok());
    }

    #[test]
    fn latency_spike_prices_the_run_at_the_random_rate() {
        let (disk, f) = disk_with_file(8);
        disk.set_fault_plan(FaultPlan::new().with_fault(f, 5, 0, FaultKind::LatencySpike));
        disk.read_run(f, 0, 4).unwrap(); // cold → 4 rand
        disk.read_run(f, 4, 4).unwrap(); // continuation, but spiked → 4 rand
        let s = disk.stats();
        assert_eq!(s.rand_reads, 8);
        assert_eq!(s.seq_reads, 0);
        assert_eq!(disk.fault_stats().injected_latency, 1);
    }

    #[test]
    fn torn_write_is_detected_on_next_read() {
        let disk = DiskSim::new(16);
        let f = disk.create_file("torn").unwrap();
        disk.set_fault_plan(FaultPlan::new().with_fault(f, 0, 0, FaultKind::TornWrite));
        disk.append_page(f, &[0xAB; 16]).unwrap();
        assert_eq!(disk.fault_stats().injected_torn, 1);
        let err = disk.read_page(f, 0).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let f = FileId(0);
        let targets: Vec<(FileId, u64)> = (0..16).map(|p| (f, p)).collect();
        let a = FaultPlan::seeded(7, &targets);
        let b = FaultPlan::seeded(7, &targets);
        let c = FaultPlan::seeded(8, &targets);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
        assert!(a
            .faults()
            .iter()
            .all(|fl| !matches!(fl.kind, FaultKind::TornWrite)));
    }

    #[test]
    fn fault_events_mirror_into_registry() {
        let registry = Registry::new();
        let (disk, f) = disk_with_file(4);
        disk.set_metrics(Some(DiskMetrics::register(&registry, "chaos")));
        disk.set_fault_plan(
            FaultPlan::new()
                .with_fault(f, 0, 0, FaultKind::TransientRead { failures: 1 })
                .with_fault(f, 3, 0, FaultKind::LatencySpike),
        );
        disk.read_run(f, 0, 4).unwrap();
        assert_eq!(registry.counter("faults.transient", "chaos").get(), 1);
        assert_eq!(registry.counter("faults.latency", "chaos").get(), 1);
        assert_eq!(registry.counter("disk.retries", "chaos").get(), 1);
        assert_eq!(registry.counter("disk.gave_up", "chaos").get(), 0);
    }

    #[test]
    fn rename_file_replaces_the_destination() {
        let disk = DiskSim::new(16);
        let a = disk.create_file("a").unwrap();
        let b = disk.create_file("b").unwrap();
        disk.append_page(a, &full_page(16, 1)).unwrap();
        disk.append_page(b, &full_page(16, 2)).unwrap();
        disk.rename_file("a", "b").unwrap();
        assert_eq!(disk.file_names(), vec!["b".to_string()]);
        assert_eq!(disk.file_by_name("b"), Some(a));
        assert_eq!(disk.file_name(a), "b");
        assert_eq!(disk.read_page(a, 0).unwrap()[0], 1, "a's pages survive");
        // The replaced file's pages are gone; its stale handle reads OOB.
        assert_eq!(disk.num_pages(b), 0);
        assert!(disk.read_page(b, 0).is_err());
        // Renaming a missing file is a typed error; self-rename is a no-op.
        assert!(matches!(
            disk.rename_file("ghost", "x"),
            Err(Error::NotFound(_))
        ));
        disk.rename_file("b", "b").unwrap();
        assert_eq!(disk.read_page(a, 0).unwrap()[0], 1);
    }

    #[test]
    fn remove_file_frees_the_name_and_pages() {
        let disk = DiskSim::new(16);
        let a = disk.create_file("a").unwrap();
        disk.append_page(a, &full_page(16, 7)).unwrap();
        disk.remove_file("a").unwrap();
        assert!(disk.file_by_name("a").is_none());
        assert!(disk.file_names().is_empty());
        assert!(disk.read_page(a, 0).is_err());
        assert!(matches!(disk.remove_file("a"), Err(Error::NotFound(_))));
        // The name can be reused by a fresh file.
        let a2 = disk.create_file("a").unwrap();
        assert_ne!(a, a2);
    }
}
