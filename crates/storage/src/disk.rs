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
//! # Robustness
//!
//! Real devices fail, so the simulator can misbehave on demand:
//!
//! * every page carries an out-of-band header (magic, format version,
//!   [`PageKind`], CRC32 of the payload) stamped on write and verified on
//!   read — corruption surfaces as [`Error::Corrupt`] with file/page
//!   context instead of decoding garbage;
//! * a seeded [`FaultPlan`] injects transient read errors, torn writes,
//!   single-bit flips and latency spikes on chosen
//!   `(file, page, nth-access)` triples;
//! * a [`RetryPolicy`] governs how many times a transient read failure is
//!   re-attempted (each retry re-charged at the random rate) before the
//!   read gives up with [`Error::Io`];
//! * every injected fault, retry and give-up is counted in
//!   [`FaultStats`] and mirrored into attached [`DiskMetrics`].

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use textjoin_common::{Error, Result};
use textjoin_obs::{Counter, Histogram, Registry, LATENCY_BOUNDS_NS};

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

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE polynomial) over `data` — the checksum stored in every
/// page header.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn make_header(kind: PageKind, payload: &[u8]) -> [u8; PAGE_HEADER_BYTES] {
    let crc = crc32(payload).to_le_bytes();
    [
        PAGE_MAGIC[0],
        PAGE_MAGIC[1],
        PAGE_FORMAT_VERSION,
        kind as u8,
        crc[0],
        crc[1],
        crc[2],
        crc[3],
    ]
}

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

/// The kind of misbehaviour a [`Fault`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails `failures` consecutive times, then succeeds — the
    /// classic recoverable device hiccup. Whether it is absorbed depends
    /// on the [`RetryPolicy`].
    TransientRead {
        /// Consecutive failures before the page reads cleanly.
        failures: u32,
    },
    /// The *write* persists only the first half of the payload (the tail
    /// is zeroed) while the header keeps the checksum of the intended
    /// bytes — detected as [`Error::Corrupt`] on the next read.
    TornWrite,
    /// Permanently flips one stored bit of the page (header or payload;
    /// the offset is taken modulo the page's total bit width). Detected
    /// by header verification on every subsequent read.
    BitFlip {
        /// Bit position in `header ‖ payload` space (modulo-reduced).
        bit_offset: u64,
    },
    /// The device serves the whole run at the random rate — a seek-storm
    /// latency spike. The read succeeds; only its price changes.
    LatencySpike,
}

/// One planned fault: `kind` strikes the `nth_access` (0-based) of
/// `(file, page)` on its path — reads for everything except
/// [`FaultKind::TornWrite`], which counts writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Target file.
    pub file: FileId,
    /// Target page within the file.
    pub page: u64,
    /// Which access to that page triggers the fault (0 = first).
    pub nth_access: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults to inject. Each fault fires at most
/// once; install with [`DiskSim::set_fault_plan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one explicit fault.
    pub fn with_fault(mut self, file: FileId, page: u64, nth_access: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            file,
            page,
            nth_access,
            kind,
        });
        self
    }

    /// Builds a deterministic plan from a seed: one fault per target
    /// `(file, page)`, with the kind and trigger access drawn from a
    /// SplitMix64 stream (≈½ transient, ¼ bit flip, ¼ latency spike —
    /// torn writes are write-path faults and are only planned explicitly).
    /// The same seed and targets always produce the same plan.
    pub fn seeded(seed: u64, targets: &[(FileId, u64)]) -> Self {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut plan = FaultPlan::new();
        for &(file, page) in targets {
            let r = splitmix64(&mut state);
            let nth_access = (r >> 32) & 1;
            let kind = match r % 4 {
                0 | 1 => FaultKind::TransientRead {
                    failures: 1 + ((r >> 8) & 1) as u32,
                },
                2 => FaultKind::BitFlip {
                    bit_offset: splitmix64(&mut state),
                },
                _ => FaultKind::LatencySpike,
            };
            plan = plan.with_fault(file, page, nth_access, kind);
        }
        plan
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The planned faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// How long to wait between retry attempts. The simulator never sleeps;
/// delays are accumulated into [`FaultStats::backoff_us`] so tests can
/// assert the policy was honoured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// A fixed delay (µs) before every retry.
    Fixed(u64),
    /// `base_us`, doubling on each further retry.
    Exponential {
        /// Delay before the first retry, in µs.
        base_us: u64,
    },
}

impl Backoff {
    /// Delay before attempt number `attempt` (attempt 2 = first retry).
    pub fn delay_us(&self, attempt: u32) -> u64 {
        match *self {
            Backoff::None => 0,
            Backoff::Fixed(us) => us,
            Backoff::Exponential { base_us } => {
                base_us.saturating_mul(1u64 << (attempt.saturating_sub(2)).min(63))
            }
        }
    }
}

/// How the read path responds to transient faults.
///
/// Backoff delays are *jittered* by default: a fleet of workers that all
/// hit the same hiccup at the same time would otherwise retry in lockstep
/// (their fixed/exponential schedules are identical), re-colliding on
/// every attempt. The jitter is deterministic — derived from
/// `(jitter_seed, file, page, attempt)` via SplitMix64 — so two workers
/// retrying *different* pages desynchronize while any single schedule
/// stays exactly reproducible. `max_total_backoff_us` caps the cumulative
/// backoff one read operation may accrue, bounding worst-case retry wall
/// time no matter how many pages of the run fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per page (1 = no retries). Must be ≥ 1.
    pub max_attempts: u32,
    /// Wait discipline between attempts.
    pub backoff: Backoff,
    /// Seed for deterministic per-`(file, page, attempt)` jitter. `None`
    /// disables jitter (the pre-jitter synchronized schedule, kept for
    /// tests that assert exact delays).
    pub jitter_seed: Option<u64>,
    /// Upper bound on the backoff one read operation may accumulate, in
    /// µs. Retries past the cap still happen — they just stop waiting.
    pub max_total_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::Exponential { base_us: 100 },
            jitter_seed: Some(0x7465_786A_6F69_6E21),
            max_total_backoff_us: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The (possibly jittered) delay before `attempt` on `(file, page)`.
    /// With jitter enabled the delay is drawn uniformly from
    /// `[base/2, base]` ("equal jitter"), deterministically per target —
    /// the same page always backs off identically, different pages
    /// desynchronize.
    pub fn delay_us(&self, file: FileId, page: u64, attempt: u32) -> u64 {
        let base = self.backoff.delay_us(attempt);
        let Some(seed) = self.jitter_seed else {
            return base;
        };
        if base == 0 {
            return 0;
        }
        let mut state = seed
            ^ ((file.raw() as u64) << 40)
            ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((attempt as u64) << 24);
        let r = splitmix64(&mut state);
        let half = base / 2;
        half + r % (base - half + 1)
    }
}

/// Cumulative fault-injection and recovery counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read faults injected.
    pub injected_transient: u64,
    /// Torn writes injected.
    pub injected_torn: u64,
    /// Bit flips injected.
    pub injected_bit_flips: u64,
    /// Latency spikes injected.
    pub injected_latency: u64,
    /// Read attempts beyond the first (whether or not the page was
    /// eventually read).
    pub retries: u64,
    /// Pages abandoned after `max_attempts` failures.
    pub gave_up: u64,
    /// Simulated backoff accumulated across all retries, in µs.
    pub backoff_us: u64,
}

impl FaultStats {
    /// Total faults injected, of any kind.
    pub fn total_injected(&self) -> u64 {
        self.injected_transient
            + self.injected_torn
            + self.injected_bit_flips
            + self.injected_latency
    }

    fn accumulate(&mut self, d: &FaultStats) {
        self.injected_transient += d.injected_transient;
        self.injected_torn += d.injected_torn;
        self.injected_bit_flips += d.injected_bit_flips;
        self.injected_latency += d.injected_latency;
        self.retries += d.retries;
        self.gave_up += d.gave_up;
        self.backoff_us += d.backoff_us;
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

#[derive(Default)]
struct FileData {
    name: String,
    kind: PageKind,
    pages: Vec<Arc<[u8]>>,
    headers: Vec<[u8; PAGE_HEADER_BYTES]>,
}

fn flip_stored_bit(f: &mut FileData, page: u64, bit_offset: u64, page_size: usize) {
    let total_bits = ((PAGE_HEADER_BYTES + page_size) * 8) as u64;
    let bit = bit_offset % total_bits;
    let (byte, mask) = ((bit / 8) as usize, 1u8 << (bit % 8));
    if byte < PAGE_HEADER_BYTES {
        f.headers[page as usize][byte] ^= mask;
    } else {
        let mut v = f.pages[page as usize].to_vec();
        v[byte - PAGE_HEADER_BYTES] ^= mask;
        f.pages[page as usize] = v.into();
    }
}

fn verify_page(f: &FileData, page: u64) -> Result<()> {
    let h = &f.headers[page as usize];
    let fail =
        |reason: String| Error::Corrupt(format!("file '{}' page {}: {}", f.name, page, reason));
    if h[0..2] != PAGE_MAGIC {
        return Err(fail("bad page magic".into()));
    }
    if h[2] != PAGE_FORMAT_VERSION {
        return Err(fail(format!(
            "page format version {} (expected {PAGE_FORMAT_VERSION})",
            h[2]
        )));
    }
    match PageKind::from_u8(h[3]) {
        Some(k) if k == f.kind => {}
        Some(k) => return Err(fail(format!("page kind {k:?} in a {:?} file", f.kind))),
        None => return Err(fail(format!("unknown page kind {}", h[3]))),
    }
    let stored = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    let computed = crc32(&f.pages[page as usize]);
    if stored != computed {
        return Err(fail(format!(
            "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(())
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum FaultPath {
    Read,
    Write,
}

struct PlannedFault {
    fault: Fault,
    fired: bool,
}

struct FaultMachinery {
    plan: Vec<PlannedFault>,
    read_counts: HashMap<(FileId, u64), u64>,
    write_counts: HashMap<(FileId, u64), u64>,
    policy: RetryPolicy,
    stats: FaultStats,
    /// Simulated power-cut: `Some(n)` lets `n` more page writes succeed,
    /// then every write fails until cleared (a "restart").
    write_crash: Option<u64>,
}

impl FaultMachinery {
    /// Whether any planned fault has yet to fire. Per-page access counts
    /// only matter to an unfired fault's `nth_access`, so they are kept
    /// only while this holds — an idle plan costs no map insert per page
    /// and the maps cannot grow over a long run.
    fn armed(&self) -> bool {
        self.plan.iter().any(|pf| !pf.fired)
    }

    fn take_fault(
        &mut self,
        file: FileId,
        page: u64,
        nth: u64,
        path: FaultPath,
    ) -> Option<FaultKind> {
        let pf = self.plan.iter_mut().find(|pf| {
            !pf.fired
                && pf.fault.file == file
                && pf.fault.page == page
                && pf.fault.nth_access == nth
                && (matches!(pf.fault.kind, FaultKind::TornWrite) == (path == FaultPath::Write))
        })?;
        pf.fired = true;
        Some(pf.fault.kind)
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

impl PageLatency {
    #[inline]
    fn is_zero(&self) -> bool {
        self.seq_ns == 0 && self.rand_ns == 0
    }
}

struct HeadState {
    /// Per-(thread, file) head positions — a dedicated drive per scanning
    /// thread per file: the next page a sequential continuation would
    /// start at.
    heads: HashMap<(std::thread::ThreadId, FileId), u64>,
    stats: IoStats,
    interference: bool,
    latency: PageLatency,
    /// Optional observability sink; updated under the same lock that
    /// already guards `stats`, so attaching metrics adds no extra
    /// synchronisation to the read path.
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
}

thread_local! {
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
    #[inline]
    fn charge_seq(&mut self, pages: u64) {
        self.stats.seq_reads += pages;
        THREAD_IO.with(|t| {
            let mut s = t.get();
            s.seq_reads += pages;
            t.set(s);
        });
        if let Some(m) = &self.metrics {
            m.seq_reads.inc_by(pages);
        }
    }

    #[inline]
    fn charge_rand(&mut self, pages: u64) {
        self.stats.rand_reads += pages;
        THREAD_IO.with(|t| {
            let mut s = t.get();
            s.rand_reads += pages;
            t.set(s);
        });
        if let Some(m) = &self.metrics {
            m.rand_reads.inc_by(pages);
        }
    }

    #[inline]
    fn charge_write(&mut self) {
        self.stats.writes += 1;
        THREAD_IO.with(|t| {
            let mut s = t.get();
            s.writes += 1;
            t.set(s);
        });
        if let Some(m) = &self.metrics {
            m.writes.inc();
        }
    }
}

#[derive(Clone, Copy)]
enum RunPricing {
    /// Whole run sequential-or-random ([`DiskSim::read_run`]).
    Run,
    /// One seek then streaming ([`DiskSim::read_scan`]).
    Scan,
}

/// An in-memory disk simulator with sequential/random accounting,
/// checksummed pages, fault injection and retrying reads.
///
/// All methods take `&self`; internal state is protected by mutexes so a
/// `DiskSim` can be shared (e.g. between a document store and its inverted
/// file) without threading `&mut` through every layer.
pub struct DiskSim {
    page_size: usize,
    files: Mutex<Vec<FileData>>,
    names: Mutex<HashMap<String, FileId>>,
    state: Mutex<HeadState>,
    faults: Mutex<FaultMachinery>,
}

impl DiskSim {
    /// Creates an empty disk with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            files: Mutex::new(Vec::new()),
            names: Mutex::new(HashMap::new()),
            state: Mutex::new(HeadState {
                heads: HashMap::new(),
                stats: IoStats::default(),
                interference: false,
                latency: PageLatency::default(),
                metrics: None,
            }),
            faults: Mutex::new(FaultMachinery {
                plan: Vec::new(),
                read_counts: HashMap::new(),
                write_counts: HashMap::new(),
                policy: RetryPolicy::default(),
                stats: FaultStats::default(),
                write_crash: None,
            }),
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
            headers: Vec::new(),
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
            let f = &mut files[old.0 as usize];
            f.name.clear();
            f.pages.clear();
            f.headers.clear();
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
        let mut files = self.files.lock();
        let f = &mut files[id.0 as usize];
        f.name.clear();
        f.pages.clear();
        f.headers.clear();
        Ok(())
    }

    /// The name a file was created with.
    pub fn file_name(&self, file: FileId) -> String {
        self.files.lock()[file.0 as usize].name.clone()
    }

    /// The page kind a file was created with.
    pub fn file_kind(&self, file: FileId) -> PageKind {
        self.files.lock()[file.0 as usize].kind
    }

    /// Number of pages currently in the file.
    pub fn num_pages(&self, file: FileId) -> u64 {
        self.files.lock()[file.0 as usize].pages.len() as u64
    }

    fn validate_payload(&self, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(Error::InvalidArgument(format!(
                "payload of {} bytes does not match page size {} \
                 (pad partial pages explicitly — short writes are torn writes)",
                data.len(),
                self.page_size
            )));
        }
        Ok(())
    }

    /// Arms a simulated power-cut: the next `after` page writes succeed,
    /// then every subsequent write (append or overwrite) fails with
    /// [`Error::Io`] until [`clear_write_crash`](Self::clear_write_crash)
    /// — the "restart". Reads are unaffected, so recovery code can run
    /// against exactly the pages that made it to disk before the cut.
    pub fn set_write_crash_after(&self, after: u64) {
        self.faults.lock().write_crash = Some(after);
    }

    /// Disarms a simulated power-cut (the machine came back up).
    pub fn clear_write_crash(&self) {
        self.faults.lock().write_crash = None;
    }

    /// Decrements the armed write-crash budget, failing the write that
    /// exhausts it. Caller holds the `files` lock (files → faults is the
    /// established lock order).
    fn check_write_crash(&self, file_name: &str, page: u64) -> Result<()> {
        let mut fm = self.faults.lock();
        let Some(remaining) = &mut fm.write_crash else {
            return Ok(());
        };
        if *remaining == 0 {
            return Err(Error::Io {
                file: file_name.to_string(),
                page,
                attempts: 0,
            });
        }
        *remaining -= 1;
        Ok(())
    }

    /// Injects any planned torn write for `(file, page)`, returning the
    /// fault delta to mirror into metrics. Caller holds the `files` lock.
    fn apply_write_faults(&self, file: FileId, page: u64, payload: &mut [u8]) -> FaultStats {
        let mut delta = FaultStats::default();
        let mut fm = self.faults.lock();
        if !fm.armed() {
            return delta;
        }
        let count = fm.write_counts.entry((file, page)).or_insert(0);
        let nth = *count;
        *count += 1;
        if fm.take_fault(file, page, nth, FaultPath::Write).is_some() {
            delta.injected_torn += 1;
            let keep = payload.len() / 2;
            for b in &mut payload[keep..] {
                *b = 0;
            }
        }
        fm.stats.accumulate(&delta);
        delta
    }

    /// Appends a page to the file, returning its page number. The payload
    /// must be exactly one page; partial pages must be padded by the
    /// caller (logical byte counts live in the callers' directories, not
    /// here). The header (magic, version, kind, CRC32) is stored out of
    /// band. Writes are not charged to the read-cost model — the paper's
    /// analysis covers query processing, not index construction — but are
    /// counted in [`IoStats::writes`].
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<u64> {
        let started = Instant::now();
        self.validate_payload(data)?;
        let mut files = self.files.lock();
        let f = &mut files[file.0 as usize];
        let page_no = f.pages.len() as u64;
        self.check_write_crash(&f.name, page_no)?;
        let header = make_header(f.kind, data);
        let mut payload = data.to_vec();
        let delta = self.apply_write_faults(file, page_no, &mut payload);
        f.headers.push(header);
        f.pages.push(payload.into());
        drop(files);
        let mut st = self.state.lock();
        st.charge_write();
        if let Some(m) = &st.metrics {
            m.mirror_faults(&delta);
            m.write_wall_ns.observe(started.elapsed().as_nanos() as u64);
        }
        Ok(page_no)
    }

    /// Overwrites an existing page in place (used by mutable structures
    /// such as the B+tree during inserts). Same exact-length contract as
    /// [`Self::append_page`]; counted in [`IoStats::writes`].
    pub fn write_page(&self, file: FileId, page: u64, data: &[u8]) -> Result<()> {
        let started = Instant::now();
        self.validate_payload(data)?;
        let mut files = self.files.lock();
        let f = &mut files[file.0 as usize];
        let n = f.pages.len() as u64;
        if page >= n {
            return Err(Error::PageOutOfBounds {
                file: f.name.clone(),
                page,
                len: n,
            });
        }
        self.check_write_crash(&f.name, page)?;
        let header = make_header(f.kind, data);
        let mut payload = data.to_vec();
        let delta = self.apply_write_faults(file, page, &mut payload);
        f.headers[page as usize] = header;
        f.pages[page as usize] = payload.into();
        drop(files);
        let mut st = self.state.lock();
        st.charge_write();
        if let Some(m) = &st.metrics {
            m.mirror_faults(&delta);
            m.write_wall_ns.observe(started.elapsed().as_nanos() as u64);
        }
        Ok(())
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
        let mut fm = self.faults.lock();
        fm.plan = plan
            .faults
            .into_iter()
            .map(|fault| PlannedFault {
                fault,
                fired: false,
            })
            .collect();
        fm.read_counts.clear();
        fm.write_counts.clear();
    }

    /// Removes any installed fault schedule.
    pub fn clear_fault_plan(&self) {
        self.set_fault_plan(FaultPlan::new());
    }

    /// Number of planned faults that have not fired yet.
    pub fn pending_faults(&self) -> usize {
        self.faults
            .lock()
            .plan
            .iter()
            .filter(|pf| !pf.fired)
            .count()
    }

    /// Sets the read retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "at least one attempt required");
        self.faults.lock().policy = policy;
    }

    /// The current read retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.faults.lock().policy
    }

    /// Snapshot of the cumulative fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.lock().stats
    }

    /// Resets the fault counters (the installed plan is kept).
    pub fn reset_fault_stats(&self) {
        self.faults.lock().stats = FaultStats::default();
    }

    /// Permanently flips one stored bit of a page — the corruption hook
    /// behind [`FaultKind::BitFlip`], also usable directly by tests. The
    /// offset addresses `header ‖ payload` bit space (modulo-reduced), so
    /// any flip lands somewhere header verification can see.
    pub fn flip_bit(&self, file: FileId, page: u64, bit_offset: u64) -> Result<()> {
        let mut files = self.files.lock();
        let f = &mut files[file.0 as usize];
        let n = f.pages.len() as u64;
        if page >= n {
            return Err(Error::PageOutOfBounds {
                file: f.name.clone(),
                page,
                len: n,
            });
        }
        flip_stored_bit(f, page, bit_offset, self.page_size);
        Ok(())
    }

    /// Reads a single page. Equivalent to `read_run(file, page, 1)`.
    pub fn read_page(&self, file: FileId, page: u64) -> Result<Arc<[u8]>> {
        let mut run = self.read_run(file, page, 1)?;
        run.pop()
            .ok_or_else(|| Error::Corrupt(format!("empty run reading page {page} of {file}")))
    }

    /// Reads `len` consecutive pages starting at `start`, classifying the
    /// whole run as sequential (it continues the head position) or random
    /// (all pages charged at the `α` rate), per the paper's model.
    pub fn read_run(&self, file: FileId, start: u64, len: u64) -> Result<Vec<Arc<[u8]>>> {
        self.read_pages(file, start, len, RunPricing::Run)
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
        self.read_pages(file, start, len, RunPricing::Scan)
    }

    /// Shared read path: bounds check, fault injection, retry accounting,
    /// header verification, then I/O pricing. Transient faults are
    /// retried per the [`RetryPolicy`] (each retry re-charged at the
    /// random rate); verification failures are *not* retried — corruption
    /// is permanent, so a re-read cannot help.
    fn read_pages(
        &self,
        file: FileId,
        start: u64,
        len: u64,
        pricing: RunPricing,
    ) -> Result<Vec<Arc<[u8]>>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let started = Instant::now();
        let mut files = self.files.lock();
        let page_size = self.page_size;
        let f = &mut files[file.0 as usize];
        let n = f.pages.len() as u64;
        if start + len > n {
            return Err(Error::PageOutOfBounds {
                file: f.name.clone(),
                page: start + len - 1,
                len: n,
            });
        }

        let mut delta = FaultStats::default();
        let mut extra_rand = 0u64;
        let mut force_random = false;
        let mut failure: Option<Error> = None;
        {
            let mut fm = self.faults.lock();
            let policy = fm.policy;
            // Cumulative backoff of *this* read operation, bounded by the
            // policy's cap however many pages of the run fault.
            let mut op_backoff_us = 0u64;
            let pages = if fm.armed() { start..start + len } else { 0..0 };
            for p in pages {
                let count = fm.read_counts.entry((file, p)).or_insert(0);
                let nth = *count;
                *count += 1;
                let Some(kind) = fm.take_fault(file, p, nth, FaultPath::Read) else {
                    continue;
                };
                match kind {
                    FaultKind::TransientRead { failures } => {
                        delta.injected_transient += 1;
                        let attempts = (failures + 1).min(policy.max_attempts);
                        let retries = u64::from(attempts.saturating_sub(1));
                        delta.retries += retries;
                        extra_rand += retries;
                        for a in 2..=attempts {
                            let room = policy.max_total_backoff_us.saturating_sub(op_backoff_us);
                            let wait = policy.delay_us(file, p, a).min(room);
                            op_backoff_us += wait;
                            delta.backoff_us += wait;
                        }
                        if failures >= policy.max_attempts {
                            delta.gave_up += 1;
                            if failure.is_none() {
                                failure = Some(Error::Io {
                                    file: f.name.clone(),
                                    page: p,
                                    attempts: policy.max_attempts,
                                });
                            }
                        }
                    }
                    FaultKind::BitFlip { bit_offset } => {
                        delta.injected_bit_flips += 1;
                        flip_stored_bit(f, p, bit_offset, page_size);
                    }
                    FaultKind::LatencySpike => {
                        delta.injected_latency += 1;
                        force_random = true;
                    }
                    // Write-path kind; the path filter keeps it out of
                    // read lookups, but the match must be exhaustive.
                    FaultKind::TornWrite => {}
                }
            }
            fm.stats.accumulate(&delta);
        }

        if failure.is_none() {
            for p in start..start + len {
                if let Err(e) = verify_page(f, p) {
                    failure = Some(e);
                    break;
                }
            }
        }
        let out: Vec<Arc<[u8]>> = if failure.is_none() {
            f.pages[start as usize..(start + len) as usize]
                .iter()
                .map(Arc::clone)
                .collect()
        } else {
            Vec::new()
        };
        drop(files);

        let head_key = (std::thread::current().id(), file);
        let mut st = self.state.lock();
        let (mut seq_pages, mut rand_pages) = (0u64, 0u64);
        match pricing {
            RunPricing::Run => {
                let sequential =
                    !force_random && !st.interference && st.heads.get(&head_key) == Some(&start);
                if sequential {
                    seq_pages = len;
                } else {
                    rand_pages = len;
                }
            }
            RunPricing::Scan => {
                if st.interference || force_random {
                    rand_pages = len;
                } else {
                    let continues = st.heads.get(&head_key) == Some(&start);
                    if continues {
                        seq_pages = len;
                    } else {
                        rand_pages = 1;
                        seq_pages = len - 1;
                    }
                }
            }
        }
        rand_pages += extra_rand;
        if seq_pages > 0 {
            st.charge_seq(seq_pages);
        }
        if rand_pages > 0 {
            st.charge_rand(rand_pages);
        }
        if let Some(m) = &st.metrics {
            m.mirror_faults(&delta);
            // Failed reads are timed too: a retried-then-abandoned page
            // costs real latency that should show in the distribution.
            m.read_wall_ns.observe(started.elapsed().as_nanos() as u64);
        }
        let latency = st.latency;
        let result = match failure {
            None => {
                st.heads.insert(head_key, start + len);
                Ok(out)
            }
            Some(e) => {
                // A failed read leaves the head position undefined: the
                // next access pays a seek.
                st.heads.remove(&head_key);
                Err(e)
            }
        };
        drop(st);
        if !latency.is_zero() {
            pay_latency(seq_pages * latency.seq_ns + rand_pages * latency.rand_ns);
        }
        result
    }

    /// Charges a synthetic run without materialising data — used by the
    /// simulation harness when running the cost accounting at paper scale
    /// where the files are never populated. Bypasses fault injection and
    /// verification (there are no bytes to fault or verify).
    pub fn charge_run(&self, file: FileId, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let head_key = (std::thread::current().id(), file);
        let mut st = self.state.lock();
        let sequential = !st.interference && st.heads.get(&head_key) == Some(&start);
        if sequential {
            st.charge_seq(len);
        } else {
            st.charge_rand(len);
        }
        st.heads.insert(head_key, start + len);
    }

    /// Attaches (or with `None`, detaches) an observability sink: every
    /// page read/write and every injected fault is mirrored into the
    /// registered counters. Updates happen under the existing accounting
    /// lock, so the read path gains no extra synchronisation.
    pub fn set_metrics(&self, metrics: Option<DiskMetrics>) {
        self.state.lock().metrics = metrics;
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
        let err = disk.read_run(f, 1, 5).unwrap_err();
        assert!(matches!(err, Error::PageOutOfBounds { .. }));
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
    fn crc32_matches_known_vector() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

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
        assert!(fs.backoff_us > 0, "exponential default backoff accrues");
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
        {
            let fm = disk.faults.lock();
            assert!(fm.read_counts.is_empty(), "10 000 unplanned page reads");
            assert!(fm.write_counts.is_empty(), "1 000 unplanned page writes");
        }
        // A plan armed now counts from its own installation: `nth_access =
        // 2` fires on the third read after it, whatever came before.
        disk.set_fault_plan(FaultPlan::new().with_fault(f, 4, 2, FaultKind::LatencySpike));
        for expected in [0, 0, 1] {
            disk.read_run(f, 4, 1).unwrap();
            assert_eq!(disk.fault_stats().injected_latency, expected);
        }
        // With the last fault fired the counting stops again.
        let before = disk.faults.lock().read_counts.len();
        disk.read_run(f, 0, 10).unwrap();
        assert_eq!(disk.faults.lock().read_counts.len(), before);
    }

    #[test]
    fn exhausted_retries_give_up_with_typed_error() {
        let (disk, f) = disk_with_file(3);
        disk.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::Fixed(10),
            jitter_seed: None,
            max_total_backoff_us: u64::MAX,
        });
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
                attempts: 3
            }
        );
        let fs = disk.fault_stats();
        assert_eq!(fs.gave_up, 1);
        assert_eq!(fs.retries, 2);
        assert_eq!(fs.backoff_us, 20);
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
    fn backoff_disciplines_scale_as_documented() {
        assert_eq!(Backoff::None.delay_us(2), 0);
        assert_eq!(Backoff::Fixed(50).delay_us(4), 50);
        let e = Backoff::Exponential { base_us: 100 };
        assert_eq!(e.delay_us(2), 100);
        assert_eq!(e.delay_us(3), 200);
        assert_eq!(e.delay_us(4), 400);
    }

    #[test]
    fn jittered_backoff_desynchronizes_targets_deterministically() {
        // The regression this guards: a fixed backoff gives every worker
        // the *same* retry schedule, so workers that fault together retry
        // together, re-colliding on every attempt. Jitter must (a) vary
        // the delay across targets, (b) stay reproducible per target, and
        // (c) stay within [base/2, base].
        let policy = RetryPolicy {
            backoff: Backoff::Fixed(1_000),
            ..RetryPolicy::default()
        };
        let delays: Vec<u64> = (0..16u64)
            .map(|page| policy.delay_us(FileId(0), page, 2))
            .collect();
        let distinct: std::collections::HashSet<u64> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 8,
            "16 targets produced only {} distinct delays: {delays:?}",
            distinct.len()
        );
        for (page, &d) in delays.iter().enumerate() {
            assert!((500..=1_000).contains(&d), "page {page}: {d}");
            assert_eq!(
                d,
                policy.delay_us(FileId(0), page as u64, 2),
                "reproducible"
            );
        }
        // Different files desynchronize too, and jitter can be turned off.
        assert_ne!(
            (0..16u64)
                .map(|p| policy.delay_us(FileId(1), p, 2))
                .collect::<Vec<_>>(),
            delays
        );
        let plain = RetryPolicy {
            jitter_seed: None,
            ..policy
        };
        assert_eq!(plain.delay_us(FileId(0), 3, 2), 1_000);
    }

    #[test]
    fn total_backoff_per_read_is_capped() {
        // Many faulted pages in one run under an exponential policy would
        // accrue unbounded wall time; the cap bounds the sum.
        let (disk, f) = disk_with_file(8);
        disk.set_retry_policy(RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::Exponential { base_us: 1_000 },
            jitter_seed: None,
            max_total_backoff_us: 2_500,
        });
        let mut plan = FaultPlan::new();
        for page in 0..8 {
            plan = plan.with_fault(f, page, 0, FaultKind::TransientRead { failures: 3 });
        }
        disk.set_fault_plan(plan);
        let pages = disk.read_run(f, 0, 8).unwrap();
        assert_eq!(pages.len(), 8);
        let fs = disk.fault_stats();
        // Uncapped this would be 8 pages × (1000 + 2000 + 4000) = 56 000.
        assert_eq!(fs.backoff_us, 2_500, "cap bounds the operation's backoff");
        assert_eq!(fs.retries, 24, "retries still happen past the cap");
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
