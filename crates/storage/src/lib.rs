//! Simulated storage layer with the paper's I/O cost model.
//!
//! Section 3 of the paper abstracts the hardware to a single cost unit —
//! page I/Os — with one refinement: a random page read costs `α` times a
//! sequential one because of the extra seek and rotational delay. Documents
//! and inverted-file entries are assumed to be stored *tightly packed in
//! consecutive storage locations*, so a full scan of a structure of `D`
//! pages costs `D` sequential I/Os, while fetching `N` documents one at a
//! time in random order costs about `N·⌈S⌉·α`.
//!
//! [`DiskSim`] reproduces exactly this accounting: every read is classified
//! as sequential (it continues the head position of the previous read) or
//! random (everything else), and [`IoStats::cost`] charges `seq + α·rand`.
//! An *interference mode* reclassifies every run as random, modeling the
//! paper's worst-case `hhr`/`hvr`/`vvr` scenario in which the I/O device
//! serves other obligations between any two requests.
//!
//! [`BufferPool`] is a budgeted LRU page cache; [`MemTracker`] enforces the
//! byte-level memory budget `B·P` that every join executor must respect.
//! [`Prefetcher`] adds sequential-run readahead straight over the disk (a
//! scan never returns to a page behind it, so it needs no pool): it
//! detects adjacent page demands and issues windowed scan-priced batches,
//! with issued/hit/wasted counters exported through `textjoin-obs`.
//! [`packed`] is the one module that knows the tightly-packed record
//! layout: its writer, its random-access cut and its in-order reader.
//!
//! The layer is also chaos-ready: every page carries a checksummed header
//! verified on read, a seeded [`FaultPlan`] injects deterministic device
//! misbehaviour, and up to [`READ_ATTEMPTS`] attempts absorb transient read
//! failures —
//! see the [`disk`], [`page`] and [`fault`] module docs.

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

pub mod buffer;
pub mod disk;
pub mod fault;
pub mod memory;
pub mod packed;
pub mod page;
pub mod span;

pub use buffer::{
    BufferPool, BufferStats, PoolMetrics, PrefetchMetrics, PrefetchStats, Prefetcher,
    DEFAULT_PREFETCH_WINDOW,
};
pub use disk::{
    DiskMetrics, DiskSim, Fault, FaultKind, FaultPlan, FaultStats, FileId, IoStats, PageKind,
    PageLatency, PAGE_FORMAT_VERSION, PAGE_HEADER_BYTES, READ_ATTEMPTS, READ_NS_PER_BYTE,
};
pub use memory::MemTracker;
pub use packed::{PackedReader, PackedWriter};
pub use span::ByteSpan;
