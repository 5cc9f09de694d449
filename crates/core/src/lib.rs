//! Executable text-join algorithms: HHNL, HVNL, VVM and FNL.
//!
//! This crate implements the algorithms of section 4 as real executors
//! over the simulated storage stack, so their *measured* I/O counts and
//! memory high-water marks can be compared with the analytical models of
//! `textjoin-costmodel`. Each algorithm is written once, as passes over
//! `N ≥ 1` queries, against the pass driver (`driver.rs`); a single query
//! is the batch of one, and [`execute`] is [`batch::execute`] of one:
//!
//! * [`hhnl`] — Horizontal-Horizontal Nested Loop: batches of outer
//!   documents against a sequential scan of the inner collection
//!   (section 4.1) — the forward loop, written once over its inner source;
//! * [`hvnl`] — Horizontal-Vertical Nested Loop: per-outer-document fetches
//!   of inner inverted-file entries, cached under a
//!   lowest-outer-document-frequency eviction policy (section 4.2);
//! * [`vvm`] — Vertical-Vertical Merge: a sort-merge-style parallel scan of
//!   both inverted files, partitioned into multiple passes when the
//!   intermediate similarities exceed memory (section 4.3);
//! * [`fnl`] — Filtered Nested Loops: the same loop over another source,
//!   a compact rarity-ranked signature index, `Ip < D1` pages per pass;
//! * [`batch`] — the same passes handed `N` queries over one collection
//!   pair, sharing every scan;
//! * [`integrated`] — the section 6.1 integrated algorithm: estimate all
//!   costs, execute the cheapest, fall back cheapest-first;
//! * [`mod@reference`] — a trivial in-memory scorer used as the correctness
//!   oracle by the test suite;
//! * [`cluster`] — the self-join special case of section 1 (document
//!   clustering), with single-link grouping of the neighbour graph;
//! * [`parallel`] — the four worker-count signatures `benchmark/` pins;
//!   every algorithm runs on the calling thread (the paper's future-work
//!   item 3 was tried twice and lost to one thread both times);
//! * [`shard`] — sharded multi-site execution (the paper's §3
//!   multidatabase setting): per-shard drives, comm-priced page shipping,
//!   skew-aware partitioning, exact global top-λ merge.
//!
//! All executors must produce identical results for the same
//! [`JoinSpec`] — the central invariant of the test suite.

#![forbid(unsafe_code)]

mod accum;
pub mod batch;
pub mod cluster;
mod driver;
pub mod fnl;
pub mod hhnl;
pub mod hvnl;
pub mod integrated;
pub mod parallel;
mod probe;
pub mod reference;
pub mod report;
pub mod result;
pub mod shard;
pub mod spec;
pub mod topk;
pub mod vvm;
pub mod weighting;

pub use batch::{BatchOptions, BatchOutcome};
pub use driver::{execute, Indexes};
pub use report::{
    observation_from_json, PhaseDuration, QueryReport, SlowLogRank, SlowQueryLog, SIM_PAGE_NS,
};
pub use result::{ExecStats, JoinOutcome, JoinResult, Match, ResultQuality};
pub use shard::{
    execute_sharded, ShardFault, ShardOptions, ShardPartitioning, ShardReport, ShardedOutcome,
};
pub use spec::{JoinSpec, OuterDocs};
pub use topk::TopK;
pub use weighting::Weighting;

pub use textjoin_costmodel::{Algorithm, IoScenario};
