//! Shared vocabulary of the `textjoin` workspace.
//!
//! This crate defines the primitive types used throughout the reproduction of
//! *"Performance Analysis of Several Algorithms for Processing Joins between
//! Textual Attributes"* (Meng, Yu, Wang, Rishe — ICDE 1996):
//!
//! * [`TermId`] / [`DocId`] — the term and document numbers of the paper's
//!   section 3 (terms are identified by numbers to save space),
//! * [`DCell`] / [`ICell`] — document cells `(t#, w)` and inverted-file cells
//!   `(d#, w)` with their 5-byte on-disk encoding (`|t#| = 3`, `|w| = 2`),
//! * [`SystemParams`] — the system-level knobs `B` (buffer pages), `P`
//!   (page size) and `α` (random/sequential I/O cost ratio),
//! * [`CollectionStats`] — the per-collection statistics `(N, K, T)` and the
//!   derived quantities `S`, `D`, `J`, `I` and `Bt` used by every cost
//!   formula of section 5,
//! * [`Score`] — a totally-ordered similarity value,
//! * [`json`] — the one escaper and flat-object field reader under every
//!   hand-written JSON record of the workspace,
//! * [`hash`] — [`FxHashMap`], a fast non-DoS-resistant map for the
//!   workspace's own term and document ids and term text,
//! * [`Error`] — the workspace error type.

#![forbid(unsafe_code)]

pub mod cell;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod params;
pub mod score;
pub mod stats;

pub use cell::{DCell, ICell, CELL_BYTES, NUMBER_BYTES, WEIGHT_BYTES};
pub use error::{Error, Result};
pub use hash::FxHashMap;
pub use ids::{DocId, TermId};
pub use params::{QueryParams, SystemParams, BTREE_CELL_BYTES, DEFAULT_PAGE_SIZE, SIM_VALUE_BYTES};
pub use score::Score;
pub use stats::{CollectionStats, FnlStats, FragStats};
