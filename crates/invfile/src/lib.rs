//! Inverted files and their B+tree term dictionaries.
//!
//! Section 3 of the paper assumes every document collection comes with an
//! inverted file — for each term, the list of `(d#, w)` i-cells of the
//! documents containing it, stored tightly packed in ascending term order —
//! and section 5.2 adds a B+tree per inverted file "to find whether a term
//! is in the collection and if present where the corresponding inverted
//! file entry is located".
//!
//! * [`InvertedFile`] — builder, random entry fetch (HVNL's access path,
//!   `⌈J⌉` random pages per fetch) and sequential scan (VVM's access path,
//!   `I` pages, one seek).
//! * [`BTreeFile`] — a real paged B+tree with bulk-load, search, inserts
//!   with node splits, and [`BTreeFile::load_leaves`] for the paper's
//!   "read the whole tree once" step (cost `Bt`).

#![forbid(unsafe_code)]

pub mod btree;
pub mod codec;
pub mod delta;
pub mod file;
pub mod prefix;

pub use btree::{BTreeFile, Dictionary, TermEntry};
pub use codec::PostingCodec;
pub use delta::{DeltaOverlay, DeltaScan, FlushedDelta};
pub use file::{postings_of, EntryMeta, EntryScanner, InvertedFile};
pub use prefix::{FnlIndex, RankCell, SigMeta, TermOrder};
