//! Document collections for textual joins.
//!
//! A collection is the value set of a textual attribute — each value is a
//! document, represented (section 3 of the paper) as a list of d-cells
//! `(t#, w)` sorted by term number and stored tightly packed in consecutive
//! pages of the simulated disk.
//!
//! This crate provides:
//!
//! * [`Document`] — the in-memory representation with similarity helpers,
//! * [`DocumentStore`] — the paged on-disk layout with a sequential scanner
//!   (cheap sequential I/Os) and document-at-a-time random access (the
//!   expensive path that selections on other attributes force, section 2),
//! * [`CollectionProfile`] — measured statistics `(N, K, T)`, document
//!   frequencies and norms,
//! * [`synth`] — a Zipfian synthetic generator with presets matching the
//!   WSJ / FR / DOE statistics table of section 6 (the TREC-1 tapes
//!   themselves are licensed and not redistributable, so we simulate
//!   collections with the same statistical shape),
//! * [`text`] — tokenizer, stop-word filter, light stemmer and the
//!   *standard term-number mapping* that section 3 recommends for
//!   multidatabase systems.

#![forbid(unsafe_code)]

pub mod document;
pub mod profile;
pub mod store;
pub mod synth;
pub mod text;

pub use document::Document;
pub use profile::CollectionProfile;
pub use store::{Collection, DocumentStore, DocumentStoreBuilder};
pub use synth::{SynthSpec, ZipfSampler};
pub use text::TermRegistry;
