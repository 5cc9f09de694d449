//! # textjoin
//!
//! A complete, executable reproduction of *“Performance Analysis of Several
//! Algorithms for Processing Joins between Textual Attributes”* (Weiyi
//! Meng, Clement Yu, Wei Wang, Naphtali Rishe — ICDE 1996).
//!
//! The paper studies the join `R1.C1 SIMILAR_TO(λ) R2.C2` between *textual
//! attributes*: for each document of the outer collection `C2`, find the
//! `λ` documents of the inner collection `C1` most similar to it. This
//! crate re-exports the whole stack:
//!
//! * [`storage`] — a simulated paged disk with the paper's I/O cost model
//!   (sequential page = 1, random page = α) and a byte-exact memory budget;
//! * [`collection`] — paged document collections, a text-ingestion
//!   pipeline with the *standard term-number mapping*, and a Zipfian
//!   synthetic generator matching the TREC-1 statistics the paper uses;
//! * [`invfile`] — inverted files with page-based B+tree dictionaries,
//!   plus the in-memory delta overlay of the mutation path;
//! * [`live`] — incrementally-updatable collections: a checksummed
//!   write-ahead log, delta segments, and a crash-safe background merge;
//! * [`costmodel`] — the section 5 cost formulas
//!   (`hhs`/`hhr`/`hvs`/`hvr`/`vvs`/`vvr`), their `fns`/`fnr` extension
//!   for the signature-filtered algorithm, and the section 6 `q`
//!   heuristic;
//! * [`core`] — executable HHNL, HVNL, VVM and FNL join algorithms plus
//!   the integrated cost-based dispatcher of section 6.1;
//! * [`query`] — an extended-SQL front end
//!   (`SELECT … WHERE a.X SIMILAR_TO(λ) b.Y AND …`) with selection
//!   pushdown;
//! * [`obs`] — the observability stack: span tracing, a metrics registry
//!   with Prometheus export, per-query reports, and the live layer
//!   (in-flight tickets with progress/ETA, cooperative cancellation and
//!   the embedded scrape endpoint);
//! * [`sim`] — the harness regenerating the paper's five experiment groups
//!   and checking its five findings.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use textjoin::prelude::*;
//!
//! // A simulated disk and two small synthetic collections.
//! let disk = Arc::new(DiskSim::new(4096));
//! let inner = SynthSpec::from_stats(CollectionStats::new(200, 40.0, 2000), 1)
//!     .generate(Arc::clone(&disk), "inner")?;
//! let outer = SynthSpec::from_stats(CollectionStats::new(50, 40.0, 2000), 2)
//!     .generate(Arc::clone(&disk), "outer")?;
//! let inv = InvertedFile::build(Arc::clone(&disk), "inner", &inner)?;
//!
//! // λ = 3 most similar inner documents per outer document, via HVNL.
//! let spec = JoinSpec::new(&inner, &outer)
//!     .with_query(QueryParams::paper_base().with_lambda(3));
//! let outcome = textjoin::core::hvnl::execute(&spec, &inv)?;
//! assert_eq!(outcome.result.num_outer_docs(), 50);
//! println!("HVNL cost: {} page-units", outcome.stats.cost);
//! # Ok::<(), textjoin::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use textjoin_collection as collection;
pub use textjoin_common as common;
pub use textjoin_core as core;
pub use textjoin_costmodel as costmodel;
pub use textjoin_invfile as invfile;
pub use textjoin_live as live;
pub use textjoin_obs as obs;
pub use textjoin_query as query;
pub use textjoin_sim as sim;
pub use textjoin_storage as storage;

pub use textjoin_common::{Error, Result};

/// The most commonly used items in one import.
pub mod prelude {
    pub use textjoin_collection::{Collection, Document, SynthSpec, TermRegistry};
    pub use textjoin_common::{CollectionStats, DocId, QueryParams, Score, SystemParams, TermId};
    pub use textjoin_core::{
        integrated, Algorithm, IoScenario, JoinOutcome, JoinResult, JoinSpec, Match, OuterDocs,
        Weighting,
    };
    pub use textjoin_costmodel::{CostEstimates, JoinInputs};
    pub use textjoin_invfile::{FnlIndex, InvertedFile};
    pub use textjoin_query::{Catalog, ColumnType, RelationBuilder, Value};
    pub use textjoin_storage::DiskSim;
}
