//! Analytical I/O cost models for the text-join algorithms: the paper's
//! three and the filtered fourth.
//!
//! This crate transcribes section 5 of the paper into code. Each algorithm
//! has a *sequential* estimate (all I/Os at the sequential rate, valid when
//! each structure is read by a dedicated drive) and a *worst-case random*
//! estimate (the I/O device serves other obligations between requests):
//!
//! | algorithm | sequential | worst-case random | a batch shares |
//! |-----------|------------|-------------------|----------------|
//! | HHNL      | [`hhnl::sequential`] (`hhs`) | [`hhnl::worst_case_random`] (`hhr`) | `⌈Σᵢ N2ᵢ/Xᵢ⌉` inner scans |
//! | HVNL      | [`hvnl::sequential`] (`hvs`) | [`hvnl::worst_case_random`] (`hvr`) | the dictionary `Bt1` |
//! | VVM       | [`vvm::sequential`] (`vvs`)  | [`vvm::worst_case_random`] (`vvr`)  | `⌈Σᵢ SMᵢ/M⌉` merge scans |
//! | FNL       | [`fnl::sequential`] (`fns`)  | [`fnl::worst_case_random`] (`fnr`)  | the sidecar and the index scans |
//!
//! All estimates are in units of *sequential page reads*: one random read
//! counts `α`. Each loop's formula is written once, over a batch of queries
//! on one collection pair (HHNL and FNL share one, the private `forward`
//! module); the named functions above are the batch of one.
//!
//! [`JoinInputs`] bundles the collection statistics, system parameters,
//! query parameters and the term-overlap probability `q` (with the paper's
//! section 6 heuristic available as
//! [`term_containment_probability`]). [`integrated`] implements the
//! integrated algorithm of section 6.1: estimate every cost, run the
//! cheapest — [`choose`] in the paper's pages, [`rank`] in predicted wall
//! time (`page_ns · pages` plus the CPU work term of [`work`], the paper's
//! future-work item 2). [`comm`] extends the models with the multidatabase
//! communication term the paper lists as future work. [`calibrate`] closes
//! the loop: it fits `α̂`, a two-term latency model and per-workload
//! correction factors from accumulated query reports, so the planner can
//! rank algorithms by *calibrated* rather than raw estimates.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod comm;
pub mod fnl;
mod forward;
pub mod hhnl;
pub mod hvnl;
pub mod inputs;
pub mod integrated;
pub mod shard;
pub mod vvm;
pub mod work;

#[cfg(test)]
mod proptests;

pub use calibrate::{CalibrationProfile, ReportObs, CALIBRATION_VERSION};
pub use comm::{choose_distributed, CommParams, Site, TermEncoding};
pub use inputs::{measured_overlap, term_containment_probability, JoinInputs};
pub use integrated::{choose, rank, Algorithm, CostEstimates, IoScenario, Prediction};
pub use shard::{uniform_fractions, ShardCost, ShardPlan};
pub use work::Prices;
