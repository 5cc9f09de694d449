//! Analytical I/O cost models for the text-join algorithms: the paper's
//! three and the filtered fourth.
//!
//! This crate transcribes section 5 of the paper into code. Each algorithm
//! has a *sequential* estimate (all I/Os at the sequential rate, valid when
//! each structure is read by a dedicated drive) and a *worst-case random*
//! estimate (the I/O device serves other obligations between requests):
//!
//! | algorithm | sequential | worst-case random |
//! |-----------|------------|-------------------|
//! | HHNL      | [`hhnl::sequential`] (`hhs`) | [`hhnl::worst_case_random`] (`hhr`) |
//! | HVNL      | [`hvnl::sequential`] (`hvs`) | [`hvnl::worst_case_random`] (`hvr`) |
//! | VVM       | [`vvm::sequential`] (`vvs`)  | [`vvm::worst_case_random`] (`vvr`)  |
//! | FNL       | [`fnl::sequential`] (`fns`)  | [`fnl::worst_case_random`] (`fnr`)  |
//!
//! All estimates are in units of *sequential page reads*: one random read
//! counts `α`. HHNL and FNL are one formula — the private `forward` module
//! — over two inner sources; their named functions only choose the source.
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

pub mod batch;
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

pub use batch::{hhr_batch, hhs_batch, hvr_batch, hvs_batch, vvr_batch, vvs_batch};
pub use calibrate::{CalibrationProfile, ReportObs, CALIBRATION_VERSION};
pub use comm::{choose_distributed, CommParams, Site, TermEncoding};
pub use fnl::{fnr_batch, fns_batch};
pub use inputs::{measured_overlap, term_containment_probability, JoinInputs};
pub use integrated::{choose, rank, Algorithm, CostEstimates, IoScenario, Prediction};
pub use shard::{uniform_fractions, ShardCost, ShardPlan};
pub use work::Prices;
