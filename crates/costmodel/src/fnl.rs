//! FNL cost model — Filtered Nested Loop over the rarity-ordered
//! signature index.
//!
//! FNL is the forward loop (the private `forward` module, which holds the
//! arithmetic) over another inner source: the per-pass scan reads the
//! compact signature index (`Ip` pages, *measured* at build time — the
//! index is gap-coded, so its size has no closed formula) instead of the
//! document store (`D1` pages). A term-ordering sidecar (`M` pages) is
//! read once at start-up and stays resident, shrinking the outer batch
//! capacity; resident outer documents additionally carry their
//! rank-translated cells (8 bytes per term against the 5-byte d-cells):
//!
//! ```text
//! X   = (B − M_res − ⌈S1⌉) / (S2 + 8·K2/P + 8λ/P)
//! fns = M + outer_read_cost + ⌈N2/X⌉ · (Ip + ΔD1) + (1 + ⌈N2/X⌉)(α − 1)
//! ```
//!
//! `ΔD1` is the **overlay rescoring term**: documents in the inner delta
//! overlay are not in the signature index, so every pass re-reads the
//! flushed delta side file and rescores them from their raw cells. FNL
//! scores every pair with a common term (the overlap threshold `τ = 1`),
//! so the filter is lossless *and* complete — the candidate set is exactly
//! the non-zero-score pairs — and base-index false positives cost CPU
//! only, never I/O.
//!
//! The λ-dependence is the whole point: HHNL's batch capacity shrinks as
//! λ grows, multiplying passes over the full `D1`; FNL pays the same
//! shrinkage but each extra pass costs only `Ip < D1`. The crossover λ is
//! where `M + ⌈N2/X_f⌉·Ip < ⌈N2/X_h⌉·D1` first holds.

use crate::forward;
use crate::inputs::JoinInputs;
use std::slice::from_ref;
use textjoin_common::{Result, NUMBER_BYTES, SIM_VALUE_BYTES};

/// In-memory bytes per rank-translated cell of a resident outer document
/// (a 4-byte rank plus a weight, padded).
pub const RANK_CELL_BYTES: usize = 8;

/// Bytes one top-λ slot pins per resident outer document: a similarity
/// value plus the matched document's number — the executor's actual
/// accounting, not the paper's values-only 4 bytes.
pub const TOPK_SLOT_BYTES: usize = SIM_VALUE_BYTES + NUMBER_BYTES;

/// `X` — outer documents held in memory per pass. Smaller than HHNL's
/// `X`: the sidecar stays resident and every outer document also carries
/// its rank-translated cells.
pub fn batch_size(inputs: &JoinInputs) -> Result<f64> {
    forward::batch_size(forward::signatures, inputs)
}

/// Number of passes over the signature index: `⌈N2 / X⌉` over the live
/// outer documents.
pub fn num_passes(inputs: &JoinInputs) -> Result<f64> {
    forward::passes(forward::signatures, from_ref(inputs))
}

/// `fns` — dedicated-device cost: sidecar once, outer side once, one
/// signature scan (plus overlay rescore) per pass, and the rewind seeks the
/// executor cannot avoid — one to open the sidecar, one at the start of
/// every pass, each turning a 1-page sequential read into an α-priced one.
pub fn sequential(inputs: &JoinInputs) -> Result<f64> {
    forward::sequential(forward::signatures, from_ref(inputs))
}

/// `fnr` — worst-case cost when the I/O device is shared; mirrors `hhr`.
pub fn worst_case_random(inputs: &JoinInputs) -> Result<f64> {
    forward::worst_case_random(forward::signatures, from_ref(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hhnl;
    use textjoin_common::{CollectionStats, FnlStats, FragStats, QueryParams, SystemParams};

    /// The hand-checkable HHNL configuration plus a signature index that
    /// is 40% of `D1` (typical gap-coding ratio) and a one-page sidecar.
    fn simple() -> JoinInputs {
        JoinInputs::with_paper_q(
            CollectionStats::new(1000, 409.6, 10_000),
            CollectionStats::new(2000, 409.6, 10_000),
            SystemParams::paper_base().with_buffer_pages(101),
            QueryParams::paper_base(),
        )
        .with_fnl(FnlStats {
            meta_pages: 1,
            index_pages: 200, // vs D1 = 500
            meta_bytes: 4096,
        })
    }

    #[test]
    fn no_index_means_no_estimate() {
        let i = JoinInputs {
            fnl: None,
            ..simple()
        };
        assert!(batch_size(&i).is_err());
        assert!(sequential(&i).is_err());
        assert!(worst_case_random(&i).is_err());
    }

    #[test]
    fn sequential_cost_matches_the_formula() {
        let i = simple();
        let x = batch_size(&i).unwrap();
        let passes = (2000.0 / x).ceil();
        // M + D2 + passes·Ip + (1 + passes)(α − 1)
        let expect = 1.0 + 1000.0 + passes * 200.0 + (1.0 + passes) * 4.0;
        assert!((sequential(&i).unwrap() - expect).abs() < 1e-9);
        assert_eq!(passes, num_passes(&i).unwrap());
    }

    #[test]
    fn batch_capacity_is_smaller_than_hhnl() {
        // The resident sidecar and the rank-translated cells shrink X, so
        // FNL makes at least as many passes as HHNL over the same join.
        let i = simple();
        assert!(batch_size(&i).unwrap() < hhnl::batch_size(&i).unwrap());
    }

    #[test]
    fn compact_index_beats_hhnl_at_selective_lambdas() {
        // Multi-pass regime at high λ: each FNL pass reads 200 pages
        // against HHNL's 500, which out-earns the extra passes FNL's
        // smaller X causes — and the gap widens as λ shrinks both batch
        // capacities further.
        let base = simple();
        let at = |lambda: usize| JoinInputs {
            query: base.query.with_lambda(lambda),
            ..base
        };
        let hi = at(200);
        assert!(num_passes(&hi).unwrap() >= 2.0);
        assert!(sequential(&hi).unwrap() < hhnl::sequential(&hi).unwrap());
        let gap = |i: &JoinInputs| hhnl::sequential(i).unwrap() - sequential(i).unwrap();
        assert!(gap(&at(500)) > gap(&at(200)));
    }

    #[test]
    fn worst_case_exceeds_sequential_and_flattens_at_alpha_one() {
        let i = simple();
        let fns = sequential(&i).unwrap();
        let fnr = worst_case_random(&i).unwrap();
        assert!(fnr > fns);
        let flat = JoinInputs {
            sys: i.sys.with_alpha(1.0),
            ..i
        };
        assert!((worst_case_random(&flat).unwrap() - sequential(&flat).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_strictly_raises_the_cost() {
        let pristine = simple();
        let frag = JoinInputs {
            inner_frag: FragStats {
                doc_delta_pages: 40,
                ..FragStats::default()
            },
            ..pristine
        };
        // The overlay rescore bills the delta side file on every pass.
        let passes = num_passes(&frag).unwrap();
        let expect = sequential(&pristine).unwrap() + passes * 40.0;
        assert!((sequential(&frag).unwrap() - expect).abs() < 1e-9);
        assert!(sequential(&frag).unwrap() > sequential(&pristine).unwrap());
    }

    #[test]
    fn insufficient_memory_is_an_error() {
        let i = JoinInputs {
            sys: simple().sys.with_buffer_pages(2),
            ..simple()
        };
        assert!(batch_size(&i).is_err());
        assert!(sequential(&i).is_err());
    }

    #[test]
    fn batch_pools_passes_and_shares_the_sidecar() {
        let i = simple();
        let batch = vec![i; 4];
        let sum = 4.0 * sequential(&i).unwrap();
        let pooled = forward::sequential(forward::signatures, &batch).unwrap();
        assert!(pooled <= sum);
        // The sidecar is genuinely shared: at minimum (N−1)·M is saved.
        assert!(sum - pooled >= 3.0 * 1.0 - 1e-9);
    }
}
