//! Parallel cost variants: `hhs_par`, `hvs_par`, `vvs_par`, `fns_par`.
//!
//! The paper's estimates assume a single execution stream. The parallel
//! executors of `textjoin-core` partition the work across `w` workers, and
//! these variants predict their cost under the model
//!
//! * **scan terms divide by `w`** — each worker streams its own partition
//!   from a dedicated drive, so `w` concurrent partial scans finish in the
//!   wall time of one partition;
//! * **seek terms stay unchanged** — random fetches are serviced by a
//!   shared arm, so per-page seek costs (`α`-terms, B+tree descents) do
//!   not parallelise;
//! * **memory splits** — each worker owns a `B/w` share of the buffer, so
//!   batch capacities and pass counts are re-derived at the per-worker
//!   budget. This is where parallelism *costs* something: splitting the
//!   buffer can raise the number of passes.
//!
//! With `w = 1` every variant reduces exactly to its sequential
//! counterpart (`hhs`, `hvs`, `vvs`, `fns`), which the tests pin.

use crate::forward::{self, SourceAt};
use crate::inputs::JoinInputs;
use crate::integrated::{Algorithm, CostEstimates, IoScenario};
use crate::{hvnl, vvm};
use textjoin_common::{CollectionStats, Result};

/// The same join as seen by one of `w` workers: a `B/w` buffer share and,
/// when `split_outer` is set, a `⌈N2/w⌉`-document slice of the outer side
/// (outer-partitioned algorithms). The slice keeps the original term
/// statistics — vocabulary growth is still evaluated on the full
/// collection's curve, just over fewer documents.
fn per_worker(inputs: &JoinInputs, workers: u64, split_outer: bool) -> JoinInputs {
    let w = workers.max(1);
    let outer = if split_outer {
        CollectionStats {
            num_docs: inputs.outer.num_docs.div_ceil(w),
            ..inputs.outer
        }
    } else {
        inputs.outer
    };
    JoinInputs {
        outer,
        sys: inputs
            .sys
            .with_buffer_pages((inputs.sys.buffer_pages / w).max(1)),
        ..*inputs
    }
}

/// The forward loop with the outer side partitioned across `workers`: the
/// one formula of the private `forward` module at a worker's inputs. Each
/// worker reads its outer slice (a partial scan, `D2/w`; random fetches
/// for a selected subset stay at the full `N2·⌈S2⌉·α` because seeks do not
/// parallelise) and makes `⌈(N2/w) / X(B/w)⌉` full passes over the inner
/// source. The pass term is *per worker* wall time, so the predicted
/// speedup comes only from the outer scan and is modest by construction.
fn forward_par(source: SourceAt, inputs: &JoinInputs, workers: u64) -> Result<f64> {
    let per = per_worker(inputs, workers, true);
    let outer = if inputs.outer_is_random() {
        inputs.outer_read_cost()
    } else {
        per.outer_read_cost()
    };
    forward::sequential(source, &[per], Some(outer))
}

/// `hhs_par` — outer-partitioned HHNL: `D2/w + ⌈(N2/w) / X(B/w)⌉ · D1`.
pub fn hhs_par(inputs: &JoinInputs, workers: u64) -> Result<f64> {
    forward_par(forward::documents, inputs, workers)
}

/// `fns_par` — outer-partitioned FNL. Every worker reads the term-ordering
/// sidecar into its own share — concurrently, so the bill stays one `M`.
pub fn fns_par(inputs: &JoinInputs, workers: u64) -> Result<f64> {
    forward_par(forward::signatures, inputs, workers)
}

/// `hvs_par` — HVNL with the outer side partitioned across `workers`.
///
/// Each worker runs the sequential HVNL estimate over its `⌈N2/w⌉`-document
/// slice with a `B/w` entry cache: its outer scan shrinks to `D2/w`, it
/// needs only `q·f(N2/w)` entries, but it pays the full `Bt1` load and its
/// own entry-fetch `α`-terms (caches are private, so entries needed by two
/// workers are fetched twice — the model charges each worker its own
/// fetches). For a selected outer subset the document fetches are random
/// and are billed at the full `N2` rate.
pub fn hvs_par(inputs: &JoinInputs, workers: u64) -> f64 {
    let per = per_worker(inputs, workers, true);
    let cost = hvnl::sequential(&per);
    if inputs.outer_is_random() {
        cost - per.outer_read_cost() + inputs.outer_read_cost()
    } else {
        cost
    }
}

/// `vvs_par` — VVM with both inverted files term-range partitioned across
/// `workers`.
///
/// Each worker scans a `1/w` share of each file (`(I1 + I2)/w` per pass)
/// and accumulates a `1/w` share of the similarity matrix in its `B/w`
/// budget, so passes become `⌈(SM/w) / (B/w − ⌈J1⌉ − ⌈J2⌉)⌉`. As long as
/// the pass count holds, the predicted speedup is near-linear — the
/// per-worker fixed entry buffers are what eventually erode it.
pub fn vvs_par(inputs: &JoinInputs, workers: u64) -> Result<f64> {
    let w = workers.max(1) as f64;
    let per = per_worker(inputs, workers, false);
    let budget = vvm::similarity_budget(&per);
    if budget <= 0.0 {
        // Reuse num_passes for its InsufficientMemory diagnostics.
        vvm::num_passes(&per)?;
    }
    let passes = (vvm::similarity_pages(inputs) / w / budget).ceil().max(1.0);
    Ok(passes * (inputs.i1_frag() + inputs.i2_storage_frag()) / w)
}

/// The parallel estimate for one algorithm; `INFINITY` when the per-worker
/// budget cannot run it.
pub fn estimate(inputs: &JoinInputs, algorithm: Algorithm, workers: u64) -> f64 {
    match algorithm {
        Algorithm::Hhnl => hhs_par(inputs, workers).unwrap_or(f64::INFINITY),
        Algorithm::Hvnl => hvs_par(inputs, workers),
        Algorithm::Vvm => vvs_par(inputs, workers).unwrap_or(f64::INFINITY),
        Algorithm::Fnl => fns_par(inputs, workers).unwrap_or(f64::INFINITY),
    }
}

/// Predicted speedup of running `algorithm` with `workers` workers over
/// its sequential (dedicated-drive) estimate. `1.0` when either estimate
/// is unavailable.
pub fn speedup(inputs: &JoinInputs, algorithm: Algorithm, workers: u64) -> f64 {
    let seq = CostEstimates::compute(inputs).cost(algorithm, IoScenario::Dedicated);
    let par = estimate(inputs, algorithm, workers);
    if seq.is_finite() && par.is_finite() && par > 0.0 {
        seq / par
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fnl, hhnl};
    use textjoin_common::{CollectionStats, FragStats, QueryParams, SystemParams};

    fn inputs(inner: CollectionStats, outer: CollectionStats, buffer_pages: u64) -> JoinInputs {
        JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base().with_buffer_pages(buffer_pages),
            QueryParams::paper_base(),
        )
    }

    /// Half the outer documents tombstoned, one delta side file each.
    fn fragmented(i: JoinInputs) -> JoinInputs {
        let frag = FragStats {
            doc_delta_pages: 120,
            inv_delta_pages: 80,
            tombstone_ratio: 0.5,
        };
        i.with_frag(frag, frag)
    }

    #[test]
    fn one_worker_reduces_to_the_sequential_estimates() {
        for (inner, outer) in [
            (CollectionStats::wsj(), CollectionStats::wsj()),
            (CollectionStats::wsj(), CollectionStats::doe()),
            (
                CollectionStats::fr(),
                CollectionStats::doe().select_docs(50),
            ),
        ] {
            let pristine = inputs(inner, outer, 10_000);
            for i in [pristine, fragmented(pristine)] {
                assert_eq!(hhs_par(&i, 1).unwrap(), hhnl::sequential(&i).unwrap());
                assert_eq!(hvs_par(&i, 1), hvnl::sequential(&i));
                assert_eq!(vvs_par(&i, 1).unwrap(), vvm::sequential(&i).unwrap());
            }
        }
    }

    #[test]
    fn fnl_one_worker_reduces_to_sequential_and_without_index_is_infinite() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000).with_fnl(
            textjoin_common::FnlStats {
                meta_pages: 40,
                index_pages: 16_000,
                meta_bytes: 200_000,
            },
        );
        for i in [i, fragmented(i)] {
            assert_eq!(fns_par(&i, 1).unwrap(), fnl::sequential(&i).unwrap());
        }
        // More workers never *reduce* the per-worker pass term below the
        // shared outer saving, and the estimate stays finite.
        assert!(fns_par(&i, 4).unwrap().is_finite());
        let bare = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        assert!(estimate(&bare, Algorithm::Fnl, 2).is_infinite());
    }

    #[test]
    fn vvm_speedup_is_near_linear_while_passes_hold() {
        // FR-derived huge documents: the VVM sweet spot of finding 3.
        let derived = CollectionStats::fr().derive_scaled(64);
        let i = inputs(derived, derived, 10_000);
        let seq = vvm::sequential(&i).unwrap();
        let par4 = vvs_par(&i, 4).unwrap();
        assert!(par4 < seq, "4 workers must beat 1 ({par4} vs {seq})");
        let s = speedup(&i, Algorithm::Vvm, 4);
        assert!(s > 2.0, "speedup {s} should be near-linear");
        assert!(
            s <= 4.0 + 1e-9,
            "speedup {s} cannot exceed the worker count"
        );
    }

    #[test]
    fn hhnl_speedup_is_modest_by_construction() {
        // Inner scans repeat per worker: only the outer scan divides, so the
        // parallel estimate stays within the sequential one but cannot
        // approach w× unless the outer side dominates.
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let seq = hhnl::sequential(&i).unwrap();
        let par = hhs_par(&i, 4).unwrap();
        assert!(par <= seq);
        // Splitting the buffer four ways quadruples the passes, so the
        // inner-scan term is unchanged and the saving is exactly the
        // avoided share of the outer scan.
        assert!((seq - par - 3.0 / 4.0 * i.d2()).abs() < i.d1());
    }

    #[test]
    fn small_outer_hvnl_still_gains_from_partitioning() {
        let base = CollectionStats::wsj();
        let i = inputs(base, base.select_docs(40), 10_000);
        let seq = hvnl::sequential(&i);
        let par = hvs_par(&i, 4);
        // Whole-collection outer: the outer scan divides and each worker
        // fetches fewer entries, so the estimate must not grow.
        assert!(par <= seq * 4.0, "per-worker cost bounded ({par} vs {seq})");
    }

    #[test]
    fn selected_outer_seeks_do_not_parallelise() {
        let base = CollectionStats::wsj();
        let sel = base.select_docs(200);
        let i = inputs(base, sel, 10_000).with_selected_outer(base);
        let fetches = i.n2() * i.s2().ceil() * i.alpha();
        assert!(
            hhs_par(&i, 4).unwrap() >= fetches,
            "random outer fetches must be billed in full"
        );
        assert!(hvs_par(&i, 4) >= fetches);
    }

    #[test]
    fn splitting_memory_can_make_an_algorithm_infeasible() {
        let big_docs = CollectionStats::new(100, 100_000.0, 10_000);
        let i = inputs(big_docs, big_docs, 16);
        // One worker squeezes by; eight shares of two pages cannot.
        assert!(vvs_par(&i, 1).is_ok());
        assert!(vvs_par(&i, 8).is_err());
        assert!(estimate(&i, Algorithm::Vvm, 8).is_infinite());
        assert_eq!(speedup(&i, Algorithm::Vvm, 8), 1.0);
    }

    #[test]
    fn estimate_dispatches_per_algorithm() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::doe(), 10_000);
        assert_eq!(estimate(&i, Algorithm::Hhnl, 2), hhs_par(&i, 2).unwrap());
        assert_eq!(estimate(&i, Algorithm::Hvnl, 2), hvs_par(&i, 2));
        assert_eq!(estimate(&i, Algorithm::Vvm, 2), vvs_par(&i, 2).unwrap());
    }
}
