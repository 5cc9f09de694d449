//! The parallel cost variant: `vvs_par`.
//!
//! The paper's estimates assume a single execution stream. The one
//! multi-threaded executor of `textjoin-core` — VVM's term-range merge —
//! partitions the work across `w` workers, and `vvs_par` predicts its
//! *elapsed* cost under the model
//!
//! * **scan terms divide by `w`** — each worker streams its own partition
//!   from a dedicated drive, so `w` concurrent partial scans finish in the
//!   wall time of one partition;
//! * **memory splits** — each worker owns a `B/w` share of the buffer, so
//!   pass counts are re-derived at the per-worker budget. This is where
//!   parallelism *costs* something: splitting the buffer can raise the
//!   number of passes.
//!
//! With `w = 1` it reduces exactly to `vvs`, which the tests pin. It feeds
//! EXPLAIN ANALYZE's scaling table only: the planner ranks on the
//! sequential estimates, which are in the summed pages a run is measured
//! in (see [`crate::rank`]). HHNL, HVNL and FNL have no parallel variant
//! because they have no parallel executor.

use crate::inputs::JoinInputs;
use crate::vvm;
use textjoin_common::Result;

/// The same join as seen by one of `w` workers: a `B/w` buffer share.
fn per_worker(inputs: &JoinInputs, workers: u64) -> JoinInputs {
    let w = workers.max(1);
    JoinInputs {
        sys: inputs
            .sys
            .with_buffer_pages((inputs.sys.buffer_pages / w).max(1)),
        ..*inputs
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
    let per = per_worker(inputs, workers);
    let budget = vvm::similarity_budget(&per);
    if budget <= 0.0 {
        // Reuse num_passes for its InsufficientMemory diagnostics.
        vvm::num_passes(&per)?;
    }
    let passes = (vvm::similarity_pages(inputs) / w / budget).ceil().max(1.0);
    Ok(passes * (inputs.i1_frag() + inputs.i2_storage_frag()) / w)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn one_worker_reduces_to_the_sequential_estimate() {
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
                assert_eq!(vvs_par(&i, 1).unwrap(), vvm::sequential(&i).unwrap());
            }
        }
    }

    #[test]
    fn vvm_speedup_is_near_linear_while_passes_hold() {
        // FR-derived huge documents: the VVM sweet spot of finding 3.
        let derived = CollectionStats::fr().derive_scaled(64);
        let i = inputs(derived, derived, 10_000);
        let seq = vvm::sequential(&i).unwrap();
        let par4 = vvs_par(&i, 4).unwrap();
        assert!(par4 < seq, "4 workers must beat 1 ({par4} vs {seq})");
        let s = seq / par4;
        assert!(s > 2.0, "speedup {s} should be near-linear");
        assert!(
            s <= 4.0 + 1e-9,
            "speedup {s} cannot exceed the worker count"
        );
    }

    #[test]
    fn splitting_memory_can_make_an_algorithm_infeasible() {
        let big_docs = CollectionStats::new(100, 100_000.0, 10_000);
        let i = inputs(big_docs, big_docs, 16);
        // One worker squeezes by; eight shares of two pages cannot.
        assert!(vvs_par(&i, 1).is_ok());
        assert!(vvs_par(&i, 8).is_err());
    }
}
