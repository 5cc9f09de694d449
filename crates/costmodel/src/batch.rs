//! Batched multi-query cost models.
//!
//! When `N` join queries share the same collection pair `(C1, C2)` and the
//! same system parameters, the batch engine (`textjoin_core::batch`) pays
//! the *shared* scan structures once and only the per-query work `N` times.
//! Each formula reduces exactly to its sequential counterpart at `N = 1`.
//!
//! ```text
//! hhs_batch = Σᵢ outer_readᵢ + ⌈Σᵢ N2ᵢ/Xᵢ⌉ · D1          (shared inner scans)
//! hvs_batch = Σᵢ (hvsᵢ − Bt1) + Bt1                      (shared dictionary)
//! vvs_batch = (I1 + I2) · ⌈Σᵢ SMᵢ / M⌉                   (shared merge scan)
//! ```
//!
//! HHNL pools the outer batches of all queries: the inner collection is
//! scanned `⌈Σ N2ᵢ/Xᵢ⌉` times for the whole batch instead of `Σ ⌈N2ᵢ/Xᵢ⌉`
//! times — the ceiling is paid once over the pooled fractional passes.
//! HVNL loads the inner dictionary once for the whole batch; entry fetches
//! are charged per query (an upper bound — the shared entry cache can only
//! reduce them further). VVM folds every query's accumulators into one
//! merge scan, so the two inverted files are read `⌈Σ SMᵢ/M⌉` times total.
//!
//! All queries in a batch must share `inner`, `outer` and `sys`; the
//! functions take the shared terms (`D1`, `Bt1`, `I1 + I2`, `M`) from the
//! first element. An empty batch costs zero.

use crate::forward;
use crate::inputs::JoinInputs;
use crate::{hvnl, vvm};
use textjoin_common::Result;

/// `⌈Σᵢ N2ᵢ/Xᵢ⌉` — inner-collection scans for the pooled outer batches:
/// one ceiling over the summed *fractional* passes, so at most
/// `Σᵢ ⌈N2ᵢ/Xᵢ⌉`, with equality at `N = 1`.
pub fn hhs_batch_passes(inputs: &[JoinInputs]) -> Result<f64> {
    forward::passes(forward::documents, inputs)
}

/// `hhs_batch` — batched HHNL: every query's outer side is read once, the
/// inner collection is scanned once per *pooled* pass.
pub fn hhs_batch(inputs: &[JoinInputs]) -> Result<f64> {
    forward::sequential(forward::documents, inputs)
}

/// `hvs_batch` — batched HVNL: the inner B+tree dictionary (`Bt1`) is
/// loaded once for the whole batch; outer scans and entry fetches are
/// charged per query. The per-query entry term is an upper bound: the
/// shared entry cache serves overlapping term needs across queries without
/// refetching, so the measured batch cost is at most this estimate.
pub fn hvs_batch(inputs: &[JoinInputs]) -> f64 {
    let Some(first) = inputs.first() else {
        return 0.0;
    };
    let bt1 = first.bt1();
    inputs
        .iter()
        .map(|i| hvnl::sequential(i) - bt1)
        .sum::<f64>()
        + bt1
}

/// `hvr_batch` — worst-case batched HVNL (outer reads seek too).
pub fn hvr_batch(inputs: &[JoinInputs]) -> f64 {
    let Some(first) = inputs.first() else {
        return 0.0;
    };
    let bt1 = first.bt1();
    inputs
        .iter()
        .map(|i| hvnl::worst_case_random(i) - bt1)
        .sum::<f64>()
        + bt1
}

/// `hhr_batch` — worst-case batched HHNL: the pooled sequential savings of
/// [`hhs_batch`] plus every query's own (unpooled) seek penalty.
pub fn hhr_batch(inputs: &[JoinInputs]) -> Result<f64> {
    forward::worst_case_random(forward::documents, inputs)
}

/// `⌈Σᵢ SMᵢ / M⌉` — merge passes when all queries' accumulators share the
/// similarity budget `M` of one scan.
pub fn vvs_batch_passes(inputs: &[JoinInputs]) -> Result<f64> {
    let Some(first) = inputs.first() else {
        return Ok(1.0);
    };
    // Reuse the sequential guard for the M ≤ 0 error.
    vvm::num_passes(first)?;
    let m = vvm::similarity_budget(first);
    let sm: f64 = inputs.iter().map(vvm::similarity_pages).sum();
    Ok((sm / m).ceil().max(1.0))
}

/// `vvs_batch` — batched VVM: one merge scan of both inverted files per
/// pooled pass, serving every query's λ-threshold from the same cursor
/// positions.
pub fn vvs_batch(inputs: &[JoinInputs]) -> Result<f64> {
    let Some(first) = inputs.first() else {
        return Ok(0.0);
    };
    Ok((first.i1_frag() + first.i2_storage_frag()) * vvs_batch_passes(inputs)?)
}

/// `vvr_batch` — worst-case batched VVM: pooled merge scans at the
/// sequential rate plus every query's own random penalty (same shape as
/// [`hhr_batch`]; exact at `N = 1`).
pub fn vvr_batch(inputs: &[JoinInputs]) -> Result<f64> {
    let mut penalty = 0.0;
    for i in inputs {
        penalty += vvm::worst_case_random(i)? - vvm::sequential(i)?;
    }
    Ok(vvs_batch(inputs)? + penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hhnl, CostEstimates, IoScenario};
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};

    fn inputs(lambda: usize, buffer_pages: u64) -> JoinInputs {
        JoinInputs::with_paper_q(
            CollectionStats::new(1000, 409.6, 10_000),
            CollectionStats::new(2000, 409.6, 10_000),
            SystemParams::paper_base().with_buffer_pages(buffer_pages),
            QueryParams {
                lambda,
                ..QueryParams::paper_base()
            },
        )
    }

    #[test]
    fn n1_batch_reduces_exactly_to_sequential() {
        for lambda in [1, 5, 20] {
            for b in [101, 500, 10_000] {
                let i = inputs(lambda, b);
                let batch = [i];
                assert_eq!(
                    hhs_batch(&batch).unwrap(),
                    hhnl::sequential(&i).unwrap(),
                    "hhs λ={lambda} B={b}"
                );
                assert_eq!(
                    hvs_batch(&batch),
                    hvnl::sequential(&i),
                    "hvs λ={lambda} B={b}"
                );
                assert_eq!(
                    vvs_batch(&batch).unwrap(),
                    vvm::sequential(&i).unwrap(),
                    "vvs λ={lambda} B={b}"
                );
            }
        }
    }

    #[test]
    fn batch_never_exceeds_sum_of_sequentials() {
        let specs: Vec<JoinInputs> = [1usize, 5, 5, 20].iter().map(|&l| inputs(l, 200)).collect();
        let hh_sum: f64 = specs.iter().map(|i| hhnl::sequential(i).unwrap()).sum();
        let hv_sum: f64 = specs.iter().map(hvnl::sequential).sum();
        let vv_sum: f64 = specs.iter().map(|i| vvm::sequential(i).unwrap()).sum();
        assert!(hhs_batch(&specs).unwrap() <= hh_sum);
        assert!(hvs_batch(&specs) <= hv_sum);
        assert!(vvs_batch(&specs).unwrap() <= vv_sum);
        // The dictionary is genuinely shared: the batch saves (N−1)·Bt1.
        let bt1 = specs[0].bt1();
        assert!((hv_sum - hvs_batch(&specs) - 3.0 * bt1).abs() < 1e-9);
    }

    #[test]
    fn pooled_passes_take_one_ceiling() {
        // Each query alone needs ⌈0.6⌉ = 1 pass… but four queries pool to
        // ⌈2.4⌉ = 3 inner scans, not 4.
        let i = inputs(20, 10_000);
        let frac = i.n2() / hhnl::batch_size(&i).unwrap();
        if frac < 1.0 && frac > 0.25 {
            let batch = vec![i; 4];
            let pooled = hhs_batch_passes(&batch).unwrap();
            assert!(pooled < 4.0, "pooled = {pooled}");
            assert_eq!(pooled, (4.0 * frac).ceil().max(1.0));
        }
        // Regardless of the exact fraction the pooled count never exceeds
        // the sum of per-query ceilings.
        let batch = vec![i; 4];
        let per_query = 4.0 * hhnl::num_passes(&i).unwrap();
        assert!(hhs_batch_passes(&batch).unwrap() <= per_query);
    }

    #[test]
    fn vvm_batch_scans_scale_with_pooled_accumulators() {
        // Shrink memory until one query's similarities almost fill M; four
        // queries then need ~4× the passes, but still one scan set each.
        let i = inputs(5, 150);
        let single = vvm::num_passes(&i).unwrap();
        let batch = vec![i; 4];
        let pooled = vvs_batch_passes(&batch).unwrap();
        assert!(pooled >= single);
        assert!(pooled <= 4.0 * single);
        let scan = i.i1() + i.i2_storage();
        assert_eq!(vvs_batch(&batch).unwrap(), scan * pooled);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        assert_eq!(hhs_batch(&[]).unwrap(), 0.0);
        assert_eq!(hvs_batch(&[]), 0.0);
        assert_eq!(vvs_batch(&[]).unwrap(), 0.0);
        assert_eq!(hhr_batch(&[]).unwrap(), 0.0);
        assert_eq!(vvr_batch(&[]).unwrap(), 0.0);
    }

    #[test]
    fn worst_case_batch_reduces_to_sequential_and_bounds_the_sum() {
        let i = inputs(5, 200);
        assert_eq!(
            hhr_batch(&[i]).unwrap(),
            hhnl::worst_case_random(&i).unwrap()
        );
        assert_eq!(
            vvr_batch(&[i]).unwrap(),
            vvm::worst_case_random(&i).unwrap()
        );
        let batch = vec![i; 4];
        let hh_sum = 4.0 * hhnl::worst_case_random(&i).unwrap();
        let vv_sum = 4.0 * vvm::worst_case_random(&i).unwrap();
        assert!(hhr_batch(&batch).unwrap() <= hh_sum);
        assert!(vvr_batch(&batch).unwrap() <= vv_sum);
    }

    #[test]
    fn batch_estimates_pick_a_finite_best() {
        let specs: Vec<JoinInputs> = [1usize, 5, 20].iter().map(|&l| inputs(l, 200)).collect();
        let est = CostEstimates::compute_batch(&specs);
        for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
            let (alg, cost) = est.best(scenario);
            assert!(cost.is_finite());
            assert_eq!(cost, est.cost(alg, scenario));
        }
        // Each per-algorithm estimate matches the standalone function.
        assert_eq!(est.hhnl_seq, hhs_batch(&specs).unwrap());
        assert_eq!(est.hvnl_rand, hvr_batch(&specs));
        assert_eq!(est.vvm_seq, vvs_batch(&specs).unwrap());
    }

    #[test]
    fn mixed_lambdas_pool_fractional_passes() {
        let specs: Vec<JoinInputs> = [1usize, 20].iter().map(|&l| inputs(l, 101)).collect();
        let frac: f64 = specs
            .iter()
            .map(|i| i.n2() / hhnl::batch_size(i).unwrap())
            .sum();
        assert_eq!(hhs_batch_passes(&specs).unwrap(), frac.ceil().max(1.0));
    }
}
