//! Property tests over the cost models: structural invariants that must
//! hold for *any* plausible input, not just the paper's configurations.

#![cfg(test)]

use crate::{hhnl, hvnl, vvm, CostEstimates, IoScenario, JoinInputs};
use proptest::prelude::*;
use textjoin_common::{CollectionStats, FnlStats, FragStats, QueryParams, SystemParams};

fn arb_stats() -> impl Strategy<Value = CollectionStats> {
    (1u64..500_000, 2.0f64..2_000.0, 100u64..1_000_000)
        .prop_map(|(n, k, t)| CollectionStats::new(n, k, t))
}

pub(crate) fn arb_inputs() -> impl Strategy<Value = JoinInputs> {
    (
        arb_stats(),
        arb_stats(),
        100u64..200_000,
        1.0f64..20.0,
        1usize..100,
        0.01f64..1.0,
    )
        .prop_map(|(inner, outer, b, alpha, lambda, delta)| {
            JoinInputs::with_paper_q(
                inner,
                outer,
                SystemParams {
                    buffer_pages: b,
                    page_size: 4096,
                    alpha,
                },
                QueryParams { lambda, delta },
            )
        })
}

/// [`arb_inputs`] with the structures only some joins have: a signature
/// index on the inner side, a selected outer subset, delta side files and
/// tombstones — so every estimate, FNL's included, has a finite case.
fn arb_batch_member() -> impl Strategy<Value = JoinInputs> {
    (
        arb_inputs(),
        (0u64..2, 1u64..50, 1u64..100_000, 1u64..2_000_000),
        (0u64..2, 1u64..10),
        (0u64..200, 0u64..200, 0.0f64..0.9),
    )
        .prop_map(|(i, (fnl, meta, index, bytes), (select, grow), frag)| {
            let i = match fnl {
                0 => i,
                _ => i.with_fnl(FnlStats {
                    meta_pages: meta,
                    index_pages: index,
                    meta_bytes: bytes,
                }),
            };
            let i = match select {
                0 => i,
                _ => i.with_selected_outer(CollectionStats::new(
                    i.outer.num_docs * grow,
                    i.outer.avg_terms_per_doc,
                    i.outer.distinct_terms * grow,
                )),
            };
            let (doc_delta_pages, inv_delta_pages, tombstone_ratio) = frag;
            let frag = FragStats {
                doc_delta_pages,
                inv_delta_pages,
                tombstone_ratio,
            };
            i.with_frag(frag)
        })
}

/// The cost model before each loop's formula was written once: the
/// single-query formulas of `hvnl` and `vvm`, their batch forms beside
/// them, and the `[one]` branch that chose between the two. HHNL and FNL
/// were already one formula (`forward`, unchanged), so they enter as is.
mod parent {
    use crate::forward::{self, documents, signatures};
    use crate::{hvnl, vvm, CostEstimates, JoinInputs};
    use textjoin_common::{Error, Result};

    fn hvs(inputs: &JoinInputs) -> f64 {
        hvnl::hvs_one(inputs)
    }

    fn hvr(inputs: &JoinInputs) -> f64 {
        if inputs.outer_is_random() {
            return hvs(inputs);
        }
        let x = hvnl::cache_capacity(inputs);
        let d2 = inputs.d2();
        let bt1 = inputs.bt1();
        let jc = inputs.j1().ceil();
        let alpha = inputs.alpha();
        let extra = alpha - 1.0;
        let needed = hvnl::entries_needed(inputs);
        let j1 = inputs.j1().max(f64::MIN_POSITIVE);
        let delta_rand = inputs.inner_frag.inv_delta_pages as f64 * inputs.alpha();
        let delta_seq = inputs.inner_frag.inv_delta_pages as f64;
        let outer_seeks = |leftover_entries: f64| -> f64 {
            let room = leftover_entries * j1;
            if room >= 1.0 {
                (d2 / room).ceil()
            } else {
                d2.min(inputs.n2())
            }
        };
        if x >= inputs.t1() {
            let scan_all =
                d2 + inputs.i1() + bt1 + delta_seq + outer_seeks(x - inputs.t1()) * extra;
            let fetch_needed =
                d2 + needed * jc * alpha + bt1 + delta_rand + outer_seeks(x - needed) * extra;
            scan_all.min(fetch_needed)
        } else if x >= needed {
            hvs(inputs) + outer_seeks(x - needed) * extra
        } else {
            hvs(inputs) + d2.min(inputs.n2()) * extra
        }
    }

    fn num_passes(inputs: &JoinInputs) -> Result<f64> {
        let m = vvm::similarity_budget(inputs);
        if m <= 0.0 {
            return Err(Error::InvalidArgument("M ≤ 0".into()));
        }
        Ok((vvm::similarity_pages(inputs) / m).ceil().max(1.0))
    }

    fn vvs(inputs: &JoinInputs) -> Result<f64> {
        Ok((inputs.i1_frag() + inputs.i2_storage()) * num_passes(inputs)?)
    }

    fn vvr(inputs: &JoinInputs) -> Result<f64> {
        let runs = inputs.i1_frag().min(inputs.t1()) + inputs.i2_storage().min(inputs.t2_storage());
        Ok(runs * inputs.alpha() * num_passes(inputs)?)
    }

    fn shared_dictionary(own: fn(&JoinInputs) -> f64, inputs: &[JoinInputs]) -> f64 {
        let bt1 = inputs[0].bt1();
        inputs.iter().map(|i| own(i) - bt1).sum::<f64>() + bt1
    }

    fn vvs_batch_passes(inputs: &[JoinInputs]) -> Result<f64> {
        num_passes(&inputs[0])?;
        let m = vvm::similarity_budget(&inputs[0]);
        let sm: f64 = inputs.iter().map(vvm::similarity_pages).sum();
        Ok((sm / m).ceil().max(1.0))
    }

    fn vvs_batch(inputs: &[JoinInputs]) -> Result<f64> {
        let first = &inputs[0];
        Ok((first.i1_frag() + first.i2_storage()) * vvs_batch_passes(inputs)?)
    }

    fn vvr_batch(inputs: &[JoinInputs]) -> Result<f64> {
        let mut penalty = 0.0;
        for i in inputs {
            penalty += vvr(i)? - vvs(i)?;
        }
        Ok(vvs_batch(inputs)? + penalty)
    }

    /// `CostEstimates::compute_batch` as it was, for a non-empty batch.
    pub(super) fn compute_batch(inputs: &[JoinInputs]) -> CostEstimates {
        let inf = |c: Result<f64>| c.unwrap_or(f64::INFINITY);
        let (hvnl_seq, hvnl_rand, vvm_seq, vvm_rand) = match inputs {
            [one] => (hvs(one), hvr(one), inf(vvs(one)), inf(vvr(one))),
            _ => (
                shared_dictionary(hvs, inputs),
                shared_dictionary(hvr, inputs),
                inf(vvs_batch(inputs)),
                inf(vvr_batch(inputs)),
            ),
        };
        CostEstimates {
            hhnl_seq: inf(forward::sequential(documents, inputs)),
            hhnl_rand: inf(forward::worst_case_random(documents, inputs)),
            hvnl_seq,
            hvnl_rand,
            vvm_seq,
            vvm_rand,
            fnl_seq: inf(forward::sequential(signatures, inputs)),
            fnl_rand: inf(forward::worst_case_random(signatures, inputs)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every estimate, written once over the batch, is the formula it
    /// replaced: bit for bit for a single query, within 1e-12 relative for
    /// a batch, and infeasible (∞) in exactly the same cases.
    #[test]
    fn each_estimate_is_the_parent_formula(
        batch in prop::collection::vec(arb_batch_member(), 1..=5),
    ) {
        let new = CostEstimates::compute_batch(&batch);
        let old = parent::compute_batch(&batch);
        for algorithm in crate::Algorithm::ALL {
            for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
                let (n, o) = (new.cost(algorithm, scenario), old.cost(algorithm, scenario));
                let what = format!("{algorithm} {scenario:?} N={}: {n} vs {o}", batch.len());
                prop_assert_eq!(n.is_infinite(), o.is_infinite(), "{}", what);
                if batch.len() == 1 {
                    prop_assert_eq!(n.to_bits(), o.to_bits(), "{}", what);
                } else if o.is_finite() {
                    prop_assert!((n - o).abs() <= 1e-12 * o.abs().max(n.abs()), "{}", what);
                }
            }
        }
    }

    /// Every estimate is positive (or an explicit error), never NaN.
    #[test]
    fn estimates_are_positive_and_finite_or_error(inputs in arb_inputs()) {
        if let Ok(c) = hhnl::sequential(&inputs) {
            prop_assert!(c > 0.0 && c.is_finite());
        }
        let c = hvnl::sequential(&inputs);
        prop_assert!(c > 0.0 && c.is_finite());
        if let Ok(c) = vvm::sequential(&inputs) {
            prop_assert!(c > 0.0 && c.is_finite());
        }
        let est = CostEstimates::compute(&inputs);
        prop_assert!(!est.hhnl_seq.is_nan() && !est.hvnl_rand.is_nan() && !est.vvm_rand.is_nan());
    }

    /// Worst-case estimates dominate their sequential counterparts.
    #[test]
    fn worst_case_dominates_sequential(inputs in arb_inputs()) {
        if let (Ok(s), Ok(r)) = (hhnl::sequential(&inputs), hhnl::worst_case_random(&inputs)) {
            prop_assert!(r >= s - 1e-6, "hhr {r} < hhs {s}");
        }
        prop_assert!(
            hvnl::worst_case_random(&inputs) >= hvnl::sequential(&inputs) - 1e-6
        );
        // vvr uses the paper's run-start accounting, which is NOT
        // guaranteed to dominate vvs when entries span multiple pages (the
        // formula counts min{I,T} runs) — so no assertion for VVM here;
        // see EXPERIMENTS.md "known deviations".
    }

    /// More memory never increases a sequential estimate.
    #[test]
    fn sequential_costs_are_monotone_in_memory(
        inner in arb_stats(),
        outer in arb_stats(),
        b in 200u64..100_000,
        factor in 2u64..10,
    ) {
        let small = JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base().with_buffer_pages(b),
            QueryParams::paper_base(),
        );
        let large = JoinInputs { sys: small.sys.with_buffer_pages(b * factor), ..small };
        if let (Ok(cs), Ok(cl)) = (hhnl::sequential(&small), hhnl::sequential(&large)) {
            prop_assert!(cl <= cs + 1e-6, "hhs grew with B: {cs} -> {cl}");
        }
        prop_assert!(
            hvnl::sequential(&large) <= hvnl::sequential(&small) + 1e-6,
            "hvs grew with B"
        );
        if let (Ok(cs), Ok(cl)) = (vvm::sequential(&small), vvm::sequential(&large)) {
            prop_assert!(cl <= cs + 1e-6, "vvs grew with B: {cs} -> {cl}");
        }
    }

    /// α only ever scales costs up, and never affects the purely
    /// sequential parts of HHNL.
    #[test]
    fn alpha_scales_costs_up(
        inner in arb_stats(),
        outer in arb_stats(),
        alpha in 1.0f64..10.0,
    ) {
        let base = JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        );
        let low = JoinInputs { sys: base.sys.with_alpha(alpha), ..base };
        let high = JoinInputs { sys: base.sys.with_alpha(alpha * 2.0), ..base };
        if let (Ok(a), Ok(b)) = (hhnl::sequential(&low), hhnl::sequential(&high)) {
            prop_assert!((a - b).abs() < 1e-6, "hhs must ignore α");
        }
        prop_assert!(hvnl::sequential(&high) >= hvnl::sequential(&low) - 1e-6);
        if let (Ok(a), Ok(b)) =
            (vvm::worst_case_random(&low), vvm::worst_case_random(&high))
        {
            prop_assert!(b >= a - 1e-6);
        }
    }

    /// The integrated choice always carries the minimum of the three costs.
    #[test]
    fn best_is_really_the_minimum(inputs in arb_inputs()) {
        let est = CostEstimates::compute(&inputs);
        for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
            let (_, best_cost) = est.best(scenario);
            for alg in crate::Algorithm::ALL {
                prop_assert!(best_cost <= est.cost(alg, scenario) + 1e-9);
            }
        }
    }

    /// A selected outer subset can only make VVM look worse than the same
    /// statistics as an originally small collection (the inverted file
    /// does not shrink).
    #[test]
    fn selection_penalizes_vvm(
        base in arb_stats(),
        m in 1u64..1000,
    ) {
        let selected_stats = base.select_docs(m);
        let as_small = JoinInputs::with_paper_q(
            base,
            selected_stats,
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        );
        let as_selected = as_small.with_selected_outer(base);
        if let (Ok(small), Ok(sel)) =
            (vvm::sequential(&as_small), vvm::sequential(&as_selected))
        {
            prop_assert!(sel >= small - 1e-6, "selection made VVM cheaper: {sel} < {small}");
        }
    }
}
