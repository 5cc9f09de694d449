//! HHNL cost model (section 5.1).
//!
//! With `C2` as the outer collection and the policy of giving the outer
//! collection as much memory as possible, `X` outer documents are held in
//! memory per pass and the inner collection is scanned once per pass:
//!
//! ```text
//! X   = (B − ⌈S1⌉) / (S2 + 4λ/P)
//! hhs = D2 + ⌈N2 / X⌉ · D1                                  (HHS1)
//! ```
//!
//! When the drive serves other jobs between requests, extra seeks appear.
//! For `N2 ≥ X` the worst case turns every inner-document read and every
//! outer batch into a seek; for `N2 < X` the whole outer collection stays
//! resident and the leftover memory reads `C1` in large blocks:
//!
//! ```text
//! N2 ≥ X:  hhr = hhs + ⌈N2/X⌉ · (1 + min{D1, N1}) · (α − 1)
//! N2 < X:  hhr = hhs + ⌈D1 / ((X − N2) · S2)⌉ · (α − 1)
//! ```

use crate::forward;
use crate::inputs::JoinInputs;
use std::slice::from_ref;
use textjoin_common::{Error, Result};

/// `X` — the number of outer documents held in memory per pass. Fails when
/// the buffer cannot hold one inner document plus one outer document with
/// its `λ` similarity slots.
pub fn batch_size(inputs: &JoinInputs) -> Result<f64> {
    forward::batch_size(forward::documents, inputs)
}

/// Number of passes over the inner collection: `⌈N2 / X⌉`. Tombstoned
/// outer documents are skipped before batching, so only live documents
/// count toward the batches.
pub fn num_passes(inputs: &JoinInputs) -> Result<f64> {
    forward::passes(forward::documents, from_ref(inputs))
}

/// `hhs` — all-sequential cost (formula HHS1). For a selected outer subset
/// (group 3) the `D2` term becomes `N2·⌈S2⌉·α` random fetches. A
/// fragmented collection pays for its delta document side file on every
/// scan (`D1 + ΔD1` per pass; `ΔD2` inside the outer read cost).
pub fn sequential(inputs: &JoinInputs) -> Result<f64> {
    forward::sequential(forward::documents, from_ref(inputs))
}

/// The *backward order* of section 4.1: the inner collection `C1` gets the
/// memory and is batched while `C2` is scanned once per batch. Because no
/// partial result can be emitted until a `C2` document has met *all* of
/// `C1`, the λ-best heaps of **every** outer document stay resident for the
/// whole join — memory proportional to `N2·λ` — which is why the paper
/// calls the forward order "more natural". The batch size becomes
///
/// ```text
/// X_b = (B − ⌈S2⌉ − N2·8λ/P) / S1
/// hhs_b = D1 + ⌈N1 / X_b⌉ · D2
/// ```
///
/// (8 bytes per heap slot: a 4-byte similarity plus a 4-byte document
/// number.) The paper relegates this order to \[11\]; it can win when `C1`
/// is much smaller than `C2`.
pub fn backward_batch_size(inputs: &JoinInputs) -> Result<f64> {
    let p = inputs.sys.page_size as f64;
    let heap_pages = inputs.n2() * (8.0 * inputs.query.lambda as f64) / p;
    let x = (inputs.b() - inputs.s2().ceil() - heap_pages) / inputs.s1().max(f64::MIN_POSITIVE);
    if x < 1.0 {
        return Err(Error::InsufficientMemory {
            context: "backward HHNL inner batch (X < 1)".into(),
            required_pages: (inputs.s2().ceil() + heap_pages + inputs.s1()).ceil() as u64,
            available_pages: inputs.sys.buffer_pages,
        });
    }
    Ok(x)
}

/// `hhs_b` — all-sequential cost of the backward order.
pub fn backward_sequential(inputs: &JoinInputs) -> Result<f64> {
    let x = backward_batch_size(inputs)?;
    let passes = (inputs.n1_live() / x).ceil().max(1.0);
    Ok(inputs.d1_frag() + passes * inputs.outer_read_cost())
}

/// `hhr` — worst-case cost when the I/O device is shared.
pub fn worst_case_random(inputs: &JoinInputs) -> Result<f64> {
    forward::worst_case_random(forward::documents, from_ref(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};

    fn inputs(inner: CollectionStats, outer: CollectionStats, buffer_pages: u64) -> JoinInputs {
        JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base().with_buffer_pages(buffer_pages),
            QueryParams::paper_base(),
        )
    }

    /// A hand-checkable configuration: S1 = S2 = 0.5 pages (K = 409.6),
    /// λ = 20 → 80 bytes of similarity slots per outer doc.
    fn simple() -> JoinInputs {
        inputs(
            CollectionStats::new(1000, 409.6, 10_000),
            CollectionStats::new(2000, 409.6, 10_000),
            101,
        )
    }

    #[test]
    fn batch_size_matches_hand_computation() {
        let i = simple();
        // X = (101 - ceil(0.5)) / (0.5 + 80/4096) = 100 / 0.51953125
        let expect = 100.0 / (0.5 + 80.0 / 4096.0);
        assert!((batch_size(&i).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn sequential_cost_matches_hhs1() {
        let i = simple();
        let x = batch_size(&i).unwrap();
        let passes = (2000.0 / x).ceil();
        let expect = 1000.0 + passes * 500.0; // D2 = 1000, D1 = 500
        assert!((sequential(&i).unwrap() - expect).abs() < 1e-9);
        assert_eq!(passes, num_passes(&i).unwrap());
    }

    #[test]
    fn more_memory_means_fewer_passes_and_lower_cost() {
        let small = simple();
        let big = JoinInputs {
            sys: small.sys.with_buffer_pages(1_000),
            ..small
        };
        assert!(sequential(&big).unwrap() < sequential(&small).unwrap());
        assert!(num_passes(&big).unwrap() < num_passes(&small).unwrap());
    }

    #[test]
    fn worst_case_exceeds_sequential_and_grows_with_alpha() {
        let i = simple();
        let hhs = sequential(&i).unwrap();
        let hhr = worst_case_random(&i).unwrap();
        assert!(hhr > hhs);
        let steeper = JoinInputs {
            sys: i.sys.with_alpha(10.0),
            ..i
        };
        assert!(worst_case_random(&steeper).unwrap() > hhr);
        // α = 1 removes the penalty entirely.
        let flat = JoinInputs {
            sys: i.sys.with_alpha(1.0),
            ..i
        };
        assert!((worst_case_random(&flat).unwrap() - hhs).abs() < 1e-9);
    }

    #[test]
    fn random_penalty_uses_min_of_d1_n1() {
        // Small documents (S1 < 1): random I/Os per inner scan are D1, not N1.
        let i = inputs(
            CollectionStats::new(10_000, 40.0, 10_000), // S1 ≈ 0.049, D1 ≈ 488
            CollectionStats::new(5000, 409.6, 10_000),
            101,
        );
        let hhs = sequential(&i).unwrap();
        let hhr = worst_case_random(&i).unwrap();
        let passes = num_passes(&i).unwrap();
        let expect = hhs + passes * (1.0 + i.d1()) * (i.alpha() - 1.0);
        assert!((hhr - expect).abs() < 1e-6);
        assert!(i.d1() < i.n1());
    }

    #[test]
    fn outer_fits_in_memory_uses_block_reads() {
        // N2 = 50 tiny outer docs, plenty of memory.
        let i = inputs(
            CollectionStats::new(4000, 409.6, 10_000),
            CollectionStats::new(50, 409.6, 10_000),
            1_000,
        );
        let x = batch_size(&i).unwrap();
        assert!(i.n2() < x);
        let hhs = sequential(&i).unwrap();
        assert!((hhs - (i.d2() + i.d1())).abs() < 1e-9, "single pass");
        let leftover = (x - 50.0) * i.s2();
        let expect = hhs + (i.d1() / leftover).ceil() * (i.alpha() - 1.0);
        assert!((worst_case_random(&i).unwrap() - expect).abs() < 1e-6);
    }

    #[test]
    fn insufficient_memory_is_an_error() {
        // One FR document is ~1.27 pages; B = 2 cannot hold inner + outer.
        let i = inputs(CollectionStats::fr(), CollectionStats::fr(), 2);
        assert!(batch_size(&i).is_err());
        assert!(sequential(&i).is_err());
        assert!(worst_case_random(&i).is_err());
    }

    #[test]
    fn fragmentation_charges_delta_pages_per_pass() {
        use textjoin_common::FragStats;
        let pristine = simple();
        let frag = JoinInputs {
            inner_frag: FragStats {
                doc_delta_pages: 50,
                ..FragStats::default()
            },
            ..pristine
        };
        let passes = num_passes(&frag).unwrap();
        assert_eq!(passes, num_passes(&pristine).unwrap());
        let expect = sequential(&pristine).unwrap() + passes * 50.0;
        assert!((sequential(&frag).unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_wsj_self_join_is_many_passes() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let passes = num_passes(&i).unwrap();
        // X ≈ (10000 - 1) / (0.4016 + 80/4096) ≈ 23 740 → 5 passes of 98 736.
        assert!((4.0..=6.0).contains(&passes), "passes = {passes}");
        let hhs = sequential(&i).unwrap();
        assert!(hhs > i.d2() + i.d1());
    }

    #[test]
    fn pooled_passes_take_one_ceiling() {
        // Each query alone needs ⌈0.6⌉ = 1 pass… but four queries pool to
        // ⌈2.4⌉ = 3 inner scans, not 4.
        let i = JoinInputs {
            query: simple().query.with_lambda(20),
            sys: simple().sys.with_buffer_pages(10_000),
            ..simple()
        };
        let batch = vec![i; 4];
        let pooled = forward::passes(forward::documents, &batch).unwrap();
        let frac = i.n2() / batch_size(&i).unwrap();
        if frac < 1.0 && frac > 0.25 {
            assert!(pooled < 4.0, "pooled = {pooled}");
            assert_eq!(pooled, (4.0 * frac).ceil().max(1.0));
        }
        // Regardless of the exact fraction the pooled count never exceeds
        // the sum of per-query ceilings.
        assert!(pooled <= 4.0 * num_passes(&i).unwrap());
        // Mixed λ pool their fractional passes too.
        let mixed = [1, 20].map(|lambda| JoinInputs {
            query: simple().query.with_lambda(lambda),
            ..simple()
        });
        let frac: f64 = mixed.iter().map(|i| i.n2() / batch_size(i).unwrap()).sum();
        let pooled = forward::passes(forward::documents, &mixed).unwrap();
        assert_eq!(pooled, frac.ceil().max(1.0));
    }

    #[test]
    fn batch_never_exceeds_sum_of_singles() {
        let batch = [1, 5, 5, 20].map(|lambda| JoinInputs {
            query: simple().query.with_lambda(lambda),
            sys: simple().sys.with_buffer_pages(200),
            ..simple()
        });
        let hhs: f64 = batch.iter().map(|i| sequential(i).unwrap()).sum();
        let hhr: f64 = batch.iter().map(|i| worst_case_random(i).unwrap()).sum();
        assert!(forward::sequential(forward::documents, &batch).unwrap() <= hhs);
        assert!(forward::worst_case_random(forward::documents, &batch).unwrap() <= hhr);
    }
}
