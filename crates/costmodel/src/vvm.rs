//! VVM cost model (section 5.3).
//!
//! VVM merges the two inverted files with one sequential scan each, but
//! must hold the intermediate similarity of every non-zero document pair:
//!
//! ```text
//! SM  = 4·δ·N1·N2 / P            pages of intermediate similarities
//! M   = B − ⌈J1⌉ − ⌈J2⌉          memory left after the two current entries
//! vvs = (I1 + I2) · ⌈SM / M⌉
//! vvr = (min{I1, T1} + min{I2, T2}) · α · ⌈SM / M⌉
//! ```
//!
//! When `SM > M`, the outer collection is split into `⌈SM/M⌉`
//! subcollections and both inverted files are rescanned once per
//! subcollection (section 4.3's extension).

use crate::inputs::JoinInputs;
use std::slice::from_ref;
use textjoin_common::{Error, Result, SIM_VALUE_BYTES};

/// `SM` — pages needed for all intermediate similarities at once. Only
/// live (non-tombstoned) documents get accumulators, so the pair count
/// shrinks with fragmentation even though the scans grow.
pub fn similarity_pages(inputs: &JoinInputs) -> f64 {
    SIM_VALUE_BYTES as f64 * inputs.delta() * inputs.n1_live() * inputs.n2()
        / inputs.sys.page_size as f64
}

/// `M` — pages available for similarities after buffering one entry from
/// each inverted file.
pub fn similarity_budget(inputs: &JoinInputs) -> f64 {
    inputs.b() - inputs.j1().ceil() - inputs.j2_storage().ceil()
}

/// `⌈SM / M⌉` — number of merge passes. Fails when even one entry pair
/// leaves no room for similarities.
pub fn num_passes(inputs: &JoinInputs) -> Result<f64> {
    passes(inputs, &[])
}

/// `vvs` — all-sequential cost. Each pass scans both base inverted files
/// *and* their flushed delta side files, so fragmentation inflates every
/// pass.
pub fn sequential(inputs: &JoinInputs) -> Result<f64> {
    vvs(from_ref(inputs))
}

/// `vvr` — worst-case cost when every entry read incurs a seek. An entry
/// smaller than a page still costs a full page, hence `min{I, T}` run
/// starts per file.
pub fn worst_case_random(inputs: &JoinInputs) -> Result<f64> {
    vvr(from_ref(inputs))
}

/// `⌈Σᵢ SMᵢ / M⌉` — merge passes when the `others`' accumulators share
/// `first`'s similarity budget `M`.
pub(crate) fn passes(first: &JoinInputs, others: &[JoinInputs]) -> Result<f64> {
    let m = similarity_budget(first);
    if m <= 0.0 {
        return Err(Error::InsufficientMemory {
            context: "VVM similarity space (M ≤ 0)".into(),
            required_pages: (first.j1().ceil() + first.j2_storage().ceil() + 1.0) as u64,
            available_pages: first.sys.buffer_pages,
        });
    }
    let sm = (others.iter()).fold(similarity_pages(first), |sm, i| sm + similarity_pages(i));
    Ok((sm / m).ceil().max(1.0))
}

/// `vvs` over a non-empty batch: both files scanned once per pooled pass.
pub(crate) fn vvs(inputs: &[JoinInputs]) -> Result<f64> {
    let (first, rest) = (&inputs[0], &inputs[1..]);
    Ok((first.i1_frag() + first.i2_storage()) * passes(first, rest)?)
}

/// `vvr` over a non-empty batch: the first query's own, then per other query
/// the merge scans it adds to the pool and its own penalty `vvrᵢ − vvsᵢ`.
pub(crate) fn vvr(inputs: &[JoinInputs]) -> Result<f64> {
    let first = &inputs[0];
    let runs = first.i1_frag().min(first.t1()) + first.i2_storage().min(first.t2_storage());
    let mut cost = runs * first.alpha() * num_passes(first)?;
    for (k, i) in inputs.iter().enumerate().skip(1) {
        let pooled = vvs(&inputs[..=k])? - vvs(&inputs[..k])?;
        cost += pooled + (worst_case_random(i)? - sequential(i)?);
    }
    Ok(cost)
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

    #[test]
    fn similarity_pages_match_definition() {
        let i = inputs(
            CollectionStats::new(1000, 100.0, 5000),
            CollectionStats::new(2000, 100.0, 5000),
            10_000,
        );
        let expect = 4.0 * 0.1 * 1000.0 * 2000.0 / 4096.0;
        assert!((similarity_pages(&i) - expect).abs() < 1e-9);
    }

    #[test]
    fn single_pass_when_similarities_fit() {
        // 100×100 pairs: SM ≈ 0.98 pages.
        let i = inputs(
            CollectionStats::new(100, 500.0, 2000),
            CollectionStats::new(100, 500.0, 2000),
            10_000,
        );
        assert_eq!(num_passes(&i).unwrap(), 1.0);
        assert!((sequential(&i).unwrap() - (i.i1() + i.i2())).abs() < 1e-9);
    }

    #[test]
    fn passes_scale_with_pair_count() {
        // WSJ × WSJ: SM = 4·0.1·98736²/4096 ≈ 952 000 pages ≫ B.
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let passes = num_passes(&i).unwrap();
        let sm = similarity_pages(&i);
        let m = similarity_budget(&i);
        assert!((passes - (sm / m).ceil()).abs() < 1e-9);
        assert!(passes > 90.0, "WSJ self-join needs many passes: {passes}");
    }

    #[test]
    fn group5_derivation_restores_single_pass() {
        // Shrinking N by 64 while keeping size constant divides SM by 64².
        let base = CollectionStats::fr();
        let derived = base.derive_scaled(64);
        let i = inputs(derived, derived, 10_000);
        assert_eq!(num_passes(&i).unwrap(), 1.0);
        // And the scan cost itself is unchanged by the derivation.
        let full = inputs(base, base, 10_000);
        assert!(
            (sequential(&i).unwrap() - (full.i1() + full.i2())).abs() / (full.i1() + full.i2())
                < 0.02
        );
    }

    #[test]
    fn worst_case_uses_min_of_pages_and_terms() {
        // DOE entries are small (J ≈ 0.135): run count is bounded by I, not T.
        let i = inputs(CollectionStats::doe(), CollectionStats::doe(), 10_000);
        assert!(i.i1() < i.t1());
        let expect = 2.0 * i.i1() * i.alpha() * num_passes(&i).unwrap();
        assert!((worst_case_random(&i).unwrap() - expect).abs() < 1e-6);
    }

    #[test]
    fn no_room_for_entries_is_an_error() {
        // FR-derived entries of many pages with a 2-page buffer.
        let big_entries = CollectionStats::new(100, 100_000.0, 10);
        let i = inputs(big_entries, big_entries, 2);
        assert!(num_passes(&i).is_err());
    }

    #[test]
    fn more_memory_means_fewer_passes() {
        let small = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 5_000);
        let large = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 80_000);
        assert!(num_passes(&large).unwrap() < num_passes(&small).unwrap());
        assert!(sequential(&large).unwrap() < sequential(&small).unwrap());
    }

    #[test]
    fn fragmentation_inflates_each_pass_and_tombstones_shrink_pairs() {
        use textjoin_common::FragStats;
        let pristine = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let frag = JoinInputs {
            inner_frag: FragStats {
                inv_delta_pages: 25,
                ..FragStats::default()
            },
            ..pristine
        };
        let passes = num_passes(&frag).unwrap();
        assert_eq!(passes, num_passes(&pristine).unwrap());
        let expect = sequential(&pristine).unwrap() + passes * 25.0;
        assert!((sequential(&frag).unwrap() - expect).abs() < 1e-6);
        // Tombstones shrink the live pair count, hence SM and the passes.
        let tomb = JoinInputs {
            inner_frag: FragStats {
                tombstone_ratio: 0.5,
                ..FragStats::default()
            },
            ..pristine
        };
        assert!(similarity_pages(&tomb) < similarity_pages(&pristine));
        assert!(num_passes(&tomb).unwrap() <= num_passes(&pristine).unwrap());
    }

    #[test]
    fn vvm_beats_hhnl_when_docs_are_few_but_large() {
        // Finding 3: both collections large, neither fits in memory, but
        // few documents → VVM's one-scan property wins.
        let derived = CollectionStats::fr().derive_scaled(64); // 409 docs, 65k terms each
        let i = inputs(derived, derived, 10_000);
        let vvm = sequential(&i).unwrap();
        let hhnl = crate::hhnl::sequential(&i).unwrap();
        assert!(vvm < hhnl, "vvm = {vvm}, hhnl = {hhnl}");
    }

    #[test]
    fn a_selected_outer_reports_the_stored_entry_size_it_needs() {
        // The stored outer entries (J2 ≈ 24.4 pages) do not fit in B = 20,
        // although the selected ones would: the error names the stored size.
        let stored = CollectionStats::new(40_000, 500.0, 1000);
        let i = inputs(
            CollectionStats::new(100, 10.0, 1000),
            stored.select_docs(10),
            20,
        )
        .with_selected_outer(stored);
        assert!(i.j2().ceil() < 20.0 && i.j2_storage() > 20.0);
        let expect = (i.j1().ceil() + i.j2_storage().ceil() + 1.0) as u64;
        assert_eq!(expect, 27);
        match num_passes(&i) {
            Err(Error::InsufficientMemory {
                required_pages,
                available_pages: 20,
                ..
            }) => assert_eq!(required_pages, expect),
            other => panic!("expected InsufficientMemory, got {other:?}"),
        }
    }

    /// The batch helper configuration: 1000 × 2000 half-page documents.
    fn half_pages(lambda: usize, buffer_pages: u64) -> JoinInputs {
        JoinInputs {
            query: QueryParams::paper_base().with_lambda(lambda),
            ..inputs(
                CollectionStats::new(1000, 409.6, 10_000),
                CollectionStats::new(2000, 409.6, 10_000),
                buffer_pages,
            )
        }
    }

    #[test]
    fn batch_never_exceeds_sum_of_singles() {
        let batch = [1, 5, 5, 20].map(|lambda| half_pages(lambda, 200));
        let vvs_sum: f64 = batch.iter().map(|i| sequential(i).unwrap()).sum();
        let vvr_sum: f64 = batch.iter().map(|i| worst_case_random(i).unwrap()).sum();
        assert!(vvs(&batch).unwrap() <= vvs_sum);
        assert!(vvr(&batch).unwrap() <= vvr_sum);
    }

    #[test]
    fn batch_passes_scale_with_pooled_accumulators() {
        // Shrink memory until one query's similarities almost fill M; four
        // queries then need ~4× the passes, but still one scan set each.
        let i = half_pages(5, 150);
        let single = num_passes(&i).unwrap();
        let batch = vec![i; 4];
        let pooled = passes(&i, &batch[1..]).unwrap();
        assert!(pooled >= single);
        assert!(pooled <= 4.0 * single);
        assert_eq!(vvs(&batch).unwrap(), (i.i1() + i.i2_storage()) * pooled);
    }
}
