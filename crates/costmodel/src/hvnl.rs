//! HVNL cost model (section 5.2).
//!
//! HVNL scans the outer collection once (`D2`), reads the inner B+tree once
//! (`Bt1`), and fetches inverted-file entries of `C1` on demand, caching as
//! many as fit. With
//!
//! ```text
//! X = ⌊(B − ⌈S2⌉ − Bt1 − 4·N1·δ/P) / (J1 + |t#|/P)⌋
//! ```
//!
//! entries cacheable (the numerator subtracts one outer document, the
//! loaded B+tree and the non-zero similarity accumulators; the denominator
//! adds the resident-term list to each entry), the sequential cost is
//!
//! ```text
//! X ≥ T1      : min{ D2 + I1 + Bt1,  D2 + T2·q·⌈J1⌉·α + Bt1 }
//! T1 > X ≥ T2·q: D2 + T2·q·⌈J1⌉·α + Bt1
//! otherwise   : D2 + X·⌈J1⌉·α + Bt1 + (N2 − s − X1 + 1)·Y·⌈J1⌉·α
//! ```
//!
//! where the vocabulary of `m` outer documents grows as
//! `f(m) = T2 − (1 − K2/T2)^m · T2`, `s` is the first document at which the
//! cache fills (`q·f(s) > X`), `X1` the fraction of that document's entries
//! that still fit, and `Y = q·f(s + X1) − X` the new entries each later
//! document must fetch.
//!
//! The worst-case variant adds seeks for reading the outer documents
//! (section 5.2's `hvr`).

use crate::inputs::JoinInputs;
use std::slice::from_ref;
use textjoin_common::{NUMBER_BYTES, SIM_VALUE_BYTES};

/// `X` — how many inner inverted-file entries fit in memory next to the
/// fixed overheads (outer document, B+tree, accumulators, resident-term
/// list). Clamped at 0 when the overheads alone exceed the budget.
pub fn cache_capacity(inputs: &JoinInputs) -> f64 {
    let p = inputs.sys.page_size as f64;
    let accumulators = (SIM_VALUE_BYTES as f64) * inputs.n1() * inputs.delta() / p;
    let numerator = inputs.b() - inputs.s2().ceil() - inputs.bt1() - accumulators;
    let denominator = inputs.j1() + NUMBER_BYTES as f64 / p;
    if denominator <= 0.0 {
        return 0.0;
    }
    (numerator / denominator).floor().max(0.0)
}

/// `f(m)` — expected distinct terms among `m` outer documents.
pub fn vocabulary_growth(inputs: &JoinInputs, m: f64) -> f64 {
    inputs.outer.expected_vocabulary(m)
}

/// The cache fill point `(s, X1, Y)`: the document index at which the entry
/// cache fills, the fraction of its entries that still fit, and the number
/// of new entries each subsequent document fetches. `None` when the cache
/// never fills within `N2` documents.
pub fn fill_point(inputs: &JoinInputs) -> Option<(f64, f64, f64)> {
    let x = cache_capacity(inputs);
    let q = inputs.q;
    let n2 = inputs.outer.num_docs;
    if n2 == 0 || q * vocabulary_growth(inputs, inputs.n2()) <= x {
        return None;
    }
    // Binary search for the smallest integer m in [1, N2] with q·f(m) > X.
    let (mut lo, mut hi) = (1u64, n2);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if q * vocabulary_growth(inputs, mid as f64) > x {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let s = lo as f64;
    let f_s = q * vocabulary_growth(inputs, s);
    let f_s1 = q * vocabulary_growth(inputs, s - 1.0);
    let x1 = if f_s > f_s1 {
        ((x - f_s1) / (f_s - f_s1)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let y = (q * vocabulary_growth(inputs, s + x1) - x).max(0.0);
    Some((s, x1, y))
}

/// Entries HVNL ever needs to fetch: one per distinct term of the
/// participating outer documents that also appears in C1 — `q·f(N2)`.
///
/// The paper's section 5.2 writes `T2·q` here, implicitly assuming the
/// outer collection is large enough that `f(N2) ≈ T2`; using the
/// vocabulary-growth model directly removes a discontinuity at the
/// "all needed entries fit" boundary for small outer sides and matches
/// the executor, which fetches each needed entry exactly once when it
/// fits. For the paper's full-collection scenarios the two coincide.
pub fn entries_needed(inputs: &JoinInputs) -> f64 {
    inputs.q * vocabulary_growth(inputs, inputs.n2()).min(inputs.t2())
}

/// Where HVNL's inner entries come from — section 5.2's case analysis.
enum Entries {
    /// Every entry fits and one sequential scan of the whole inverted file
    /// is cheaper than fetching the needed ones at random.
    ScanAll,
    /// Each needed entry is fetched at random exactly once: they all fit,
    /// or the cache never fills within `N2` documents.
    Once(f64),
    /// The cache fills with `filling` fetches; each of the `refetch_docs`
    /// later documents then fetches `y` entries it no longer finds.
    Refill {
        filling: f64,
        refetch_docs: f64,
        y: f64,
    },
}

fn entries(inputs: &JoinInputs) -> Entries {
    let x = cache_capacity(inputs);
    let needed = entries_needed(inputs);
    if x >= inputs.t1() {
        let (scan_all, fetch_needed) = (
            price(inputs, &Entries::ScanAll),
            price(inputs, &Entries::Once(needed)),
        );
        return if scan_all <= fetch_needed {
            Entries::ScanAll
        } else {
            Entries::Once(needed)
        };
    }
    if x >= needed {
        return Entries::Once(needed);
    }
    match fill_point(inputs) {
        None => Entries::Once(needed),
        Some((s, x1, y)) => Entries::Refill {
            filling: x,
            refetch_docs: (inputs.n2() - s - x1 + 1.0).max(0.0),
            y,
        },
    }
}

/// Random entry fetches of the dedicated-device run, refetches included;
/// `None` when the whole inverted file is scanned once instead.
pub fn entry_fetches(inputs: &JoinInputs) -> Option<f64> {
    match entries(inputs) {
        Entries::ScanAll => None,
        Entries::Once(needed) => Some(needed),
        Entries::Refill {
            filling,
            refetch_docs,
            y,
        } => Some(filling + refetch_docs * y),
    }
}

/// What a dedicated device charges for the run that gets its entries as
/// `entries` says.
fn price(inputs: &JoinInputs, entries: &Entries) -> f64 {
    let d2 = inputs.outer_read_cost();
    let bt1 = inputs.bt1();
    // `⌈J1⌉` pages per random entry fetch; the inner delta inverted side file
    // is fetched next to each of them, or scanned with the base file.
    let jc = inputs.j1().ceil();
    let alpha = inputs.alpha();
    let delta_rand = inputs.inner_frag.inv_delta_pages as f64 * alpha;
    match *entries {
        Entries::ScanAll => d2 + inputs.i1() + bt1 + inputs.inner_frag.inv_delta_pages as f64,
        Entries::Once(needed) => d2 + needed * jc * alpha + bt1 + delta_rand,
        Entries::Refill {
            filling,
            refetch_docs,
            y,
        } => d2 + filling * jc * alpha + bt1 + refetch_docs * y * jc * alpha + delta_rand,
    }
}

/// `hvs` — cost with the outer collection read sequentially.
pub fn sequential(inputs: &JoinInputs) -> f64 {
    shared_dictionary(hvs_one, from_ref(inputs))
}

/// `hvr` — worst-case cost, reading the outer documents incurring seeks too.
pub fn worst_case_random(inputs: &JoinInputs) -> f64 {
    shared_dictionary(hvr_one, from_ref(inputs))
}

/// A non-empty batch loads the dictionary `Bt1` once: the first query's `own`
/// cost, plus every other query's less `Bt1` (an upper bound: entry fetches
/// stay per query, though the shared cache may serve them).
pub(crate) fn shared_dictionary(own: fn(&JoinInputs) -> f64, inputs: &[JoinInputs]) -> f64 {
    let bt1 = inputs[0].bt1();
    (inputs[1..].iter()).fold(own(&inputs[0]), |cost, i| cost + (own(i) - bt1))
}

/// One query's `hvs`: its entries got as section 5.2's case analysis says.
pub(crate) fn hvs_one(inputs: &JoinInputs) -> f64 {
    price(inputs, &entries(inputs))
}

/// One query's `hvr`.
pub(crate) fn hvr_one(inputs: &JoinInputs) -> f64 {
    // A selected outer subset is already priced at the random rate; the
    // worst case adds nothing on the outer side.
    if inputs.outer_is_random() {
        return hvs_one(inputs);
    }
    let x = cache_capacity(inputs);
    let d2 = inputs.d2();
    let extra = inputs.alpha() - 1.0;
    let needed = entries_needed(inputs);
    let j1 = inputs.j1().max(f64::MIN_POSITIVE);

    // ⌈D2 / room⌉ seeks when `room` pages of leftover memory batch the
    // outer scan; one seek per document (bounded by D2) when nothing is
    // left over.
    let outer_seeks = |leftover_entries: f64| -> f64 {
        let room = leftover_entries * j1;
        if room >= 1.0 {
            (d2 / room).ceil()
        } else {
            d2.min(inputs.n2())
        }
    };

    if x >= inputs.t1() {
        let scan_all = price(inputs, &Entries::ScanAll) + outer_seeks(x - inputs.t1()) * extra;
        let fetch_needed = price(inputs, &Entries::Once(needed)) + outer_seeks(x - needed) * extra;
        scan_all.min(fetch_needed)
    } else if x >= needed {
        hvs_one(inputs) + outer_seeks(x - needed) * extra
    } else {
        hvs_one(inputs) + d2.min(inputs.n2()) * extra
    }
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
    fn cache_capacity_matches_hand_computation() {
        // Inner: N1 = 1000, K1 = 100, T1 = 5000 → J1 = 5·100·1000/(5000·4096)
        // = 0.0244…; Bt1 = 9·5000/4096 = 10.98…; accumulators = 4·1000·0.1/4096.
        let i = inputs(
            CollectionStats::new(1000, 100.0, 5000),
            CollectionStats::new(1000, 100.0, 5000),
            100,
        );
        let p = 4096.0f64;
        let numerator: f64 = 100.0 - 1.0 - (9.0 * 5000.0 / p) - (4.0 * 1000.0 * 0.1 / p);
        let denominator: f64 = (5.0 * 100.0 * 1000.0) / (5000.0 * p) + 3.0 / p;
        assert!((cache_capacity(&i) - (numerator / denominator).floor()).abs() < 1e-9);
    }

    #[test]
    fn cache_capacity_clamps_at_zero() {
        // Huge accumulator requirement dwarfs a 10-page buffer.
        let i = inputs(
            CollectionStats::new(10_000_000, 100.0, 100_000),
            CollectionStats::new(100, 100.0, 5000),
            10,
        );
        assert_eq!(cache_capacity(&i), 0.0);
    }

    #[test]
    fn case1_everything_fits_picks_cheaper_strategy() {
        // Tiny inner inverted file, huge memory: X ≥ T1.
        let i = inputs(
            CollectionStats::new(100, 20.0, 500),
            CollectionStats::new(100, 20.0, 500),
            50_000,
        );
        assert!(cache_capacity(&i) >= i.t1());
        let scan_all = i.d2() + i.i1() + i.bt1();
        let fetch = i.d2() + i.t2() * i.q * i.j1().ceil() * i.alpha() + i.bt1();
        assert!((sequential(&i) - scan_all.min(fetch)).abs() < 1e-9);
    }

    #[test]
    fn case2_all_needed_entries_fit() {
        // X between the needed entries (q·f(N2)) and T1.
        let inner = CollectionStats::new(50_000, 300.0, 200_000);
        let outer = CollectionStats::new(50, 300.0, 12_000);
        let i = inputs(inner, outer, 10_000);
        let x = cache_capacity(&i);
        let needed = entries_needed(&i);
        assert!(
            x < i.t1() && x >= needed,
            "X = {x}, T1 = {}, needed = {needed}",
            i.t1()
        );
        // The needed count follows the vocabulary of 50 documents, which is
        // below the full T2·q bound the paper would use.
        assert!(needed < i.t2() * i.q);
        let expect = i.d2() + needed * i.j1().ceil() * i.alpha() + i.bt1();
        assert!((sequential(&i) - expect).abs() < 1e-6);
    }

    #[test]
    fn needed_entries_saturate_at_t2q_for_large_outer_sides() {
        // For a full-size outer collection f(N2) ≈ T2: the refinement and
        // the paper's T2·q agree.
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let needed = entries_needed(&i);
        assert!((needed - i.t2() * i.q).abs() / (i.t2() * i.q) < 1e-6);
    }

    #[test]
    fn case3_cache_fills_and_refetches() {
        // Paper-scale self join: WSJ inverted entries are far too many.
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let x = cache_capacity(&i);
        assert!(x < i.t2() * i.q);
        let (s, x1, y) = fill_point(&i).expect("cache must fill");
        assert!(s >= 1.0 && (0.0..=1.0).contains(&x1) && y > 0.0);
        let expect = i.d2()
            + x * i.j1().ceil() * i.alpha()
            + i.bt1()
            + (i.n2() - s - x1 + 1.0) * y * i.j1().ceil() * i.alpha();
        assert!((sequential(&i) - expect).abs() < 1.0);
    }

    #[test]
    fn vocabulary_growth_saturates() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        assert!(vocabulary_growth(&i, 1.0) < vocabulary_growth(&i, 100.0));
        assert!(vocabulary_growth(&i, 1e9) <= i.t2() + 1e-6);
    }

    #[test]
    fn small_outer_collection_is_cheap() {
        // Finding 2 above: an outer collection of ≲100 documents only
        // touches a small fraction of the inverted file.
        let small_outer = CollectionStats::wsj().select_docs(50);
        let i = inputs(CollectionStats::wsj(), small_outer, 10_000);
        let full = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        assert!(sequential(&i) < sequential(&full) / 10.0);
    }

    #[test]
    fn never_fills_case_fetches_each_needed_entry_once() {
        // Outer of 30 docs, inner entries too many for the cache overall but
        // 30 documents' vocabulary fits.
        let inner = CollectionStats::new(200_000, 300.0, 150_000);
        let outer = CollectionStats::new(30, 300.0, 150_000);
        let i = inputs(inner, outer, 4_000);
        let x = cache_capacity(&i);
        let needed_all = i.t2() * i.q;
        let f30 = i.q * vocabulary_growth(&i, 30.0);
        assert!(
            x < needed_all && f30 <= x,
            "x={x} needed={needed_all} f30={f30}"
        );
        assert!(fill_point(&i).is_none());
        let expect = i.d2() + f30 * i.j1().ceil() * i.alpha() + i.bt1();
        assert!((sequential(&i) - expect).abs() < 1e-6);
    }

    #[test]
    fn delta_inverted_pages_are_fetched_at_the_random_rate() {
        use textjoin_common::FragStats;
        let pristine = inputs(CollectionStats::wsj(), CollectionStats::wsj(), 10_000);
        let frag = JoinInputs {
            inner_frag: FragStats {
                inv_delta_pages: 40,
                ..FragStats::default()
            },
            ..pristine
        };
        // The WSJ self-join sits in the cache-fills branch, where the delta
        // side file is consulted per fetch: a flat ΔI1·α surcharge.
        let expect = sequential(&pristine) + 40.0 * pristine.alpha();
        assert!((sequential(&frag) - expect).abs() < 1e-6);
        assert!(worst_case_random(&frag) > worst_case_random(&pristine));
    }

    #[test]
    fn worst_case_dominates_sequential() {
        for (inner, outer) in [
            (CollectionStats::wsj(), CollectionStats::wsj()),
            (CollectionStats::fr(), CollectionStats::doe()),
            (CollectionStats::doe(), CollectionStats::fr()),
        ] {
            let i = inputs(inner, outer, 10_000);
            assert!(worst_case_random(&i) >= sequential(&i) - 1e-9);
        }
    }

    #[test]
    fn more_memory_never_hurts() {
        let mut prev = f64::INFINITY;
        for b in [2_500u64, 5_000, 10_000, 20_000, 40_000, 80_000] {
            let i = inputs(CollectionStats::wsj(), CollectionStats::doe(), b);
            let cost = sequential(&i);
            assert!(cost <= prev + 1e-6, "B = {b}: {cost} > {prev}");
            prev = cost;
        }
    }

    #[test]
    fn a_batch_loads_the_dictionary_once() {
        let batch = [1, 5, 5, 20].map(|lambda| JoinInputs {
            query: QueryParams::paper_base().with_lambda(lambda),
            ..inputs(
                CollectionStats::new(1000, 409.6, 10_000),
                CollectionStats::new(2000, 409.6, 10_000),
                200,
            )
        });
        let hvs_sum: f64 = batch.iter().map(sequential).sum();
        let hvr_sum: f64 = batch.iter().map(worst_case_random).sum();
        let (hvs, hvr) = (
            shared_dictionary(hvs_one, &batch),
            shared_dictionary(hvr_one, &batch),
        );
        assert!(hvs <= hvs_sum && hvr <= hvr_sum);
        // The dictionary is genuinely shared: the batch saves (N−1)·Bt1.
        let bt1 = batch[0].bt1();
        assert!((hvs_sum - hvs - 3.0 * bt1).abs() < 1e-9);
        assert!((hvr_sum - hvr - 3.0 * bt1).abs() < 1e-9);
    }
}
