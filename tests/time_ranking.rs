//! The front doors rank by predicted wall time, `page_ns · pages + cpu_ns`
//! (`costmodel::rank`). These tests pin what that means: (a) the paper's
//! pages ranking is its zero-CPU limit; (b) on a `selective`-shaped pair
//! the choice is a vertical algorithm while pages are nearly free and
//! moves toward the fewest-pages algorithm — never back — as the device
//! makes pages dearer; (c) on a `spills`-shaped pair the measured δ bound
//! predicts VVM's merge passes and keeps the planner off VVM; (d) the
//! fallback chain follows the predicted-time order; (e) the profiles'
//! match count is the brute-force `Σ df1·df2` and the δ it gives bounds
//! the true density of non-zero pairs.

use proptest::prelude::*;
use std::slice::from_ref;
use std::sync::Arc;
use textjoin::common::{FnlStats, FragStats};
use textjoin::core::integrated::{device_prices, execute_with_index, with_fallback};
use textjoin::core::{hhnl, reference, vvm};
use textjoin::costmodel::{self, rank, CostEstimates, JoinInputs, Prediction, Prices};
use textjoin::invfile::FnlIndex;
use textjoin::prelude::*;
use textjoin::storage::{DiskSim, PageLatency};
use textjoin::Error;

/// A bulk-built pair with every index, on its own disk.
struct Pair {
    disk: Arc<DiskSim>,
    inner: Collection,
    outer: Collection,
    inner_inv: InvertedFile,
    outer_inv: InvertedFile,
    fnl: FnlIndex,
}

impl Pair {
    fn build(n1: u64, n2: u64, vocab: u64, seed: u64) -> Pair {
        let disk = Arc::new(DiskSim::new(4096));
        let side = |name: &str, n: u64, seed: u64| {
            let c = SynthSpec::from_stats(CollectionStats::new(n, 60.0, vocab), seed)
                .generate(Arc::clone(&disk), name)
                .unwrap();
            let inv = InvertedFile::build(Arc::clone(&disk), name, &c).unwrap();
            (c, inv)
        };
        let (inner, inner_inv) = side("inner", n1, seed);
        let (outer, outer_inv) = side("outer", n2, seed + 1);
        let fnl = FnlIndex::build(Arc::clone(&disk), "inner", &inner).unwrap();
        Pair {
            disk,
            inner,
            outer,
            inner_inv,
            outer_inv,
            fnl,
        }
    }

    /// The ranking the front door records for `spec`, after running it.
    fn front_door(&self, spec: &JoinSpec<'_>) -> [Prediction; 4] {
        let fnl = Some(&self.fnl);
        let scenario = IoScenario::Dedicated;
        let got = execute_with_index(spec, &self.inner_inv, &self.outer_inv, fnl, scenario, 1);
        let got = got.unwrap();
        assert_eq!(got.chosen, got.ranking[0].algorithm, "no fallback ran");
        assert_eq!(got.outcome.result, hhnl::execute(spec).unwrap().result);
        got.ranking
    }
}

fn sys(buffer_pages: u64) -> SystemParams {
    SystemParams {
        buffer_pages,
        page_size: 4096,
        alpha: 5.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) With the CPU prices at zero and the device at the inputs' own
    /// α, `rank` is today's pages ranking: `CostEstimates::compute` sorted
    /// stably, ties in `Algorithm::ALL` order, under both scenarios.
    #[test]
    fn zero_cpu_prices_rank_by_pages(
        inner in (1u64..200_000, 1u64..400, 10u64..200_000),
        outer in (1u64..200_000, 1u64..400, 10u64..200_000),
        selected in 0u64..200,
        buffer_pages in 2u64..20_000,
        lambda in 1usize..200,
        delta in 0.001f64..1.0,
        alpha in 1.0f64..10.0,
        fnl_pages in 0u64..5_000,
        matches in 0u64..1_000_000_000,
        frag in 0u64..50,
    ) {
        let stats = |(n, k, t): (u64, u64, u64)| CollectionStats::new(n, k.min(t) as f64, t);
        let outer_full = stats(outer);
        let mut i = JoinInputs::with_paper_q(
            stats(inner),
            outer_full,
            SystemParams { buffer_pages, page_size: 4096, alpha },
            QueryParams { lambda, delta },
        );
        if selected > 0 {
            i.outer = outer_full.select_docs(selected);
            i = i.with_selected_outer(outer_full);
        }
        if fnl_pages > 0 {
            i = i.with_fnl(FnlStats {
                meta_pages: 1 + fnl_pages / 20,
                index_pages: fnl_pages,
                meta_bytes: fnl_pages * 200,
            });
        }
        if matches % 3 > 0 {
            i = i.with_matches(matches as f64);
        }
        i.inner_frag = FragStats {
            doc_delta_pages: frag,
            inv_delta_pages: frag / 2,
            tombstone_ratio: frag as f64 / 100.0,
        };
        let estimates = CostEstimates::compute(&i);
        for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
            let mut want = Algorithm::ALL.map(|a| (a, estimates.cost(a, scenario)));
            want.sort_by(|a, b| a.1.total_cmp(&b.1));
            let pages_only = Prices::pages_only(alpha);
            let (got_estimates, got) = rank(from_ref(&i), scenario, &pages_only, |_, c| c);
            prop_assert_eq!(got_estimates, estimates);
            for (row, (algorithm, pages)) in got.iter().zip(want) {
                prop_assert_eq!(row.algorithm, algorithm);
                prop_assert_eq!(row.raw.to_bits(), pages.to_bits());
                prop_assert_eq!(row.total_ns().to_bits(), pages.to_bits());
            }
        }
        let (_, by_pages) = rank(from_ref(&i), IoScenario::Dedicated, &Prices::pages_only(alpha), |_, c| c);
        prop_assert_eq!(by_pages[0].algorithm, costmodel::choose(&i, IoScenario::Dedicated));
    }

    /// (e) `overlap` is the brute-force `Σ_t df1(t)·df2(t)`, and the δ it
    /// gives is at least the true share of pairs with a non-zero score.
    #[test]
    fn overlap_is_the_match_count_and_bounds_the_density(
        n1 in 1u64..25,
        n2 in 1u64..25,
        k in 2u64..12,
        vocab in 12u64..150,
        seed in 0u64..1000,
    ) {
        let docs = |n, seed| {
            SynthSpec::from_stats(CollectionStats::new(n, k as f64, vocab), seed).generate_docs()
        };
        let (d1, d2) = (docs(n1, seed), docs(n2, seed + 1));
        let mut brute = 0u64;
        for a in &d1 {
            for b in &d2 {
                for cell in a.cells() {
                    brute += b.cells().iter().filter(|c| c.term == cell.term).count() as u64;
                }
            }
        }
        let disk = Arc::new(DiskSim::new(512));
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let (shared, matches) = c2.profile().overlap(c1.profile());
        prop_assert_eq!(matches, brute);
        prop_assert_eq!(c1.profile().overlap(c2.profile()), (shared, matches));
        let q = c2.profile().term_overlap_probability(c1.profile());
        prop_assert_eq!(q, shared as f64 / c2.profile().distinct_terms() as f64);

        let inputs = JoinSpec::new(&c1, &c2).cost_inputs();
        prop_assert_eq!(inputs.matches, Some(brute as f64));
        let all = d1.len();
        let nonzero =
            reference::naive_join(&d1, &d2, OuterDocs::Full, all, Weighting::RawCount).num_pairs();
        let density = nonzero as f64 / (d1.len() * d2.len()) as f64;
        prop_assert!(inputs.delta() >= density, "δ {} < true {density}", inputs.delta());
        prop_assert!(inputs.delta() <= 1.0);
    }
}

/// (b) Large inner side, 20 selected outer rows: while a page costs what
/// its checksum costs, the CPU term decides and a vertical algorithm wins;
/// a device at 10 µs and at 100 µs per sequential page (five times that per
/// seek) moves the choice toward the fewest-pages algorithm and never back.
#[test]
fn the_choice_flips_toward_fewer_pages_as_pages_get_dearer() {
    let pair = Pair::build(4_000, 1_760, 20_000, 7);
    let kept: Vec<DocId> = (0..20).map(|i| DocId::new(i * 88)).collect();
    let spec = JoinSpec::new(&pair.inner, &pair.outer)
        .with_outer_docs(OuterDocs::Selected(&kept))
        .with_sys(sys(512))
        .with_query(QueryParams::paper_base().with_lambda(20));

    let pages = CostEstimates::compute(&spec.cost_inputs().with_fnl(pair.fnl.stats()));
    let mut by_pages = Algorithm::ALL.map(|a| (a, pages.cost(a, IoScenario::Dedicated)));
    by_pages.sort_by(|a, b| a.1.total_cmp(&b.1));
    let pages_rank = |a: Algorithm| by_pages.iter().position(|r| r.0 == a).unwrap();

    let mut chosen = Vec::new();
    for seq_ns in [0, 10_000, 100_000] {
        pair.disk.set_page_latency(PageLatency {
            seq_ns,
            rand_ns: 5 * seq_ns,
        });
        let ranking = pair.front_door(&spec);
        for r in ranking {
            assert_eq!(r.raw, pages.cost(r.algorithm, IoScenario::Dedicated));
        }
        chosen.push(ranking[0].algorithm);
    }
    pair.disk.set_page_latency(PageLatency::default());

    assert!(
        matches!(chosen[0], Algorithm::Vvm | Algorithm::Hvnl),
        "nearly free pages: {chosen:?}"
    );
    let ranks: Vec<usize> = chosen.iter().map(|&a| pages_rank(a)).collect();
    assert!(
        ranks.windows(2).all(|w| w[1] <= w[0]),
        "{chosen:?} {ranks:?}"
    );
    assert!(ranks[0] > 0, "the time choice is not the pages choice");
    assert_eq!(ranks[2], 0, "at 100 µs a page the pages decide: {chosen:?}");
}

/// (c) `fits`' shape in a 64-page buffer. δ is no longer taken on faith
/// (0.1 predicted two passes), and the executor's first partition count is
/// the model's `SM` over what its reservation leaves: the two differ only
/// in `M` (the model's average entries against the largest entries plus
/// the λ-heap), so the merge passes are within one of the prediction. Its
/// two time terms carry them, and the planner stays off it.
#[test]
fn measured_delta_prices_vvm_s_passes_under_memory_pressure() {
    let pair = Pair::build(1_000, 200, 6_000, 11);
    let spec = JoinSpec::new(&pair.inner, &pair.outer)
        .with_sys(sys(32))
        .with_query(QueryParams::paper_base().with_lambda(10));
    let inputs = spec.cost_inputs().with_fnl(pair.fnl.stats());
    assert!(inputs.delta() > inputs.query.delta, "measured, not 0.1");

    let measured = vvm::execute(&spec, &pair.inner_inv, &pair.outer_inv).unwrap();
    let predicted = costmodel::vvm::num_passes(&inputs).unwrap();
    assert!(measured.stats.passes > 2, "the shape must spill");
    assert!(
        (predicted - measured.stats.passes as f64).abs() <= 1.0,
        "predicted {predicted} passes, measured {}",
        measured.stats.passes
    );
    let on_faith = costmodel::vvm::num_passes(&JoinInputs {
        matches: None,
        ..inputs
    });
    assert!(on_faith.unwrap() < predicted / 2.0);

    let ranking = pair.front_door(&spec);
    assert_ne!(ranking[0].algorithm, Algorithm::Vvm);
    let one_pass = rank(
        from_ref(&JoinInputs {
            sys: sys(4096),
            ..inputs
        }),
        IoScenario::Dedicated,
        &device_prices(&pair.disk),
        |_, c| c,
    )
    .1;
    let vvm =
        |rows: &[Prediction; 4]| *rows.iter().find(|r| r.algorithm == Algorithm::Vvm).unwrap();
    assert!(
        vvm(&ranking).cpu_ns > vvm(&one_pass).cpu_ns,
        "passes rescan both files"
    );
    assert!(vvm(&ranking).io_ns > 2.0 * vvm(&one_pass).io_ns);
}

/// (d) When the first choice dies, the rest are tried cheapest predicted
/// time first — the order of the recorded ranking, not of the pages.
#[test]
fn fallbacks_follow_the_predicted_time_order() {
    let pair = Pair::build(1_500, 330, 12_000, 3);
    let kept: Vec<DocId> = (0..30).map(|i| DocId::new(i * 11)).collect();
    let spec = JoinSpec::new(&pair.inner, &pair.outer)
        .with_outer_docs(OuterDocs::Selected(&kept))
        .with_sys(sys(512));
    let inputs = spec.cost_inputs().with_fnl(pair.fnl.stats());
    let scenario = IoScenario::Dedicated;
    let (_, ranking) = rank(
        from_ref(&inputs),
        scenario,
        &device_prices(&pair.disk),
        |_, c| c,
    );
    let (_, by_pages) = rank(
        from_ref(&inputs),
        scenario,
        &Prices::pages_only(5.0),
        |_, c| c,
    );
    let order = |rows: &[Prediction; 4]| rows.map(|r| r.algorithm);
    assert_ne!(
        order(&ranking),
        order(&by_pages),
        "the fixture must tell the two apart"
    );

    let cost = |a: Algorithm| {
        ranking
            .iter()
            .find(|r| r.algorithm == a)
            .unwrap()
            .total_ns()
    };
    let mut tried = Vec::new();
    let died = with_fallback(ranking[0].algorithm, cost, |algorithm, failed| {
        assert_eq!(failed as usize, tried.len());
        tried.push(algorithm);
        Err::<(), _>(Error::Corrupt(format!("{algorithm} cannot read its file")))
    });
    assert!(matches!(died, Err(Error::Corrupt(_))));
    assert_eq!(tried, order(&ranking));
}
