//! Invariants of the execution statistics the executors report — the
//! quantities EXPERIMENTS.md and the benches build on.

use std::sync::Arc;
use textjoin::core::{hhnl, hvnl, vvm};
use textjoin::prelude::*;
use textjoin::storage::DiskSim;

#[allow(clippy::type_complexity)]
fn fixture(
    seed: u64,
) -> (
    Arc<DiskSim>,
    Collection,
    Collection,
    InvertedFile,
    InvertedFile,
) {
    sized(120, 80, seed)
}

/// `n1` inner and `n2` outer documents of 15 terms over 600, 1 KiB pages.
#[allow(clippy::type_complexity)]
fn sized(
    n1: u64,
    n2: u64,
    seed: u64,
) -> (
    Arc<DiskSim>,
    Collection,
    Collection,
    InvertedFile,
    InvertedFile,
) {
    let disk = Arc::new(DiskSim::new(1024));
    let c1 = SynthSpec::from_stats(CollectionStats::new(n1, 15.0, 600), seed)
        .generate(Arc::clone(&disk), "c1")
        .unwrap();
    let c2 = SynthSpec::from_stats(CollectionStats::new(n2, 15.0, 600), seed + 1)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
    (disk, c1, c2, inv1, inv2)
}

#[test]
fn hhnl_io_decomposes_into_passes() {
    let (disk, c1, c2, _, _) = fixture(1);
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 16,
            page_size: 1024,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        });
    disk.reset_stats();
    disk.reset_head();
    let got = hhnl::execute(&spec).unwrap();
    let expect = c2.store().num_pages() + got.stats.passes * c1.store().num_pages();
    assert_eq!(got.stats.io.total_reads(), expect);
    // Cost never undercuts the page count and never exceeds the all-random
    // bound.
    assert!(got.stats.cost >= got.stats.io.total_reads() as f64);
    assert!(got.stats.cost <= got.stats.io.total_reads() as f64 * spec.sys.alpha);
}

#[test]
fn hvnl_fetch_accounting_is_consistent() {
    let (disk, c1, c2, inv1, _) = fixture(2);
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 64,
            page_size: 1024,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        });
    disk.reset_stats();
    disk.reset_head();
    let got = hvnl::execute(&spec, &inv1).unwrap();
    // Entries are either fetched on demand or preloaded by one sequential
    // scan (the X ≥ T1 case); in both paths resident entries get reused.
    assert!(
        got.stats.entry_fetches > 0 || got.stats.cache_hits > 0,
        "no entry activity at all: {:?}",
        got.stats
    );
    // Entry fetches each read at least one page beyond the B+tree and the
    // outer scan (unless the preload path took one sequential scan).
    let floor = inv1.btree().num_pages() + c2.store().num_pages();
    assert!(got.stats.io.total_reads() >= floor);
    assert_eq!(got.stats.passes, 1);
}

#[test]
fn vvm_io_is_passes_times_both_files() {
    let (disk, c1, c2, inv1, inv2) = fixture(3);
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 16,
            page_size: 1024,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        });
    disk.reset_stats();
    disk.reset_head();
    let got = vvm::execute(&spec, &inv1, &inv2).unwrap();
    assert_eq!(
        got.stats.io.total_reads(),
        got.stats.passes * (inv1.num_pages() + inv2.num_pages())
    );
}

#[test]
fn interference_multiplies_cost_but_not_reads() {
    let (disk, c1, c2, _, _) = fixture(4);
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 32,
            page_size: 1024,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        });

    disk.reset_stats();
    disk.reset_head();
    let calm = hhnl::execute(&spec).unwrap();

    disk.set_interference(true);
    disk.reset_stats();
    disk.reset_head();
    let noisy = hhnl::execute(&spec).unwrap();
    disk.set_interference(false);

    assert_eq!(
        calm.result, noisy.result,
        "interference must not change answers"
    );
    assert_eq!(calm.stats.io.total_reads(), noisy.stats.io.total_reads());
    assert!(
        (noisy.stats.cost - calm.stats.io.total_reads() as f64 * spec.sys.alpha).abs() < 1e-9,
        "all-random pricing must be exactly α per page"
    );
}

#[test]
fn derived_sizes_bundle_matches_individual_accessors() {
    let params = SystemParams::paper_base();
    for stats in [
        CollectionStats::wsj(),
        CollectionStats::fr(),
        CollectionStats::doe(),
    ] {
        let d = stats.derived(&params);
        assert_eq!(d.avg_doc_pages, stats.avg_doc_pages(params.page_size));
        assert_eq!(d.collection_pages, stats.collection_pages(params.page_size));
        assert_eq!(d.avg_entry_pages, stats.avg_entry_pages(params.page_size));
        assert_eq!(
            d.inverted_file_pages,
            stats.inverted_file_pages(params.page_size)
        );
        assert_eq!(d.btree_pages, stats.btree_pages(params.page_size));
    }
}

#[test]
fn measured_profile_matches_store_geometry() {
    // The statistics every cost estimate is built from must agree with the
    // bytes actually written.
    let (_disk, c1, _, inv1, _) = fixture(9);
    let stats = c1.profile().stats();
    assert_eq!(stats.num_docs, c1.store().num_docs());
    let expected_bytes = (stats.num_docs as f64 * stats.avg_terms_per_doc * 5.0).round() as u64;
    assert_eq!(c1.store().total_bytes(), expected_bytes);
    // The inverted file holds exactly the same cells (|d#| = |t#| → same
    // total size, the section 3 observation).
    assert_eq!(inv1.num_entries(), stats.distinct_terms);
}

#[test]
fn sim_ops_are_invariant_across_algorithms_and_orders() {
    let (_disk, c1, c2, inv1, inv2) = fixture(5);
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 64,
            page_size: 1024,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 3,
            delta: 1.0,
        });
    let ops: Vec<u64> = vec![
        hhnl::execute(&spec).unwrap().stats.sim_ops,
        hhnl::execute_backward(&spec).unwrap().stats.sim_ops,
        hvnl::execute(&spec, &inv1).unwrap().stats.sim_ops,
        vvm::execute(&spec, &inv1, &inv2).unwrap().stats.sim_ops,
    ];
    assert!(ops.windows(2).all(|w| w[0] == w[1]), "{ops:?}");

    // HVNL and VVM take one step per (query, term, entry), so they count
    // the same operations and touched cells under every filter and
    // weighting — whether VVM takes one pass or several, and whether
    // HVNL's cache holds every entry or keeps refetching.
    let (_disk, c1, c2, inv1, inv2) = sized(1_200, 300, 6);
    let every_third: Vec<DocId> = (0..1_200).step_by(3).map(DocId::new).collect();
    // The self-join's outer side is a sample of the inner one.
    let every_fifth: Vec<DocId> = (0..1_200).step_by(5).map(DocId::new).collect();
    let base = |inner, outer| JoinSpec::new(inner, outer).with_query(spec.query);
    let cases = [
        ("pristine", base(&c1, &c2), &inv2),
        (
            "inner selection",
            base(&c1, &c2).with_inner_docs(&every_third),
            &inv2,
        ),
        (
            "exclude_self",
            base(&c1, &c1)
                .with_outer_docs(OuterDocs::Selected(&every_fifth))
                .with_exclude_self(),
            &inv1,
        ),
        (
            "tf-idf",
            base(&c1, &c2).with_weighting(Weighting::TfIdf),
            &inv2,
        ),
    ];
    for (case, spec, outer_inv) in cases {
        for buffer_pages in [64, 4096] {
            let spec = spec.with_sys(SystemParams {
                buffer_pages,
                page_size: 1024,
                alpha: 5.0,
            });
            let hv = hvnl::execute(&spec, &inv1).unwrap().stats;
            let vv = vvm::execute(&spec, &inv1, outer_inv).unwrap().stats;
            let at = format!("{case}, B = {buffer_pages}");
            assert_eq!(hv.sim_ops, vv.sim_ops, "{at}");
            assert_eq!(hv.cells_touched, vv.cells_touched, "{at}");
            assert!(hv.sim_ops > 0, "{at}");
            if buffer_pages == 64 {
                assert!(vv.passes > 1, "{at}: VVM must take several passes");
                assert!(
                    hv.entry_fetches > inv1.num_entries(),
                    "{at}: HVNL must refetch"
                );
            } else {
                assert_eq!(vv.passes, 1, "{at}");
            }
        }
    }
}
