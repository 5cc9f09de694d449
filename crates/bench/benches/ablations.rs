//! Ablations of the design choices DESIGN.md calls out:
//!
//! * HVNL cache eviction: the paper's lowest-outer-document-frequency
//!   policy vs plain LRU;
//! * HVNL outer order: storage order vs the greedy max-intersection
//!   heuristic the paper discusses (optimal order is NP-hard);
//! * top-λ selection: bounded heap vs sorting all candidates;
//! * term dictionary: one loaded in-memory dictionary vs per-probe B+tree
//!   descent.
//!
//! For the two HVNL ablations the measured I/O costs are printed once — the
//! quality axis — while criterion measures the time axis.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use textjoin_collection::{Collection, SynthSpec};
use textjoin_common::{CollectionStats, DocId, QueryParams, Score, SystemParams, TermId};
use textjoin_core::hvnl::{self, EvictionPolicy, HvnlOptions, OuterOrder};
use textjoin_core::{JoinSpec, TopK};
use textjoin_invfile::{BTreeFile, InvertedFile, TermEntry};
use textjoin_storage::DiskSim;

fn hvnl_fixture() -> (Arc<DiskSim>, Collection, Collection, InvertedFile) {
    let disk = Arc::new(DiskSim::new(4096));
    // Clustered locality: the regime where entry reuse (and therefore the
    // choice of eviction policy and processing order) matters, per the
    // paper's section 5.4 remarks.
    let mut spec1 = SynthSpec::from_stats(CollectionStats::new(600, 50.0, 5000), 31);
    spec1.locality = textjoin_collection::synth::Locality::Clustered(12);
    let mut spec2 = SynthSpec::from_stats(CollectionStats::new(300, 50.0, 5000), 32);
    spec2.locality = textjoin_collection::synth::Locality::Clustered(12);
    let c1 = spec1.generate(Arc::clone(&disk), "c1").unwrap();
    let c2 = spec2.generate(Arc::clone(&disk), "c2").unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    (disk, c1, c2, inv1)
}

fn bench_hvnl_ablations(c: &mut Criterion) {
    let (_disk, c1, c2, inv1) = hvnl_fixture();
    // A cache small enough that the replacement policy matters.
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 40,
            page_size: 4096,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 5,
            delta: 1.0,
        });

    let variants = [
        ("paper (lowest-df, storage order)", HvnlOptions::default()),
        (
            "lru eviction",
            HvnlOptions {
                eviction: EvictionPolicy::Lru,
                order: OuterOrder::Storage,
            },
        ),
        (
            "greedy order",
            HvnlOptions {
                eviction: EvictionPolicy::LowestOuterDf,
                order: OuterOrder::GreedyIntersection,
            },
        ),
    ];

    eprintln!("# HVNL ablations (clustered collections, measured I/O):");
    let mut baseline = None;
    for (name, options) in variants {
        let got = hvnl::execute_with(&spec, &inv1, options).unwrap();
        eprintln!(
            "#   {name:<36} cost={:>8.0} fetches={:>6} hits={:>6}",
            got.stats.cost, got.stats.entry_fetches, got.stats.cache_hits
        );
        match &baseline {
            None => baseline = Some(got.result),
            Some(b) => assert_eq!(&got.result, b, "{name} changed the answer"),
        }
    }

    let mut g = c.benchmark_group("hvnl_ablation");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    for (name, options) in variants {
        g.bench_function(name, |b| {
            b.iter(|| hvnl::execute_with(&spec, &inv1, options).unwrap())
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    // 50 000 candidate scores, λ = 20 (the paper's λ).
    let candidates: Vec<(u32, f64)> = (0..50_000u32)
        .map(|i| (i, ((i as f64 * 2654435761.0) % 100_000.0)))
        .collect();
    let lambda = 20;

    let mut g = c.benchmark_group("topk");
    g.bench_function("bounded_heap", |b| {
        b.iter(|| {
            let mut topk = TopK::new(lambda);
            for &(d, s) in &candidates {
                topk.offer(DocId::new(d), Score::new(s));
            }
            black_box(topk.into_matches())
        })
    });
    g.bench_function("full_sort", |b| {
        b.iter(|| {
            let mut v: Vec<(f64, u32)> = candidates.iter().map(|&(d, s)| (s, d)).collect();
            v.sort_by(|a, b| b.0.total_cmp(&a.0));
            v.truncate(lambda);
            black_box(v)
        })
    });
    g.finish();
}

fn bench_dictionary(c: &mut Criterion) {
    let disk = Arc::new(DiskSim::new(4096));
    let entries: Vec<(TermId, TermEntry)> = (0..100_000u32)
        .map(|i| {
            (
                TermId::new(i * 3),
                TermEntry {
                    ordinal: i,
                    doc_freq: (i % 500) as u16,
                },
            )
        })
        .collect();
    let tree = BTreeFile::bulk_load(Arc::clone(&disk), "bt", &entries).unwrap();
    let dict = tree.load_leaves().unwrap();
    let probes: Vec<TermId> = (0..1000u32)
        .map(|i| TermId::new((i * 997) % 300_000))
        .collect();

    let mut g = c.benchmark_group("dictionary");
    g.bench_function("loaded_lookup_x1000", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &t in &probes {
                hits += dict.lookup(t).is_some() as u32;
            }
            black_box(hits)
        })
    });
    g.bench_function("btree_descent_x1000", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for &t in &probes {
                hits += tree.search(t).unwrap().is_some() as u32;
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_hhnl_orders(c: &mut Criterion) {
    use textjoin_core::hhnl;
    let disk = Arc::new(DiskSim::new(4096));
    // A small inner collection against a larger outer one, with a budget
    // tight enough to force multiple forward passes: the regime where the
    // backward order pays off (fewer scans of the big side) at the price
    // of keeping all N2·λ heaps resident.
    let c1 = SynthSpec::from_stats(CollectionStats::new(200, 40.0, 3000), 41)
        .generate(Arc::clone(&disk), "c1")
        .unwrap();
    let c2 = SynthSpec::from_stats(CollectionStats::new(1000, 40.0, 3000), 42)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let spec = JoinSpec::new(&c1, &c2)
        .with_sys(SystemParams {
            buffer_pages: 20,
            page_size: 4096,
            alpha: 5.0,
        })
        .with_query(QueryParams {
            lambda: 4,
            delta: 1.0,
        });

    let fwd = hhnl::execute(&spec).unwrap();
    let bwd = hhnl::execute_backward(&spec).unwrap();
    assert_eq!(fwd.result, bwd.result);
    eprintln!(
        "# HHNL order ablation (N1=200, N2=1000): forward cost={:.0} ({} passes), \
         backward cost={:.0} ({} passes)",
        fwd.stats.cost, fwd.stats.passes, bwd.stats.cost, bwd.stats.passes
    );

    let mut g = c.benchmark_group("hhnl_order");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    g.bench_function("forward", |b| b.iter(|| hhnl::execute(&spec).unwrap()));
    g.bench_function("backward", |b| {
        b.iter(|| hhnl::execute_backward(&spec).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hvnl_ablations,
    bench_hhnl_orders,
    bench_topk,
    bench_dictionary
);
criterion_main!(benches);
