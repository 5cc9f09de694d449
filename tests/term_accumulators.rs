//! The term-at-a-time executors (VVM, HVNL) over their shared accumulator.
//!
//! `core::accum::Rows` keeps the sums of a pass either in flat rows (8
//! bytes per *possible* pair) or, when `slots · width · 8 > 4·B·P`, in one
//! hash map per slot. Nothing outside the crate selects the arm — it
//! follows from the inputs — so this file picks inputs on both sides of
//! the rule (restated in [`flat`]) and checks what must not depend on it:
//!
//! * (a) every variant of the join equals the naive oracle and its scores
//!   are bit-equal (`f64::to_bits`) across the two arms;
//! * (b) the ledger is the paper's: the partition count is `⌈ΣSM/M⌉` over
//!   what the run's reservation leaves, and a pass whose chunk is denser
//!   than the average halves that chunk in place, the run driven once;
//! * (c) what the tracker does not price is bounded: the peak live heap of
//!   one join stays under `8·B·P + 8·N1 + the two largest entries`, and
//!   an inner delta overlay, however large, adds its largest entry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use textjoin::collection::DocumentStoreBuilder;
use textjoin::common::ICell;
use textjoin::core::batch::{self, BatchOptions};
use textjoin::core::reference::{naive_join, naive_join_full};
use textjoin::core::{execute_sharded, hvnl, vvm, ResultQuality, ShardOptions, TopK};
use textjoin::costmodel;
use textjoin::invfile::{DeltaOverlay, FlushedDelta, PostingCodec};
use textjoin::obs::Tracer;
use textjoin::prelude::*;
use textjoin::storage::IoStats;

const PAGE: usize = 128;

/// `n` documents of `k` distinct terms each, spread evenly over `vocab`
/// terms, `vocab` a power of two (no Zipf head: every entry is about
/// `n·k/vocab` cells, so a small buffer can still hold the largest one).
fn docs(n: u32, k: u32, vocab: u32, salt: u32) -> Vec<Document> {
    assert!(vocab.is_power_of_two() && k < vocab);
    let mix = |x: u32| {
        let x = (x ^ salt.wrapping_mul(0x9e37_79b9)).wrapping_mul(0x85eb_ca6b);
        (x ^ (x >> 13)).wrapping_mul(0xc2b2_ae35) >> 7
    };
    (0..n)
        .map(|i| {
            // An odd step visits `k` distinct residues of a power of two.
            let (first, step) = (mix(3 * i), 2 * mix(3 * i + 1) + 1);
            Document::from_term_counts((0..k).map(move |j| {
                let term = first.wrapping_add(j.wrapping_mul(step)) % vocab;
                (TermId::new(term), 1 + mix(3 * i + 2).wrapping_add(j) % 3)
            }))
        })
        .collect()
}

struct Fixture {
    disk: Arc<DiskSim>,
    c1: Collection,
    c2: Collection,
    inv1: InvertedFile,
    inv2: InvertedFile,
    d1: Vec<Document>,
    d2: Vec<Document>,
}

fn fixture(d1: Vec<Document>, d2: Vec<Document>, page: usize) -> Fixture {
    let disk = Arc::new(DiskSim::new(page));
    let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
    let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
    Fixture {
        inv1: InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap(),
        inv2: InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap(),
        disk,
        c1,
        c2,
        d1,
        d2,
    }
}

/// Many short inner documents against a few outer ones: wide rows, few
/// slots, so a buffer of [`TIGHT`] pages holds the tracked bytes of either
/// executor while `8 · N1` alone exceeds `4·B·P`.
const N1: u32 = 2_600;
const N2: u32 = 24;

fn wide() -> Fixture {
    fixture(docs(N1, 3, 64, 1), docs(N2, 3, 64, 2), PAGE)
}

const ROOMY: u64 = 4_000;
const TIGHT: u64 = 40;

fn sys(buffer_pages: u64) -> SystemParams {
    SystemParams {
        buffer_pages,
        page_size: PAGE,
        alpha: 5.0,
    }
}

/// The rule of `core::accum` (DESIGN.md, "What the tracker prices").
fn flat(slots: u64, width: u64, sys: &SystemParams) -> bool {
    slots * width * 8 <= 4 * sys.buffer_bytes()
}

/// Every score of a result, bit for bit.
fn bits(result: &JoinResult) -> Vec<(u32, Vec<(u32, u64)>)> {
    let row = |ms: &[Match]| {
        ms.iter()
            .map(|m| (m.inner.raw(), m.score.value().to_bits()))
            .collect()
    };
    result.iter().map(|(id, ms)| (id.raw(), row(ms))).collect()
}

/// Runs VVM and HVNL under `spec` with a roomy and a tight buffer, checks
/// that the pair really sits on both sides of the rule, that the scores
/// agree to the bit across it, and returns the four outcomes (VVM roomy,
/// VVM tight, HVNL roomy, HVNL tight).
fn both_arms(f: &Fixture, spec: JoinSpec<'_>, width: u64) -> [JoinOutcome; 4] {
    let run = |pages| {
        let spec = spec.with_sys(sys(pages));
        let v = vvm::execute(&spec, &f.inv1, &f.inv2).unwrap();
        let slots = spec.num_outer_docs().div_ceil(v.stats.passes);
        assert_eq!(
            flat(slots, width, &spec.sys),
            pages == ROOMY,
            "VVM B={pages}"
        );
        assert_eq!(flat(1, width, &spec.sys), pages == ROOMY, "HVNL B={pages}");
        (v, hvnl::execute(&spec, &f.inv1).unwrap())
    };
    let ((v_flat, h_flat), (v_sparse, h_sparse)) = (run(ROOMY), run(TIGHT));
    assert!(v_sparse.stats.mem_high_water_bytes <= sys(TIGHT).buffer_bytes());
    assert!(h_sparse.stats.mem_high_water_bytes <= sys(TIGHT).buffer_bytes());
    // VVM adds a pair's terms in term order whatever the buffer. HVNL adds
    // cached terms first, so its order follows the cache and with it `B`:
    // its arms agree to the bit where sums are exact in any order.
    assert!(bits(&v_flat.result) == bits(&v_sparse.result), "VVM arms");
    if matches!(spec.weighting, Weighting::RawCount) {
        assert!(bits(&h_flat.result) == bits(&h_sparse.result), "HVNL arms");
        assert!(bits(&v_flat.result) == bits(&h_flat.result), "VVM vs HVNL");
    }
    [v_flat, v_sparse, h_flat, h_sparse]
}

fn base_spec(f: &Fixture) -> JoinSpec<'_> {
    JoinSpec::new(&f.c1, &f.c2).with_query(QueryParams {
        lambda: 5,
        delta: 0.15,
    })
}

#[test]
fn both_arms_equal_the_oracle_bit_for_bit() {
    let f = wide();
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 5, Weighting::RawCount);
    for got in both_arms(&f, base_spec(&f), N1 as u64) {
        assert!(got.result == want);
        assert_eq!(got.quality, ResultQuality::Full);
    }
}

#[test]
fn tfidf_sums_do_not_depend_on_the_arm() {
    let f = wide();
    let spec = base_spec(&f).with_weighting(Weighting::TfIdf);
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 5, Weighting::TfIdf);
    for got in both_arms(&f, spec, N1 as u64) {
        assert!(got.result.approx_eq(&want, 1e-9));
    }
}

#[test]
fn an_inner_selection_is_masked_in_both_arms() {
    let f = wide();
    let chosen: Vec<DocId> = (0..N1).filter(|i| i % 3 != 1).map(DocId::new).collect();
    let spec = base_spec(&f).with_inner_docs(&chosen);
    let want = naive_join_full(
        &f.d1,
        &f.d2,
        OuterDocs::Full,
        Some(&chosen),
        5,
        Weighting::RawCount,
        false,
    );
    for got in both_arms(&f, spec, N1 as u64) {
        assert!(got.result == want);
    }
}

#[test]
fn a_self_join_skips_the_diagonal_in_both_arms() {
    let d = docs(N1, 3, 64, 1);
    let f = fixture(d.clone(), d, PAGE);
    let chosen: Vec<DocId> = (0..N2).map(|i| DocId::new(i * 97)).collect();
    let spec = base_spec(&f)
        .with_outer_docs(OuterDocs::Selected(&chosen))
        .with_exclude_self();
    let want = naive_join_full(
        &f.d1,
        &f.d2,
        OuterDocs::Selected(&chosen),
        None,
        5,
        Weighting::RawCount,
        true,
    );
    for got in both_arms(&f, spec, N1 as u64) {
        assert!(got.result == want);
    }
}

/// Tombstones and delta documents: the delta's ids run past `N1`, so flat
/// rows grow on demand, and the tombstones are the per-run mask.
#[test]
fn tombstones_and_delta_documents_join_in_both_arms() {
    let f = wide();
    let inserted = docs(40, 3, 64, 9);
    let mut overlay = DeltaOverlay::new();
    for (i, doc) in inserted.iter().enumerate() {
        overlay.insert_tail(DocId::new(N1 + i as u32), doc.clone());
    }
    let dead = |i: u32| i % 11 == 4;
    for i in (0..N1 + 40).filter(|&i| dead(i)) {
        overlay.delete(DocId::new(i));
    }
    let spec = base_spec(&f).with_inner_delta(&overlay);
    let all: Vec<Document> = f.d1.iter().chain(&inserted).cloned().collect();
    let live: Vec<DocId> = (0..N1 + 40).filter(|&i| !dead(i)).map(DocId::new).collect();
    let want = naive_join_full(
        &all,
        &f.d2,
        OuterDocs::Full,
        Some(&live),
        5,
        Weighting::RawCount,
        false,
    );
    for got in both_arms(&f, spec, N1 as u64 + 40) {
        assert!(got.result == want);
    }
}

/// A corrupt postings page: degraded mode skips the entries on it, the
/// same ones in either arm.
#[test]
fn a_skipped_entry_is_skipped_in_both_arms() {
    let f = wide();
    f.disk.flip_bit(f.inv1.file(), 3, 77).unwrap();
    let strict = base_spec(&f).with_sys(sys(ROOMY));
    assert!(vvm::execute(&strict, &f.inv1, &f.inv2).is_err());
    let full = naive_join(&f.d1, &f.d2, OuterDocs::Full, 5, Weighting::RawCount);
    for got in both_arms(&f, base_spec(&f).with_degraded(), N1 as u64) {
        assert_eq!(got.quality, ResultQuality::Partial);
        assert!(got.stats.skipped_entries >= 1, "{:?}", got.stats);
        assert!(got.result != full, "the lost postings must show");
    }
}

/// N = 3 queries share one merge / one outer pass; each has its own rows.
/// Three queries' sums need twice the buffer one query's do, so VVM's tight
/// run has `2 · TIGHT` pages (and two slots per pass, still sparse).
#[test]
fn a_batch_of_three_equals_three_oracles_in_both_arms() {
    let f = wide();
    let lambdas = [5usize, 1, 9];
    let specs = |pages| {
        lambdas.map(|lambda| {
            JoinSpec::new(&f.c1, &f.c2)
                .with_sys(sys(pages))
                .with_query(QueryParams {
                    lambda,
                    delta: 0.15,
                })
        })
    };
    let check = |batch: batch::BatchOutcome, name: &str| -> Vec<_> {
        let queries = batch.queries.iter().zip(lambdas);
        let checked = queries.map(|(got, lambda)| {
            let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, lambda, Weighting::RawCount);
            assert!(got.result == want, "{name} λ={lambda}");
            bits(&got.result)
        });
        checked.collect()
    };
    let vvm = |pages| {
        let specs = specs(pages);
        let got = batch::execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
        let slots = (N2 as u64).div_ceil(got.stats.passes);
        // Three queries' rows share the buffer: all their slots count.
        assert_eq!(flat(3 * slots, N1 as u64, &specs[0].sys), pages == ROOMY);
        check(got, "vvm")
    };
    let hvnl = |pages| {
        let got = batch::execute_hvnl(&specs(pages), &f.inv1, BatchOptions::default());
        check(got.unwrap(), "hvnl")
    };
    assert!(vvm(ROOMY) == vvm(2 * TIGHT));
    assert!(hvnl(ROOMY) == hvnl(TIGHT));
}

/// S = 2 sites: each site sums its own terms into its own rows and the
/// driver folds the second site's rows into the first's.
#[test]
fn two_sites_fold_their_rows_in_both_arms() {
    let f = wide();
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 5, Weighting::RawCount);
    let run = |pages| {
        let spec = base_spec(&f).with_sys(sys(pages));
        let got = execute_sharded(&spec, Algorithm::Vvm, &ShardOptions::new(2)).unwrap();
        assert_eq!(got.shards.len(), 2);
        let slots = (N2 as u64).div_ceil(got.outcome.stats.passes);
        assert_eq!(flat(slots, N1 as u64, &spec.sys), pages == ROOMY);
        assert!(got.outcome.result == want, "B={pages}");
        bits(&got.outcome.result)
    };
    assert!(run(ROOMY) == run(TIGHT));
}

/// `slots · width · 8 = 4·B·P` exactly is still flat; one page less is
/// not. Both run the join in one pass and agree to the bit.
#[test]
fn the_boundary_is_flat_and_one_page_less_is_not() {
    let f = fixture(docs(64, 4, 128, 3), docs(16, 4, 128, 4), PAGE);
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 4, Weighting::RawCount);
    let run = |pages| {
        let spec = JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(pages))
            .with_query(QueryParams {
                lambda: 4,
                delta: 0.2,
            });
        let got = vvm::execute(&spec, &f.inv1, &f.inv2).unwrap();
        assert_eq!(got.stats.passes, 1, "B={pages}");
        assert!(got.result == want, "B={pages}");
        bits(&got.result)
    };
    assert_eq!(16 * 64 * 8, 4 * sys(16).buffer_bytes());
    assert!(flat(16, 64, &sys(16)) && !flat(16, 64, &sys(15)));
    assert!(run(16) == run(15));
}

/// Single-term inner documents: a pair shares at most one term, so the
/// measured δ counts the non-zero pairs exactly and `SM` is the whole
/// demand; the eight 32-term outer documents (ids 0–7) hold most of it.
fn dense() -> Fixture {
    let outer = [docs(8, 32, 64, 5), docs(32, 2, 64, 6)].concat();
    fixture(docs(256, 1, 64, 7), outer, PAGE)
}

/// (b) The densest outer documents share the first chunk, so a count sized
/// from the average density undershoots that chunk. The run is driven
/// once: its one `vvm` root span carries the first count,
/// `⌈Σᵢ SMᵢ / available⌉` — the planner's `SM` of each query over what the
/// largest λ-heap and the two largest entries leave of `B·P` — and the pass
/// attempts that overflowed and halved their chunks in place. The batch
/// equals the oracle, and the statistics carry every page the drive read,
/// the split attempts' included.
#[test]
fn a_dense_first_chunk_splits_in_place() {
    let f = dense();
    let tracer = Tracer::enabled(4096);
    let lambdas = [4, 1];
    let specs = lambdas.map(|lambda| {
        JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(48))
            .with_query(QueryParams::paper_base().with_lambda(lambda))
            .with_trace(&tracer)
    });
    let before = f.disk.stats();
    let got = batch::execute_vvm(&specs, &f.inv1, &f.inv2).unwrap();
    let read = f.disk.stats().since(&before);
    for (q, lambda) in got.queries.iter().zip(lambdas) {
        let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, lambda, Weighting::RawCount);
        assert!(q.result == want, "λ={lambda}");
    }
    let spans = tracer.finished();
    let roots: Vec<_> = spans.iter().filter(|s| s.name == "vvm").collect();
    assert_eq!(roots.len(), 1, "one driven run");
    let field = |name| {
        let found = roots[0].fields.iter().find(|(k, _)| *k == name);
        found.map(|&(_, v)| v).unwrap()
    };

    let reserved = TopK::budget_bytes(4) + f.inv1.max_entry_bytes() + f.inv2.max_entry_bytes();
    let available = sys(48).buffer_bytes() - reserved;
    let sm: f64 = (specs.iter())
        .map(|s| costmodel::vvm::similarity_pages(&s.cost_inputs()) * PAGE as f64)
        .sum();
    assert_eq!(field("partitions"), (sm / available as f64).ceil() as u64);
    assert!(field("splits") > 0, "the dense chunk must not fit");
    assert!(got.stats.mem_high_water_bytes <= sys(48).buffer_bytes());
    // Growing the count instead (2, 3, …, 8) drove the run seven times,
    // ended at 8 passes and read 289 + 28 pages.
    assert!(got.stats.passes < 8, "{} passes", got.stats.passes);
    assert!(read.total_reads() < 289 + 28, "{read:?}");
    assert_eq!(got.stats.io, read);
}

/// (b) What a split attempt read is the run's: on one node the statistics
/// are what the drive saw, over two sites the sites' tallies sum to the
/// outcome's, and either holds more than its completed passes read.
#[test]
fn a_split_attempt_is_counted_on_one_node_and_on_every_site() {
    let f = dense();
    let spec = |pages| {
        JoinSpec::new(&f.c1, &f.c2)
            .with_sys(sys(pages))
            .with_query(QueryParams::paper_base().with_lambda(4))
    };
    let before = f.disk.stats();
    let one = vvm::execute(&spec(16), &f.inv1, &f.inv2).unwrap();
    assert_eq!(one.stats.io, f.disk.stats().since(&before));
    // Every completed pass scans both files.
    let scan = f.inv1.num_pages() + f.inv2.num_pages();
    assert!(one.stats.io.total_reads() > one.stats.passes * scan);

    let sharded = |pages| execute_sharded(&spec(pages), Algorithm::Vvm, &ShardOptions::new(2));
    let (tight, roomy) = (sharded(16).unwrap(), sharded(ROOMY).unwrap());
    assert_eq!(roomy.outcome.stats.passes, 1);
    let mut sites = IoStats::default();
    for site in &tight.shards {
        sites.merge(&site.io);
    }
    assert_eq!(sites, tight.outcome.stats.io);
    let scan = roomy.outcome.stats.io.total_reads();
    assert!(sites.total_reads() > tight.outcome.stats.passes * scan);
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 4, Weighting::RawCount);
    assert!(one.result == want && tight.outcome.result == want);
}

// ---- (c) what the tracker does not price --------------------------------

/// Counts the live heap of the thread that armed it (the other tests of
/// this binary run on their own threads and stay out of the tally).
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn tally(delta: i64) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let live = LIVE.with(|l| l.replace(l.get() + delta) + delta);
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are thread-local
// statistics and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak bytes live on this thread while `f` ran, above what was live when
/// it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get) as u64)
}

/// Zipf documents of 60 terms over 2 400.
fn zipf(n: u64, seed: u64) -> Vec<Document> {
    SynthSpec::from_stats(CollectionStats::new(n, 60.0, 2_400), seed).generate_docs()
}

const ZIPF_SYS: SystemParams = SystemParams {
    buffer_pages: 8,
    page_size: 4096,
    alpha: 5.0,
};

/// Bytes of `cells` i-cells in memory.
fn cell_bytes(cells: u64) -> u64 {
    cells * std::mem::size_of::<ICell>() as u64
}

/// The bound of (c): `8·B·P + 8·N1` plus the two largest base entries,
/// where `N1` counts the base and `inserted` overlay documents.
fn heap_bound(f: &Fixture, inserted: usize) -> u64 {
    let largest = |inv: &InvertedFile| {
        let cells = inv.directory().iter().map(|m| m.doc_freq as u64).max();
        cell_bytes(cells.unwrap_or(0))
    };
    let n1 = (f.d1.len() + inserted) as u64;
    8 * ZIPF_SYS.buffer_bytes() + 8 * n1 + largest(&f.inv1) + largest(&f.inv2)
}

/// The shape of the benchmark's `spills` at a fifth of its size: Zipf
/// documents of 60 terms, a working set far above `B`, so VVM makes many
/// passes and HVNL's cache turns over all the time.
#[test]
fn peak_live_heap_is_bounded_by_the_buffer_not_by_the_pair_space() {
    let f = fixture(zipf(400, 11), zipf(80, 12), ZIPF_SYS.page_size);
    let sys = ZIPF_SYS;
    let spec = JoinSpec::new(&f.c1, &f.c2)
        .with_sys(sys)
        .with_query(QueryParams::paper_base().with_lambda(10));
    let bound = heap_bound(&f, 0);
    let want = naive_join(&f.d1, &f.d2, OuterDocs::Full, 10, Weighting::RawCount);

    let (v, v_peak) = peak_heap(|| vvm::execute(&spec, &f.inv1, &f.inv2).unwrap());
    assert!(v.result == want);
    assert!(v.stats.passes > 1, "the fixture must spill");
    assert!(v_peak <= bound, "VVM peak {v_peak} > bound {bound}");

    let (h, h_peak) = peak_heap(|| hvnl::execute(&spec, &f.inv1).unwrap());
    assert!(h.result == want);
    assert!(h.stats.entry_fetches > f.inv1.num_entries(), "must refetch");
    println!(
        "HVNL fetches {} peak {h_peak} bound {bound}",
        h.stats.entry_fetches
    );
    assert!(h_peak <= bound, "HVNL peak {h_peak} > bound {bound}");
    // The bound is about memory the tracker does not see, so it must bite:
    // the pair space alone is larger than it.
    assert!(8 * 400 * 80 > sys.buffer_bytes());
}

/// The same join with an inner overlay of 200 long inserts (300 terms
/// each), 125 flushed to side files and 75 in the tail, whose cells alone
/// outweigh `8·B·P`: the peak may grow by one merged delta entry and no
/// more. VVM streams the overlay beside its base scan; HVNL is refused the
/// overlay's charge before it reads any of it and looks terms up one at a
/// time. (At the commit before the stream both executors first copied the
/// whole overlay: peaks ≈ 3× the bound.) VVM's accumulators, not the
/// overlay, set most of its peak, and that share moves by up to a fifth
/// with the overlay's shape (EXPERIMENTS.md "PR 25"); this one keeps it
/// near the test above's.
#[test]
fn a_large_delta_overlay_adds_at_most_one_entry_to_the_peak() {
    let f = fixture(zipf(400, 11), zipf(80, 12), ZIPF_SYS.page_size);
    let inserted = SynthSpec::from_stats(CollectionStats::new(200, 300.0, 2_400), 13);
    let inserted = inserted.generate_docs();
    let (flushed, tail) = inserted.split_at(125);
    let base = f.d1.len() as u32;
    let mut store = DocumentStoreBuilder::new(Arc::clone(&f.disk), "c1.g1.docs").unwrap();
    let mut postings: HashMap<TermId, Vec<ICell>> = HashMap::new();
    for (id, doc) in (base..).zip(flushed) {
        store.add_with_id(DocId::new(id), doc).unwrap();
        for cell in doc.cells() {
            let posting = ICell::new(DocId::new(id), cell.weight);
            postings.entry(cell.term).or_default().push(posting);
        }
    }
    let mut overlay = DeltaOverlay::new();
    overlay.set_flushed(FlushedDelta {
        store: store.finish().unwrap(),
        inv: InvertedFile::from_postings_with(
            Arc::clone(&f.disk),
            "c1.g1",
            postings,
            PostingCodec::Fixed5,
        )
        .unwrap(),
    });
    for (id, doc) in (base + 125..).zip(tail) {
        overlay.insert_tail(DocId::new(id), doc.clone());
    }
    let delta = overlay.entries_between(0, None).unwrap();
    let sizes = delta.iter().map(|(_, cells)| cells.len() as u64);
    assert!(cell_bytes(sizes.clone().sum()) > 8 * ZIPF_SYS.buffer_bytes());
    let bound = heap_bound(&f, inserted.len()) + cell_bytes(sizes.max().unwrap());
    drop(delta);

    let spec = JoinSpec::new(&f.c1, &f.c2)
        .with_sys(ZIPF_SYS)
        .with_query(QueryParams::paper_base().with_lambda(10))
        .with_inner_delta(&overlay);
    let all: Vec<Document> = f.d1.iter().chain(&inserted).cloned().collect();
    let want = naive_join(&all, &f.d2, OuterDocs::Full, 10, Weighting::RawCount);
    let (v, v_peak) = peak_heap(|| vvm::execute(&spec, &f.inv1, &f.inv2).unwrap());
    assert!(v.result == want);
    assert!(v_peak <= bound, "VVM peak {v_peak} > bound {bound}");
    let (h, h_peak) = peak_heap(|| hvnl::execute(&spec, &f.inv1).unwrap());
    assert!(h.result == want);
    assert!(h_peak <= bound, "HVNL peak {h_peak} > bound {bound}");
    println!("VVM peak {v_peak} HVNL peak {h_peak} bound {bound}");
}
