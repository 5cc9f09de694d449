//! One table over the pass driver: every algorithm × batch size goes
//! through the same four checks — the oracle, a pre-set cancel, a sub-page
//! watchdog budget, an attached tracer — instead of one copy of each per
//! executor; the sharded cells (S = 2, both partitionings) go through the
//! first two (sites run untraced and unwatched). There is no worker
//! column: every algorithm runs on the calling thread, so `(N, w = 2)`
//! would repeat `(N, w = 1)`.

use std::sync::Arc;
use textjoin::common::Error;
use textjoin::core::hvnl::{HvnlOptions, OuterOrder};
use textjoin::core::reference::naive_join;
use textjoin::core::{
    batch, execute_sharded, hhnl, hvnl, ExecStats, Indexes, ResultQuality, ShardOptions,
    ShardPartitioning,
};
use textjoin::obs::{CancelToken, SpanRecord, Tracer};
use textjoin::prelude::*;

/// Small pages and a small buffer: every algorithm needs several passes
/// (several checkpoints).
struct Fixture {
    c1: Collection,
    c2: Collection,
    inv1: InvertedFile,
    inv2: InvertedFile,
    fnl1: FnlIndex,
    d1: Vec<Document>,
    d2: Vec<Document>,
    sys: SystemParams,
}

fn fixture() -> Fixture {
    let sys = SystemParams {
        buffer_pages: 48,
        page_size: 256,
        alpha: 5.0,
    };
    let disk = Arc::new(DiskSim::new(sys.page_size));
    let d1 = SynthSpec::from_stats(CollectionStats::new(90, 12.0, 300), 71).generate_docs();
    let d2 = SynthSpec::from_stats(CollectionStats::new(300, 12.0, 300), 72).generate_docs();
    let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
    let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
    Fixture {
        inv1: InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap(),
        inv2: InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap(),
        fnl1: FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap(),
        c1,
        c2,
        d1,
        d2,
        sys,
    }
}

/// What one cell of the table runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// `core::execute(alg, spec, indexes)` — N = 1.
    Single,
    /// `batch::execute(alg, specs, indexes)` — N = 3.
    Batch,
    /// The paper's ablations, N = 1 only, under the same driver.
    HhnlBackward,
    HvnlGreedy,
    /// `execute_sharded` over two sites — N = 1.
    Sharded(ShardPartitioning),
}

const LAMBDAS: [usize; 3] = [3, 1, 5];

fn cells() -> Vec<(Algorithm, Mode)> {
    let mut cells = Vec::new();
    for alg in Algorithm::ALL {
        cells.push((alg, Mode::Single));
        cells.push((alg, Mode::Batch));
    }
    cells.push((Algorithm::Hhnl, Mode::HhnlBackward));
    cells.push((Algorithm::Hvnl, Mode::HvnlGreedy));
    cells
}

fn sharded_cells() -> Vec<(Algorithm, Mode)> {
    let strategies = [ShardPartitioning::SkewAware, ShardPartitioning::Naive];
    Algorithm::ALL
        .into_iter()
        .flat_map(|alg| strategies.map(|p| (alg, Mode::Sharded(p))))
        .collect()
}

/// Runs one cell: per-query outcomes plus the statistics of the whole run.
fn run<'a>(
    f: &'a Fixture,
    alg: Algorithm,
    mode: Mode,
    decorate: impl Fn(JoinSpec<'a>) -> JoinSpec<'a>,
) -> Result<(Vec<JoinOutcome>, ExecStats), Error> {
    let indexes = Indexes::all(&f.inv1, &f.inv2, &f.fnl1);
    // The greedy order holds every outer document at once, which is more
    // than the multi-pass budget the other cells share.
    let sys = match mode {
        Mode::HvnlGreedy => f.sys.with_buffer_pages(4 * f.sys.buffer_pages),
        _ => f.sys,
    };
    let spec = |lambda: usize| {
        decorate(
            JoinSpec::new(&f.c1, &f.c2)
                .with_sys(sys)
                .with_query(QueryParams::paper_base().with_lambda(lambda)),
        )
    };
    let single = |out: JoinOutcome| {
        let stats = out.stats;
        (vec![out], stats)
    };
    match mode {
        Mode::Single => textjoin::core::execute(alg, &spec(LAMBDAS[0]), &indexes).map(single),
        Mode::Batch => {
            let specs: Vec<JoinSpec<'a>> = LAMBDAS.iter().map(|&l| spec(l)).collect();
            batch::execute(alg, &specs, &indexes).map(|b| (b.queries, b.stats))
        }
        Mode::HhnlBackward => hhnl::execute_backward(&spec(LAMBDAS[0])).map(single),
        Mode::HvnlGreedy => {
            let options = HvnlOptions {
                order: OuterOrder::GreedyIntersection,
                ..HvnlOptions::default()
            };
            hvnl::execute_with(&spec(LAMBDAS[0]), &f.inv1, options).map(single)
        }
        Mode::Sharded(partitioning) => {
            let opts = ShardOptions::new(2).with_partitioning(partitioning);
            execute_sharded(&spec(LAMBDAS[0]), alg, &opts).map(|run| single(run.outcome))
        }
    }
}

fn oracle(f: &Fixture, lambda: usize) -> JoinResult {
    naive_join(&f.d1, &f.d2, OuterDocs::Full, lambda, Weighting::RawCount)
}

#[test]
fn every_cell_equals_the_oracle() {
    let f = fixture();
    for (alg, mode) in cells().into_iter().chain(sharded_cells()) {
        let (queries, stats) = run(&f, alg, mode, |s| s).unwrap();
        for (q, &lambda) in queries.iter().zip(&LAMBDAS) {
            assert_eq!(q.result, oracle(&f, lambda), "{alg} {mode:?} λ={lambda}");
            assert_eq!(q.quality, ResultQuality::Full, "{alg} {mode:?}");
        }
        assert_eq!(stats.algorithm, alg);
        assert!(stats.io.total_reads() > 0, "{alg} {mode:?}");
    }
}

/// N = 1 through the batch entry point *is* the sequential run: the same
/// passes, counters and pages, not merely the same result.
#[test]
fn batch_of_one_is_the_sequential_run() {
    let f = fixture();
    let indexes = Indexes::all(&f.inv1, &f.inv2, &f.fnl1);
    let spec = JoinSpec::new(&f.c1, &f.c2)
        .with_sys(f.sys)
        .with_query(QueryParams::paper_base().with_lambda(4));
    for alg in Algorithm::ALL {
        let seq = textjoin::core::execute(alg, &spec, &indexes).unwrap();
        let one = batch::execute(alg, &[spec], &indexes).unwrap();
        assert_eq!(one.queries[0].result, seq.result, "{alg}");
        let (a, b) = (one.stats, seq.stats);
        assert_eq!(a.io, b.io, "{alg}");
        assert_eq!(
            (
                a.passes,
                a.sim_ops,
                a.cells_touched,
                a.entry_fetches,
                a.cache_hits
            ),
            (
                b.passes,
                b.sim_ops,
                b.cells_touched,
                b.entry_fetches,
                b.cache_hits
            ),
            "{alg}"
        );
        assert_eq!(a.mem_high_water_bytes, b.mem_high_water_bytes, "{alg}");
    }
}

/// A token set before the run starts is observed at the first checkpoint:
/// `Partial`, cheaper than the full run, and every row that did come back
/// is the oracle's row for that outer document. Sites each stop at their
/// own first checkpoint, so a sharded row may lack the candidates of a site
/// that had not reached that document: every match that did come back is a
/// true pair with its exact score.
#[test]
fn preset_cancel_returns_an_oracle_prefix_within_one_checkpoint() {
    let f = fixture();
    let token = CancelToken::new();
    token.cancel();
    let every_pair = oracle(&f, f.d1.len());
    for (alg, mode) in cells().into_iter().chain(sharded_cells()) {
        let (_, clean) = run(&f, alg, mode, |s| s).unwrap();
        let (queries, stats) = run(&f, alg, mode, |s| s.with_cancel(&token)).unwrap();
        // (The greedy order reads the whole outer side before it joins
        // the first document, so its cancel saves CPU, not pages.)
        assert!(
            stats.cost < clean.cost || mode == Mode::HvnlGreedy,
            "{alg} {mode:?}: cancelled cost {} not below clean {}",
            stats.cost,
            clean.cost
        );
        for (q, &lambda) in queries.iter().zip(&LAMBDAS) {
            assert_eq!(q.quality, ResultQuality::Partial, "{alg} {mode:?}");
            if mode == Mode::HhnlBackward {
                // Backward rows only become final after the last inner
                // batch; a cancelled run holds scores over a prefix of C1.
                continue;
            }
            let want = oracle(&f, lambda);
            assert!(
                q.result.num_outer_docs() < want.num_outer_docs(),
                "{alg} {mode:?}"
            );
            for (outer, matches) in q.result.iter() {
                if matches!(mode, Mode::Sharded(_)) {
                    let pairs = every_pair.matches(outer).unwrap();
                    assert!(
                        matches.iter().all(|m| pairs.contains(m)),
                        "{alg} {mode:?} {outer:?}"
                    );
                    continue;
                }
                assert_eq!(
                    Some(matches),
                    want.matches(outer),
                    "{alg} {mode:?} {outer:?}"
                );
            }
        }
    }
}

/// A selection that is not strictly ascending — out of order, or with an id
/// twice — on either side is refused with `InvalidArgument` naming the
/// side, by every cell, before it can be binary-searched or sized by its
/// last id (which dropped rows or panicked).
#[test]
fn an_unsorted_or_duplicated_selection_is_refused_in_every_cell() {
    let f = fixture();
    let ids = |raw: &[u32]| raw.iter().map(|&d| DocId::new(d)).collect::<Vec<_>>();
    let (unsorted_outer, twice_outer) = (ids(&[40, 7, 22]), ids(&[7, 7, 22]));
    let (unsorted_inner, twice_inner) = (ids(&[60, 5]), ids(&[5, 5]));
    let sides: [(&str, &[DocId], &[DocId]); 4] = [
        ("outer", &unsorted_outer, &[]),
        ("outer", &twice_outer, &[]),
        ("inner", &[], &unsorted_inner),
        ("inner", &[], &twice_inner),
    ];
    for (side, outer, inner) in sides {
        for (alg, mode) in cells().into_iter().chain(sharded_cells()) {
            let got = run(&f, alg, mode, |s| match side {
                "outer" => s.with_outer_docs(OuterDocs::Selected(outer)),
                _ => s.with_inner_docs(inner),
            });
            match got {
                Err(Error::InvalidArgument(why)) => {
                    assert!(why.contains(side), "{alg} {mode:?}: {why}")
                }
                got => panic!("{alg} {mode:?} {side} {outer:?} {inner:?}: {:?}", got.err()),
            }
        }
    }
}

/// A budget below one page cannot survive the first checkpoint, whatever
/// executes the passes.
#[test]
fn sub_page_budget_overruns_in_every_cell() {
    let f = fixture();
    for (alg, mode) in cells() {
        let got = run(&f, alg, mode, |s| s.with_cost_budget(0.5));
        assert!(
            matches!(got, Err(Error::CostOverrun { .. })),
            "{alg} {mode:?}: {:?}",
            got.map(|(_, s)| s.cost)
        );
    }
}

fn field(span: &SpanRecord, name: &str) -> Option<u64> {
    span.fields
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
}

/// The root span is named for the algorithm and carries the run's pass
/// count; at N = 1 the phase spans keep the names EXPLAIN ANALYZE keys on.
#[test]
fn attached_tracer_sees_the_driver_spans() {
    let f = fixture();
    for (alg, mode) in cells() {
        let tracer = Tracer::enabled(8192);
        let (queries, stats) = run(&f, alg, mode, |s| s.with_trace(&tracer)).unwrap();
        let (untraced, _) = run(&f, alg, mode, |s| s).unwrap();
        for (q, u) in queries.iter().zip(&untraced) {
            assert_eq!(
                q.result, u.result,
                "{alg} {mode:?}: tracing changed the result"
            );
        }
        let spans = tracer.finished();
        let (root, phases): (&str, &[&str]) = match (alg, mode) {
            (_, Mode::HhnlBackward) => ("hhnl.backward", &["hhnl.outer_scan"]),
            (Algorithm::Hhnl, _) => ("hhnl", &["hhnl.inner_scan"]),
            (Algorithm::Hvnl, _) => ("hvnl", &["hvnl.setup", "hvnl.outer_scan"]),
            (Algorithm::Vvm, _) => ("vvm", &["vvm.merge_pass"]),
            (Algorithm::Fnl, _) => ("fnl", &["fnl.term_order", "fnl.sig_scan"]),
        };
        // One root: a run is driven once, and its root carries the run's
        // statistics.
        let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == root).collect();
        assert_eq!(roots.len(), 1, "{alg} {mode:?}");
        assert_eq!(field(roots[0], "passes"), Some(stats.passes));
        assert_eq!(field(roots[0], "seq_reads"), Some(stats.io.seq_reads));
        for phase in phases {
            assert!(
                spans.iter().any(|s| s.name == *phase),
                "{alg} {mode:?}: no `{phase}` span"
            );
        }
        if mode != Mode::Single {
            continue;
        }
        // Sequential: exactly the root and its phases, one pass span per
        // pass, and the passes' page deltas stay within the run's total.
        let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut want: Vec<&str> = phases.iter().copied().chain([root]).collect();
        want.sort_unstable();
        assert_eq!(names, want, "{alg}");
        let pass_spans: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.name == *phases.last().unwrap() && s.parent == roots[0].id)
            .collect();
        assert_eq!(pass_spans.len() as u64, stats.passes, "{alg}");
        let per_pass: u64 = pass_spans
            .iter()
            .map(|s| field(s, "seq_reads").unwrap() + field(s, "rand_reads").unwrap())
            .sum();
        assert!(per_pass <= stats.io.total_reads(), "{alg}");
    }
}
