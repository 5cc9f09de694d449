//! CPU-work accounting across algorithms — the paper's future-work item
//! (2) asks for cost formulas that include CPU cost; the executors report
//! the two relevant counters so the section 4.2 claim can be *measured*:
//! "[comparing with each document] requires almost all entries in the
//! document-term matrix be accessed … the inverted file based method
//! accesses only a very small portion of the document-term matrix."
//!
//! The claim is about the pairwise merge of two documents, and holds
//! wherever one is still run — the backward-order ablation. The forward
//! executors index the resident round by term and probe it, so all four
//! visit exactly the non-zero postings.

use std::sync::Arc;
use textjoin::core::{fnl, hhnl, hvnl, vvm};
use textjoin::prelude::*;
use textjoin::storage::DiskSim;

#[allow(clippy::type_complexity)]
fn fixture() -> (
    Arc<DiskSim>,
    Collection,
    Collection,
    InvertedFile,
    InvertedFile,
    FnlIndex,
) {
    let disk = Arc::new(DiskSim::new(4096));
    // A sparse vocabulary: most document pairs share few terms, so the
    // document-term matrix is mostly zero — the regime the claim is about.
    let c1 = SynthSpec::from_stats(CollectionStats::new(300, 20.0, 5000), 71)
        .generate(Arc::clone(&disk), "c1")
        .unwrap();
    let c2 = SynthSpec::from_stats(CollectionStats::new(150, 20.0, 5000), 72)
        .generate(Arc::clone(&disk), "c2")
        .unwrap();
    let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
    let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
    let sig1 = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
    (disk, c1, c2, inv1, inv2, sig1)
}

fn spec<'a>(c1: &'a Collection, c2: &'a Collection) -> JoinSpec<'a> {
    JoinSpec::new(c1, c2)
        .with_sys(SystemParams::paper_base().with_buffer_pages(500))
        .with_query(QueryParams {
            lambda: 5,
            delta: 1.0,
        })
}

#[test]
fn pairwise_merge_visits_scale_with_the_full_matrix() {
    let (_disk, c1, c2, inv1, _, _) = fixture();
    let spec = spec(&c1, &c2);
    let pairwise = hhnl::execute_backward(&spec).unwrap();
    let hv = hvnl::execute(&spec, &inv1).unwrap();
    assert_eq!(pairwise.result, hv.result);
    assert_eq!(pairwise.stats.sim_ops, hv.stats.sim_ops);

    // Merging walks both documents of every pair, so it visits far more
    // cells than the matches it finds, and far more than the postings the
    // inverted file hands HVNL...
    assert!(
        pairwise.stats.cells_touched > 10 * pairwise.stats.sim_ops,
        "the merge visited {} cells for {} matches — expected a sparse matrix",
        pairwise.stats.cells_touched,
        pairwise.stats.sim_ops
    );
    assert!(pairwise.stats.cells_touched > 5 * hv.stats.cells_touched);

    // ...each of the 300×150 pairs merges two ~20-cell documents: the
    // visit count is within a small factor of N1·N2·K.
    let pairs = 300u64 * 150;
    assert!(pairwise.stats.cells_touched >= pairs * 10);
    assert!(pairwise.stats.cells_touched <= pairs * 80);
}

#[test]
fn forward_executors_visit_only_matching_cells() {
    let (_disk, c1, c2, inv1, inv2, sig1) = fixture();
    let spec = spec(&c1, &c2);
    let hh = hhnl::execute(&spec).unwrap();
    let fl = fnl::execute(&spec, &sig1).unwrap();
    let hv = hvnl::execute(&spec, &inv1).unwrap();
    let vv = vvm::execute(&spec, &inv1, &inv2).unwrap();

    // Same answers, same multiply-adds (every algorithm computes exactly
    // the non-zero term-pair products), and no cell visited that is not
    // one of them.
    assert!(hh.stats.sim_ops > 0);
    for other in [&fl, &hv, &vv] {
        assert_eq!(other.result, hh.result, "{}", other.stats.algorithm);
        assert_eq!(other.stats.sim_ops, hh.stats.sim_ops);
    }
    for run in [&hh, &fl, &hv, &vv] {
        assert_eq!(
            run.stats.cells_touched, run.stats.sim_ops,
            "{}",
            run.stats.algorithm
        );
    }
}
