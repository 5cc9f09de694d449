//! The four worker-count signatures `benchmark/` pins, and nothing else.
//! Every algorithm runs one scan (or one merge) on one thread: each
//! forward rejects `workers == 0` and calls the sequential executor.
//!
//! The paper's future-work item (3) — "develop algorithms that process
//! textual joins in parallel" — had two executors here and both lost to
//! one thread on every measured workload (DESIGN.md, "What went, and
//! why"): an outer-partitioned path for HHNL, HVNL and FNL that rescanned
//! the inner side once per worker (PR 18), and term-range parts for VVM,
//! where every part filled a table over the whole pair space of the chunk,
//! one thread re-inserted every pair, and a `B / w` share raised `⌈SM/M⌉`
//! (PR 20). A parallel VVM worth having splits the pair space, not the
//! terms.

use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use crate::{fnl, hhnl, hvnl, vvm};
use textjoin_common::{Error, Result};
use textjoin_invfile::{FnlIndex, InvertedFile};

fn require_workers(workers: usize) -> Result<()> {
    if workers == 0 {
        return Err(Error::InvalidArgument(
            "at least one worker is required".into(),
        ));
    }
    Ok(())
}

/// [`hhnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`;
/// delete once it may change.
pub fn execute_hhnl(spec: &JoinSpec<'_>, workers: usize) -> Result<JoinOutcome> {
    require_workers(workers)?;
    hhnl::execute(spec)
}

/// [`fnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`; delete
/// once it may change.
pub fn execute_fnl(spec: &JoinSpec<'_>, index: &FnlIndex, workers: usize) -> Result<JoinOutcome> {
    require_workers(workers)?;
    fnl::execute(spec, index)
}

/// [`hvnl::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`; delete
/// once it may change.
pub fn execute_hvnl(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    require_workers(workers)?;
    hvnl::execute(spec, inner_inv)
}

/// [`vvm::execute`] for any `workers ≥ 1`. Pinned by `benchmark/`; delete
/// once it may change.
pub fn execute_vvm(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    workers: usize,
) -> Result<JoinOutcome> {
    require_workers(workers)?;
    vvm::execute(spec, inner_inv, outer_inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OuterDocs;
    use crate::Algorithm;
    use std::sync::Arc;
    use textjoin_collection::{Collection, SynthSpec};
    use textjoin_common::{CollectionStats, DocId, QueryParams, SystemParams};
    use textjoin_storage::DiskSim;

    /// Each pinned forward is its sequential executor for every worker
    /// count, down to the pages, passes and memory of the run.
    #[test]
    fn pinned_forwards_are_the_sequential_executors() {
        let disk = Arc::new(DiskSim::new(512));
        let d1 = SynthSpec::from_stats(CollectionStats::new(60, 12.0, 200), 61).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(45, 12.0, 200), 62).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        let index = FnlIndex::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let chosen = [DocId::new(2), DocId::new(11), DocId::new(30)];
        let tight = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 67,
                page_size: 512,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(4));
        let selected = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen))
            .with_query(QueryParams::paper_base().with_lambda(3));
        let indexes = crate::Indexes::all(&inv1, &inv2, &index);
        type Sequential<'a> = &'a dyn Fn(&JoinSpec<'_>) -> Result<JoinOutcome>;
        type Forward<'a> = &'a dyn Fn(&JoinSpec<'_>, usize) -> Result<JoinOutcome>;
        let table: [(Algorithm, Sequential<'_>, Forward<'_>); 4] = [
            (Algorithm::Hhnl, &|s| hhnl::execute(s), &|s, w| {
                execute_hhnl(s, w)
            }),
            (Algorithm::Hvnl, &|s| hvnl::execute(s, &inv1), &|s, w| {
                execute_hvnl(s, &inv1, w)
            }),
            (
                Algorithm::Vvm,
                &|s| vvm::execute(s, &inv1, &inv2),
                &|s, w| execute_vvm(s, &inv1, &inv2, w),
            ),
            (Algorithm::Fnl, &|s| fnl::execute(s, &index), &|s, w| {
                execute_fnl(s, &index, w)
            }),
        ];
        let measured = |run: &dyn Fn() -> Result<JoinOutcome>| {
            disk.reset_head();
            let out = run().unwrap();
            let stats = out.stats;
            (
                out.result,
                stats.io,
                stats.passes,
                stats.mem_high_water_bytes,
            )
        };
        for (alg, sequential, forward) in table {
            for spec in [&tight, &selected] {
                let want = measured(&|| sequential(spec));
                let dispatched = measured(&|| crate::execute(alg, spec, &indexes));
                assert_eq!(dispatched, want, "execute({alg})");
                for w in [1, 2, 7] {
                    assert_eq!(measured(&|| forward(spec, w)), want, "{alg} w={w}");
                }
            }
            let refused = forward(&tight, 0);
            assert!(
                matches!(refused, Err(Error::InvalidArgument(_))),
                "{alg} w=0"
            );
        }
    }
}
