//! The integrated algorithm, executable form.
//!
//! Section 6.1 proposes "an integrated algorithm that can automatically
//! determine which algorithm to use given the statistics of the two
//! collections, system parameters and query parameters"; section 7 states
//! the construction: invoke the basic algorithm with the lowest estimated
//! cost. This module wires the cost models of `textjoin-costmodel` to the
//! executors of this crate. If the chosen algorithm turns out infeasible at
//! run time (its memory estimate was optimistic), fails hard mid-run on
//! unreadable storage (a corrupt inverted file, an exhausted retry), or is
//! aborted by the drift watchdog (`Error::CostOverrun` — its observed page
//! cost overran the armed budget), the next-cheapest algorithm is tried —
//! e.g. HVNL dying on a corrupt inverted-file dictionary re-plans onto
//! HHNL, which never touches the inverted file at all. Fallback attempts
//! run with the watchdog disarmed: the budget was set from the *winner's*
//! prediction, and the fallback must be allowed to finish.

use crate::driver::Indexes;
use crate::report::observe_phase_sim_io;
use crate::result::JoinOutcome;
use crate::spec::JoinSpec;
use std::time::Instant;
use textjoin_common::{Error, Result};
use textjoin_costmodel::{rank, Algorithm, CostEstimates, IoScenario, Prediction, Prices};
use textjoin_invfile::{FnlIndex, InvertedFile};
use textjoin_obs::Tracer;
use textjoin_storage::DiskSim;

/// The integrated algorithm's decision and execution record.
#[derive(Debug)]
pub struct IntegratedOutcome {
    /// Which algorithm actually ran.
    pub chosen: Algorithm,
    /// The §5 page estimates: a sequential and a worst-case figure for
    /// each of the four algorithms.
    pub estimates: CostEstimates,
    /// The ranking the choice was made on and fallbacks were tried in:
    /// pages, `page_ns · pages`, `cpu_ns` per algorithm, cheapest predicted
    /// time first. `ranking[0]` is the planner's first choice, which
    /// differs from `chosen` exactly when a fallback ran.
    pub ranking: [Prediction; 4],
    /// The execution result and measured statistics.
    pub outcome: JoinOutcome,
}

/// The built-in CPU prices beside what `disk` says a page costs it — what
/// both front doors rank under when no calibration profile is given.
pub fn device_prices(disk: &DiskSim) -> Prices {
    let service = disk.page_service();
    Prices::on_device(service.seq_ns as f64, service.rand_ns as f64)
}

/// The cheapest-first fallback chain. Runs `first`; if it turns out
/// infeasible at run time (its memory estimate was optimistic), dies on
/// unreadable storage, or is aborted by the drift watchdog, the remaining
/// algorithms with a finite `cost` (the ranking's predicted time) are
/// tried cheapest first — e.g. HVNL
/// failing on a corrupt inverted file falls back to HHNL, which never
/// touches the inverted file. `attempt` receives the algorithm and the
/// number of failed attempts before it; callers run fallbacks with the
/// watchdog disarmed (the budget belonged to the first choice's
/// prediction). Returns the algorithm that succeeded, the number of
/// fallbacks it took, and its result; the last failure when none did.
pub fn with_fallback<T>(
    first: Algorithm,
    cost: impl Fn(Algorithm) -> f64,
    mut attempt: impl FnMut(Algorithm, u64) -> Result<T>,
) -> Result<(Algorithm, u64, T)> {
    let mut fallbacks: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .filter(|a| *a != first && cost(*a).is_finite())
        .collect();
    fallbacks.sort_by(|a, b| cost(*a).total_cmp(&cost(*b)));
    let mut last_err = None;
    for (failed, algorithm) in std::iter::once(first).chain(fallbacks).enumerate() {
        match attempt(algorithm, failed as u64) {
            Ok(out) => return Ok((algorithm, failed as u64, out)),
            Err(
                e @ (Error::InsufficientMemory { .. }
                | Error::Corrupt(_)
                | Error::Io { .. }
                | Error::CostOverrun { .. }),
            ) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("the first algorithm was attempted"))
}

/// Estimates all costs from the spec's *measured* statistics, then runs the
/// cheapest feasible algorithm under the given I/O scenario.
pub fn execute(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    scenario: IoScenario,
) -> Result<IntegratedOutcome> {
    execute_with_index(spec, inner_inv, outer_inv, None, scenario, 1)
}

/// [`execute`] with an optional signature index. When an index is
/// supplied, its measured page counts enter the cost inputs and FNL joins
/// the candidate ranking; without one, FNL's estimates are infinite and the
/// procedure reduces to the classic three-way choice. `_workers` is ignored
/// (every algorithm runs on the calling thread). Pinned by `benchmark/`;
/// delete once it may change.
pub fn execute_with_index(
    spec: &JoinSpec<'_>,
    inner_inv: &InvertedFile,
    outer_inv: &InvertedFile,
    fnl_index: Option<&FnlIndex>,
    scenario: IoScenario,
    _workers: usize,
) -> Result<IntegratedOutcome> {
    let started = Instant::now();
    let mut root = Tracer::maybe(spec.trace, "integrated");
    let mut inputs = spec.cost_inputs();
    if let Some(ix) = fnl_index {
        inputs = inputs.with_fnl(ix.stats());
    }
    let prices = device_prices(spec.inner.store().disk());
    let (estimates, ranking) = rank(std::slice::from_ref(&inputs), scenario, &prices, |_, c| c);
    let cost = |a: Algorithm| {
        let row = ranking.iter().find(|r| r.algorithm == a);
        row.map_or(f64::INFINITY, Prediction::total_ns)
    };
    if ranking[0].total_ns().is_infinite() {
        return Err(Error::InsufficientMemory {
            context: "no join algorithm is feasible in the given memory".into(),
            required_pages: 0,
            available_pages: spec.sys.buffer_pages,
        });
    }

    let indexes = Indexes {
        inner_inv: Some(inner_inv),
        outer_inv: Some(outer_inv),
        // A finite FNL estimate implies the index was supplied (no index
        // means no stats and an infinite estimate).
        fnl: fnl_index,
    };
    let unwatched = spec.without_cost_budget();
    let (chosen, fallbacks, mut outcome) =
        with_fallback(ranking[0].algorithm, cost, |algorithm, failed| {
            let spec = if failed == 0 { spec } else { &unwatched };
            // Keep the live ticket's label honest: the algorithm actually
            // attempted may differ from what the caller registered. (A cancel
            // never reaches this chain — executors absorb it into an `Ok`
            // Partial outcome.)
            if let Some(ticket) = spec.ticket {
                ticket.set_algorithm(algorithm.to_string());
            }
            crate::execute(algorithm, spec, &indexes)
        })?;
    if root.is_enabled() {
        // Why this algorithm: the full cost ranking it won.
        root.detail(|| {
            let ranking = ranking
                .iter()
                .map(|r| format!("{}={:.1}p/{:.0}µs", r.algorithm, r.raw, r.total_ns() / 1e3))
                .collect::<Vec<_>>()
                .join(" < ");
            format!("chose {chosen}: {ranking}")
        });
        root.record("fallbacks", fallbacks);
        observe_phase_sim_io(spec.trace, "integrated", &outcome.stats.io, spec.sys.alpha);
    }
    // The integrated wall time covers planning and any failed re-plan
    // attempts, not just the winning executor.
    outcome.stats.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(IntegratedOutcome {
        chosen,
        estimates,
        ranking,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_join;
    use crate::spec::OuterDocs;
    use std::sync::Arc;
    use textjoin_collection::{Collection, Document, SynthSpec};
    use textjoin_common::{CollectionStats, DocId, QueryParams, SystemParams};

    #[allow(clippy::type_complexity)]
    fn fixture() -> (
        Arc<DiskSim>,
        Collection,
        Collection,
        InvertedFile,
        InvertedFile,
        Vec<Document>,
        Vec<Document>,
    ) {
        let disk = Arc::new(DiskSim::new(256));
        // The inner collection is large enough that scanning it (D1) costs
        // far more than fetching a handful of inverted entries — the regime
        // where the paper's finding 2 (HVNL for tiny outer sides) applies.
        let d1 = SynthSpec::from_stats(CollectionStats::new(400, 12.0, 150), 51).generate_docs();
        let d2 = SynthSpec::from_stats(CollectionStats::new(40, 12.0, 150), 52).generate_docs();
        let c1 = Collection::build(Arc::clone(&disk), "c1", d1.clone()).unwrap();
        let c2 = Collection::build(Arc::clone(&disk), "c2", d2.clone()).unwrap();
        let inv1 = InvertedFile::build(Arc::clone(&disk), "c1", &c1).unwrap();
        let inv2 = InvertedFile::build(Arc::clone(&disk), "c2", &c2).unwrap();
        (disk, c1, c2, inv1, inv2, d1, d2)
    }

    #[test]
    fn runs_cheapest_algorithm_and_matches_reference() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 200,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let got = execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 5, crate::Weighting::RawCount);
        assert_eq!(got.outcome.result, want);
        assert_eq!(got.chosen, got.outcome.stats.algorithm);
        // No fallback ran: the first of the recorded ranking did, and
        // the ranking is by predicted time.
        assert_eq!(got.chosen, got.ranking[0].algorithm);
        assert!(got
            .ranking
            .windows(2)
            .all(|w| w[0].total_ns() <= w[1].total_ns()));
        for r in got.ranking {
            assert_eq!(
                r.raw,
                got.estimates.cost(r.algorithm, IoScenario::Dedicated)
            );
        }
    }

    #[test]
    fn small_selected_outer_set_picks_hvnl() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture();
        let chosen_docs = [DocId::new(7)];
        let spec = JoinSpec::new(&c1, &c2)
            .with_outer_docs(OuterDocs::Selected(&chosen_docs))
            .with_sys(SystemParams {
                buffer_pages: 200,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(3));
        let got = execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap();
        assert_eq!(got.chosen, Algorithm::Hvnl, "single-document outer side");
        let want = naive_join(
            &d1,
            &d2,
            OuterDocs::Selected(&chosen_docs),
            3,
            crate::Weighting::RawCount,
        );
        assert_eq!(got.outcome.result, want);
    }

    #[test]
    fn falls_back_when_the_estimate_was_too_optimistic() {
        let (_, c1, c2, inv1, inv2, d1, d2) = fixture();
        // δ far below reality: the planner measures δ and VVM sizes its
        // passes from the measured `SM`, so neither is misled by it; the
        // point here is that whatever was chosen, the result is right.
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 60,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams {
                lambda: 4,
                delta: 0.001,
            });
        let got = execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap();
        let want = naive_join(&d1, &d2, OuterDocs::Full, 4, crate::Weighting::RawCount);
        assert_eq!(got.outcome.result, want);
    }

    /// The pinned worker count is ignored: same choice, same run.
    #[test]
    fn the_pinned_worker_count_changes_nothing() {
        let (disk, c1, c2, inv1, inv2, _, _) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 200,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let run = |workers: usize| {
            disk.reset_head();
            let scenario = IoScenario::Dedicated;
            let out = execute_with_index(&spec, &inv1, &inv2, None, scenario, workers).unwrap();
            (out.chosen, out.outcome.result, out.outcome.stats.io)
        };
        let one = run(1);
        assert_eq!(run(4), one);
        assert_eq!(run(0), one);
    }

    #[test]
    fn watchdog_overrun_replans_onto_next_cheapest_with_identical_results() {
        let (_, c1, c2, inv1, inv2, _, _) = fixture();
        let spec = JoinSpec::new(&c1, &c2)
            .with_sys(SystemParams {
                buffer_pages: 200,
                page_size: 256,
                alpha: 5.0,
            })
            .with_query(QueryParams::paper_base().with_lambda(5));
        let baseline = execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap();
        // A 1-page budget simulates a grossly optimistic prediction: the
        // first choice overruns at its first checkpoint, the integrated
        // algorithm re-plans onto the next-cheapest (watchdog disarmed),
        // and the results are byte-identical to the unwatched run.
        let watched = spec.with_cost_budget(1.0);
        let got = execute(&watched, &inv1, &inv2, IoScenario::Dedicated).unwrap();
        assert_eq!(got.outcome.result, baseline.outcome.result);
        assert_ne!(
            got.chosen, baseline.chosen,
            "the overrun must force a different algorithm"
        );
    }

    #[test]
    fn impossible_memory_reports_insufficiency() {
        let (_, c1, c2, inv1, inv2, _, _) = fixture();
        let spec = JoinSpec::new(&c1, &c2).with_sys(SystemParams {
            buffer_pages: 1,
            page_size: 256,
            alpha: 5.0,
        });
        let err = execute(&spec, &inv1, &inv2, IoScenario::Dedicated).unwrap_err();
        assert!(matches!(err, Error::InsufficientMemory { .. }));
    }
}
