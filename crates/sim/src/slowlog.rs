//! The `textjoin-sim slowlog` command: run a canned workload with full
//! observability attached and dump the top-K most expensive queries.
//!
//! Every run is wrapped in a [`QueryReport`] (algorithm, pages, measured
//! vs predicted cost, wall time, per-phase durations) and offered to a
//! bounded [`SlowQueryLog`]; what survives is the workload's worst
//! offenders in rank order — the per-query complement to the registry's
//! aggregate histograms.

use crate::validate::{quick_configs, ValidationConfig};
use std::sync::Arc;
use textjoin_core::{QueryReport, SlowLogRank, SlowQueryLog};
use textjoin_costmodel::Algorithm;
use textjoin_obs::{Registry, Tracer};

/// Runs the canned workload (the quick validation scenarios × every
/// registered algorithm), keeping the `capacity` most expensive runs. Also returns
/// the registry the per-query reports rolled up into, so callers can dump
/// the aggregate view next to the top-K list.
pub fn canned_workload(capacity: usize) -> textjoin_common::Result<(SlowQueryLog, Arc<Registry>)> {
    canned_workload_ranked(capacity, SlowLogRank::Cost)
}

/// [`canned_workload`] with an explicit ranking key: by measured page
/// cost (deterministic — the gate-able unit) or by wall-clock time
/// (machine-local). Ties break deterministically, oldest first.
pub fn canned_workload_ranked(
    capacity: usize,
    rank: SlowLogRank,
) -> textjoin_common::Result<(SlowQueryLog, Arc<Registry>)> {
    let registry = Arc::new(Registry::new());
    let mut log = SlowQueryLog::ranked_by(capacity, rank);
    for cfg in quick_configs() {
        run_config(&cfg, &registry, &mut log)?;
    }
    Ok((log, registry))
}

fn run_config(
    cfg: &ValidationConfig,
    registry: &Arc<Registry>,
    log: &mut SlowQueryLog,
) -> textjoin_common::Result<()> {
    let pair = cfg.pair()?;
    for algorithm in Algorithm::ALL {
        // A fresh tracer per run keeps each report's phase breakdown to
        // its own spans.
        let tracer = Tracer::with_registry(2048, Arc::clone(registry));
        let spec = pair.spec(cfg.sys, cfg.query).with_trace(&tracer);
        let predicted = pair.predict(algorithm, &spec);
        let outcome = pair.run(algorithm, &spec)?;
        let report = QueryReport::from_outcome(
            format!("{} {algorithm}", cfg.label),
            &outcome,
            Some(&tracer),
            predicted,
        );
        report.observe_into(registry, cfg.sys.alpha);
        log.offer(report);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ranking_orders_entries_by_wall_time() {
        let (log, _registry) = canned_workload_ranked(6, SlowLogRank::Wall).unwrap();
        assert_eq!(log.len(), 6);
        let walls: Vec<u64> = log.entries().map(|r| r.wall_ns).collect();
        assert!(
            walls.windows(2).all(|w| w[0] >= w[1]),
            "wall rank order: {walls:?}"
        );
    }

    #[test]
    fn workload_fills_the_log_in_rank_order() {
        let (log, registry) = canned_workload(4).unwrap();
        assert_eq!(log.len(), 4, "2 scenarios x 4 algorithms, capacity 4");
        assert_eq!(log.admitted() + log.rejected(), 8);
        let costs: Vec<f64> = log.entries().map(|r| r.measured_cost).collect();
        assert!(
            costs.windows(2).all(|w| w[0] >= w[1]),
            "rank order: {costs:?}"
        );
        // Every retained report carries a phase breakdown (the runs were
        // traced) and a model prediction.
        for r in log.entries() {
            assert!(!r.phases.is_empty(), "{} has no phases", r.query);
            assert!(r.predicted_cost.is_some(), "{} unpredicted", r.query);
            assert!(r.wall_ns > 0, "{} has no wall time", r.query);
        }
        // The reports rolled up into the shared registry too.
        let snap = registry.snapshot();
        assert!(
            snap.iter().any(|m| m.name == "query.wall_ns"),
            "missing query.wall_ns rollup"
        );
    }
}
