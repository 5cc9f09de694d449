//! Per-shard §5 cost formulas — the analytical counterpart of
//! `core::shard`'s sharded executors.
//!
//! Sharding splits one distributed join into `S` per-site joins plus a
//! merge. Each site runs the section 5 formulas over a *scaled* input —
//! its fraction of the partitioned side — and pays the communication term
//! of assembling its replica. The plan the planner shows (and EXPLAIN
//! renders) is therefore:
//!
//! ```text
//! total   = Σ local_k  +  β · (Σ shipped_k + merge pages)
//! elapsed ≈ max_k (local_k + β · shipped_k)  +  β · merge pages
//! ```
//!
//! `total` is the bill (every page read or shipped, anywhere); `elapsed`
//! is the balance metric — sites run concurrently, so the slowest one
//! gates the answer, which is why skew-aware partitioning targets
//! `max_shard` rather than the sum.
//!
//! How an input scales mirrors the executors exactly:
//!
//! * **HHNL/HVNL/FNL** partition the outer documents: shard `k` sees
//!   `fraction_k · N2` outer documents and the *full* inner side, whose
//!   structures it must first receive ([`comm::pages_shipped`] with the §3
//!   term-encoding blowup).
//! * **VVM** partitions the vocabulary: shard `k` sees `fraction_k` of
//!   both sides' distinct terms and per-document cells, and receives that
//!   fraction of the inner inverted file.

use crate::comm::{self, CommParams, Site};
use crate::inputs::JoinInputs;
use crate::integrated::{estimate, Algorithm, IoScenario};
use textjoin_common::{CollectionStats, Result};

/// One site's slice of a [`ShardPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardCost {
    /// Site index.
    pub shard: usize,
    /// Fraction of the partitioned side this site owns.
    pub fraction: f64,
    /// Estimated local page cost (section 5, sequential scenario).
    pub local: f64,
    /// Estimated pages shipped to assemble this site, blowup included.
    pub shipped: f64,
}

impl ShardCost {
    /// This site's contribution to elapsed time: local work plus the
    /// β-priced shipping it waits for.
    pub fn elapsed(&self, beta: f64) -> f64 {
        self.local + beta * self.shipped
    }
}

/// The planner-visible estimate of a sharded execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    /// Which algorithm runs on every site.
    pub algorithm: Algorithm,
    /// Number of sites.
    pub shards: usize,
    /// Per-site breakdown.
    pub per_shard: Vec<ShardCost>,
    /// Pages of per-site top-λ rows shipped back to the coordinator.
    pub merge_pages: f64,
    /// The heaviest site's elapsed share — the balance metric skew-aware
    /// partitioning minimises.
    pub max_shard: f64,
    /// Total pages shipped (replicas plus merge).
    pub shipped_total: f64,
    /// The bill: every local page plus `β ·` every shipped page.
    pub total: f64,
    /// The critical path: the slowest site plus the final merge transfer.
    pub elapsed: f64,
}

/// `S` equal fractions — the naive baseline, and what skew-aware
/// partitioning achieves when the data cooperates.
pub fn uniform_fractions(shards: usize) -> Vec<f64> {
    let s = shards.max(1);
    vec![1.0 / s as f64; s]
}

/// Scales the partitioned dimension of `stats` by `fraction`.
fn scale_docs(stats: CollectionStats, fraction: f64) -> CollectionStats {
    CollectionStats::new(
        ((stats.num_docs as f64 * fraction).ceil() as u64).max(1),
        stats.avg_terms_per_doc,
        stats.distinct_terms,
    )
}

/// Scales the vocabulary dimension of `stats` by `fraction`: a term-range
/// shard sees `fraction` of the distinct terms and, on average, `fraction`
/// of each document's cells.
fn scale_terms(stats: CollectionStats, fraction: f64) -> CollectionStats {
    CollectionStats::new(
        stats.num_docs,
        (stats.avg_terms_per_doc * fraction).max(f64::MIN_POSITIVE),
        ((stats.distinct_terms as f64 * fraction).ceil() as u64).max(1),
    )
}

/// The inputs shard `k` of `algorithm` actually sees.
fn shard_inputs(inputs: &JoinInputs, algorithm: Algorithm, fraction: f64) -> JoinInputs {
    let mut scaled = *inputs;
    // Either way of slicing leaves a site its share of the cell pairs.
    scaled.matches = inputs.matches.map(|m| m * fraction);
    match algorithm {
        Algorithm::Hhnl | Algorithm::Hvnl | Algorithm::Fnl => {
            scaled.outer = scale_docs(inputs.outer, fraction);
        }
        Algorithm::Vvm => {
            scaled.inner = scale_terms(inputs.inner, fraction);
            scaled.outer = scale_terms(inputs.outer, fraction);
        }
    }
    scaled
}

/// Estimates a sharded execution of `algorithm` over `fractions` (one
/// entry per site; pass [`uniform_fractions`] for the balanced case, or
/// the estimated per-shard load shares to see what skew does to the
/// critical path).
pub fn plan(
    inputs: &JoinInputs,
    algorithm: Algorithm,
    comm: &CommParams,
    fractions: &[f64],
) -> Result<ShardPlan> {
    let fractions = if fractions.is_empty() {
        vec![1.0]
    } else {
        fractions.to_vec()
    };
    let mut per_shard = Vec::with_capacity(fractions.len());
    for (k, &fraction) in fractions.iter().enumerate() {
        let scaled = shard_inputs(inputs, algorithm, fraction);
        let local = estimate(algorithm, IoScenario::Dedicated, &[scaled])?;
        let shipped = comm::pages_shipped(&scaled, algorithm, Site::OuterSite, comm.encoding);
        per_shard.push(ShardCost {
            shard: k,
            fraction,
            local,
            shipped,
        });
    }
    // Every outer document's λ matches (8 bytes each: document number +
    // similarity) flow back to the coordinating site.
    let merge_pages = (inputs.outer.num_docs as f64 * inputs.query.lambda as f64 * 8.0
        / inputs.sys.page_size as f64)
        .ceil();
    let shipped_total = per_shard.iter().map(|s| s.shipped).sum::<f64>() + merge_pages;
    let total = per_shard.iter().map(|s| s.local).sum::<f64>() + comm.beta * shipped_total;
    let max_shard = per_shard
        .iter()
        .map(|s| s.elapsed(comm.beta))
        .fold(0.0, f64::max);
    Ok(ShardPlan {
        algorithm,
        shards: per_shard.len(),
        per_shard,
        merge_pages,
        max_shard,
        shipped_total,
        total,
        elapsed: max_shard + comm.beta * merge_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::TermEncoding;
    use textjoin_common::{QueryParams, SystemParams};

    fn inputs() -> JoinInputs {
        JoinInputs::with_paper_q(
            CollectionStats::doe(),
            CollectionStats::wsj(),
            SystemParams::paper_base(),
            QueryParams::paper_base(),
        )
    }

    #[test]
    fn uniform_fractions_sum_to_one() {
        for s in [1usize, 2, 4, 7] {
            let f = uniform_fractions(s);
            assert_eq!(f.len(), s);
            assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_shard_plan_reduces_to_the_distributed_total() {
        let i = inputs();
        let comm = CommParams::default_network();
        for algorithm in [Algorithm::Hhnl, Algorithm::Hvnl, Algorithm::Vvm] {
            let p = plan(&i, algorithm, &comm, &uniform_fractions(1)).unwrap();
            let flat = comm::total_cost(&i, &comm, algorithm, Site::OuterSite).unwrap();
            assert!(
                (p.total - comm.beta * p.merge_pages - flat).abs() < 1e-6,
                "{algorithm}: {} vs {flat}",
                p.total
            );
        }
    }

    #[test]
    fn skewed_fractions_raise_the_critical_path_not_the_bill_much() {
        let i = inputs();
        let comm = CommParams::default_network();
        let even = plan(&i, Algorithm::Vvm, &comm, &uniform_fractions(4)).unwrap();
        let skewed = plan(&i, Algorithm::Vvm, &comm, &[0.7, 0.1, 0.1, 0.1]).unwrap();
        assert!(
            skewed.max_shard > 2.0 * even.max_shard,
            "one hot shard gates the answer: {} vs {}",
            skewed.max_shard,
            even.max_shard
        );
        assert!(skewed.elapsed > even.elapsed);
    }

    #[test]
    fn hhnl_replicates_the_inner_side_per_shard() {
        // Outer partitioning ships the whole inner collection to every
        // site: S shards pay ≈ S × the single-site shipping.
        let i = inputs();
        let comm = CommParams::default_network();
        let one = plan(&i, Algorithm::Hhnl, &comm, &uniform_fractions(1)).unwrap();
        let four = plan(&i, Algorithm::Hhnl, &comm, &uniform_fractions(4)).unwrap();
        let rep1 = one.shipped_total - one.merge_pages;
        let rep4 = four.shipped_total - four.merge_pages;
        assert!((rep4 / rep1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn vvm_fragments_do_not_replicate() {
        // Term-range fragments tile the inverted file: total shipping is
        // (nearly) independent of S.
        let i = inputs();
        let comm = CommParams::default_network();
        let one = plan(&i, Algorithm::Vvm, &comm, &uniform_fractions(1)).unwrap();
        let four = plan(&i, Algorithm::Vvm, &comm, &uniform_fractions(4)).unwrap();
        let rep1 = one.shipped_total - one.merge_pages;
        let rep4 = four.shipped_total - four.merge_pages;
        assert!(
            (rep4 / rep1 - 1.0).abs() < 0.05,
            "fragments tile, they do not replicate: {rep4} vs {rep1}"
        );
    }

    #[test]
    fn actual_terms_cost_five_times_standard_numbers_shipping() {
        // Satellite: the §3 encoding penalty at the plan level.
        let i = inputs();
        let std_comm = CommParams {
            beta: 2.0,
            encoding: TermEncoding::StandardNumbers,
        };
        let act_comm = CommParams {
            beta: 2.0,
            encoding: TermEncoding::ActualTerms,
        };
        let std_plan = plan(&i, Algorithm::Hhnl, &std_comm, &uniform_fractions(2)).unwrap();
        let act_plan = plan(&i, Algorithm::Hhnl, &act_comm, &uniform_fractions(2)).unwrap();
        let std_rep = std_plan.shipped_total - std_plan.merge_pages;
        let act_rep = act_plan.shipped_total - act_plan.merge_pages;
        assert!(std_rep > 0.0);
        assert!(
            (act_rep / std_rep - 5.0).abs() < 1e-9,
            "ActualTerms {act_rep} vs StandardNumbers {std_rep}"
        );
    }
}
