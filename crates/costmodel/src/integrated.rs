//! The integrated algorithm: estimate every cost, run the cheapest.
//!
//! Section 6.1: "it is desirable to construct an integrated algorithm that
//! can automatically determine which algorithm to use given the statistics
//! of the two collections (N1, N2, K1, K2, T1, T2, p, q, δ), system
//! parameters (B, P, α) and query parameters" — and section 7: "a
//! particular basic algorithm is invoked if it has the lowest estimated
//! cost".

use crate::forward::{self, documents, signatures};
use crate::inputs::JoinInputs;
use crate::work::Prices;
use crate::{hvnl, vvm};
use std::fmt;
use std::slice::from_ref;
use textjoin_common::Result;

/// The three join algorithms of the paper, plus the filtered fourth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Horizontal-Horizontal Nested Loop: documents × documents.
    Hhnl,
    /// Horizontal-Vertical Nested Loop: outer documents × inner inverted
    /// file.
    Hvnl,
    /// Vertical-Vertical Merge: inverted file × inverted file.
    Vvm,
    /// Filtered Nested Loop: outer documents × the inner side's compact
    /// rarity-ordered signature index, with prefix/position pruning.
    /// Byte-identical results to HHNL, feasible only when the signature
    /// index has been built.
    Fnl,
}

impl Algorithm {
    /// All registered algorithms, in tie-break order (simplest first).
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Hhnl,
        Algorithm::Hvnl,
        Algorithm::Vvm,
        Algorithm::Fnl,
    ];
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Hhnl => write!(f, "HHNL"),
            Algorithm::Hvnl => write!(f, "HVNL"),
            Algorithm::Vvm => write!(f, "VVM"),
            Algorithm::Fnl => write!(f, "FNL"),
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = textjoin_common::Error;

    /// Parses the display names back (`"HHNL"`, `"HVNL"`, `"VVM"`,
    /// `"FNL"`) — the inverse of [`fmt::Display`], used when reports are
    /// reloaded from the persistent store.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "HHNL" => Ok(Algorithm::Hhnl),
            "HVNL" => Ok(Algorithm::Hvnl),
            "VVM" => Ok(Algorithm::Vvm),
            "FNL" => Ok(Algorithm::Fnl),
            other => Err(textjoin_common::Error::Parse(format!(
                "unknown algorithm '{other}'"
            ))),
        }
    }
}

/// Which I/O pricing applies: a dedicated drive per structure (sequential
/// estimates) or a shared device in the worst case (random estimates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoScenario {
    /// Each scan proceeds undisturbed: `hhs`, `hvs`, `vvs`.
    Dedicated,
    /// The device serves other obligations between requests: `hhr`, `hvr`,
    /// `vvr`.
    SharedWorstCase,
}

/// The cost estimates for one join configuration, one sequential and one
/// worst-case-random figure per algorithm. Estimates are `f64::INFINITY`
/// when the algorithm cannot run in the given memory (e.g. VVM with no room
/// for even two entries) or lacks a required structure (FNL without a
/// signature index).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimates {
    /// `hhs` — HHNL, sequential.
    pub hhnl_seq: f64,
    /// `hhr` — HHNL, worst-case random.
    pub hhnl_rand: f64,
    /// `hvs` — HVNL, sequential.
    pub hvnl_seq: f64,
    /// `hvr` — HVNL, worst-case random.
    pub hvnl_rand: f64,
    /// `vvs` — VVM, sequential.
    pub vvm_seq: f64,
    /// `vvr` — VVM, worst-case random.
    pub vvm_rand: f64,
    /// `fns` — FNL, sequential.
    pub fnl_seq: f64,
    /// `fnr` — FNL, worst-case random.
    pub fnl_rand: f64,
}

impl CostEstimates {
    /// Computes all estimates for one query: the batch of one.
    pub fn compute(inputs: &JoinInputs) -> Self {
        Self::compute_batch(from_ref(inputs))
    }

    /// The estimates for a batch of queries over one collection pair, the
    /// whole batch running one algorithm.
    pub fn compute_batch(inputs: &[JoinInputs]) -> Self {
        use {Algorithm::*, IoScenario::*};
        let at = |a, s| estimate(a, s, inputs).unwrap_or(f64::INFINITY);
        Self {
            hhnl_seq: at(Hhnl, Dedicated),
            hhnl_rand: at(Hhnl, SharedWorstCase),
            hvnl_seq: at(Hvnl, Dedicated),
            hvnl_rand: at(Hvnl, SharedWorstCase),
            vvm_seq: at(Vvm, Dedicated),
            vvm_rand: at(Vvm, SharedWorstCase),
            fnl_seq: at(Fnl, Dedicated),
            fnl_rand: at(Fnl, SharedWorstCase),
        }
    }

    /// The cost of one algorithm under one scenario.
    pub fn cost(&self, algorithm: Algorithm, scenario: IoScenario) -> f64 {
        match (algorithm, scenario) {
            (Algorithm::Hhnl, IoScenario::Dedicated) => self.hhnl_seq,
            (Algorithm::Hhnl, IoScenario::SharedWorstCase) => self.hhnl_rand,
            (Algorithm::Hvnl, IoScenario::Dedicated) => self.hvnl_seq,
            (Algorithm::Hvnl, IoScenario::SharedWorstCase) => self.hvnl_rand,
            (Algorithm::Vvm, IoScenario::Dedicated) => self.vvm_seq,
            (Algorithm::Vvm, IoScenario::SharedWorstCase) => self.vvm_rand,
            (Algorithm::Fnl, IoScenario::Dedicated) => self.fnl_seq,
            (Algorithm::Fnl, IoScenario::SharedWorstCase) => self.fnl_rand,
        }
    }

    /// The cheapest algorithm under a scenario (ties break in the order
    /// HHNL, HVNL, VVM, FNL — the simplest algorithm wins a tie).
    pub fn best(&self, scenario: IoScenario) -> (Algorithm, f64) {
        Algorithm::ALL
            .into_iter()
            .map(|a| (a, self.cost(a, scenario)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one candidate")
    }
}

/// The §5 estimate of algorithm `a` under scenario `s` for a batch of
/// queries on one collection pair: where an algorithm meets its formula.
/// Each formula starts from the first query's own cost and adds what the
/// others bring, so one query is the batch of one to the bit.
pub(crate) fn estimate(a: Algorithm, s: IoScenario, batch: &[JoinInputs]) -> Result<f64> {
    use {Algorithm::*, IoScenario::*};
    if batch.is_empty() {
        return Ok(0.0);
    }
    match (a, s) {
        (Hhnl, Dedicated) => forward::sequential(documents, batch),
        (Hhnl, SharedWorstCase) => forward::worst_case_random(documents, batch),
        (Hvnl, Dedicated) => Ok(hvnl::shared_dictionary(hvnl::hvs_one, batch)),
        (Hvnl, SharedWorstCase) => Ok(hvnl::shared_dictionary(hvnl::hvr_one, batch)),
        (Vvm, Dedicated) => vvm::vvs(batch),
        (Vvm, SharedWorstCase) => vvm::vvr(batch),
        (Fnl, Dedicated) => forward::sequential(signatures, batch),
        (Fnl, SharedWorstCase) => forward::worst_case_random(signatures, batch),
    }
}

/// One algorithm's row of the ranking: its pages, and the predicted wall
/// time the order is decided on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// The algorithm predicted.
    pub algorithm: Algorithm,
    /// The raw §5 estimate under the inputs' own `α` (pages, `seq + α·rand`
    /// units) — what a run's measured cost is compared against.
    pub raw: f64,
    /// `raw` after the calibration correction — what the drift watchdog
    /// budgets against. Without a profile the two coincide.
    pub calibrated: f64,
    /// `page_ns · pages`: the corrected §5 estimate re-evaluated at the
    /// device's own `α̂`, times what the device takes per sequential page.
    pub io_ns: f64,
    /// The work term of [`Prices::cpu_ns`], summed over the queries.
    pub cpu_ns: f64,
}

impl Prediction {
    /// Predicted wall nanoseconds — the number [`rank`] minimises.
    pub fn total_ns(&self) -> f64 {
        self.io_ns + self.cpu_ns
    }
}

/// The §6.1 ranking, written once — the only function that orders
/// algorithms. `batch` is the queries one run serves (a single query is
/// the batch of one). Each algorithm is predicted to take
/// `page_ns · pages + cpu_ns`: its §5 estimate under `scenario`, corrected
/// by `correct(algorithm, pages)` (where a calibration profile enters; the
/// identity leaves it raw) and evaluated at the device's `α̂ =
/// prices.alpha()`, plus its work term summed over the batch. Cheapest
/// first by `total_cmp`, ties in [`Algorithm::ALL`] order. Returns the
/// estimates under the inputs' own `α` beside the ranking.
///
/// With [`Prices::pages_only`] at the inputs' `α` the predicted time *is*
/// the corrected page estimate, and the order is the paper's.
pub fn rank(
    batch: &[JoinInputs],
    scenario: IoScenario,
    prices: &Prices,
    correct: impl Fn(Algorithm, f64) -> f64,
) -> (CostEstimates, [Prediction; 4]) {
    let estimates = CostEstimates::compute_batch(batch);
    let alpha = prices.alpha();
    let at_device = if batch.iter().all(|i| i.sys.alpha == alpha) {
        estimates
    } else {
        let repriced: Vec<JoinInputs> = (batch.iter())
            .map(|i| JoinInputs {
                sys: i.sys.with_alpha(alpha),
                ..*i
            })
            .collect();
        CostEstimates::compute_batch(&repriced)
    };
    let mut ranked = Algorithm::ALL.map(|algorithm| {
        let raw = estimates.cost(algorithm, scenario);
        Prediction {
            algorithm,
            raw,
            calibrated: correct(algorithm, raw),
            io_ns: prices.seq_page_ns * correct(algorithm, at_device.cost(algorithm, scenario)),
            cpu_ns: batch.iter().map(|i| prices.cpu_ns(algorithm, i)).sum(),
        }
    });
    // A stable sort keeps `Algorithm::ALL` order among equal predictions.
    ranked.sort_by(|a, b| a.total_ns().total_cmp(&b.total_ns()));
    (estimates, ranked)
}

/// The integrated algorithm: pick the cheapest basic algorithm for the
/// given inputs and I/O scenario.
pub fn choose(inputs: &JoinInputs, scenario: IoScenario) -> Algorithm {
    CostEstimates::compute(inputs).best(scenario).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_common::{CollectionStats, QueryParams, SystemParams};

    fn inputs(inner: CollectionStats, outer: CollectionStats, buffer_pages: u64) -> JoinInputs {
        JoinInputs::with_paper_q(
            inner,
            outer,
            SystemParams::paper_base().with_buffer_pages(buffer_pages),
            QueryParams::paper_base(),
        )
    }

    #[test]
    fn paper_finding_2_small_outer_prefers_hvnl() {
        // "If the number of documents in one of the two collections is
        // originally very small or becomes very small after a selection,
        // then HVNL has a very good chance to outperform other algorithms.
        // Although how small for M to be small enough mainly depends on the
        // number of terms in each document in the outer collection, M is
        // likely to be limited by 100." FR's huge documents (K = 1017)
        // shrink its window accordingly.
        for (base, m) in [
            (CollectionStats::wsj(), 20),
            (CollectionStats::fr(), 5),
            (CollectionStats::doe(), 40),
        ] {
            let small_outer = base.select_docs(m);
            let i = inputs(base, small_outer, 10_000);
            assert_eq!(
                choose(&i, IoScenario::Dedicated),
                Algorithm::Hvnl,
                "{m}-doc outer on {base:?}"
            );
        }
        // Well past the window, HVNL loses everywhere.
        for base in [
            CollectionStats::wsj(),
            CollectionStats::fr(),
            CollectionStats::doe(),
        ] {
            let i = inputs(base, base.select_docs(5_000), 10_000);
            assert_ne!(
                choose(&i, IoScenario::Dedicated),
                Algorithm::Hvnl,
                "{base:?}"
            );
        }
    }

    #[test]
    fn paper_finding_3_few_large_docs_prefer_vvm() {
        // "If the number of documents in each of the two collections is not
        // very large (roughly N1·N2 < 10000·B) and both document collections
        // are large such that none can be entirely held in the memory, then
        // VVM (the sequential version) can outperform other algorithms."
        let derived = CollectionStats::fr().derive_scaled(64); // 409 huge docs
        let i = inputs(derived, derived, 10_000);
        assert!(i.n1() * i.n2() < 10_000.0 * i.b());
        assert!(i.d1() > i.b(), "collection must not fit in memory");
        assert_eq!(choose(&i, IoScenario::Dedicated), Algorithm::Vvm);
    }

    #[test]
    fn paper_finding_4_bulk_joins_prefer_hhnl() {
        // "For most other cases, the simple algorithm HHNL performs very
        // well" — e.g. the full self-joins of group 1.
        for base in [
            CollectionStats::wsj(),
            CollectionStats::fr(),
            CollectionStats::doe(),
        ] {
            let i = inputs(base, base, 10_000);
            assert_eq!(
                choose(&i, IoScenario::Dedicated),
                Algorithm::Hhnl,
                "{base:?}"
            );
        }
    }

    #[test]
    fn infeasible_algorithms_get_infinite_cost() {
        let big_docs = CollectionStats::new(100, 100_000.0, 10_000);
        let i = inputs(big_docs, big_docs, 2);
        let est = CostEstimates::compute(&i);
        assert!(est.hhnl_seq.is_infinite());
        assert!(est.vvm_seq.is_infinite());
        // HVNL degrades (X = 0) but stays finite, so it gets picked.
        assert!(est.hvnl_seq.is_finite());
        assert_eq!(est.best(IoScenario::Dedicated).0, Algorithm::Hvnl);
    }

    #[test]
    fn rank_is_cheapest_first_with_ties_in_registration_order() {
        use std::slice::from_ref;
        let i = inputs(CollectionStats::wsj(), CollectionStats::doe(), 10_000);
        let pages = Prices::pages_only(i.sys.alpha);
        let (est, raw) = rank(from_ref(&i), IoScenario::Dedicated, &pages, |_, c| c);
        assert_eq!(est, CostEstimates::compute(&i));
        assert_eq!(raw[0].algorithm, est.best(IoScenario::Dedicated).0);
        assert!(raw.windows(2).all(|w| w[0].total_ns() <= w[1].total_ns()));
        for r in raw {
            let pages = est.cost(r.algorithm, IoScenario::Dedicated);
            assert_eq!(
                (r.raw, r.calibrated, r.io_ns, r.cpu_ns),
                (pages, pages, pages, 0.0)
            );
        }
        // A correction reorders; equal corrected costs keep `ALL` order.
        let (_, flat) = rank(from_ref(&i), IoScenario::SharedWorstCase, &pages, |_, _| {
            7.0
        });
        assert_eq!(flat.map(|r| r.algorithm), Algorithm::ALL);
    }

    #[test]
    fn rank_reprices_pages_at_the_device_ratio_and_adds_the_work_term() {
        use std::slice::from_ref;
        let small_outer = CollectionStats::wsj().select_docs(20);
        let i = inputs(CollectionStats::wsj(), small_outer, 10_000).with_matches(2e6);
        let device = Prices::on_device(2_000.0, 2_000.0);
        let (est, ranked) = rank(from_ref(&i), IoScenario::Dedicated, &device, |_, c| c);
        let flat = CostEstimates::compute(&JoinInputs {
            sys: i.sys.with_alpha(1.0),
            ..i
        });
        for r in ranked {
            let a = r.algorithm;
            assert_eq!(
                r.raw,
                est.cost(a, IoScenario::Dedicated),
                "{a}: pages stay at α"
            );
            assert_eq!(
                r.io_ns,
                2_000.0 * flat.cost(a, IoScenario::Dedicated),
                "{a}"
            );
            assert_eq!(r.cpu_ns, device.cpu_ns(a, &i), "{a}");
        }
        // A batch sums the work terms of its queries.
        let (_, twice) = rank(&[i, i], IoScenario::Dedicated, &device, |_, c| c);
        for r in twice {
            assert_eq!(r.cpu_ns, 2.0 * device.cpu_ns(r.algorithm, &i));
        }
    }

    #[test]
    fn cost_accessor_matches_fields() {
        let i = inputs(CollectionStats::wsj(), CollectionStats::doe(), 10_000);
        let est = CostEstimates::compute(&i);
        assert_eq!(
            est.cost(Algorithm::Hhnl, IoScenario::Dedicated),
            est.hhnl_seq
        );
        assert_eq!(
            est.cost(Algorithm::Vvm, IoScenario::SharedWorstCase),
            est.vvm_rand
        );
        assert_eq!(
            est.cost(Algorithm::Hvnl, IoScenario::SharedWorstCase),
            est.hvnl_rand
        );
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(Algorithm::Hhnl.to_string(), "HHNL");
        assert_eq!(Algorithm::Hvnl.to_string(), "HVNL");
        assert_eq!(Algorithm::Vvm.to_string(), "VVM");
        assert_eq!(Algorithm::Fnl.to_string(), "FNL");
    }

    #[test]
    fn fnl_without_signature_index_is_infeasible() {
        // No `fnl` stats in the inputs → the algorithm cannot run, so its
        // estimates are infinite and it can never be chosen.
        let i = inputs(CollectionStats::wsj(), CollectionStats::doe(), 10_000);
        assert!(i.fnl.is_none());
        let est = CostEstimates::compute(&i);
        assert!(est.fnl_seq.is_infinite());
        assert!(est.fnl_rand.is_infinite());
        assert_ne!(choose(&i, IoScenario::Dedicated), Algorithm::Fnl);
    }

    #[test]
    fn random_scenario_can_rerank_vvm() {
        // Finding 5: the random variants "have no impact in ranking these
        // algorithms" except for VVM — VVM's all-random variant multiplies
        // its whole cost by α, so it can lose a win it had under the
        // dedicated scenario.
        let derived = CollectionStats::fr().derive_scaled(64);
        let i = inputs(derived, derived, 10_000);
        let est = CostEstimates::compute(&i);
        assert_eq!(est.best(IoScenario::Dedicated).0, Algorithm::Vvm);
        assert!(est.vvm_rand > est.vvm_seq * (i.alpha() - 0.5));
    }

    #[test]
    fn an_empty_batch_costs_nothing() {
        for algorithm in Algorithm::ALL {
            for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
                assert_eq!(estimate(algorithm, scenario, &[]).unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn batch_estimates_pick_a_finite_best() {
        let base = inputs(
            CollectionStats::new(1000, 409.6, 10_000),
            CollectionStats::new(2000, 409.6, 10_000),
            200,
        );
        let specs = [1, 5, 20].map(|lambda| JoinInputs {
            query: base.query.with_lambda(lambda),
            ..base
        });
        let est = CostEstimates::compute_batch(&specs);
        for scenario in [IoScenario::Dedicated, IoScenario::SharedWorstCase] {
            let (alg, cost) = est.best(scenario);
            assert!(cost.is_finite());
            assert_eq!(cost, est.cost(alg, scenario));
        }
    }
}
