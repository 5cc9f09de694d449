//! Self-calibration of the cost model from accumulated query reports.
//!
//! The analytical estimates of section 5 are parameterised by constants
//! the paper simply posits (`α = 5`, CPU ignored entirely). Once real runs
//! have been observed, those constants can be *fitted* instead: this
//! module takes the observations accumulated in the persistent report
//! store and produces a versioned [`CalibrationProfile`] holding
//!
//! * `α̂` — the random/sequential cost ratio implied by the measured page
//!   mix (least squares over `measured_cost ≈ seq + α·rand`);
//! * `page_ns` and `cpu_per_cell_ns` — a two-term latency model
//!   `wall ≈ page_ns·(seq + α̂·rand) + cpu_per_cell_ns·cells` fitted by
//!   normal equations, so wall-clock predictions include the CPU share the
//!   paper's pure-I/O models ignore;
//! * per-`(collection pair, algorithm)` **correction factors** — the
//!   median of `measured / predicted` ratios, the robust multiplicative
//!   bias of the raw formula on that workload. A per-algorithm `"*"`
//!   fallback covers pairs never seen before.
//!
//! The planner multiplies raw estimates by the matching correction before
//! ranking algorithms ([`CalibrationProfile::calibrated_cost`]); the drift
//! watchdog derives its abort budget from the same calibrated number.
//! With no observations, [`CalibrationProfile::seed`] reproduces the
//! paper's constants exactly, so an empty store changes nothing.

use crate::integrated::Algorithm;
use std::collections::BTreeMap;
use textjoin_common::{json, Error, Result};

/// Format version written into every serialized profile; loading a
/// different version is rejected so stale profiles cannot silently skew
/// planning after the fitting procedure changes.
pub const CALIBRATION_VERSION: u32 = 1;

/// Seed `α` — the paper's base configuration (section 6).
pub const SEED_ALPHA: f64 = 5.0;

/// Seed latency per sequential page — the simulator's clock (0.1 ms, a
/// spinning disk streaming 4 KiB pages at ~40 MB/s).
pub const SEED_PAGE_NS: f64 = 100_000.0;

/// One observation distilled from a query report: what the planner
/// predicted and what the run actually cost. Decoupled from the executor
/// crates' report type so the cost model stays below them in the
/// dependency order.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportObs {
    /// Collection-pair label the query ran against (e.g. `"balanced"`).
    pub pair: String,
    /// Display name of the algorithm that executed (e.g. `"HHNL"`). A
    /// plain string rather than [`Algorithm`] on purpose: reports written
    /// by a *newer* binary may name algorithms this build does not know,
    /// and those observations must still reach the `"*/ALG"` fallback
    /// path instead of being dropped on the floor at parse time.
    pub algorithm: String,
    /// Measured sequential page reads.
    pub seq_reads: u64,
    /// Measured random page reads.
    pub rand_reads: u64,
    /// Measured similarity-matrix cells touched (the CPU proxy).
    pub cells: u64,
    /// Measured wall-clock time.
    pub wall_ns: u64,
    /// The model's raw cost prediction, when one was recorded.
    pub predicted_cost: Option<f64>,
    /// The measured page cost `seq + α·rand`.
    pub measured_cost: f64,
}

/// Fitted cost-model constants plus per-workload correction factors.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationProfile {
    /// Format version ([`CALIBRATION_VERSION`]).
    pub version: u32,
    /// Number of observations the fit consumed (0 for the seed profile).
    pub samples: u64,
    /// Fitted random/sequential cost ratio.
    pub alpha_hat: f64,
    /// Fitted latency of one sequential page read.
    pub page_ns: f64,
    /// Fitted CPU latency per similarity cell touched.
    pub cpu_per_cell_ns: f64,
    /// `"pair/ALG"` (and `"*/ALG"` fallback) → multiplicative correction.
    corrections: BTreeMap<String, f64>,
}

fn key(pair: &str, algorithm: &str) -> String {
    format!("{pair}/{algorithm}")
}

/// Median of a non-empty slice (sorted in place); even lengths average the
/// middle pair.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl CalibrationProfile {
    /// The paper's constants with no corrections: calibrated predictions
    /// equal raw predictions. This is what an empty report store yields.
    pub fn seed() -> Self {
        Self {
            version: CALIBRATION_VERSION,
            samples: 0,
            alpha_hat: SEED_ALPHA,
            page_ns: SEED_PAGE_NS,
            cpu_per_cell_ns: 0.0,
            corrections: BTreeMap::new(),
        }
    }

    /// Whether this profile is indistinguishable from the seed (no fitted
    /// information).
    pub fn is_seed(&self) -> bool {
        self.samples == 0 && self.corrections.is_empty()
    }

    /// Fits a profile from accumulated observations. Degenerate inputs
    /// (no observations, no random reads, a singular system) fall back to
    /// the corresponding seed constant rather than producing NaNs.
    pub fn fit(observations: &[ReportObs]) -> Self {
        if observations.is_empty() {
            return Self::seed();
        }

        // α̂: least squares on measured_cost = seq + α·rand, i.e.
        // α̂ = Σ rand·(measured − seq) / Σ rand².
        let mut num = 0.0;
        let mut den = 0.0;
        for o in observations {
            if o.rand_reads > 0 && o.measured_cost.is_finite() {
                let r = o.rand_reads as f64;
                num += r * (o.measured_cost - o.seq_reads as f64);
                den += r * r;
            }
        }
        let alpha_hat = if den > 0.0 && num / den >= 1.0 {
            num / den
        } else {
            SEED_ALPHA
        };

        // page_ns / cpu_per_cell_ns: normal equations of
        // wall ≈ a·io + b·cells with io = seq + α̂·rand.
        let (mut s_ii, mut s_ic, mut s_cc, mut s_iw, mut s_cw) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for o in observations {
            let io = o.seq_reads as f64 + alpha_hat * o.rand_reads as f64;
            let cells = o.cells as f64;
            let wall = o.wall_ns as f64;
            s_ii += io * io;
            s_ic += io * cells;
            s_cc += cells * cells;
            s_iw += io * wall;
            s_cw += cells * wall;
        }
        let det = s_ii * s_cc - s_ic * s_ic;
        let (page_ns, cpu_per_cell_ns) = if det.abs() > 1e-9 * s_ii.max(s_cc).max(1.0) {
            let a = (s_iw * s_cc - s_cw * s_ic) / det;
            let b = (s_cw * s_ii - s_iw * s_ic) / det;
            (a.max(0.0), b.max(0.0))
        } else if s_ii > 0.0 {
            ((s_iw / s_ii).max(0.0), 0.0)
        } else {
            (SEED_PAGE_NS, 0.0)
        };

        // Correction factors: the median measured/predicted ratio per
        // (pair, algorithm), plus a per-algorithm "*" fallback over every
        // pair. The median is robust to the occasional wild run.
        let mut per_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for o in observations {
            let Some(pred) = o.predicted_cost else {
                continue;
            };
            if !(pred.is_finite() && pred >= 1.0 && o.measured_cost.is_finite()) {
                continue;
            }
            let ratio = o.measured_cost / pred;
            per_key
                .entry(key(&o.pair, &o.algorithm))
                .or_default()
                .push(ratio);
            per_key
                .entry(key("*", &o.algorithm))
                .or_default()
                .push(ratio);
        }
        let corrections = per_key
            .into_iter()
            .map(|(k, mut ratios)| (k, median(&mut ratios)))
            .collect();

        Self {
            version: CALIBRATION_VERSION,
            samples: observations.len() as u64,
            alpha_hat,
            page_ns,
            cpu_per_cell_ns,
            corrections,
        }
    }

    /// The multiplicative correction for a workload: the exact
    /// `(pair, algorithm)` factor if fitted, else the per-algorithm `"*"`
    /// fallback, else `1.0` (raw prediction stands).
    pub fn correction(&self, pair: &str, algorithm: Algorithm) -> f64 {
        self.correction_named(pair, &algorithm.to_string())
    }

    /// String-keyed variant of [`Self::correction`] for callers holding a
    /// report whose algorithm name this build cannot parse — the
    /// forward-compatible path.
    pub fn correction_named(&self, pair: &str, algorithm: &str) -> f64 {
        self.corrections
            .get(&key(pair, algorithm))
            .or_else(|| self.corrections.get(&key("*", algorithm)))
            .copied()
            .unwrap_or(1.0)
    }

    /// A raw model estimate adjusted by the fitted correction. Infinite
    /// estimates (infeasible algorithms) pass through untouched.
    pub fn calibrated_cost(&self, pair: &str, algorithm: Algorithm, raw: f64) -> f64 {
        if raw.is_finite() {
            raw * self.correction(pair, algorithm)
        } else {
            raw
        }
    }

    /// Serializes the profile as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"version\":{},\"samples\":{},\"alpha_hat\":{:.6},\"page_ns\":{:.3},\
             \"cpu_per_cell_ns\":{:.6},\"corrections\":[",
            self.version, self.samples, self.alpha_hat, self.page_ns, self.cpu_per_cell_ns
        );
        for (i, (k, factor)) in self.corrections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (pair, alg) = k.rsplit_once('/').expect("key has a '/'");
            s.push_str(&format!(
                "{{\"pair\":\"{}\",\"algorithm\":\"{}\",\"factor\":{:.6}}}",
                json::escape(pair),
                alg,
                factor
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a profile serialized by [`Self::to_json`]. A version other
    /// than [`CALIBRATION_VERSION`] is an error — refit rather than trust
    /// constants produced by a different procedure.
    pub fn from_json(s: &str) -> Result<Self> {
        let lacks = |name: &str| Error::Parse(format!("calibration profile lacks \"{name}\""));
        let num_field =
            |obj: &str, name: &str| json::num_field(obj, name).ok_or_else(|| lacks(name));
        let str_field =
            |obj: &str, name: &str| json::str_field(obj, name).ok_or_else(|| lacks(name));
        let version = num_field(s, "version")? as u32;
        if version != CALIBRATION_VERSION {
            return Err(Error::Parse(format!(
                "calibration profile version {version} != supported {CALIBRATION_VERSION}"
            )));
        }
        let samples = num_field(s, "samples")? as u64;
        let alpha_hat = num_field(s, "alpha_hat")?;
        let page_ns = num_field(s, "page_ns")?;
        let cpu_per_cell_ns = num_field(s, "cpu_per_cell_ns")?;
        let mut corrections = BTreeMap::new();
        let arr_start = s
            .find("\"corrections\":[")
            .ok_or_else(|| Error::Parse("calibration profile lacks corrections".into()))?
            + "\"corrections\":[".len();
        let mut rest = &s[arr_start..];
        while let Some(open) = rest.find('{') {
            let close = rest[open..]
                .find('}')
                .ok_or_else(|| Error::Parse("unterminated correction object".into()))?
                + open;
            let obj = &rest[open..=close];
            let pair = str_field(obj, "pair")?;
            // Keep the algorithm name as a raw string: profiles written by
            // newer builds may carry algorithms this one cannot parse, and
            // their factors must survive a load/store round trip.
            let alg = str_field(obj, "algorithm")?;
            let factor = num_field(obj, "factor")?;
            corrections.insert(key(&pair, &alg), factor);
            rest = &rest[close + 1..];
        }
        Ok(Self {
            version,
            samples,
            alpha_hat,
            page_ns,
            cpu_per_cell_ns,
            corrections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        pair: &str,
        algorithm: Algorithm,
        seq: u64,
        rand: u64,
        alpha: f64,
        predicted: f64,
    ) -> ReportObs {
        let measured = seq as f64 + alpha * rand as f64;
        ReportObs {
            pair: pair.into(),
            algorithm: algorithm.to_string(),
            seq_reads: seq,
            rand_reads: rand,
            cells: 10 * (seq + rand),
            wall_ns: (measured * SEED_PAGE_NS) as u64 + 50 * 10 * (seq + rand),
            predicted_cost: Some(predicted),
            measured_cost: measured,
        }
    }

    #[test]
    fn empty_store_falls_back_to_seed_constants() {
        let p = CalibrationProfile::fit(&[]);
        assert!(p.is_seed());
        assert_eq!(p.alpha_hat, SEED_ALPHA);
        assert_eq!(p.page_ns, SEED_PAGE_NS);
        assert_eq!(p.cpu_per_cell_ns, 0.0);
        assert_eq!(p.correction("anything", Algorithm::Hhnl), 1.0);
        assert_eq!(p.calibrated_cost("anything", Algorithm::Vvm, 42.0), 42.0);
    }

    #[test]
    fn injected_alpha_skew_converges_within_tolerance() {
        // The real device's random reads cost 8× sequential, not the
        // seeded 5×; a spread of page mixes lets least squares see it.
        // Two interleaved workload shapes keep io and cells linearly
        // independent — with cells ∝ io the 2×2 latency system is
        // singular and the CPU term unidentifiable.
        let true_alpha = 8.0;
        let observations: Vec<ReportObs> = (1..=20)
            .map(|i| {
                let (seq, rand) = (100 * i, 7 * i);
                let cells = if i % 2 == 0 { 500 * i } else { 5000 * i };
                let measured = seq as f64 + true_alpha * rand as f64;
                ReportObs {
                    pair: "balanced".into(),
                    algorithm: Algorithm::Hhnl.to_string(),
                    seq_reads: seq,
                    rand_reads: rand,
                    cells,
                    wall_ns: (measured * SEED_PAGE_NS) as u64 + 50 * cells,
                    predicted_cost: Some(100.0),
                    measured_cost: measured,
                }
            })
            .collect();
        let p = CalibrationProfile::fit(&observations);
        assert!(
            (p.alpha_hat - true_alpha).abs() < 0.05,
            "fitted α̂ = {}, want ≈ {true_alpha}",
            p.alpha_hat
        );
        // The latency fit recovers the synthetic constants too.
        assert!((p.page_ns - SEED_PAGE_NS).abs() / SEED_PAGE_NS < 0.1);
        assert!((p.cpu_per_cell_ns - 50.0).abs() < 10.0);
    }

    #[test]
    fn corrections_capture_the_median_bias_per_pair_and_fall_back() {
        // On "balanced" the model under-predicts HHNL by 2×; on a pair the
        // profile never saw, the per-algorithm fallback applies.
        let observations: Vec<ReportObs> = (1..=5)
            .map(|i| {
                obs(
                    "balanced",
                    Algorithm::Hhnl,
                    200 * i,
                    0,
                    5.0,
                    100.0 * i as f64,
                )
            })
            .collect();
        let p = CalibrationProfile::fit(&observations);
        assert!((p.correction("balanced", Algorithm::Hhnl) - 2.0).abs() < 1e-9);
        assert!(
            (p.correction("never-seen", Algorithm::Hhnl) - 2.0).abs() < 1e-9,
            "per-algorithm fallback"
        );
        assert_eq!(p.correction("balanced", Algorithm::Vvm), 1.0);
        assert!((p.calibrated_cost("balanced", Algorithm::Hhnl, 100.0) - 200.0).abs() < 1e-6);
        // Infeasible estimates pass through.
        assert!(p
            .calibrated_cost("balanced", Algorithm::Hhnl, f64::INFINITY)
            .is_infinite());
    }

    #[test]
    fn profile_json_round_trips() {
        // A pair key is outside text: quotes, a backslash and a newline
        // must survive the trip and must not break the one-line record.
        let awkward = "asym \"metric\"\\\n\u{1}";
        let observations: Vec<ReportObs> = (1..=6)
            .flat_map(|i| {
                [
                    obs(
                        "balanced",
                        Algorithm::Hhnl,
                        100 * i,
                        5 * i,
                        7.0,
                        90.0 * i as f64,
                    ),
                    obs(awkward, Algorithm::Vvm, 50 * i, 2 * i, 7.0, 60.0 * i as f64),
                ]
            })
            .collect();
        let p = CalibrationProfile::fit(&observations);
        assert!(!p.is_seed());
        let json = p.to_json();
        assert!(!json.contains(['\n', '\u{1}']), "{json}");
        let parsed = CalibrationProfile::from_json(&json).unwrap();
        assert!(parsed.corrections.keys().eq(p.corrections.keys()));
        assert_eq!(parsed.version, p.version);
        assert_eq!(parsed.samples, p.samples);
        assert!((parsed.alpha_hat - p.alpha_hat).abs() < 1e-6);
        assert!((parsed.page_ns - p.page_ns).abs() < 1e-3);
        assert!((parsed.cpu_per_cell_ns - p.cpu_per_cell_ns).abs() < 1e-6);
        for (pair, alg) in [
            ("balanced", Algorithm::Hhnl),
            (awkward, Algorithm::Vvm),
            ("unseen", Algorithm::Hhnl),
        ] {
            assert!(
                (parsed.correction(pair, alg) - p.correction(pair, alg)).abs() < 1e-6,
                "{pair}/{alg}"
            );
        }
    }

    #[test]
    fn wrong_version_and_garbage_are_rejected() {
        let mut p = CalibrationProfile::seed();
        p.version = CALIBRATION_VERSION + 1;
        assert!(CalibrationProfile::from_json(&p.to_json()).is_err());
        assert!(CalibrationProfile::from_json("not json").is_err());
        assert!(CalibrationProfile::from_json("{\"version\":1}").is_err());
    }

    #[test]
    fn unknown_algorithm_keys_still_calibrate_and_round_trip() {
        // Regression: observations whose algorithm name this build cannot
        // parse (e.g. written by a newer binary that registered "ZZZL")
        // used to be dropped silently. They must fit like any other key,
        // reach the "*/ZZZL" fallback, and survive JSON round trips.
        let mut observations: Vec<ReportObs> = (1..=5)
            .map(|i| {
                let mut o = obs(
                    "balanced",
                    Algorithm::Hhnl,
                    200 * i,
                    0,
                    5.0,
                    100.0 * i as f64,
                );
                o.algorithm = "ZZZL".into();
                o
            })
            .collect();
        observations.push(obs("balanced", Algorithm::Hhnl, 100, 0, 5.0, 100.0));
        let p = CalibrationProfile::fit(&observations);
        assert_eq!(p.samples, 6);
        assert!((p.correction_named("balanced", "ZZZL") - 2.0).abs() < 1e-9);
        assert!(
            (p.correction_named("never-seen", "ZZZL") - 2.0).abs() < 1e-9,
            "the per-algorithm fallback must serve unknown names"
        );
        // Known algorithms are unaffected by the foreign key.
        assert!((p.correction("balanced", Algorithm::Hhnl) - 1.0).abs() < 1e-9);
        let parsed = CalibrationProfile::from_json(&p.to_json()).unwrap();
        assert!((parsed.correction_named("balanced", "ZZZL") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_observations_keep_seed_alpha() {
        // All-sequential runs carry no information about α.
        let observations: Vec<ReportObs> = (1..=4)
            .map(|i| obs("balanced", Algorithm::Hhnl, 100 * i, 0, 5.0, 100.0))
            .collect();
        let p = CalibrationProfile::fit(&observations);
        assert_eq!(p.alpha_hat, SEED_ALPHA);
    }
}
