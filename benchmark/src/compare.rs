//! `compare A.json B.json`: B (the candidate) against A (the baseline),
//! one row per workload and metric, by the bounds of the catalogue.
//!
//! All bounded metrics are lower-is-better, and a metric's value is its
//! best sample. A timed metric whose value worsened past its bound
//! *regressed* when every sample of B is worse than every sample of A,
//! and is *unresolved* when the two min–max ranges overlap — the spread
//! is wider than the bound, so the runs cannot tell. Counts compare
//! exactly when both files used one seed.

use crate::catalogue::{per_layer, END_TO_END, FAILED_PCT};
use crate::output::{Reading, Results};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound.
    Ok,
    /// Better by more than the bound, ranges apart.
    Improved,
    /// Worse by more than the bound, ranges apart (or a count rose).
    Regressed,
    /// Worse by more than the bound, ranges overlapping.
    Unresolved,
    /// A count that repeated exactly.
    Identical,
    /// A per-layer count that moved.
    Changed,
    /// A per-layer timing: shown, not judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::Info => "-",
        }
    }

    /// Whether this row makes `compare` exit non-zero.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Unresolved | Verdict::Changed
        )
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

fn exact(a: &Reading, b: &Reading, regress_on_rise: bool) -> Verdict {
    let repeats = |r: &Reading| r.value.min == r.value.max;
    if !repeats(a) || !repeats(b) {
        // A count that differs between samples of one run is not a count.
        return Verdict::Regressed;
    }
    match b.value.min.total_cmp(&a.value.min) {
        std::cmp::Ordering::Equal => Verdict::Identical,
        std::cmp::Ordering::Less if regress_on_rise => Verdict::Improved,
        std::cmp::Ordering::Greater if regress_on_rise => Verdict::Regressed,
        _ => Verdict::Changed,
    }
}

fn bounded(a: &Reading, b: &Reading, bound: f64) -> Verdict {
    let (base, new) = (a.value.min, b.value.min);
    if !(base.is_finite() && new.is_finite()) {
        return Verdict::Unresolved;
    }
    if new > base * (1.0 + bound) {
        if b.value.min > a.value.max {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if new < base * (1.0 - bound) && b.value.max < a.value.min {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Judges every `(workload, metric)` present in both files.
pub fn compare(a: &Results, b: &Results) -> Vec<Row> {
    let same_inputs = a.seed == b.seed && a.quick == b.quick;
    let layered = per_layer();
    let mut rows = Vec::new();
    for base_workload in &a.workloads {
        let workload = &base_workload.name;
        let Some(new_workload) = b.workloads.iter().find(|w| w.name == *workload) else {
            continue;
        };
        for (metric, base) in &base_workload.metrics {
            let Some((_, new)) = new_workload.metrics.iter().find(|(m, _)| m == metric) else {
                continue;
            };
            let (bound, verdict) = if metric == FAILED_PCT {
                let worse = new.value.min > base.value.min;
                (
                    Some(0.0),
                    if worse {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    },
                )
            } else if let Some(e) = END_TO_END.iter().find(|e| e.name == metric) {
                if e.exact && same_inputs {
                    (Some(0.0), exact(base, new, true))
                } else {
                    (Some(e.bound), bounded(base, new, e.bound))
                }
            } else if let Some(def) = layered.iter().find(|d| d.name == *metric) {
                if matches!(def.unit, "count" | "pages") && same_inputs {
                    (Some(0.0), exact(base, new, false))
                } else {
                    (None, Verdict::Info)
                }
            } else {
                (None, Verdict::Info)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                unit: base.unit.clone(),
                base: base.value.min,
                new: new.value.min,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Ratio, bound and verdict per row, and a last line with the tally.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<10} {:<40} {:>14} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "baseline", "candidate", "ratio", "bound"
    );
    for r in rows {
        let ratio = if r.base == 0.0 && r.new == 0.0 {
            1.0
        } else {
            r.new / r.base
        };
        let bound = r
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{:<10} {:<40} {:>14.6} {:>14.6} {:>8.3} {:>7}  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            ratio,
            bound,
            r.verdict.label()
        ));
    }
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    out.push_str(&format!(
        "{} rows, {} outside their bounds\n",
        rows.len(),
        failing
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::WorkloadResults;
    use crate::sample::Summary;

    /// A reading with the given best and worst sample.
    fn reading(min: f64, max: f64) -> Reading {
        Reading {
            unit: "s".into(),
            value: Summary {
                median: (min + max) / 2.0,
                min,
                max,
                n: 5,
            },
        }
    }

    fn results(seed: u64, metrics: Vec<(&str, Reading)>) -> Results {
        Results {
            pass: "run".into(),
            seed,
            quick: false,
            workloads: vec![WorkloadResults {
                name: "fits".into(),
                failed: 0,
                metrics: metrics
                    .into_iter()
                    .map(|(n, r)| (n.to_string(), r))
                    .collect(),
            }],
        }
    }

    fn verdict_of(a: Reading, b: Reading, metric: &str, seeds: (u64, u64)) -> Verdict {
        let rows = compare(
            &results(seeds.0, vec![(metric, a)]),
            &results(seeds.1, vec![(metric, b)]),
        );
        rows[0].verdict
    }

    #[test]
    fn timed_metrics_follow_the_bound_and_the_ranges() {
        let base = reading(1.0, 1.3);
        // +5 % is inside hhnl_s's 20 % bound.
        assert_eq!(
            verdict_of(base.clone(), reading(1.05, 1.1), "hhnl_s", (1, 1)),
            Verdict::Ok
        );
        // +40 %, every sample worse than every baseline sample.
        assert_eq!(
            verdict_of(base.clone(), reading(1.4, 1.5), "hhnl_s", (1, 1)),
            Verdict::Regressed
        );
        // +25 % on the best sample but the ranges overlap: cannot tell.
        assert_eq!(
            verdict_of(base.clone(), reading(1.25, 1.4), "hhnl_s", (1, 1)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(base, reading(0.5, 0.55), "hhnl_s", (1, 1)),
            Verdict::Improved
        );
    }

    #[test]
    fn counts_are_exact_on_one_seed_and_bounded_across_seeds() {
        let pages = |n: f64| reading(n, n);
        assert_eq!(
            verdict_of(pages(185.0), pages(185.0), "hhnl_pages", (1, 1)),
            Verdict::Identical
        );
        assert_eq!(
            verdict_of(pages(185.0), pages(186.0), "hhnl_pages", (1, 1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(pages(185.0), pages(150.0), "hhnl_pages", (1, 1)),
            Verdict::Improved
        );
        // Another seed is another collection: a page more or less is fine.
        assert_eq!(
            verdict_of(pages(185.0), pages(186.0), "hhnl_pages", (1, 2)),
            Verdict::Ok
        );
        // A count that wobbles within one run is broken.
        assert_eq!(
            verdict_of(pages(185.0), reading(185.0, 186.0), "hhnl_pages", (1, 1)),
            Verdict::Regressed
        );
        // Per-layer counts: any move is flagged, timings are only shown.
        assert_eq!(
            verdict_of(pages(7.0), pages(6.0), "core.hhnl.passes", (1, 1)),
            Verdict::Changed
        );
        assert_eq!(
            verdict_of(pages(7.0), pages(9.0), "core.hhnl.ns_per_cell", (1, 1)),
            Verdict::Info
        );
    }

    #[test]
    fn any_new_failure_regresses() {
        assert_eq!(
            verdict_of(reading(0.0, 0.0), reading(0.5, 0.5), "failed_pct", (1, 1)),
            Verdict::Regressed
        );
        let text = render(&compare(
            &results(1, vec![("failed_pct", reading(0.0, 0.0))]),
            &results(1, vec![("failed_pct", reading(0.0, 0.0))]),
        ));
        assert!(text.ends_with("1 rows, 0 outside their bounds\n"));
    }
}
