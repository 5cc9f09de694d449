//! The sampling rule, the same on every commit: one discarded warm-up
//! per metric, then rounds that take one sample of every metric in turn,
//! until each metric has its minimum count **and** the samples add up to
//! the run's budget. Round-robin spreads every metric's samples over the
//! whole window, so a slow stretch of the machine hits all of them alike.
//!
//! A sampled metric's reported value is its **best (lowest) sample**;
//! median, worst and count are kept beside it. The sandbox this was
//! written on has two speeds: a fixed loop takes 27–30 ms for minutes,
//! then 40 ms for 10–40 s at a stretch while a neighbour is busy. A slow
//! stretch can cover most of a run's window, so the median of a run moves
//! by a third from one run to the next; the best of five or more samples
//! spread over the window only moves when the whole window was slow. The
//! noise adds time and never removes any, so the best sample is also the
//! closest to what the code costs.

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was read once, not sampled.
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Summarises `samples`; an even count takes the mean of the two middle
/// values. Panics on an empty slice — a metric without samples is a bug
/// in the harness, not a measurement.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Summary {
        median,
        min: sorted[0],
        max: sorted[n - 1],
        n,
    }
}

/// When a round-robin run may stop.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Every metric gets at least this many kept samples.
    pub min_samples: usize,
    /// The kept samples of all metrics together add up to at least this.
    pub budget_s: f64,
}

impl Rule {
    /// Joins: at least 5 samples each.
    pub const JOIN_MIN_SAMPLES: usize = 5;
    /// Set-up, each sample on a fresh `DiskSim`: at least 3, then more
    /// until they add up to 2 s or there are 30 — a 30 ms set-up needs
    /// many samples to be as steady as a 500 ms one.
    pub const SETUP: Rule = Rule {
        min_samples: 3,
        budget_s: 2.0,
    };
    pub const SETUP_MAX_SAMPLES: usize = 30;

    pub fn done(&self, rounds: usize, accumulated_s: f64) -> bool {
        rounds >= self.min_samples && accumulated_s >= self.budget_s
    }
}

/// Runs `sample(metric)` — which returns the sample's duration in seconds
/// — once per metric as a discarded warm-up, then in rounds until the
/// rule is met. Returns the kept samples per metric.
pub fn round_robin(
    rule: Rule,
    metrics: usize,
    mut sample: impl FnMut(usize) -> f64,
) -> Vec<Vec<f64>> {
    for m in 0..metrics {
        sample(m);
    }
    let mut kept = vec![Vec::new(); metrics];
    let mut accumulated = 0.0;
    let mut rounds = 0;
    while !rule.done(rounds, accumulated) {
        for (m, samples) in kept.iter_mut().enumerate() {
            let s = sample(m);
            accumulated += s;
            samples.push(s);
        }
        rounds += 1;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_even_and_single_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[7.5]), Summary::single(7.5));
    }

    #[test]
    fn cheap_metrics_stop_on_the_budget_not_the_minimum() {
        // Two metrics at 0.125 s and 0.375 s: a round adds 0.5 s, so a
        // 2.5 s budget needs 5 rounds, which is also the minimum.
        let mut calls = Vec::new();
        let kept = round_robin(
            Rule {
                min_samples: 5,
                budget_s: 2.5,
            },
            2,
            |m| {
                calls.push(m);
                [0.125, 0.375][m]
            },
        );
        assert_eq!(kept[0].len(), 5);
        assert_eq!(kept[1].len(), 5);
        // Warm-ups come first, one per metric, and are not kept.
        assert_eq!(&calls[..4], &[0, 1, 0, 1]);
        assert_eq!(calls.len(), 2 + 10);

        // A 5 s budget keeps going past the minimum, in whole rounds.
        let kept = round_robin(
            Rule {
                min_samples: 5,
                budget_s: 5.0,
            },
            2,
            |m| [0.125, 0.375][m],
        );
        assert_eq!(kept[0].len(), 10);
        assert_eq!(kept[0].len(), kept[1].len());
    }

    #[test]
    fn expensive_metrics_still_get_the_minimum() {
        let kept = round_robin(
            Rule {
                min_samples: 5,
                budget_s: 2.0,
            },
            1,
            |_| 10.0,
        );
        assert_eq!(kept[0].len(), 5);
    }
}
