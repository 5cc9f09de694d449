//! The end-to-end pass: what a user of the system would see, measured
//! with every kind of tracing off — no spans, no `Tracer`, no
//! `DiskMetrics`, allocation counting disarmed.

use crate::ops::{forced, front_door, Checker, ALGORITHMS};
use crate::sample::{round_robin, summarize, Rule, Summary};
use crate::span::SpanLog;
use crate::workload::{Fixture, Inputs, Workload};
use std::time::Instant;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Summary,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: Summary) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one pass over one workload produced.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-up, sampled by [`Rule::SETUP`], each time on a fresh `DiskSim`; the
/// last fixture is the one the joins run on.
pub fn sample_setup(inputs: &Inputs) -> Result<(Fixture, Summary), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut fixture = None;
    while !Rule::SETUP.done(times.len(), times.iter().sum())
        && times.len() < Rule::SETUP_MAX_SAMPLES
    {
        // Free the previous set-up first, so memory holds one at a time.
        drop(fixture.take());
        let started = Instant::now();
        let fx = Fixture::build(inputs, &SpanLog::disabled())
            .map_err(|e| format!("set-up failed: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let mut fixture = fixture.expect("at least one set-up sample");
    fixture
        .resolve()
        .map_err(|e| format!("planning the workload's query failed: {e}"))?;
    Ok((fixture, summarize(&times)))
}

/// Runs the end-to-end pass of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, quick: bool) -> Result<Report, String> {
    let inputs = Inputs::generate(workload, seed, quick);
    let (fx, setup) = sample_setup(&inputs)?;
    let view = fx.view();
    let mut checker = Checker::establish(&fx, &inputs);

    // Five timed metrics in turn: the four forced joins, then the front
    // door.
    let mut pages: Vec<Vec<f64>> = vec![Vec::new(); ALGORITHMS.len()];
    let times = round_robin(
        Rule {
            min_samples: Rule::JOIN_MIN_SAMPLES,
            budget_s: seconds,
        },
        ALGORITHMS.len() + 1,
        |m| {
            fx.disk.reset_stats();
            fx.disk.reset_head();
            let started = Instant::now();
            if let Some((alg, _)) = ALGORITHMS.get(m) {
                let outcome = forced(&view, *alg, 1, None);
                let elapsed = started.elapsed().as_secs_f64();
                checker.join(&outcome);
                if let Ok(o) = &outcome {
                    pages[m].push(o.stats.cost);
                }
                elapsed
            } else {
                let out = front_door(&fx, 1, None);
                let elapsed = started.elapsed().as_secs_f64();
                checker.front(&out);
                elapsed
            }
        },
    );

    let mut metrics = vec![Metric::new("setup_s", "s", setup)];
    for ((_, name), samples) in ALGORITHMS.iter().zip(&times) {
        metrics.push(Metric::new(format!("{name}_s"), "s", summarize(samples)));
    }
    metrics.push(Metric::new(
        "auto_s",
        "s",
        summarize(&times[ALGORITHMS.len()]),
    ));
    for ((_, name), samples) in ALGORITHMS.iter().zip(&pages) {
        // The first page count includes the discarded warm-up's: counts
        // have no warm-up, and min ≠ max must show.
        if samples.is_empty() {
            return Err(format!("every forced {name} run failed"));
        }
        metrics.push(Metric::new(
            format!("{name}_pages"),
            "pages",
            summarize(samples),
        ));
    }
    metrics.push(Metric::new(
        "peak_rss_mb",
        "MB",
        Summary::single(peak_rss_mb()),
    ));
    metrics.push(Metric::new(
        "failed_pct",
        "%",
        Summary::single(checker.failed_pct()),
    ));

    Ok(Report {
        workload,
        seed,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    })
}
