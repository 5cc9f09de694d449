//! What the benchmark prints and writes: the table a person reads, the
//! one-line result the driver reads, and the results file `compare` reads.

use crate::catalogue::{END_TO_END, FAILED_PCT};
use crate::json::{obj, Json};
use crate::run::{Metric, Report};
use crate::sample::Summary;

/// Which pass a report or results file came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    Run,
    Trace,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Run => "run",
            Pass::Trace => "trace",
        }
    }
}

/// Every metric by name, with unit and sample count. The value of a
/// sampled metric is its best (lowest) sample — see [`crate::sample`].
pub fn table(report: &Report) -> String {
    let mut out = format!(
        "workload {}  seed {}  attempted {}  failed {}\n",
        report.workload.name(),
        report.seed,
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        let Summary {
            median,
            min,
            max,
            n,
        } = m.value;
        out.push_str(&format!("  {:<40} {:>16.6} {:<9}", m.name, min, m.unit));
        if n > 1 {
            out.push_str(&format!(" n={n:<3} median {median:.6}  max {max:.6}"));
        }
        out.push('\n');
    }
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// On the end-to-end pass the metrics are the ones `BENCHMARK.json`
/// bounds; `failed_pct` travels as the counts.
pub fn contract_line(report: &Report, pass: Pass) -> String {
    let listed = |m: &&Metric| pass == Pass::Trace || END_TO_END.iter().any(|e| e.name == m.name);
    let metrics = report.metrics.iter().filter(listed).map(|m| {
        (
            m.name.clone(),
            obj([
                ("value", Json::Num(m.value.min)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .render()
}

/// One workload's entry of a results file. A metric that was read once
/// carries its value and unit only.
pub fn report_json(report: &Report) -> Json {
    let metrics = report.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::Num(m.value.min)),
            ("unit", Json::Str(m.unit.into())),
        ];
        if m.value.n > 1 {
            fields.extend([
                ("median", Json::Num(m.value.median)),
                ("max", Json::Num(m.value.max)),
                ("n", Json::Num(m.value.n as f64)),
            ]);
        }
        (m.name.clone(), obj(fields))
    });
    obj([
        ("name", Json::Str(report.workload.name().into())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", obj(metrics)),
    ])
}

/// A results file: one pass over one or more workloads, each entry made
/// by [`report_json`].
pub fn results_file(
    pass: Pass,
    seed: u64,
    quick: bool,
    seconds: f64,
    workloads: Vec<Json>,
) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let head = obj([
        ("benchmark", Json::Str("textjoin".into())),
        ("pass", Json::Str(pass.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        ("run_seconds", Json::Num(seconds)),
        ("available_parallelism", Json::Num(threads as f64)),
    ])
    .render();
    // One workload per line keeps the checked-in files diffable.
    let entries: Vec<String> = workloads.iter().map(Json::render).collect();
    format!(
        "{},\"workloads\":[\n{}\n]}}\n",
        head.trim_end_matches('}'),
        entries.join(",\n")
    )
}

/// One metric as read back from a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub unit: String,
    pub value: Summary,
}

/// One workload of a results file as read back.
pub struct WorkloadResults {
    pub name: String,
    pub failed: u64,
    /// `(metric, reading)` in file order.
    pub metrics: Vec<(String, Reading)>,
}

/// A results file as read back.
pub struct Results {
    pub pass: String,
    pub seed: u64,
    pub quick: bool,
    pub workloads: Vec<WorkloadResults>,
}

pub fn read_results(text: &str) -> Result<Results, String> {
    let doc = crate::json::parse(text)?;
    let field = |v: &Json, k: &str| v.get(k).cloned().ok_or_else(|| format!("missing \"{k}\""));
    let num = |v: &Json, k: &str| {
        field(v, k)?
            .as_f64()
            .ok_or_else(|| format!("\"{k}\" is not a number"))
    };
    let mut workloads = Vec::new();
    for w in field(&doc, "workloads")?
        .as_arr()
        .ok_or("\"workloads\" is not a list")?
    {
        let name = field(w, "name")?
            .as_str()
            .ok_or("a workload's \"name\" is not a string")?
            .to_string();
        let mut metrics = Vec::new();
        for (metric, m) in field(w, "metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
        {
            // A non-finite value was written as null; read it back as NaN
            // so `compare` can say so instead of refusing the file.
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let get = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(value);
            metrics.push((
                metric.clone(),
                Reading {
                    unit: field(m, "unit")?.as_str().unwrap_or_default().to_string(),
                    value: Summary {
                        median: get("median"),
                        min: value,
                        max: get("max"),
                        n: m.get("n").and_then(Json::as_f64).map_or(1, |n| n as usize),
                    },
                },
            ));
        }
        let failed = num(w, "failed")? as u64;
        if !metrics.iter().any(|(n, _)| n == FAILED_PCT) {
            metrics.push((
                FAILED_PCT.to_string(),
                Reading {
                    unit: "%".into(),
                    value: Summary::single(100.0 * failed as f64 / num(w, "attempted")?.max(1.0)),
                },
            ));
        }
        workloads.push(WorkloadResults {
            name,
            failed,
            metrics,
        });
    }
    Ok(Results {
        pass: field(&doc, "pass")?
            .as_str()
            .unwrap_or_default()
            .to_string(),
        seed: num(&doc, "seed")? as u64,
        quick: field(&doc, "quick")? == Json::Bool(true),
        workloads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn report() -> Report {
        Report {
            workload: Workload::Fits,
            seed: 3,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new(
                    "hhnl_s",
                    "s",
                    Summary {
                        median: 0.5,
                        min: 0.25,
                        max: 0.75,
                        n: 5,
                    },
                ),
                Metric::new("failed_pct", "%", Summary::single(0.0)),
            ],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_no_failed_pct() {
        let line = contract_line(&report(), Pass::Run);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"hhnl_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn results_files_read_back_what_was_written() {
        let text = results_file(Pass::Run, 3, true, 15.0, vec![report_json(&report())]);
        let back = read_results(&text).unwrap();
        assert_eq!(
            (back.pass.as_str(), back.seed, back.quick),
            ("run", 3, true)
        );
        let WorkloadResults {
            name,
            failed,
            metrics,
        } = &back.workloads[0];
        assert_eq!((name.as_str(), *failed), ("fits", 0));
        assert_eq!(metrics[0].0, "hhnl_s");
        assert_eq!(
            metrics[0].1.value,
            Summary {
                median: 0.5,
                min: 0.25,
                max: 0.75,
                n: 5
            }
        );
        assert!(table(&report()).contains("hhnl_s"));
    }
}
