//! Command-line entry point for the simulation harness.
//!
//! ```text
//! textjoin-sim t1          # the section-6 statistics table
//! textjoin-sim group1      # group 1: self-joins, B and α sweeps
//! textjoin-sim group2      # group 2: cross-collection joins, B sweep
//! textjoin-sim group3      # group 3: selected small outer subsets
//! textjoin-sim group4      # group 4: originally small outer collections
//! textjoin-sim group5      # group 5: derived collections (VVM regime)
//! textjoin-sim order       # forward vs backward HHNL (extension)
//! textjoin-sim findings    # check the five findings of section 6.1
//! textjoin-sim sweep [scale]      # measured B sweep on scaled collections
//! textjoin-sim codec [scale]      # fixed vs varint-gap posting codecs
//! textjoin-sim validate [scale]   # measured vs predicted (default 100)
//! textjoin-sim chaos [--seed N|A..B]   # fault-injection scenarios (default 1..4)
//! textjoin-sim chaos-merge [--seed N|A..B] [--artifacts DIR]
//!                                 # crash-during-merge / torn-WAL /
//!                                 # bit-flipped-delta scenarios; on failure
//!                                 # dumps WAL + manifest hex into DIR
//! textjoin-sim bench [--out FILE] [--baseline FILE] [--threshold PCT]
//!                                 # sweep the paper grid, emit BENCH JSON,
//!                                 # optionally gate against a baseline
//! textjoin-sim calibrate [--store FILE] [--profile FILE]
//!                                 # run the grid, persist query reports,
//!                                 # fit a calibration profile, re-run
//!                                 # calibrated; fails unless the median
//!                                 # |drift| strictly improves
//! textjoin-sim reports [--store FILE] # dump the persistent report store
//! textjoin-sim slowlog [K] [--by cost|wall]
//!                                 # canned workload; dump top-K query reports
//! textjoin-sim serve-metrics [--addr A] [--rounds N] [--page-latency-us U]
//!                            [--cancel-round R]
//!                                 # host GET /metrics /queries /healthz and
//!                                 # POST /queries/<id>/cancel while a canned
//!                                 # workload runs (tickets, progress, ETA)
//! textjoin-sim top [--addr A] [--iters N] [--interval-ms M]
//!                                 # poll GET /queries and render the
//!                                 # in-flight table, top(1)-style
//! textjoin-sim all [scale]        # everything above
//!
//! Append `--csv` to any table command to emit CSV instead of the grid.
//! Append `--trace-out <path>` to `validate` or `all` to also run each
//! scenario with span tracing and metric mirroring enabled and dump the
//! combined JSON-lines (spans, then metrics, prefixed by a scenario
//! marker line) to `<path>`.
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use textjoin_sim::{
    calibrate, chaos, chaos_merge, findings, groups, live, slowlog, validate, Table,
};

/// Writes one scenario-marker line plus the span/metric JSON-lines of each
/// traced scenario run.
fn write_traces(path: &Path, cfgs: &[validate::ValidationConfig]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for cfg in cfgs {
        match validate::trace_one(cfg) {
            Ok(dump) => {
                writeln!(f, "{{\"scenario\":{:?}}}", cfg.label)?;
                f.write_all(dump.as_bytes())?;
            }
            Err(e) => eprintln!("{}: trace failed: {e}", cfg.label),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--csv` anywhere switches table output to CSV (for plotting).
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    // `--trace-out <path>` dumps span/metric JSON-lines per scenario.
    let trace_out: Option<PathBuf> = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("--trace-out needs a path argument");
                return ExitCode::FAILURE;
            }
            let p = PathBuf::from(&args[i + 1]);
            args.drain(i..=i + 1);
            Some(p)
        }
        None => None,
    };
    // `--out FILE`, `--baseline FILE` and `--threshold PCT` drive `bench`.
    let mut take_value = |flag: &str| -> Result<Option<String>, ExitCode> {
        match args.iter().position(|a| a == flag) {
            Some(i) => {
                if i + 1 >= args.len() {
                    eprintln!("{flag} needs a value argument");
                    return Err(ExitCode::FAILURE);
                }
                let v = args[i + 1].clone();
                args.drain(i..=i + 1);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    };
    // `--store FILE` and `--profile FILE` drive `calibrate` and `reports`.
    let (store_path, profile_path) = match (take_value("--store"), take_value("--profile")) {
        (Ok(s), Ok(p)) => (
            s.map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("REPORTS_textjoin.jsonl")),
            p.map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("CALIBRATION_textjoin.json")),
        ),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    // `--by cost|wall` ranks the `slowlog` output.
    let slowlog_rank = match take_value("--by") {
        Ok(None) => textjoin_core::SlowLogRank::Cost,
        Ok(Some(v)) => match v.as_str() {
            "cost" => textjoin_core::SlowLogRank::Cost,
            "wall" => textjoin_core::SlowLogRank::Wall,
            other => {
                eprintln!("invalid --by '{other}'; expected cost or wall");
                return ExitCode::FAILURE;
            }
        },
        Err(c) => return c,
    };
    let (out_path, baseline_path, threshold) = match (
        take_value("--out"),
        take_value("--baseline"),
        take_value("--threshold"),
    ) {
        (Ok(o), Ok(b), Ok(t)) => {
            let threshold: f64 = match t.map(|t| t.parse()) {
                None => 10.0,
                Some(Ok(t)) => t,
                Some(Err(_)) => {
                    eprintln!("--threshold needs a number (percent)");
                    return ExitCode::FAILURE;
                }
            };
            (
                o.map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("BENCH_textjoin.json")),
                b.map(PathBuf::from),
                threshold,
            )
        }
        (Err(c), _, _) | (_, Err(c), _) | (_, _, Err(c)) => return c,
    };
    // `--artifacts DIR` receives WAL/manifest dumps of failed chaos-merge
    // scenarios (the CI job uploads the directory).
    let artifacts_dir = match take_value("--artifacts") {
        Ok(d) => PathBuf::from(d.unwrap_or_else(|| "chaos-merge-artifacts".into())),
        Err(c) => return c,
    };
    // `--addr`, `--rounds`, `--page-latency-us` and `--cancel-round` drive
    // `serve-metrics`; `--addr`, `--iters` and `--interval-ms` drive `top`.
    let mut take_u64 = |flag: &str| -> Result<Option<u64>, ExitCode> {
        match take_value(flag)? {
            None => Ok(None),
            Some(v) => match v.parse() {
                Ok(n) => Ok(Some(n)),
                Err(_) => {
                    eprintln!("{flag} needs a non-negative integer, got '{v}'");
                    Err(ExitCode::FAILURE)
                }
            },
        }
    };
    let rounds = match take_u64("--rounds") {
        Ok(v) => v,
        Err(c) => return c,
    };
    let page_latency_us = match take_u64("--page-latency-us") {
        Ok(v) => v,
        Err(c) => return c,
    };
    let cancel_round = match take_u64("--cancel-round") {
        Ok(v) => v,
        Err(c) => return c,
    };
    let iters = match take_u64("--iters") {
        Ok(v) => v,
        Err(c) => return c,
    };
    let interval_ms = match take_u64("--interval-ms") {
        Ok(v) => v,
        Err(c) => return c,
    };
    let live_addr = match take_value("--addr") {
        Ok(v) => v,
        Err(c) => return c,
    };
    // `--seed N` or `--seed A..B` (inclusive) selects chaos seeds.
    let seeds: Vec<u64> = match args.iter().position(|a| a == "--seed") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("--seed needs a value: a number or an inclusive range A..B");
                return ExitCode::FAILURE;
            }
            let Some(seeds) = chaos::parse_seeds(&args[i + 1]) else {
                eprintln!("invalid --seed '{}'; expected N or A..B", args[i + 1]);
                return ExitCode::FAILURE;
            };
            args.drain(i..=i + 1);
            seeds
        }
        None => (1..=4).collect(),
    };
    let command = args.first().map(String::as_str).unwrap_or("all");
    let scale: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);

    let emit = move |t: &Table| {
        if csv {
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    };

    let run_validate = |scale: u64| -> ExitCode {
        eprintln!("generating scaled collections and running all executors …");
        let cfgs = validate::paper_scaled_configs(scale);
        match validate::validate_all(&cfgs) {
            Ok(rows) => {
                println!("{}", validate::validation_table(&rows));
            }
            Err(e) => {
                eprintln!("validation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &trace_out {
            eprintln!("re-running scenarios with tracing enabled …");
            match write_traces(path, &cfgs) {
                Ok(()) => eprintln!("wrote span/metric trace to {}", path.display()),
                Err(e) => {
                    eprintln!("writing {} failed: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    };

    match command {
        "t1" => emit(&groups::t1_statistics()),
        "group1" => groups::group1().iter().for_each(&emit),
        "group2" => groups::group2().iter().for_each(&emit),
        "group3" => groups::group3().iter().for_each(&emit),
        "group4" => groups::group4().iter().for_each(&emit),
        "group5" => groups::group5().iter().for_each(&emit),
        "order" => emit(&groups::order_study()),
        "codec" => {
            eprintln!("generating scaled collections and comparing posting codecs …");
            for cfg in validate::paper_scaled_configs(scale) {
                match validate::codec_study(&cfg) {
                    Ok(t) => println!("{t}"),
                    Err(e) => eprintln!("{}: codec study failed: {e}", cfg.label),
                }
            }
        }
        "sweep" => {
            eprintln!("generating scaled collections and sweeping B …");
            let cfgs = validate::paper_scaled_configs(scale);
            for cfg in &cfgs {
                let buffers: Vec<u64> = [25u64, 50, 100, 200, 400, 800]
                    .iter()
                    .map(|&b| b * 100 / scale.max(1))
                    .map(|b| b.max(10))
                    .collect();
                match validate::memory_sweep(cfg, &buffers) {
                    Ok(t) => println!("{t}"),
                    Err(e) => eprintln!("{}: sweep failed: {e}", cfg.label),
                }
            }
        }
        "findings" => {
            let table = findings::findings_table();
            println!("{table}");
            if findings::check_findings().iter().any(|f| !f.holds) {
                return ExitCode::FAILURE;
            }
        }
        "validate" => return run_validate(scale),
        "chaos" => {
            let mut failed = false;
            for &seed in &seeds {
                eprintln!("chaos seed {seed}: running fault-injection scenarios …");
                match chaos::run_seed(seed) {
                    Ok(run) => {
                        for c in &run.checks {
                            let mark = if c.passed { "ok  " } else { "FAIL" };
                            println!("{mark} seed={} [{}] {}", c.seed, c.scenario, c.check);
                            failed |= !c.passed;
                        }
                        // Per-run accounting for every join that completed
                        // under faults, degraded runs included.
                        for r in &run.reports {
                            println!("report {}", r.to_json());
                        }
                    }
                    Err(e) => {
                        eprintln!("chaos seed {seed}: scenario setup failed: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                return ExitCode::FAILURE;
            }
        }
        "chaos-merge" => {
            let mut failed = false;
            for &seed in &seeds {
                eprintln!("chaos-merge seed {seed}: running crash-safety scenarios …");
                match chaos_merge::run_seed(seed) {
                    Ok(run) => {
                        for c in &run.checks {
                            let mark = if c.passed { "ok  " } else { "FAIL" };
                            println!("{mark} seed={} [{}] {}", c.seed, c.scenario, c.check);
                            failed |= !c.passed;
                        }
                        if !run.artifacts.is_empty() {
                            if let Err(e) = std::fs::create_dir_all(&artifacts_dir) {
                                eprintln!("creating {} failed: {e}", artifacts_dir.display());
                            }
                            for a in &run.artifacts {
                                let path = artifacts_dir.join(&a.name);
                                match std::fs::write(&path, &a.contents) {
                                    Ok(()) => eprintln!("wrote artifact {}", path.display()),
                                    Err(e) => {
                                        eprintln!("writing {} failed: {e}", path.display())
                                    }
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("chaos-merge seed {seed}: scenario setup failed: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                return ExitCode::FAILURE;
            }
        }
        "bench" => {
            let grid = textjoin_bench::small_grid();
            eprintln!("running bench suite '{}' …", grid.suite);
            let report = match textjoin_bench::run_suite(&grid) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench suite failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut t = Table::new(
                format!(
                    "Bench suite {} (pages deterministic, wall machine-local)",
                    report.suite
                ),
                &[
                    "case",
                    "algorithm",
                    "pages_io",
                    "wall p50",
                    "wall p99",
                    "drift %",
                ],
            );
            for c in &report.cases {
                t.push_row(vec![
                    c.case.clone(),
                    c.algorithm.clone(),
                    format!("{:.0}", c.pages_io),
                    format!("{}µs", c.wall_p50_ns / 1_000),
                    format!("{}µs", c.wall_p99_ns / 1_000),
                    c.drift_pct.map_or("-".into(), |d| format!("{d:+.1}")),
                ]);
            }
            emit(&t);
            if let Err(e) = std::fs::write(&out_path, report.to_json()) {
                eprintln!("writing {} failed: {e}", out_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} ({} cases)",
                out_path.display(),
                report.cases.len()
            );
            if let Some(path) = &baseline_path {
                let baseline = match std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|s| {
                        textjoin_bench::BenchReport::from_json(&s).map_err(|e| e.to_string())
                    }) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("loading baseline {} failed: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                };
                let regressions = textjoin_bench::compare(&baseline, &report, threshold);
                if regressions.is_empty() {
                    eprintln!("baseline gate passed: no case regressed by more than {threshold}%");
                } else {
                    for r in &regressions {
                        eprintln!("REGRESSION {r}");
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        "calibrate" => {
            eprintln!(
                "running the calibration grid (store {}, profile {}) …",
                store_path.display(),
                profile_path.display()
            );
            match calibrate::run(&store_path, &profile_path) {
                Ok(round) => {
                    emit(&round.drift_table());
                    eprintln!(
                        "appended {} reports; fitted from {} stored observations",
                        round.appended, round.reloaded
                    );
                    if round.improved() {
                        eprintln!(
                            "calibration gate passed: median |drift| {:.2}% -> {:.2}%",
                            round.median_seed, round.median_calibrated
                        );
                    } else {
                        eprintln!(
                            "calibration gate FAILED: median |drift| {:.2}% -> {:.2}% \
                             (calibrated must be strictly lower)",
                            round.median_seed, round.median_calibrated
                        );
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("calibrate failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "reports" => {
            let store =
                match textjoin_obs::ReportStore::open(&store_path, calibrate::STORE_CAPACITY) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("opening store {} failed: {e}", store_path.display());
                        return ExitCode::FAILURE;
                    }
                };
            for rec in store.records() {
                println!("{rec}");
            }
            eprintln!(
                "{} of at most {} reports in {}",
                store.len(),
                store.capacity(),
                store_path.display()
            );
        }
        "slowlog" => {
            let k: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
            eprintln!("running canned workload, keeping the {k} most expensive queries …");
            match slowlog::canned_workload_ranked(k, slowlog_rank) {
                Ok((log, _registry)) => {
                    print!("{}", log.to_json_lines());
                    eprintln!(
                        "kept {} of {} runs ({} bounced off the log)",
                        log.len(),
                        log.admitted() + log.rejected(),
                        log.rejected()
                    );
                }
                Err(e) => {
                    eprintln!("slowlog workload failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "serve-metrics" => {
            let mut opts = live::ServeOptions::default();
            if let Some(addr) = live_addr {
                opts.addr = addr;
            }
            if let Some(r) = rounds {
                opts.rounds = r;
            }
            if let Some(us) = page_latency_us {
                opts.page_latency_us = us;
            }
            opts.cancel_round = cancel_round;
            eprintln!(
                "serving introspection while running {} round(s) of the canned workload …",
                opts.rounds.max(1)
            );
            match live::serve_workload(&opts, |r| {
                println!(
                    "run {}: pages={:.0} quality={}",
                    r.query, r.pages, r.quality
                );
            }) {
                Ok(summary) => eprintln!(
                    "served {} runs ({} partial) on {}",
                    summary.runs.len(),
                    summary.partial_runs(),
                    summary.addr
                ),
                Err(e) => {
                    eprintln!("serve-metrics failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "top" => {
            let mut opts = live::TopOptions::default();
            if let Some(addr) = live_addr {
                opts.addr = addr;
            }
            if let Some(i) = iters {
                opts.iters = i;
            }
            if let Some(m) = interval_ms {
                opts.interval_ms = m;
            }
            opts.clear = !csv;
            if let Err(e) = live::top(&opts) {
                eprintln!("top failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            println!("{}", groups::t1_statistics());
            for t in groups::group1() {
                println!("{t}");
            }
            for t in groups::group2() {
                println!("{t}");
            }
            for t in groups::group3() {
                println!("{t}");
            }
            for t in groups::group4() {
                println!("{t}");
            }
            for t in groups::group5() {
                println!("{t}");
            }
            println!("{}", groups::order_study());
            println!("{}", findings::findings_table());
            return run_validate(scale);
        }
        other => {
            eprintln!(
                "unknown command '{other}'; expected t1 | group1..group5 | findings | \
                 validate [scale] | chaos [--seed N|A..B] | \
                 chaos-merge [--seed N|A..B] [--artifacts DIR] | \
                 bench [--out FILE] [--baseline FILE] [--threshold PCT] | \
                 calibrate [--store FILE] [--profile FILE] | reports [--store FILE] | \
                 slowlog [K] [--by cost|wall] | \
                 serve-metrics [--addr A] [--rounds N] [--page-latency-us U] [--cancel-round R] | \
                 top [--addr A] [--iters N] [--interval-ms M] | all [scale]"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
