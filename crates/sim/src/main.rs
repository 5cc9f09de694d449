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
//! textjoin-sim measured          # measured page series: group 3's HVNL→HHNL
//!                                 # crossover, group 5's VVM takeover, HVNL
//!                                 # cache/order policies, HHNL scan orders
//! textjoin-sim bench [--out FILE] [--baseline FILE]
//!                                 # sweep the page grid; --out writes the
//!                                 # report (one case per line), --baseline
//!                                 # fails on any row that differs from FILE
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
//! A flag no command knows is an error, not a no-op.
//! Append `--trace-out <path>` to `validate` or `all` to also run each
//! scenario with span tracing and metric mirroring enabled and dump the
//! combined JSON-lines (spans, then metrics, prefixed by a scenario
//! marker line) to `<path>`.
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use textjoin_sim::verdict::SeedRun;
use textjoin_sim::{
    calibrate, chaos, chaos_merge, findings, groups, live, measured, slowlog, validate, Table,
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

/// What the command line asked for: the command word, its optional
/// number, and every flag some command reads.
#[derive(Debug)]
struct Cli {
    command: String,
    /// `[scale]` of the measured commands, `[K]` of `slowlog`.
    number: Option<u64>,
    /// `--csv` switches table output to CSV (for plotting).
    csv: bool,
    /// `--trace-out` dumps span/metric JSON-lines per `validate` scenario.
    trace_out: Option<PathBuf>,
    /// `--store` and `--profile` drive `calibrate` and `reports`.
    store: PathBuf,
    profile: PathBuf,
    /// `--by cost|wall` ranks the `slowlog` output.
    slowlog_rank: textjoin_core::SlowLogRank,
    /// `--out` and `--baseline` drive `bench`.
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    /// `--artifacts` receives WAL/manifest dumps of failed chaos-merge
    /// scenarios (the CI job uploads the directory).
    artifacts: PathBuf,
    /// `--addr`, `--rounds`, `--page-latency-us` and `--cancel-round` drive
    /// `serve-metrics`; `--addr`, `--iters` and `--interval-ms` drive `top`.
    addr: Option<String>,
    rounds: Option<u64>,
    page_latency_us: Option<u64>,
    cancel_round: Option<u64>,
    iters: Option<u64>,
    interval_ms: Option<u64>,
    /// `--seed N` or `--seed A..B` (inclusive) selects chaos seeds.
    seeds: Vec<u64>,
}

/// Removes `flag` and the value after it from `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

fn take_u64(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    take_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'"))
        })
        .transpose()
}

fn parse_cli(mut args: Vec<String>) -> Result<Cli, String> {
    let args = &mut args;
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    let path_or = |taken: Option<String>, default: &str| {
        PathBuf::from(taken.unwrap_or_else(|| default.into()))
    };
    Ok(Cli {
        csv,
        trace_out: take_value(args, "--trace-out")?.map(PathBuf::from),
        store: path_or(take_value(args, "--store")?, "REPORTS_textjoin.jsonl"),
        profile: path_or(take_value(args, "--profile")?, "CALIBRATION_textjoin.json"),
        slowlog_rank: match take_value(args, "--by")?.as_deref() {
            None | Some("cost") => textjoin_core::SlowLogRank::Cost,
            Some("wall") => textjoin_core::SlowLogRank::Wall,
            Some(other) => return Err(format!("invalid --by '{other}'; expected cost or wall")),
        },
        out: take_value(args, "--out")?.map(PathBuf::from),
        baseline: take_value(args, "--baseline")?.map(PathBuf::from),
        artifacts: path_or(take_value(args, "--artifacts")?, "chaos-merge-artifacts"),
        addr: take_value(args, "--addr")?,
        rounds: take_u64(args, "--rounds")?,
        page_latency_us: take_u64(args, "--page-latency-us")?,
        cancel_round: take_u64(args, "--cancel-round")?,
        iters: take_u64(args, "--iters")?,
        interval_ms: take_u64(args, "--interval-ms")?,
        seeds: match take_value(args, "--seed")? {
            None => (1..=4).collect(),
            Some(v) => chaos::parse_seeds(&v)
                .ok_or_else(|| format!("invalid --seed '{v}'; expected N or A..B"))?,
        },
        // Every flag a command reads is gone by now. What still looks like
        // one is a typo, and ignoring it would silently drop what it asked
        // for — `bench --basline FILE` would run ungated and exit 0.
        command: match args.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => return Err(format!("unknown flag '{unknown}'")),
            None => args.first().cloned().unwrap_or_else(|| "all".into()),
        },
        // Likewise a word no command can use: `sweep 10x` ran at the
        // default scale.
        number: match args.get(1..).unwrap_or_default() {
            [] => None,
            [word] => Some(word.parse().map_err(|_| {
                format!("expected a non-negative integer after the command, got '{word}'")
            })?),
            [_, extra, ..] => return Err(format!("unexpected argument '{extra}'")),
        },
    })
}

/// Reads the report `bench --baseline` gates against.
fn load_baseline(path: &Path) -> Result<textjoin_bench::BenchReport, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| textjoin_bench::BenchReport::from_json(&s).map_err(|e| e.to_string()))
        .map_err(|e| format!("loading baseline {} failed: {e}", path.display()))
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = cli.number.unwrap_or(100);

    let emit = move |t: &Table| {
        if cli.csv {
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    };

    let run_validate = |scale: u64| -> ExitCode {
        eprintln!("generating scaled collections and running all executors …");
        let cfgs = validate::paper_scaled_configs(scale);
        match validate::validate_all(&cfgs) {
            Ok(rows) => emit(&validate::validation_table(&rows)),
            Err(e) => {
                eprintln!("validation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &cli.trace_out {
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

    match cli.command.as_str() {
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
                    Ok(t) => emit(&t),
                    Err(e) => {
                        eprintln!("{}: codec study failed: {e}", cfg.label);
                        return ExitCode::FAILURE;
                    }
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
                    Ok(t) => emit(&t),
                    Err(e) => {
                        eprintln!("{}: sweep failed: {e}", cfg.label);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        "measured" => {
            eprintln!("generating collections and running the measured series …");
            match measured::all() {
                Ok(tables) => tables.iter().for_each(&emit),
                Err(e) => {
                    eprintln!("measured series failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "findings" => {
            emit(&findings::findings_table());
            if findings::check_findings().iter().any(|f| !f.holds) {
                return ExitCode::FAILURE;
            }
        }
        "validate" => return run_validate(scale),
        "chaos" | "chaos-merge" => {
            let (run_seed, what): (fn(u64) -> textjoin_common::Result<SeedRun>, _) =
                match cli.command.as_str() {
                    "chaos" => (chaos::run_seed, "running fault-injection scenarios"),
                    _ => (chaos_merge::run_seed, "running crash-safety scenarios"),
                };
            let mut failed = false;
            for &seed in &cli.seeds {
                eprintln!("{} seed {seed}: {what} …", cli.command);
                let run = match run_seed(seed) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("{} seed {seed}: scenario setup failed: {e}", cli.command);
                        failed = true;
                        continue;
                    }
                };
                for c in &run.checks {
                    let mark = if c.passed { "ok  " } else { "FAIL" };
                    println!("{mark} seed={} [{}] {}", c.seed, c.scenario, c.check);
                }
                failed |= !run.passed();
                // Per-run accounting for every join that completed under
                // faults, degraded runs included.
                for r in &run.reports {
                    println!("report {}", r.to_json());
                }
                if !run.artifacts.is_empty() {
                    if let Err(e) = std::fs::create_dir_all(&cli.artifacts) {
                        eprintln!("creating {} failed: {e}", cli.artifacts.display());
                    }
                }
                for a in &run.artifacts {
                    let path = cli.artifacts.join(&a.name);
                    match std::fs::write(&path, &a.contents) {
                        Ok(()) => eprintln!("wrote artifact {}", path.display()),
                        Err(e) => eprintln!("writing {} failed: {e}", path.display()),
                    }
                }
            }
            if failed {
                return ExitCode::FAILURE;
            }
        }
        "bench" => {
            // Loaded before the run and before `--out` is written, so a
            // bad path fails at once and a run never gates on itself.
            let baseline = match cli.baseline.as_deref().map(load_baseline).transpose() {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
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
                    "Bench suite {} (pages_io = seq + α·rand; \
                     drift % = (measured − predicted)/measured)",
                    report.suite
                ),
                &["case", "algorithm", "pages_io", "drift %"],
            );
            for c in &report.cases {
                t.push_row(vec![
                    c.case.clone(),
                    c.algorithm.clone(),
                    format!("{:.0}", c.pages_io),
                    c.drift_pct.map_or("-".into(), |d| format!("{d:+.1}")),
                ]);
            }
            emit(&t);
            if let Some(path) = &cli.out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("writing {} failed: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {} ({} cases)", path.display(), report.cases.len());
            }
            if let Some(baseline) = &baseline {
                let diffs = textjoin_bench::compare(baseline, &report);
                for d in &diffs {
                    eprintln!("DIFFERS {d}");
                }
                if !diffs.is_empty() {
                    eprintln!(
                        "baseline gate FAILED: {} row(s) differ; if the change is meant, \
                         regenerate with `textjoin-sim bench --out ci/bench-baseline.json` \
                         and list the rows `git diff` shows",
                        diffs.len()
                    );
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "baseline gate passed: all {} rows equal the baseline",
                    report.cases.len()
                );
            }
        }
        "calibrate" => {
            eprintln!(
                "running the calibration grid (store {}, profile {}) …",
                cli.store.display(),
                cli.profile.display()
            );
            match calibrate::run(&cli.store, &cli.profile) {
                Ok(round) => {
                    emit(&round.drift_table());
                    eprintln!(
                        "appended {} reports; fitted from {} stored observations",
                        round.appended, round.reloaded
                    );
                    eprintln!("{}", round.prices_line());
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
            let store = match textjoin_obs::ReportStore::open(&cli.store, calibrate::STORE_CAPACITY)
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opening store {} failed: {e}", cli.store.display());
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
                cli.store.display()
            );
        }
        "slowlog" => {
            let k = cli.number.unwrap_or(8) as usize;
            eprintln!("running canned workload, keeping the {k} most expensive queries …");
            match slowlog::canned_workload_ranked(k, cli.slowlog_rank) {
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
            if let Some(addr) = cli.addr {
                opts.addr = addr;
            }
            if let Some(r) = cli.rounds {
                opts.rounds = r;
            }
            if let Some(us) = cli.page_latency_us {
                opts.page_latency_us = us;
            }
            opts.cancel_round = cli.cancel_round;
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
            if let Some(addr) = cli.addr {
                opts.addr = addr;
            }
            if let Some(i) = cli.iters {
                opts.iters = i;
            }
            if let Some(m) = cli.interval_ms {
                opts.interval_ms = m;
            }
            opts.clear = !cli.csv;
            if let Err(e) = live::top(&opts) {
                eprintln!("top failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            emit(&groups::t1_statistics());
            for group in [
                groups::group1,
                groups::group2,
                groups::group3,
                groups::group4,
                groups::group5,
            ] {
                group().iter().for_each(&emit);
            }
            emit(&groups::order_study());
            emit(&findings::findings_table());
            return run_validate(scale);
        }
        other => {
            eprintln!(
                "unknown command '{other}'; expected t1 | group1..group5 | findings | \
                 validate [scale] | chaos [--seed N|A..B] | \
                 chaos-merge [--seed N|A..B] [--artifacts DIR] | \
                 measured | bench [--out FILE] [--baseline FILE] | \
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        parse_cli(line.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn known_flags_are_taken_wherever_they_stand() {
        let cli = parse("--csv bench --baseline ci/b.json --out o.json").unwrap();
        assert_eq!(cli.command, "bench");
        assert!(cli.csv);
        assert_eq!(cli.baseline, Some(PathBuf::from("ci/b.json")));
        assert_eq!(cli.out, Some(PathBuf::from("o.json")));

        // No flag, no file: `--out` has no default any more.
        let cli = parse("bench").unwrap();
        assert_eq!((cli.out, cli.baseline), (None, None));

        let cli = parse("validate 2000 --trace-out v.jsonl").unwrap();
        assert_eq!((cli.command.as_str(), cli.number), ("validate", Some(2000)));
        assert_eq!(cli.trace_out, Some(PathBuf::from("v.jsonl")));
        assert_eq!(parse("chaos --seed 3..5").unwrap().seeds, vec![3, 4, 5]);
        assert_eq!(parse("").unwrap().command, "all");
    }

    #[test]
    fn what_the_parser_does_not_understand_is_an_error_naming_it() {
        // A typo used to run the grid ungated and exit 0.
        for line in ["bench --basline ci/b.json", "t1 --basline x"] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("'--basline'"), "{line}: {err}");
        }
        // The gate is equality: there is no threshold to pass.
        let err = parse("bench --baseline ci/b.json --threshold 10").unwrap_err();
        assert!(err.contains("'--threshold'"), "{err}");

        for (line, flag) in [
            ("bench --baseline", "--baseline"),
            ("bench --out", "--out"),
            ("chaos --seed", "--seed"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(flag) && err.contains("needs a value"), "{err}");
        }
        // A positional no command can use ran at the default scale.
        for (line, word) in [
            ("t1 banana", "'banana'"),
            ("sweep 10x", "'10x'"),
            ("validate -5", "'-5'"),
            ("t1 banana extra", "'extra'"),
            ("validate 2000 3000", "'3000'"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(word), "{line}: {err}");
        }
        assert!(parse("serve-metrics --rounds many").is_err());
        assert!(parse("slowlog --by size").is_err());
        assert!(parse("chaos --seed 5..").is_err());
    }
}
