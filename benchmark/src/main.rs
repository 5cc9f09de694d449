//! Command line of the textjoin benchmark. See `README.md`.

use std::collections::HashMap;
use std::process::{Command, ExitCode};
use textjoin_benchmark::alloc::Counting;
use textjoin_benchmark::catalogue::{self, On, END_TO_END, FAILED_PCT, RUN_SECONDS};
use textjoin_benchmark::json::Json;
use textjoin_benchmark::output::{self, Pass};
use textjoin_benchmark::workload::Workload;
use textjoin_benchmark::{compare, run, span, trace};

/// Counts allocations only while the traced pass arms it.
#[global_allocator]
static ALLOC: Counting = Counting;

const USAGE: &str = "\
usage: textjoin-benchmark <command>
  run     [--seed N] [--workload W] [--seconds S] [--quick] [--out F]
          end-to-end metrics, tracing off; without --workload every
          workload runs in its own process, one after another
  trace   [--seed N] [--workload W] [--quick] [--out F] [--spans F]
          the traced pass: per-layer metrics and the span file
  compare A.json B.json
          B against A by the catalogue's bounds; exits 1 outside them
  list    every metric: layer, unit, what it should move, where
  manifest
          prints BENCHMARK.json
  --workload W --seed N --seconds S --trace 0|1
          the driver's form: one pass over one workload";

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => {
                    flags.insert("quick".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.flags.get("workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload '{name}'")),
        }
    }

    fn quick(&self) -> bool {
        self.flags.contains_key("quick")
    }
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One pass over one workload in this process: the table, the results
/// file if asked for, and the driver's line last. `Ok(false)` when an
/// operation failed its check.
fn single(pass: Pass, workload: Workload, args: &Args) -> Result<bool, String> {
    let seed = args.num("seed", 1u64)?;
    let seconds = args.num("seconds", RUN_SECONDS as f64)?;
    let quick = args.quick();
    let report = match pass {
        Pass::Run => run::run(workload, seed, seconds, quick)?,
        Pass::Trace => {
            let traced = trace::trace(workload, seed, quick)?;
            if let Some(path) = args.flags.get("spans") {
                write(path, &span::to_json_lines(&traced.spans, workload.name()))?;
            }
            traced.report
        }
    };
    print!("{}", output::table(&report));
    if let Some(path) = args.flags.get("out") {
        let entry = vec![output::report_json(&report)];
        write(
            path,
            &output::results_file(pass, seed, quick, seconds, entry),
        )?;
    }
    println!("{}", output::contract_line(&report, pass));
    Ok(report.failed == 0)
}

/// Every workload in a process of its own, sequentially, so that
/// `peak_rss_mb` is one workload's; the children's results are gathered
/// into one file.
fn all(pass: Pass, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let seed = args.num("seed", 1u64)?;
    let seconds = args.num("seconds", RUN_SECONDS as f64)?;
    let mut entries = Vec::new();
    let mut spans = String::new();
    let mut ok = true;
    for w in Workload::ALL {
        let part = |kind: &str| {
            std::env::temp_dir().join(format!(
                "textjoin-benchmark-{}-{}.{kind}",
                std::process::id(),
                w.name()
            ))
        };
        let (out, span_file) = (part("json"), part("jsonl"));
        let mut child = Command::new(&exe);
        child
            .arg(pass.name())
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--out")
            .arg(&out);
        if args.quick() {
            child.arg("--quick");
        }
        if pass == Pass::Trace && args.flags.contains_key("spans") {
            child.arg("--spans").arg(&span_file);
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} pass: {e}", w.name()))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&out)
            .map_err(|_| format!("the {} pass wrote no results", w.name()))?;
        let _ = std::fs::remove_file(&out);
        let doc = textjoin_benchmark::json::parse(&text)?;
        let entry = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .ok_or("a child's results file holds no workload")?;
        entries.push(entry.clone());
        if let Ok(lines) = std::fs::read_to_string(&span_file) {
            spans.push_str(&lines);
            let _ = std::fs::remove_file(&span_file);
        }
    }
    if let Some(path) = args.flags.get("out") {
        write(
            path,
            &output::results_file(pass, seed, args.quick(), seconds, entries),
        )?;
    }
    if let Some(path) = args.flags.get("spans") {
        write(path, &spans)?;
    }
    Ok(ok)
}

fn list() {
    println!("end-to-end (every workload; all lower-is-better)");
    for m in &END_TO_END {
        let bound = if m.exact {
            format!("{:.0}% (exact on one seed)", m.bound * 100.0)
        } else {
            format!("{:.0}%", m.bound * 100.0)
        };
        println!(
            "  {:<12} {:<6} bound {:<22} {}",
            m.name, m.unit, bound, m.what
        );
    }
    println!(
        "  {FAILED_PCT:<12} {:<6} bound {:<22} operations that returned Err or a result != the reference",
        "%", "any increase"
    );
    println!("\nper-layer (traced pass)");
    println!(
        "  {:<40} {:<10} {:<10} {:<10} moves",
        "metric", "layer", "unit", "workload"
    );
    for m in catalogue::per_layer() {
        let on = match m.on {
            On::All => "all",
            On::Only(w) => w.name(),
        };
        println!(
            "  {:<40} {:<10} {:<10} {:<10} {}",
            m.name, m.layer, m.unit, on, m.moves
        );
    }
    println!("\nworkloads");
    for w in Workload::ALL {
        println!("  {:<10} {}", w.name(), w.why());
    }
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        None => return Err(USAGE.into()),
        // The driver passes flags only.
        Some(first) if first.starts_with("--") => ("driver", argv),
        Some(first) => (first, &argv[1..]),
    };
    let args = Args::parse(rest)?;
    match command {
        "driver" => {
            let workload = args
                .workload()?
                .ok_or("the driver's form needs --workload")?;
            let pass = match args.num("trace", 0u8)? {
                0 => Pass::Run,
                _ => Pass::Trace,
            };
            single(pass, workload, &args)
        }
        "run" | "trace" => {
            let pass = if command == "run" {
                Pass::Run
            } else {
                Pass::Trace
            };
            match args.workload()? {
                Some(w) => single(pass, w, &args),
                None => all(pass, &args),
            }
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare needs two results files".into());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|t| output::read_results(&t).map_err(|e| format!("{path}: {e}")))
            };
            let rows = compare::compare(&read(a)?, &read(b)?);
            print!("{}", compare::render(&rows));
            Ok(!rows.is_empty() && !rows.iter().any(|r| r.verdict.fails()))
        }
        "list" => {
            list();
            Ok(true)
        }
        "manifest" => {
            print!("{}", catalogue::manifest());
            Ok(true)
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
