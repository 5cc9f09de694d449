//! The benchmark run end to end at a tenth of its size (`--quick`), as a
//! separate process — the way the driver runs it — plus the determinism
//! checks that need two runs to compare.

use std::path::PathBuf;
use std::process::Command;
use textjoin_benchmark::catalogue::{self, END_TO_END, FAILED_PCT};
use textjoin_benchmark::compare::{compare, Verdict};
use textjoin_benchmark::json::{self, Json};
use textjoin_benchmark::output::{read_results, Results};
use textjoin_benchmark::span::{check_forest, SpanLog, SpanRec};
use textjoin_benchmark::workload::{disk_hash, Fixture, Inputs, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textjoin-benchmark-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs the benchmark binary; returns its standard output.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_textjoin-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{args:?} exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn results(pass: &str, workload: Workload, seed: u64, file: &str, extra: &[&str]) -> Results {
    let path = scratch(file);
    let seed = seed.to_string();
    let mut args = vec![
        pass,
        "--quick",
        "--workload",
        workload.name(),
        "--seed",
        &seed,
    ];
    args.extend(["--out", path.to_str().unwrap()]);
    args.extend(extra);
    bench(&args);
    read_results(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn metric_names(r: &Results) -> Vec<String> {
    r.workloads[0]
        .metrics
        .iter()
        .map(|(n, _)| n.clone())
        .collect()
}

/// The last line of a driver-form run, parsed.
fn driver_line(workload: Workload, trace: &str) -> Json {
    let out = bench(&[
        "--workload",
        workload.name(),
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--quick",
    ]);
    json::parse(out.lines().last().unwrap()).unwrap()
}

#[test]
fn quick_run_reports_every_end_to_end_metric_and_nothing_fails() {
    for w in Workload::ALL {
        let r = results(
            "run",
            w,
            1,
            &format!("run-{}.json", w.name()),
            &["--seconds", "0.2"],
        );
        let mut expected: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        expected.push(FAILED_PCT.to_string());
        let mut got = metric_names(&r);
        got.sort();
        expected.sort();
        assert_eq!(got, expected, "{}", w.name());
        assert_eq!(r.workloads[0].failed, 0, "{}", w.name());
        for (name, reading) in &r.workloads[0].metrics {
            if name == FAILED_PCT {
                assert_eq!(reading.value.min, 0.0);
            } else {
                assert!(
                    reading.value.min > 0.0,
                    "{} {name} must never be 0",
                    w.name()
                );
            }
            if name.ends_with("_s") && name != "setup_s" {
                assert!(
                    reading.value.n >= 5,
                    "{name} has {} samples",
                    reading.value.n
                );
            }
        }
    }
}

#[test]
fn quick_trace_reports_every_per_layer_metric_and_a_well_formed_span_forest() {
    for w in Workload::ALL {
        let spans = scratch(&format!("spans-{}.jsonl", w.name()));
        let r = results(
            "trace",
            w,
            1,
            &format!("trace-{}.json", w.name()),
            &["--spans", spans.to_str().unwrap()],
        );
        let mut expected: Vec<String> =
            catalogue::per_layer().into_iter().map(|m| m.name).collect();
        expected.push(FAILED_PCT.to_string());
        assert_eq!(metric_names(&r), expected, "{}", w.name());
        assert_eq!(r.workloads[0].failed, 0, "{} had failures", w.name());

        let recs: Vec<SpanRec> = std::fs::read_to_string(&spans)
            .unwrap()
            .lines()
            .map(|line| {
                let s = json::parse(line).unwrap();
                let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap() as u64;
                assert_eq!(s.get("workload").and_then(Json::as_str), Some(w.name()));
                SpanRec {
                    id: num("id"),
                    parent: num("parent"),
                    name: s.get("name").and_then(Json::as_str).unwrap().to_string(),
                    start_ns: num("start_ns"),
                    end_ns: num("end_ns"),
                }
            })
            .collect();
        check_forest(&recs).unwrap();
        let roots: Vec<&SpanRec> = recs.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "workload");
        for expected in [
            "setup", "run.hhnl", "run.hvnl", "run.vvm", "run.fnl", "run.auto",
        ] {
            assert!(
                recs.iter().any(|s| s.name == expected),
                "{}: no {expected} span",
                w.name()
            );
        }
        // The program's own phase spans hang under the run that made them.
        let run_hhnl = recs.iter().find(|s| s.name == "run.hhnl").unwrap();
        assert!(recs
            .iter()
            .any(|s| s.name == "hhnl" && s.parent == run_hhnl.id));
    }
}

#[test]
fn one_seed_gives_the_same_bytes_and_the_same_counts_twice() {
    for w in Workload::ALL {
        let hash = |seed: u64| {
            let inputs = Inputs::generate(w, seed, true);
            let fx = Fixture::build(&inputs, &SpanLog::disabled()).unwrap();
            disk_hash(&fx.disk).unwrap()
        };
        assert_eq!(
            hash(1),
            hash(1),
            "{}: set-up is not deterministic",
            w.name()
        );
        assert_ne!(
            hash(1),
            hash(2),
            "{}: the seed does not reach the inputs",
            w.name()
        );

        // Every count of both passes — *_pages, cells_touched, sim_ops,
        // passes, allocs and the rest — repeats exactly.
        for (pass, extra) in [("run", &["--seconds", "0.1"][..]), ("trace", &[][..])] {
            let a = results(
                pass,
                w,
                3,
                &format!("det-a-{pass}-{}.json", w.name()),
                extra,
            );
            let b = results(
                pass,
                w,
                3,
                &format!("det-b-{pass}-{}.json", w.name()),
                extra,
            );
            let rows = compare(&a, &b);
            let exact: Vec<_> = rows.iter().filter(|r| r.bound == Some(0.0)).collect();
            assert!(exact.len() >= 5);
            for row in exact {
                assert!(
                    matches!(row.verdict, Verdict::Identical | Verdict::Ok),
                    "{} {} {}: {} then {}",
                    w.name(),
                    pass,
                    row.metric,
                    row.base,
                    row.new
                );
            }
            for must in [
                "hhnl_pages",
                "core.hhnl.cells_touched",
                "core.vvm.sim_ops",
                "core.fnl.passes",
                "core.hvnl.allocs",
            ] {
                let in_this_pass = must.contains('.') == (pass == "trace");
                assert_eq!(rows.iter().any(|r| r.metric == must), in_this_pass);
            }
        }
    }
}

#[test]
fn driver_form_prints_the_contract_line_with_the_manifest_names() {
    let manifest = json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = driver_line(Workload::Selective, trace);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let emitted: Vec<String> = line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                let fields: Vec<&str> = m
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"]);
                name.clone()
            })
            .collect();
        assert_eq!(emitted, names(key), "--trace {trace}");
    }
}

#[test]
fn benchmark_json_is_the_catalogue_and_list_names_everything() {
    let on_disk =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    assert_eq!(
        on_disk,
        catalogue::manifest(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
    );
    assert_eq!(bench(&["manifest"]), on_disk);

    let listed = bench(&["list"]);
    for name in END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .chain(catalogue::per_layer().into_iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name().to_string()))
        .chain([FAILED_PCT.to_string()])
    {
        assert!(
            listed
                .lines()
                .any(|l| l.split_whitespace().next() == Some(&name)),
            "`list` does not name {name}"
        );
    }
}

#[test]
fn compare_exits_zero_on_equal_files_and_nonzero_on_a_regression() {
    let a = scratch("cmp-a.json");
    let b = scratch("cmp-b.json");
    let file = |hhnl: f64, pages: f64| {
        format!(
            "{{\"benchmark\":\"textjoin\",\"pass\":\"run\",\"seed\":1,\"quick\":true,\
             \"run_seconds\":1,\"available_parallelism\":2,\"workloads\":[{{\"name\":\"fits\",\
             \"attempted\":9,\"failed\":0,\"metrics\":{{\
             \"hhnl_s\":{{\"value\":{hhnl},\"unit\":\"s\",\"median\":{hhnl},\"max\":{hhnl},\"n\":5}},\
             \"hhnl_pages\":{{\"value\":{pages},\"unit\":\"pages\",\"median\":{pages},\"max\":{pages},\"n\":6}}}}}}]}}"
        )
    };
    std::fs::write(&a, file(1.0, 185.0)).unwrap();
    let status = |other: String| {
        std::fs::write(&b, other).unwrap();
        Command::new(env!("CARGO_BIN_EXE_textjoin-benchmark"))
            .args(["compare", a.to_str().unwrap(), b.to_str().unwrap()])
            .output()
            .unwrap()
    };
    let same = status(file(1.04, 185.0));
    assert_eq!(same.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&same.stdout).contains("identical"));
    let slower = status(file(1.5, 185.0));
    assert_eq!(slower.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&slower.stdout).contains("REGRESSED"));
    assert_eq!(status(file(1.0, 186.0)).status.code(), Some(1));
}
