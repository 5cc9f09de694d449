//! Every metric the benchmark reports, by name: unit, direction, bound,
//! the layer it belongs to, and — written down before measuring — which
//! end-to-end metric it should move on which workload. `list` prints it,
//! `compare` takes its bounds from it, and `BENCHMARK.json` is rendered
//! from it, so the three cannot drift apart.

use crate::json::{obj, Json};
use crate::ops::ALGORITHMS;
use crate::workload::Workload;

/// Seconds one driver run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
    /// Counts: two runs on the same seed must agree exactly.
    pub exact: bool,
    pub what: &'static str,
}

/// All end-to-end metrics are "lower is better".
///
/// The bounds are what this sandbox lets a run repeat to, not what one
/// would wish for: for 10–40 s at a stretch a busy neighbour slows
/// everything by a quarter to a half (see `sample.rs`), and a run that
/// falls wholly inside such a stretch reads that much high. Two such runs
/// in ten put a tenth to a fifth on the interquartile spread of the join
/// times — most on the memory-bound ones, HVNL and VVM. Page counts do
/// not repeat across seeds either: each seed is another collection.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
        what: "everything the program does before the first join can be answered (the write path)",
    },
    EndToEnd {
        name: "hhnl_s",
        unit: "s",
        bound: 0.20,
        exact: false,
        what: "the workload's join forced through hhnl::execute",
    },
    EndToEnd {
        name: "hvnl_s",
        unit: "s",
        bound: 0.25,
        exact: false,
        what: "the workload's join forced through hvnl::execute",
    },
    EndToEnd {
        name: "vvm_s",
        unit: "s",
        bound: 0.25,
        exact: false,
        what: "the workload's join forced through vvm::execute",
    },
    EndToEnd {
        name: "fnl_s",
        unit: "s",
        bound: 0.20,
        exact: false,
        what: "the workload's join forced through fnl::execute",
    },
    EndToEnd {
        name: "auto_s",
        unit: "s",
        bound: 0.20,
        exact: false,
        what: "the front door with the planner choosing, one worker",
    },
    EndToEnd {
        name: "hhnl_pages",
        unit: "pages",
        bound: 0.05,
        exact: true,
        what: "ExecStats.cost (seq + 5*rand) of the forced HHNL run",
    },
    EndToEnd {
        name: "hvnl_pages",
        unit: "pages",
        bound: 0.20,
        exact: true,
        what: "ExecStats.cost of the forced HVNL run (entry fetches vary 6 % from seed to seed)",
    },
    EndToEnd {
        name: "vvm_pages",
        unit: "pages",
        bound: 0.05,
        exact: true,
        what: "ExecStats.cost of the forced VVM run",
    },
    EndToEnd {
        name: "fnl_pages",
        unit: "pages",
        bound: 0.05,
        exact: true,
        what: "ExecStats.cost of the forced FNL run",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
        exact: false,
        what: "VmHWM of the workload's process",
    },
];

/// `failed_pct` rides beside the eleven: it is always 0 on a healthy
/// commit, so it cannot be a ratio-bounded metric; any increase fails
/// `compare`, and the driver reads it as `attempted`/`failed`.
pub const FAILED_PCT: &str = "failed_pct";

/// Where a per-layer metric is measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum On {
    All,
    Only(Workload),
}

/// A per-layer metric from the traced pass.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    /// The prediction: which end-to-end metric it should move, where.
    pub moves: &'static str,
    /// Elsewhere the layer is not exercised and the metric reads 0.
    pub on: On,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

fn add(
    out: &mut Vec<PerLayer>,
    layer: &'static str,
    on: On,
    moves: &'static str,
    metrics: &[(&str, &'static str, &'static str)],
) {
    for (name, unit, better) in metrics {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            layer,
            moves,
            on,
        });
    }
}

/// The per-layer catalogue, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out: Vec<PerLayer> = Vec::new();
    let churn = On::Only(Workload::Churn);
    let selective = On::Only(Workload::Selective);

    add(
        &mut out,
        "storage",
        On::All,
        "hvnl_s on spills and selective (random reads are most of the run)",
        &[("storage.disk.rand_read_ns_per_page", "ns/page", LOWER)],
    );
    add(
        &mut out,
        "storage",
        On::All,
        "vvm_s on spills (every merge pass rescans both inverted files); no change on fits",
        &[
            ("storage.disk.seq_read_ns_per_page", "ns/page", LOWER),
            ("storage.prefetch.scan_ns_per_page", "ns/page", LOWER),
            ("storage.prefetch.wasted_pct", "%", LOWER),
        ],
    );
    add(
        &mut out,
        "storage",
        On::All,
        "setup_s everywhere, most on churn",
        &[("storage.disk.append_ns_per_page", "ns/page", LOWER)],
    );
    add(
        &mut out,
        "storage",
        On::All,
        "auto_w2_s (two workers share the disk's locks)",
        &[("storage.disk.seq_read_2t_ns_per_page", "ns/page", LOWER)],
    );
    add(
        &mut out,
        "storage",
        On::All,
        "every read and append verifies or stamps a CRC: *_s on spills, setup_s",
        &[("storage.disk.crc32_mb_per_s", "MB/s", HIGHER)],
    );
    for (_, alg) in ALGORITHMS {
        add(
            &mut out,
            "storage",
            On::All,
            "its algorithm's *_s on spills; near zero on fits (a few hundred page reads)",
            &[(&format!("storage.disk.busy_pct.{alg}"), "%", LOWER)],
        );
    }
    add(
        &mut out,
        "storage",
        On::All,
        "forced metrics on selective (documents read one at a time through the pool)",
        &[
            ("storage.pool.hit_ns", "ns", LOWER),
            ("storage.pool.miss_ns", "ns", LOWER),
        ],
    );

    add(
        &mut out,
        "collection",
        On::All,
        "setup_s",
        &[
            ("collection.build_s", "s", LOWER),
            ("collection.pages", "pages", LOWER),
        ],
    );
    add(
        &mut out,
        "collection",
        On::All,
        "hhnl_s and fnl_s on all four (the inner scan decodes and scores every document)",
        &[
            ("collection.scan_ns_per_cell", "ns/cell", LOWER),
            ("collection.decode_ns_per_cell", "ns/cell", LOWER),
            ("collection.dot_ns_per_cell", "ns/cell", LOWER),
        ],
    );
    add(
        &mut out,
        "collection",
        On::All,
        "forced metrics on selective (selected outer rows are read at random)",
        &[("collection.read_doc_us", "us", LOWER)],
    );
    add(
        &mut out,
        "collection",
        selective,
        "setup_s on selective",
        &[("collection.text.ingest_us_per_doc", "us/doc", LOWER)],
    );

    add(
        &mut out,
        "invfile",
        On::All,
        "setup_s",
        &[
            ("invfile.build_s", "s", LOWER),
            ("invfile.pages", "pages", LOWER),
            ("invfile.fnl.build_s", "s", LOWER),
        ],
    );
    add(
        &mut out,
        "invfile",
        On::All,
        "vvm_s",
        &[("invfile.scan_ns_per_cell", "ns/cell", LOWER)],
    );
    add(
        &mut out,
        "invfile",
        On::All,
        "hvnl_s on spills (tens of thousands of entry fetches)",
        &[("invfile.read_entry_us", "us", LOWER)],
    );
    add(
        &mut out,
        "invfile",
        On::All,
        "hvnl_s on selective (the dictionary load is a visible share of a short run)",
        &[
            ("invfile.btree.load_leaves_ms", "ms", LOWER),
            ("invfile.btree.search_us", "us", LOWER),
        ],
    );
    add(
        &mut out,
        "invfile",
        On::All,
        "fnl_s",
        &[
            ("invfile.fnl.scan_ns_per_cell", "ns/cell", LOWER),
            ("invfile.fnl.term_order_ms", "ms", LOWER),
        ],
    );
    add(
        &mut out,
        "invfile",
        churn,
        "forced metrics on churn only",
        &[("invfile.delta.entries_between_us", "us", LOWER)],
    );

    for (_, alg) in ALGORITHMS {
        let moves = match alg {
            "hhnl" => "hhnl_s, and auto_s/auto_w2_s while the planner picks HHNL; never *_pages",
            "hvnl" => "hvnl_s; counts repeat exactly and may carry a later claim",
            "vvm" => "vvm_s; counts repeat exactly and may carry a later claim",
            _ => "fnl_s, and auto_s while the planner picks FNL; never *_pages",
        };
        for (metric, unit, better) in [
            ("passes", "count", LOWER),
            ("cells_touched", "count", LOWER),
            ("sim_ops", "count", LOWER),
            ("useful_pct", "%", HIGHER),
            ("ns_per_cell", "ns/cell", LOWER),
            ("pages_seq", "pages", LOWER),
            ("pages_rand", "pages", LOWER),
            ("mem_high_water_kb", "kB", LOWER),
            ("allocs", "count", LOWER),
            ("alloc_mb", "MB", LOWER),
        ] {
            let name = format!("core.{alg}.{metric}");
            add(&mut out, "core", On::All, moves, &[(&name, unit, better)]);
        }
    }
    add(
        &mut out,
        "core",
        On::All,
        "hvnl_s and hvnl_pages on spills (the entry cache is what B buys)",
        &[
            ("core.hvnl.entry_fetches", "count", LOWER),
            ("core.hvnl.cache_hit_pct", "%", HIGHER),
        ],
    );
    add(
        &mut out,
        "core",
        On::All,
        "every *_s a little: each scored pair is offered to a top-k heap",
        &[
            ("core.topk.offer_ns", "ns", LOWER),
            ("core.topk.merge_lists_us", "us", LOWER),
        ],
    );
    for (_, alg) in ALGORITHMS {
        add(
            &mut out,
            "core",
            On::All,
            "auto_w2_s (per-layer, below) when the planner picks this algorithm",
            &[
                (&format!("core.parallel.{alg}_w2_s"), "s", LOWER),
                (&format!("core.parallel.{alg}_w2_pages"), "pages", LOWER),
            ],
        );
    }
    add(
        &mut out,
        "core",
        On::All,
        "no end-to-end metric yet: batched HVNL, four queries (k = 5, 10, 20, 40) on one scan",
        &[
            ("core.batch.n4_s", "s", LOWER),
            ("core.batch.n4_pages", "pages", LOWER),
        ],
    );
    add(
        &mut out,
        "core",
        On::All,
        "no end-to-end metric yet: HVNL across two simulated sites",
        &[
            ("core.shard.s2_s", "s", LOWER),
            ("core.shard.s2_max_pages", "pages", LOWER),
        ],
    );
    add(
        &mut out,
        "core",
        On::All,
        "the front door on two workers. Demoted from the end-to-end list: on two shared cores it \
         doubles whenever a neighbour holds one of them (2 runs in 10), which no bound survives",
        &[("auto_w2_s", "s", LOWER)],
    );
    add(
        &mut out,
        "core",
        On::All,
        "auto_s only: regret = auto_s / fastest forced, so a planner that prices CPU moves it to 1",
        &[
            ("core.integrated.regret", "ratio", LOWER),
            ("core.integrated.overhead_ms", "ms", LOWER),
            ("core.integrated.chosen_rank", "rank", LOWER),
        ],
    );

    add(
        &mut out,
        "costmodel",
        On::All,
        "auto_s on selective only (elsewhere the join dwarfs planning)",
        &[("costmodel.estimate_us", "us", LOWER)],
    );
    for (_, alg) in ALGORITHMS {
        add(
            &mut out,
            "costmodel",
            On::All,
            "explains core.integrated.regret; moves no clock by itself",
            &[(&format!("costmodel.drift_pct.{alg}"), "%", LOWER)],
        );
    }
    add(
        &mut out,
        "costmodel",
        On::All,
        "the planner's own pages: allowed to rise when auto_s falls (ROADMAP item 2)",
        &[("costmodel.auto_pages", "pages", LOWER)],
    );

    add(
        &mut out,
        "query",
        selective,
        "auto_s on selective; nothing elsewhere",
        &[
            ("query.parse_us", "us", LOWER),
            ("query.plan_us", "us", LOWER),
            ("query.explain_us", "us", LOWER),
            ("query.execute_s", "s", LOWER),
            ("query.rows_out", "count", HIGHER),
        ],
    );

    add(
        &mut out,
        "live",
        churn,
        "setup_s on churn",
        &[
            ("live.create_ms", "ms", LOWER),
            ("live.insert_us_per_doc", "us/doc", LOWER),
            ("live.delete_us_per_doc", "us/doc", LOWER),
            ("live.flush_ms", "ms", LOWER),
            ("live.merge_ms", "ms", LOWER),
            ("live.recover_ms", "ms", LOWER),
            ("live.pages_written_per_doc", "pages/doc", LOWER),
        ],
    );
    add(
        &mut out,
        "live",
        churn,
        "forced metrics on churn (what every read has to overlay)",
        &[
            ("live.delta_pages", "pages", LOWER),
            ("live.tombstone_pct", "%", LOWER),
        ],
    );

    add(
        &mut out,
        "obs",
        On::All,
        "nothing while observability is off; overhead_pct is the price of turning it on (keep <= 3 %)",
        &[
            ("obs.span_ns", "ns", LOWER),
            ("obs.counter_inc_ns", "ns", LOWER),
            ("obs.overhead_pct", "%", LOWER),
        ],
    );

    add(
        &mut out,
        "harness",
        On::All,
        "nothing: the traced pass's own cost against the plain runs of the same pass",
        &[
            ("trace.overhead_pct", "%", LOWER),
            ("trace.spans", "count", LOWER),
        ],
    );
    out
}

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            obj([
                ("name", Json::Str(w.name().into())),
                ("why", Json::Str(w.why().into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(LOWER.into())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = per_layer()
        .iter()
        .map(|m| {
            obj([
                ("name", Json::Str(m.name.clone())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.into())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ]);
    pretty(&doc, 0) + "\n"
}

/// Two-space indentation; a list or object of scalars stays on one line,
/// so the manifest diffs by metric.
fn pretty(value: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let scalar = |v: &Json| !matches!(v, Json::Arr(_) | Json::Obj(_));
    let key = |k: &String| Json::Str(k.clone()).render();
    match value {
        Json::Arr(items) if items.iter().all(scalar) => {
            let body: Vec<String> = items.iter().map(Json::render).collect();
            format!("[{}]", body.join(", "))
        }
        Json::Obj(fields) if fields.iter().all(|(_, v)| scalar(v)) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", key(k), v.render()))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Json::Arr(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty(i, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", key(k), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        scalar => scalar.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name().to_string()));
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(per_layer().iter().all(|m| unit_ok(m.unit)));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let doc = crate::json::parse(&manifest()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().len() < 64 * 1024);
    }
}
