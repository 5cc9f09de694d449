//! Model-vs-measured validation (experiment V1).
//!
//! The paper validates its formulas analytically; having executable
//! algorithms lets us go further: generate synthetic collections, run the
//! executors on the simulated disk, and compare the *measured*
//! `seq + α·rand` cost against the section 5 predictions computed from the
//! same collections' measured statistics.
//!
//! Paper-scale collections do not fit a unit-test budget, so
//! [`paper_scaled_configs`] shrinks `N` and `T` by a scale factor (keeping
//! `K`, hence document shape `S` and entry shape `J`). One caveat of
//! shrinking: term-usage density rises (at scale 100, almost every document
//! pair shares a term), so these runs set `δ = 1.0` for both the model and
//! the executor; the quick configurations used by tests keep a TREC-like
//! density instead.

use crate::fixture::Pair;
use crate::table::Table;
use std::sync::Arc;
use textjoin_collection::SynthSpec;
use textjoin_common::{CollectionStats, Error, QueryParams, Result, SystemParams};
use textjoin_core::{hvnl, vvm, Algorithm, JoinOutcome};
use textjoin_costmodel::IoScenario;
use textjoin_invfile::InvertedFile;
use textjoin_storage::DiskSim;

/// One validation scenario: two collections to generate and the parameters
/// to run under.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Scenario label (e.g. `"WSJ/100"`).
    pub label: String,
    /// Spec for the inner collection.
    pub spec1: SynthSpec,
    /// Spec for the outer collection.
    pub spec2: SynthSpec,
    /// System parameters (B should be scaled with the collections).
    pub sys: SystemParams,
    /// Query parameters (δ should match the configs' term density).
    pub query: QueryParams,
}

/// One measured-vs-predicted data point.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    /// Scenario label.
    pub label: String,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Model prediction (sequential scenario), in sequential-page units.
    pub predicted: f64,
    /// Measured executor cost on the simulated disk.
    pub measured: f64,
}

impl ValidationRow {
    /// measured / predicted.
    pub fn ratio(&self) -> f64 {
        self.measured / self.predicted
    }
}

/// Small, healthy-density scenarios for fast test runs.
pub fn quick_configs() -> Vec<ValidationConfig> {
    let sys = SystemParams {
        buffer_pages: 60,
        page_size: 512,
        alpha: 5.0,
    };
    let query = QueryParams::paper_base().with_lambda(10);
    vec![
        ValidationConfig {
            label: "quick-balanced".into(),
            spec1: SynthSpec::from_stats(CollectionStats::new(300, 30.0, 1500), 101),
            spec2: SynthSpec::from_stats(CollectionStats::new(200, 30.0, 1500), 102),
            sys,
            query,
        },
        ValidationConfig {
            label: "quick-asymmetric".into(),
            spec1: SynthSpec::from_stats(CollectionStats::new(400, 20.0, 2000), 103),
            spec2: SynthSpec::from_stats(CollectionStats::new(80, 60.0, 1200), 104),
            sys,
            query,
        },
    ]
}

/// The paper's collections scaled down by `scale` (with `B` scaled alike).
pub fn paper_scaled_configs(scale: u64) -> Vec<ValidationConfig> {
    let sys = SystemParams::paper_base().with_buffer_pages((10_000 / scale).max(20));
    let query = QueryParams::paper_base();
    [
        ("WSJ", CollectionStats::wsj()),
        ("FR", CollectionStats::fr()),
        ("DOE", CollectionStats::doe()),
    ]
    .into_iter()
    .map(|(name, stats)| ValidationConfig {
        label: format!("{name}/{scale}"),
        spec1: SynthSpec::preset_scaled(stats, scale, 7),
        spec2: SynthSpec::preset_scaled(stats, scale, 8),
        sys,
        query,
    })
    .collect()
}

impl ValidationConfig {
    /// The scenario's pair, generated on a drive of its own.
    pub(crate) fn pair(&self) -> Result<Pair> {
        let disk = Arc::new(DiskSim::new(self.sys.page_size));
        Pair::generate(disk, &self.spec1, &self.spec2)
    }
}

/// Runs `algorithms` on `pair` under the scenario's parameters, each
/// priced by its §5 estimate under `scenario`.
fn measure(
    cfg: &ValidationConfig,
    pair: &Pair,
    algorithms: &[Algorithm],
    scenario: IoScenario,
    label: &str,
) -> Result<Vec<ValidationRow>> {
    let spec = pair.spec(cfg.sys, cfg.query);
    (algorithms.iter())
        .map(|&algorithm| {
            Ok(ValidationRow {
                label: label.to_string(),
                algorithm,
                predicted: pair.estimate(algorithm, scenario, &spec),
                measured: pair.run(algorithm, &spec)?.stats.cost,
            })
        })
        .collect()
}

/// Runs every executor for one scenario, returning measured and predicted
/// costs.
pub fn validate_one(cfg: &ValidationConfig) -> Result<Vec<ValidationRow>> {
    let pair = cfg.pair()?;
    measure(
        cfg,
        &pair,
        &Algorithm::ALL,
        IoScenario::Dedicated,
        &cfg.label,
    )
}

/// Runs HHNL and VVM under *interference mode* (every page at the random
/// rate — the shared-device worst case) and compares with the paper's
/// `hhr` / `vvr` formulas.
///
/// Two deliberate model gaps make the measured side an upper bound:
/// `hhr` keeps the outer scan sequential ("for every X documents in C2,
/// there will be a random I/O") while interference mode randomises it too,
/// and `vvr` counts *run starts* (`min{I, T}`) where the disk charges every
/// page. HVNL is omitted: its `hvr` only re-prices the outer scan, which a
/// fully random device swamps.
pub fn validate_worst_case(cfg: &ValidationConfig) -> Result<Vec<ValidationRow>> {
    let pair = cfg.pair()?;
    pair.disk.set_interference(true);
    let label = format!("{} (worst case)", cfg.label);
    let algorithms = [Algorithm::Hhnl, Algorithm::Vvm];
    measure(cfg, &pair, &algorithms, IoScenario::SharedWorstCase, &label)
}

/// Runs one scenario with a span tracer and a metric registry attached —
/// the `--trace-out` path of the sim binary. HHNL, HVNL and VVM run with
/// phase spans recorded into one ring; the disk mirrors its counters into
/// the registry. Returns the combined JSON-lines dump: one line per span
/// (executor phases and batches) followed by one line per metric.
pub fn trace_one(cfg: &ValidationConfig) -> Result<String> {
    use textjoin_obs::{Registry, Tracer};
    use textjoin_storage::DiskMetrics;

    let registry = Arc::new(Registry::new());
    let disk = Arc::new(DiskSim::new(cfg.sys.page_size));
    disk.set_metrics(Some(DiskMetrics::register(&registry, &cfg.label)));
    let pair = Pair::generate(disk, &cfg.spec1, &cfg.spec2)?;

    let tracer = Tracer::with_registry(4096, Arc::clone(&registry));
    let spec = pair.spec(cfg.sys, cfg.query).with_trace(&tracer);
    for algorithm in [Algorithm::Hhnl, Algorithm::Hvnl, Algorithm::Vvm] {
        pair.run(algorithm, &spec)?;
    }

    let mut out = tracer.to_json_lines();
    out.push_str(&registry.to_json_lines());
    Ok(out)
}

/// Runs several scenarios in parallel (one thread per scenario — each has
/// its own simulated disk).
pub fn validate_all(configs: &[ValidationConfig]) -> Result<Vec<ValidationRow>> {
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| s.spawn(move || validate_one(cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("validation thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok(results.into_iter().flatten().collect())
}

/// The executed analogue of group 1's B sweep: run HHNL, HVNL and VVM on
/// one generated scenario at several buffer sizes and tabulate the
/// *measured* costs. Shows the crossovers of the analytical sweep with
/// real I/O counts.
pub fn memory_sweep(cfg: &ValidationConfig, buffers: &[u64]) -> Result<Table> {
    let pair = cfg.pair()?;
    let mut t = Table::new(
        format!("Measured B sweep: {} (costs in page units)", cfg.label),
        &["B (pages)", "HHNL", "HVNL", "VVM", "VVM passes", "cheapest"],
    );
    for &b in buffers {
        let spec = pair.spec(cfg.sys.with_buffer_pages(b), cfg.query);
        let run = |algorithm| match pair.run(algorithm, &spec) {
            Ok(o) => Ok(Some(o)),
            Err(Error::InsufficientMemory { .. }) => Ok(None),
            Err(e) => Err(e),
        };
        let hh = run(Algorithm::Hhnl)?;
        let hv = run(Algorithm::Hvnl)?;
        let vv = run(Algorithm::Vvm)?;
        let cost = |o: &Option<JoinOutcome>| o.as_ref().map_or(f64::INFINITY, |o| o.stats.cost);
        let cheapest = [("HHNL", cost(&hh)), ("HVNL", cost(&hv)), ("VVM", cost(&vv))]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
            .unwrap_or("-");
        let fmt = |o: &Option<JoinOutcome>| {
            o.as_ref()
                .map_or("∞ (no memory)".into(), |o| format!("{:.0}", o.stats.cost))
        };
        t.push_row(vec![
            b.to_string(),
            fmt(&hh),
            fmt(&hv),
            fmt(&vv),
            vv.as_ref()
                .map_or("-".into(), |o| o.stats.passes.to_string()),
            cheapest.to_string(),
        ]);
    }
    Ok(t)
}

/// Compression study (extension): the paper's fixed 5-byte cells versus
/// varint-gap-compressed postings. Compression shrinks `J` and `I`, so
/// HVNL's per-entry fetches and VVM's scans both get cheaper while HHNL
/// (which never touches the inverted file) is unaffected — measured here
/// on one generated scenario.
pub fn codec_study(cfg: &ValidationConfig) -> Result<Table> {
    use textjoin_invfile::PostingCodec;
    let pair = cfg.pair()?;
    let (c1, c2) = (&pair.c1, &pair.c2);

    let mut t = Table::new(
        format!(
            "Posting-codec study: {} (measured costs in page units)",
            cfg.label
        ),
        &[
            "codec",
            "I1 (pages)",
            "J1 (pages)",
            "HVNL",
            "VVM",
            "HHNL (codec-blind)",
        ],
    );
    let spec = pair.spec(cfg.sys, cfg.query);
    let hh_cost = pair.run(Algorithm::Hhnl, &spec)?.stats.cost;

    let mut baseline = None;
    for (name, codec) in [
        ("fixed 5-byte (paper)", PostingCodec::Fixed5),
        ("varint-gap", PostingCodec::VarintGap),
    ] {
        let disk = Arc::clone(&pair.disk);
        let inv1 = InvertedFile::build_with(Arc::clone(&disk), &format!("{name}.c1"), c1, codec)?;
        let inv2 = InvertedFile::build_with(disk, &format!("{name}.c2"), c2, codec)?;
        let hv = pair.fresh(|| hvnl::execute(&spec, &inv1))?;
        let vv = pair.fresh(|| vvm::execute(&spec, &inv1, &inv2))?;
        match &baseline {
            None => baseline = Some(hv.result.clone()),
            Some(b) => assert_eq!(&hv.result, b, "codec changed the join result"),
        }
        t.push_row(vec![
            name.to_string(),
            inv1.num_pages().to_string(),
            format!("{:.3}", inv1.avg_entry_pages()),
            format!("{:.0}", hv.stats.cost),
            format!("{:.0}", vv.stats.cost),
            format!("{hh_cost:.0}"),
        ]);
    }
    Ok(t)
}

/// Renders validation rows as a table.
pub fn validation_table(rows: &[ValidationRow]) -> Table {
    let mut t = Table::new(
        "V1: measured executor cost vs section-5 prediction (sequential scenario)",
        &[
            "scenario",
            "algorithm",
            "predicted",
            "measured",
            "measured/predicted",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.label.clone(),
            r.algorithm.to_string(),
            format!("{:.0}", r.predicted),
            format!("{:.0}", r.measured),
            format!("{:.2}", r.ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_study_compresses_and_cheapens_vvm() {
        let cfg = &quick_configs()[0];
        let t = codec_study(cfg).unwrap();
        assert_eq!(t.rows.len(), 2);
        let i_fixed: u64 = t.rows[0][1].parse().unwrap();
        let i_varint: u64 = t.rows[1][1].parse().unwrap();
        assert!(i_varint < i_fixed, "varint must shrink the inverted file");
        let vvm_fixed: f64 = t.rows[0][4].parse().unwrap();
        let vvm_varint: f64 = t.rows[1][4].parse().unwrap();
        assert!(vvm_varint < vvm_fixed, "smaller I must cheapen VVM's scans");
    }

    #[test]
    fn memory_sweep_costs_fall_with_b_and_stay_correct() {
        let cfg = &quick_configs()[0];
        let t = memory_sweep(cfg, &[20, 60, 200]).unwrap();
        assert_eq!(t.rows.len(), 3);
        // HHNL's measured cost is non-increasing in B.
        let hh: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap_or(f64::INFINITY))
            .collect();
        assert!(hh.windows(2).all(|w| w[1] <= w[0] + 1.0), "{hh:?}");
    }

    #[test]
    fn quick_scenarios_track_the_model() {
        let rows = validate_all(&quick_configs()).unwrap();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let band = match r.algorithm {
                // HHNL and VVM are dominated by full scans the model
                // prices exactly; HVNL depends on the vocabulary-growth
                // and overlap heuristics, so its band is wider.
                Algorithm::Hhnl | Algorithm::Vvm => 0.5..=2.0,
                // FNL's fns formula is calibrated against the executor's
                // own accounting (top-λ slot bytes, per-pass seeks), so it
                // tracks as tightly as the scan-dominated pair.
                Algorithm::Fnl => 0.5..=2.0,
                Algorithm::Hvnl => 0.2..=5.0,
            };
            assert!(
                band.contains(&r.ratio()),
                "{} {}: predicted {:.0}, measured {:.0} (ratio {:.2})",
                r.label,
                r.algorithm,
                r.predicted,
                r.measured,
                r.ratio()
            );
        }
    }

    #[test]
    fn worst_case_measured_bounds_the_formulas() {
        for cfg in quick_configs() {
            for r in validate_worst_case(&cfg).unwrap() {
                // The measured interference cost must be at least the
                // paper's worst-case estimate (the formulas keep some reads
                // sequential / count runs, our device randomises pages),
                // and within a small factor of it.
                // Small undershoots are possible: the executor partitions
                // by *measured* entry sizes where the formula uses the
                // derived average J.
                assert!(
                    r.ratio() >= 0.85,
                    "{} {}: measured {:.0} below prediction {:.0}",
                    r.label,
                    r.algorithm,
                    r.measured,
                    r.predicted
                );
                // The gap is bounded by α: interference prices every page
                // at the random rate, while the formulas keep some reads
                // at the sequential rate (e.g. hhr's "C2 fits in memory"
                // case charges one seek per inner block).
                assert!(
                    r.ratio() <= cfg.sys.alpha + 0.1,
                    "{} {}: measured {:.0} far above prediction {:.0}",
                    r.label,
                    r.algorithm,
                    r.measured,
                    r.predicted
                );
            }
        }
    }

    #[test]
    fn trace_dump_holds_executor_spans_and_disk_metrics() {
        let dump = trace_one(&quick_configs()[0]).unwrap();
        for name in ["\"hhnl\"", "\"hvnl\"", "\"vvm\""] {
            assert!(dump.contains(name), "missing root span {name} in:\n{dump}");
        }
        assert!(dump.contains("disk.seq_reads"), "{dump}");
        assert!(
            dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "every line must be a JSON object"
        );
    }

    #[test]
    fn paper_scaled_configs_scale_b_with_collections() {
        let cfgs = paper_scaled_configs(100);
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].sys.buffer_pages, 100);
        assert_eq!(cfgs[0].spec1.avg_terms_per_doc, 329.0);
        assert_eq!(cfgs[0].spec1.num_docs, 987);
    }
}
