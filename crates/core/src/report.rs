//! Per-query resource accounting: [`QueryReport`] and the bounded
//! [`SlowQueryLog`].
//!
//! The paper's analysis is entirely about *per-query* cost — every
//! formula prices one join. The metrics registry aggregates across runs;
//! this module keeps the per-run view: one [`QueryReport`] per executed
//! [`JoinSpec`](crate::spec::JoinSpec), carrying measured I/O, cache and
//! fault behaviour, per-phase durations (from the span tracer when one is
//! attached), and the model-predicted vs measured cost drift the
//! integrated algorithm's planning depends on.

use crate::result::{JoinOutcome, ResultQuality};
use std::fmt::Write as _;
use textjoin_common::{json, Error, Result};
use textjoin_costmodel::Algorithm;
use textjoin_obs::{Registry, Tracer, LATENCY_BOUNDS_NS};
use textjoin_storage::IoStats;

/// Simulated service time of one sequential page I/O, in nanoseconds.
///
/// The paper prices I/O in abstract page units (`seq + α·rand`); to plot
/// those units on the same latency axis as wall-clock time, one
/// sequential page is modelled as 0.1 ms — a spinning disk streaming
/// ~40 MB/s of 4 KiB pages. Random pages cost `α` times more, exactly as
/// in the cost model.
pub const SIM_PAGE_NS: u64 = 100_000;

/// The simulated I/O time of a run: `(seq + α·rand) × SIM_PAGE_NS`.
pub fn sim_io_ns(io: &IoStats, alpha: f64) -> u64 {
    (io.cost(alpha) * SIM_PAGE_NS as f64) as u64
}

/// Observes one phase's simulated I/O time into the tracer's registry
/// (histogram `phase.sim_io_ns{label=phase}`). A disabled tracer makes
/// this free.
pub fn observe_phase_sim_io(trace: Option<&Tracer>, phase: &'static str, io: &IoStats, alpha: f64) {
    if let Some(registry) = trace.and_then(|t| t.registry()) {
        registry
            .histogram("phase.sim_io_ns", phase, &LATENCY_BOUNDS_NS)
            .observe(sim_io_ns(io, alpha));
    }
}

/// One phase's aggregated span durations within a single query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseDuration {
    /// Span name, e.g. `"hhnl.inner_scan"` (owned so reports can round-
    /// trip through the persistent JSON-lines store).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall-clock time across them, in microseconds.
    pub total_us: u64,
}

/// Everything one join execution cost, in one machine-readable record.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// Free-form query label (collection pair, SQL text, scenario name).
    pub query: String,
    /// The algorithm that produced the result.
    pub algorithm: Algorithm,
    /// Calibration key: the collection-pair label this join ran over
    /// (empty when the report is unkeyed — calibration skips it).
    pub pair: String,
    /// Calibration key: the query's λ.
    pub lambda: u64,
    /// Calibration key: the buffer budget `B` (pages) the run had.
    pub buffer_pages: u64,
    /// CPU work: similarity multiply-adds performed.
    pub sim_ops: u64,
    /// CPU work: document/inverted-file cells visited.
    pub cells_touched: u64,
    /// Pages read, split by rate class.
    pub pages_read: IoStats,
    /// The paper's cost metric: `seq + α·rand`.
    pub measured_cost: f64,
    /// The cost model's prediction for the chosen algorithm, when the
    /// caller planned before executing.
    pub predicted_cost: Option<f64>,
    /// Wall-clock execution time in nanoseconds.
    pub wall_ns: u64,
    /// Inverted-entry cache hits (HVNL).
    pub cache_hits: u64,
    /// Inverted-entry fetches from disk (HVNL).
    pub entry_fetches: u64,
    /// Documents skipped in degraded mode.
    pub skipped_docs: u64,
    /// Inverted entries skipped in degraded mode.
    pub skipped_entries: u64,
    /// Whether the result is full or degraded-partial.
    pub quality: ResultQuality,
    /// Per-phase durations, aggregated from the span tracer (empty when
    /// the run was untraced).
    pub phases: Vec<PhaseDuration>,
}

impl QueryReport {
    /// Builds a report from a finished join. `trace` contributes the
    /// per-phase duration breakdown; `predicted_cost` is the planner's
    /// estimate for the algorithm that ran, when available.
    pub fn from_outcome(
        query: impl Into<String>,
        outcome: &JoinOutcome,
        trace: Option<&Tracer>,
        predicted_cost: Option<f64>,
    ) -> Self {
        let s = &outcome.stats;
        Self {
            query: query.into(),
            algorithm: s.algorithm,
            pair: String::new(),
            lambda: 0,
            buffer_pages: 0,
            sim_ops: s.sim_ops,
            cells_touched: s.cells_touched,
            pages_read: s.io,
            measured_cost: s.cost,
            predicted_cost,
            wall_ns: s.wall_ns,
            cache_hits: s.cache_hits,
            entry_fetches: s.entry_fetches,
            skipped_docs: s.skipped_docs,
            skipped_entries: s.skipped_entries,
            quality: outcome.quality,
            phases: trace.map(phase_durations).unwrap_or_default(),
        }
    }

    /// Attaches the calibration key: the collection-pair label plus the
    /// query/system knobs the run executed under. Keyed reports are what
    /// the persistent store accumulates and the cost-model calibrator
    /// groups by (`pair` × algorithm).
    pub fn with_key(mut self, pair: impl Into<String>, lambda: u64, buffer_pages: u64) -> Self {
        self.pair = pair.into();
        self.lambda = lambda;
        self.buffer_pages = buffer_pages;
        self
    }

    /// The calibration-fit view of this report: the subset of fields
    /// [`CalibrationProfile::fit`](textjoin_costmodel::CalibrationProfile::fit)
    /// consumes, grouped under the report's calibration key.
    pub fn to_observation(&self) -> textjoin_costmodel::ReportObs {
        textjoin_costmodel::ReportObs {
            pair: self.pair.clone(),
            algorithm: self.algorithm.to_string(),
            seq_reads: self.pages_read.seq_reads,
            rand_reads: self.pages_read.rand_reads,
            cells: self.cells_touched,
            wall_ns: self.wall_ns,
            predicted_cost: self.predicted_cost,
            measured_cost: self.measured_cost,
        }
    }

    /// Model-vs-measured drift in percent, when a prediction exists and
    /// the measured cost is nonzero: `(measured − predicted)/measured`.
    pub fn drift_pct(&self) -> Option<f64> {
        let predicted = self.predicted_cost?;
        if self.measured_cost == 0.0 {
            return None;
        }
        Some(100.0 * (self.measured_cost - predicted) / self.measured_cost)
    }

    /// Renders the report as one JSON object (hand-rolled).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"query\":\"{}\",\"algorithm\":\"{}\",\"pair\":\"{}\",\"lambda\":{},\"buffer_pages\":{},\"seq_reads\":{},\"rand_reads\":{},\"measured_cost\":{:.3}",
            json::escape(&self.query),
            self.algorithm,
            json::escape(&self.pair),
            self.lambda,
            self.buffer_pages,
            self.pages_read.seq_reads,
            self.pages_read.rand_reads,
            self.measured_cost,
        );
        if let Some(p) = self.predicted_cost {
            let _ = write!(out, ",\"predicted_cost\":{p:.3}");
        }
        if let Some(d) = self.drift_pct() {
            let _ = write!(out, ",\"drift_pct\":{d:.2}");
        }
        let _ = write!(
            out,
            ",\"wall_ns\":{},\"cache_hits\":{},\"entry_fetches\":{},\"skipped_docs\":{},\"skipped_entries\":{},\"sim_ops\":{},\"cells_touched\":{},\"quality\":\"{}\",\"phases\":[",
            self.wall_ns,
            self.cache_hits,
            self.entry_fetches,
            self.skipped_docs,
            self.skipped_entries,
            self.sim_ops,
            self.cells_touched,
            self.quality,
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_us\":{}}}",
                json::escape(&p.name),
                p.count,
                p.total_us
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses one [`Self::to_json`] object back. Missing optional fields
    /// (`pair`, the knobs, the CPU counters) default to zero/empty so
    /// records written by earlier versions still load; missing required
    /// fields are an [`Error::Parse`].
    pub fn from_json(s: &str) -> Result<Self> {
        let need = |key: &str| -> Result<f64> {
            json::num_field(s, key)
                .ok_or_else(|| Error::Parse(format!("report JSON missing numeric '{key}'")))
        };
        let query = json::str_field(s, "query")
            .ok_or_else(|| Error::Parse("report JSON missing 'query'".into()))?;
        let algorithm: Algorithm = json::str_field(s, "algorithm")
            .ok_or_else(|| Error::Parse("report JSON missing 'algorithm'".into()))?
            .parse()?;
        let quality = match json::str_field(s, "quality").as_deref() {
            Some("full") => ResultQuality::Full,
            Some("partial") => ResultQuality::Partial,
            other => {
                return Err(Error::Parse(format!(
                    "report JSON has bad 'quality': {other:?}"
                )))
            }
        };
        let mut phases = Vec::new();
        if let Some(i) = s.find("\"phases\":[") {
            let mut rest = &s[i + "\"phases\":[".len()..];
            while let Some(open) = rest.find('{') {
                let Some(close) = rest[open..].find('}') else {
                    break;
                };
                let obj = &rest[open..open + close + 1];
                let name = json::str_field(obj, "name")
                    .ok_or_else(|| Error::Parse("phase missing 'name'".into()))?;
                let count = json::num_field(obj, "count")
                    .ok_or_else(|| Error::Parse("phase missing 'count'".into()))?;
                let total_us = json::num_field(obj, "total_us")
                    .ok_or_else(|| Error::Parse("phase missing 'total_us'".into()))?;
                phases.push(PhaseDuration {
                    name,
                    count: count as u64,
                    total_us: total_us as u64,
                });
                rest = &rest[open + close + 1..];
            }
        }
        Ok(Self {
            query,
            algorithm,
            pair: json::str_field(s, "pair").unwrap_or_default(),
            lambda: json::num_field(s, "lambda").unwrap_or(0.0) as u64,
            buffer_pages: json::num_field(s, "buffer_pages").unwrap_or(0.0) as u64,
            sim_ops: json::num_field(s, "sim_ops").unwrap_or(0.0) as u64,
            cells_touched: json::num_field(s, "cells_touched").unwrap_or(0.0) as u64,
            pages_read: IoStats {
                seq_reads: need("seq_reads")? as u64,
                rand_reads: need("rand_reads")? as u64,
                writes: 0,
            },
            measured_cost: need("measured_cost")?,
            predicted_cost: json::num_field(s, "predicted_cost"),
            wall_ns: need("wall_ns")? as u64,
            cache_hits: need("cache_hits")? as u64,
            entry_fetches: need("entry_fetches")? as u64,
            skipped_docs: need("skipped_docs")? as u64,
            skipped_entries: need("skipped_entries")? as u64,
            quality,
            phases,
        })
    }

    /// Registers this query's headline numbers into a metrics registry:
    /// wall and simulated-I/O latency histograms plus skip counters,
    /// labelled by algorithm. This is how individual reports roll up into
    /// the continuous (Prometheus/JSON-lines) view.
    pub fn observe_into(&self, registry: &Registry, alpha: f64) {
        let label = self.algorithm.to_string();
        registry
            .histogram("query.wall_ns", label.clone(), &LATENCY_BOUNDS_NS)
            .observe(self.wall_ns);
        registry
            .histogram("query.sim_io_ns", label.clone(), &LATENCY_BOUNDS_NS)
            .observe(sim_io_ns(&self.pages_read, alpha));
        if self.skipped_docs > 0 {
            registry
                .counter("query.skipped_docs", label.clone())
                .inc_by(self.skipped_docs);
        }
        if self.skipped_entries > 0 {
            registry
                .counter("query.skipped_entries", label)
                .inc_by(self.skipped_entries);
        }
    }
}

/// Parses the calibration-fit view straight out of one report JSON
/// record, keeping the algorithm as the raw string it was written with.
///
/// [`QueryReport::from_json`] rejects records whose algorithm label this
/// build does not know (an older binary reading a store that a newer one
/// wrote, or vice versa) — which used to make the calibration loader
/// silently drop exactly the observations a new algorithm needs most.
/// Calibration groups by `(pair, algorithm-string)` and never dispatches
/// on the enum, so this parser accepts any label and leaves the decision
/// of what to do with unknown ones to the fitter's fallback rules.
pub fn observation_from_json(s: &str) -> Result<textjoin_costmodel::ReportObs> {
    let need = |key: &str| -> Result<f64> {
        json::num_field(s, key)
            .ok_or_else(|| Error::Parse(format!("report JSON missing numeric '{key}'")))
    };
    Ok(textjoin_costmodel::ReportObs {
        pair: json::str_field(s, "pair").unwrap_or_default(),
        algorithm: json::str_field(s, "algorithm")
            .ok_or_else(|| Error::Parse("report JSON missing 'algorithm'".into()))?,
        seq_reads: need("seq_reads")? as u64,
        rand_reads: need("rand_reads")? as u64,
        cells: json::num_field(s, "cells_touched").unwrap_or(0.0) as u64,
        wall_ns: need("wall_ns")? as u64,
        predicted_cost: json::num_field(s, "predicted_cost"),
        measured_cost: need("measured_cost")?,
    })
}

/// Aggregates a tracer's finished spans by name.
fn phase_durations(trace: &Tracer) -> Vec<PhaseDuration> {
    let mut phases: Vec<PhaseDuration> = Vec::new();
    for span in trace.finished() {
        match phases.iter_mut().find(|p| p.name == span.name) {
            Some(p) => {
                p.count += 1;
                p.total_us = p.total_us.saturating_add(span.dur_us);
            }
            None => phases.push(PhaseDuration {
                name: span.name.to_string(),
                count: 1,
                total_us: span.dur_us,
            }),
        }
    }
    phases
}

/// Which measurement ranks reports in the [`SlowQueryLog`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SlowLogRank {
    /// Measured page cost `seq + α·rand` — the paper's unit.
    #[default]
    Cost,
    /// Measured wall-clock time.
    Wall,
}

/// A bounded log of the most expensive queries seen so far, ordered by
/// the chosen rank key (measured page cost by default, wall time via
/// [`SlowQueryLog::ranked_by`]), highest first. Insertion keeps the top
/// `capacity` reports; the cheapest entry is evicted when a costlier one
/// arrives. Among equal keys older reports rank higher and are retained
/// in preference to newer ones, so eviction order is fully deterministic.
/// Each query key is held at most once — repeated runs of one query keep
/// only the worst observation instead of flooding the top-K.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    rank: SlowLogRank,
    /// Sorted by `(rank key desc, sequence asc)`.
    entries: Vec<(f64, u64, QueryReport)>,
    next_seq: u64,
    admitted: u64,
    rejected: u64,
}

impl SlowQueryLog {
    /// A log keeping the `capacity` most expensive reports (at least 1),
    /// ranked by measured page cost.
    pub fn new(capacity: usize) -> Self {
        Self::ranked_by(capacity, SlowLogRank::Cost)
    }

    /// A log ranked by the given key.
    pub fn ranked_by(capacity: usize, rank: SlowLogRank) -> Self {
        Self {
            capacity: capacity.max(1),
            rank,
            entries: Vec::new(),
            next_seq: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    /// The measurement this log ranks by.
    pub fn rank(&self) -> SlowLogRank {
        self.rank
    }

    fn key(&self, report: &QueryReport) -> f64 {
        match self.rank {
            SlowLogRank::Cost => report.measured_cost,
            SlowLogRank::Wall => report.wall_ns as f64,
        }
    }

    /// Offers a report. Returns `true` if it entered the log.
    ///
    /// At most one entry is kept per query key (`QueryReport::query`):
    /// re-running the same query cannot flood the top-K. A re-run that is
    /// worse than the retained observation replaces it; a cheaper or
    /// equal re-run bounces off (the retained observation stays the worst
    /// seen).
    pub fn offer(&mut self, report: QueryReport) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.key(&report);
        if let Some(pos) = self
            .entries
            .iter()
            .position(|(_, _, held)| held.query == report.query)
        {
            let (held_key, _, _) = self.entries[pos];
            if key <= held_key {
                self.rejected += 1;
                return false;
            }
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            // Full: strictly cheaper offers bounce off; everything else
            // displaces the tail (the cheapest key, newest within it).
            let (min_key, _, _) = self.entries.last().expect("non-empty at capacity");
            if key < *min_key {
                self.rejected += 1;
                return false;
            }
            self.entries.pop();
        }
        // Insert keeping (key desc, seq asc): the new report has the
        // largest seq, so it lands after every equal-key entry.
        let at = self.entries.partition_point(|(k, _, _)| *k >= key);
        self.entries.insert(at, (key, seq, report));
        self.admitted += 1;
        true
    }

    /// Reports in rank order: most expensive first; equal costs oldest
    /// first.
    pub fn entries(&self) -> impl Iterator<Item = &QueryReport> + '_ {
        self.entries.iter().map(|(_, _, r)| r)
    }

    /// Number of reports currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no reports.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many offers entered the log so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// How many offers were cheaper than everything retained.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// One JSON object per retained report, most expensive first.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in self.entries() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{ExecStats, JoinResult};

    fn outcome(algorithm: Algorithm, cost: f64, wall_ns: u64) -> JoinOutcome {
        let mut stats = ExecStats::zero(algorithm);
        stats.cost = cost;
        stats.wall_ns = wall_ns;
        stats.io.seq_reads = cost as u64;
        JoinOutcome {
            result: JoinResult::default(),
            quality: stats.quality(),
            stats,
        }
    }

    fn report(query: &str, cost: f64) -> QueryReport {
        QueryReport::from_outcome(query, &outcome(Algorithm::Hhnl, cost, 1000), None, None)
    }

    #[test]
    fn report_carries_stats_and_drift() {
        let o = outcome(Algorithm::Hvnl, 200.0, 5000);
        let r = QueryReport::from_outcome("q1", &o, None, Some(180.0));
        assert_eq!(r.algorithm, Algorithm::Hvnl);
        assert_eq!(r.wall_ns, 5000);
        assert_eq!(r.measured_cost, 200.0);
        let drift = r.drift_pct().unwrap();
        assert!((drift - 10.0).abs() < 1e-9, "drift {drift}");
        let json = r.to_json();
        assert!(json.contains("\"algorithm\":\"HVNL\""), "{json}");
        assert!(json.contains("\"predicted_cost\":180.000"), "{json}");
        assert!(json.contains("\"drift_pct\":10.00"), "{json}");
        assert!(json.contains("\"quality\":\"full\""), "{json}");
    }

    #[test]
    fn report_aggregates_trace_phases() {
        let tracer = Tracer::enabled(64);
        {
            let root = tracer.span("hhnl");
            let _a = root.child("hhnl.inner_scan");
            let _b = root.child("hhnl.inner_scan");
        }
        let o = outcome(Algorithm::Hhnl, 10.0, 100);
        let r = QueryReport::from_outcome("q", &o, Some(&tracer), None);
        let scan = r
            .phases
            .iter()
            .find(|p| p.name == "hhnl.inner_scan")
            .expect("phase present");
        assert_eq!(scan.count, 2);
        assert_eq!(r.phases.iter().find(|p| p.name == "hhnl").unwrap().count, 1);
    }

    #[test]
    fn observe_into_rolls_up() {
        let registry = Registry::new();
        let r = report("q", 50.0);
        r.observe_into(&registry, 5.0);
        let h = registry.histogram("query.wall_ns", "HHNL", &LATENCY_BOUNDS_NS);
        assert_eq!(h.count(), 1);
        let sim = registry.histogram("query.sim_io_ns", "HHNL", &LATENCY_BOUNDS_NS);
        assert_eq!(sim.sum(), 50 * SIM_PAGE_NS);
    }

    #[test]
    fn slowlog_keeps_top_k_by_cost() {
        let mut log = SlowQueryLog::new(3);
        for (name, cost) in [
            ("a", 10.0),
            ("b", 50.0),
            ("c", 30.0),
            ("d", 40.0),
            ("e", 5.0),
        ] {
            log.offer(report(name, cost));
        }
        let order: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(order, vec!["b", "d", "c"]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.admitted(), 4, "a admitted then evicted; e rejected");
        assert_eq!(log.rejected(), 1);
    }

    #[test]
    fn slowlog_eviction_order_is_deterministic_on_ties() {
        let mut log = SlowQueryLog::new(2);
        assert!(log.offer(report("first", 20.0)));
        assert!(log.offer(report("second", 20.0)));
        // A third tie evicts the newest of the cheapest — "second" — so
        // the ordering stays (cost desc, age asc).
        assert!(log.offer(report("third", 20.0)));
        let order: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(order, vec!["first", "third"]);
        // A strictly cheaper report never displaces anything.
        assert!(!log.offer(report("cheap", 19.0)));
        assert!(log.offer(report("dear", 21.0)));
        let order: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(order, vec!["dear", "first"]);
    }

    #[test]
    fn slowlog_dedupes_repeated_query_keys_keeping_the_worst() {
        let mut log = SlowQueryLog::new(3);
        assert!(log.offer(report("q", 30.0)));
        // A cheaper or equal re-run bounces; the retained entry stays.
        assert!(!log.offer(report("q", 10.0)));
        assert!(!log.offer(report("q", 30.0)));
        assert_eq!(log.len(), 1);
        assert_eq!(log.rejected(), 2);
        // A worse re-run replaces the held observation in place.
        assert!(log.offer(report("other", 40.0)));
        assert!(log.offer(report("q", 50.0)));
        let held: Vec<(&str, f64)> = log
            .entries()
            .map(|r| (r.query.as_str(), r.measured_cost))
            .collect();
        assert_eq!(held, vec![("q", 50.0), ("other", 40.0)]);
        // Replacement never grows the log: repeated keys cannot flood
        // past one slot even when the log is full.
        assert!(log.offer(report("third", 35.0)));
        assert_eq!(log.len(), 3);
        for _ in 0..10 {
            let worst = log.entries().next().unwrap().measured_cost;
            assert!(log.offer(report("q", worst + 1.0)));
            assert_eq!(log.len(), 3, "dedupe must replace, not append");
        }
        let names: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(names, vec!["q", "other", "third"]);
    }

    #[test]
    fn slowlog_json_lines_rank_order() {
        let mut log = SlowQueryLog::new(4);
        log.offer(report("small", 1.0));
        log.offer(report("big", 100.0));
        let dumped = log.to_json_lines();
        let lines: Vec<&str> = dumped.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"query\":\"big\""), "{}", lines[0]);
        assert!(lines[1].contains("\"query\":\"small\""), "{}", lines[1]);
    }

    #[test]
    fn sim_io_time_prices_random_pages_at_alpha() {
        let io = IoStats {
            seq_reads: 10,
            rand_reads: 2,
            writes: 0,
        };
        assert_eq!(sim_io_ns(&io, 5.0), 20 * SIM_PAGE_NS);
    }

    #[test]
    fn json_round_trips_keyed_reports() {
        let tracer = Tracer::enabled(16);
        {
            let root = tracer.span("vvm");
            let _p = root.child("vvm.merge_pass");
        }
        let mut o = outcome(Algorithm::Vvm, 123.5, 9_876);
        o.stats.io.rand_reads = 3;
        o.stats.sim_ops = 42;
        o.stats.cells_touched = 99;
        let r = QueryReport::from_outcome("q \"quoted\"", &o, Some(&tracer), Some(117.25))
            .with_key("balanced", 20, 160);
        let parsed = QueryReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.query, r.query);
        assert_eq!(parsed.algorithm, r.algorithm);
        assert_eq!(parsed.pair, "balanced");
        assert_eq!(parsed.lambda, 20);
        assert_eq!(parsed.buffer_pages, 160);
        assert_eq!(parsed.sim_ops, 42);
        assert_eq!(parsed.cells_touched, 99);
        assert_eq!(parsed.pages_read.seq_reads, r.pages_read.seq_reads);
        assert_eq!(parsed.pages_read.rand_reads, 3);
        assert_eq!(parsed.measured_cost, r.measured_cost);
        assert_eq!(parsed.predicted_cost, Some(117.25));
        assert_eq!(parsed.wall_ns, r.wall_ns);
        assert_eq!(parsed.quality, r.quality);
        assert_eq!(parsed.phases, r.phases);
        // The round trip is a fixed point: serializing again is identical.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_defaults_missing_key_fields_and_rejects_garbage() {
        // A record written before the calibration keys existed.
        let legacy = "{\"query\":\"old\",\"algorithm\":\"HHNL\",\"seq_reads\":5,\
                      \"rand_reads\":0,\"measured_cost\":5.000,\"wall_ns\":10,\
                      \"cache_hits\":0,\"entry_fetches\":0,\"skipped_docs\":0,\
                      \"skipped_entries\":0,\"quality\":\"full\",\"phases\":[]}";
        let r = QueryReport::from_json(legacy).unwrap();
        assert_eq!(r.pair, "");
        assert_eq!(r.lambda, 0);
        assert_eq!(r.sim_ops, 0);
        assert_eq!(r.predicted_cost, None);
        assert!(QueryReport::from_json("{\"query\":\"x\"}").is_err());
        assert!(QueryReport::from_json("not json").is_err());
    }

    #[test]
    fn observation_parsing_tolerates_unknown_algorithm_labels() {
        // The enum parser rejects this record outright…
        let record = "{\"query\":\"q\",\"algorithm\":\"ZZZL\",\"pair\":\"balanced\",\
                      \"seq_reads\":7,\"rand_reads\":2,\"measured_cost\":17.000,\
                      \"wall_ns\":99,\"cache_hits\":0,\"entry_fetches\":0,\
                      \"skipped_docs\":0,\"skipped_entries\":0,\"sim_ops\":3,\
                      \"cells_touched\":11,\"quality\":\"full\",\"phases\":[]}";
        assert!(QueryReport::from_json(record).is_err());
        // …while the calibration view keeps the label verbatim.
        let obs = observation_from_json(record).unwrap();
        assert_eq!(obs.algorithm, "ZZZL");
        assert_eq!(obs.pair, "balanced");
        assert_eq!(obs.seq_reads, 7);
        assert_eq!(obs.rand_reads, 2);
        assert_eq!(obs.cells, 11);
        assert_eq!(obs.measured_cost, 17.0);
        // And agrees field-for-field with `to_observation` on records the
        // strict parser accepts.
        let r = report("q", 30.0).with_key("pair-x", 5, 60);
        let via_report = QueryReport::from_json(&r.to_json())
            .unwrap()
            .to_observation();
        let direct = observation_from_json(&r.to_json()).unwrap();
        assert_eq!(direct.pair, via_report.pair);
        assert_eq!(direct.algorithm, via_report.algorithm);
        assert_eq!(direct.measured_cost, via_report.measured_cost);
        // Records without the mandatory numerics still fail loudly.
        assert!(observation_from_json("{\"algorithm\":\"FNL\"}").is_err());
    }

    #[test]
    fn slowlog_can_rank_by_wall_time_with_deterministic_ties() {
        let mut log = SlowQueryLog::ranked_by(2, SlowLogRank::Wall);
        assert_eq!(log.rank(), SlowLogRank::Wall);
        let wall = |name: &str, cost: f64, wall_ns: u64| {
            QueryReport::from_outcome(name, &outcome(Algorithm::Hhnl, cost, wall_ns), None, None)
        };
        // Cheap in pages but slow on the wall: wall ranking must keep it.
        log.offer(wall("slow-cheap", 1.0, 900));
        log.offer(wall("fast-dear", 100.0, 100));
        log.offer(wall("medium", 50.0, 500));
        let order: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(order, vec!["slow-cheap", "medium"]);
        // Equal wall times: the older report outranks and outlives the
        // newer one, exactly as the cost ranking behaves.
        let mut log = SlowQueryLog::ranked_by(2, SlowLogRank::Wall);
        log.offer(wall("first", 1.0, 700));
        log.offer(wall("second", 2.0, 700));
        log.offer(wall("third", 3.0, 700));
        let order: Vec<&str> = log.entries().map(|r| r.query.as_str()).collect();
        assert_eq!(order, vec!["first", "third"]);
    }
}
