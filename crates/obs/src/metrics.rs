//! Sharded atomic metrics registry.
//!
//! Metrics are addressed by a `&'static str` name plus an owned label
//! (typically a file or collection name). Registration takes a shard
//! lock once; the returned handle is a clonable `Arc` around plain
//! atomics, so updates on hot paths are single atomic instructions with
//! no locking. Shards keep unrelated registrations from contending.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use textjoin_common::json;

const SHARDS: usize = 8;

/// Log-spaced (power-of-two) latency bucket bounds in nanoseconds,
/// covering 1 µs up to ~4.3 s. Shared by every wall-clock and
/// simulated-I/O-time histogram in the stack so snapshots merge.
pub const LATENCY_BOUNDS_NS: [u64; 23] = [
    1_000,
    2_000,
    4_000,
    8_000,
    16_000,
    32_000,
    64_000,
    128_000,
    256_000,
    512_000,
    1_024_000,
    2_048_000,
    4_096_000,
    8_192_000,
    16_384_000,
    32_768_000,
    65_536_000,
    131_072_000,
    262_144_000,
    524_288_000,
    1_048_576_000,
    2_097_152_000,
    4_194_304_000,
];

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below (high-water tracking).
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|&b| b < v);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest value observed so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Bucket-resolution quantile; see [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the bucket state, suitable for merging
    /// and quantile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            buckets: core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// An owned, mergeable reading of a [`Histogram`].
///
/// `buckets` has one entry per bound plus a trailing `+Inf` bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: &[u64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Folds `other` into `self`. Both snapshots must share bucket
    /// bounds — histograms over different bounds are not comparable.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The q-th quantile (`0.0 ..= 1.0`) at bucket resolution: the
    /// upper bound of the bucket containing the ⌈q·count⌉-th smallest
    /// observation. Observations in the `+Inf` bucket resolve to the
    /// tracked maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(*c);
            if cumulative >= rank {
                return match self.bounds.get(i) {
                    // Report min(bound, max): a bucket bound never
                    // exceeds the largest value actually seen.
                    Some(&b) => b.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time reading of one registered metric.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    pub name: &'static str,
    pub label: String,
    pub value: MetricValue,
}

/// The value part of a [`MetricSnapshot`].
#[derive(Clone, Debug)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

#[derive(Default)]
struct Shard {
    map: Mutex<HashMap<(&'static str, String), Metric>>,
}

/// The sharded registry. Cheap to clone handles out of; cheap to share
/// behind an `Arc`.
#[derive(Default)]
pub struct Registry {
    shards: [Shard; SHARDS],
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str, label: &str) -> &Shard {
        // FNV-1a over name+label picks the shard.
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes().chain(label.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h % SHARDS as u64) as usize]
    }

    /// Gets or creates the counter `name{label}`.
    pub fn counter(&self, name: &'static str, label: impl Into<String>) -> Counter {
        let label = label.into();
        let shard = self.shard(name, &label);
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry((name, label))
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates the gauge `name{label}`.
    pub fn gauge(&self, name: &'static str, label: impl Into<String>) -> Gauge {
        let label = label.into();
        let shard = self.shard(name, &label);
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        match map
            .entry((name, label))
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// Gets or creates the histogram `name{label}` with the given
    /// inclusive bucket bounds (strictly increasing; `+Inf` is implicit).
    pub fn histogram(
        &self,
        name: &'static str,
        label: impl Into<String>,
        bounds: &[u64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let label = label.into();
        let shard = self.shard(name, &label);
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry((name, label)).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name} already registered as {other:?}"),
        }
    }

    /// A consistent-enough reading of every metric, sorted by name then
    /// label. (Individual atomics are read without a global lock; counts
    /// may be mid-update across metrics, never within one.)
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
            for ((name, label), metric) in map.iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                out.push(MetricSnapshot {
                    name,
                    label: label.clone(),
                    value,
                });
            }
        }
        out.sort_by(|a, b| (a.name, &a.label).cmp(&(b.name, &b.label)));
        out
    }

    /// One JSON object per metric, newline-separated.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for m in self.snapshot() {
            let _ = write!(
                out,
                "{{\"metric\":\"{}\",\"label\":\"{}\"",
                json::escape(m.name),
                json::escape(&m.label)
            );
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"buckets\":[",
                        h.count,
                        h.sum,
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.max,
                    );
                    for (i, c) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        match h.bounds.get(i) {
                            Some(le) => {
                                let _ = write!(out, "{{\"le\":{le},\"count\":{c}}}");
                            }
                            None => {
                                let _ = write!(out, "{{\"le\":\"+Inf\",\"count\":{c}}}");
                            }
                        }
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Prometheus text exposition format (metric names sanitized to
    /// `[a-zA-Z0-9_]`, label rendered as `{label="..."}`).
    ///
    /// Conformant by construction: every family is contiguous under a
    /// single `# TYPE` line, and a histogram family emits exactly the
    /// `_bucket`/`_sum`/`_count` series the exposition format defines —
    /// which is what makes downstream `rate(name_sum[..]) /
    /// rate(name_count[..])` average queries work. The bucket-resolution
    /// quantiles and the observed max, which the histogram type has no
    /// slot for (bare `name{quantile=…}` lines belong to *summaries*),
    /// export as auxiliary gauge families `<name>_quantile` and
    /// `<name>_max`.
    pub fn to_prometheus_text(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        // The snapshot is sorted by (name, label), so each family is one
        // contiguous run.
        let mut i = 0;
        while i < snapshot.len() {
            let name = snapshot[i].name;
            let mut j = i;
            while j < snapshot.len() && snapshot[j].name == name {
                j += 1;
            }
            let family = &snapshot[i..j];
            i = j;
            let prom_name = sanitize_prom(name);
            let type_line = match &family[0].value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {prom_name} {type_line}");
            for m in family {
                let label = prom_label(&m.label);
                match &m.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{prom_name}{label} {v}");
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{prom_name}{label} {v}");
                    }
                    MetricValue::Histogram(h) => {
                        let inner = if m.label.is_empty() {
                            String::new()
                        } else {
                            format!("label=\"{}\",", json::escape(&m.label))
                        };
                        let mut cumulative = 0u64;
                        for (bi, c) in h.buckets.iter().enumerate() {
                            cumulative += c;
                            let le = match h.bounds.get(bi) {
                                Some(b) => b.to_string(),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(
                                out,
                                "{prom_name}_bucket{{{inner}le=\"{le}\"}} {cumulative}"
                            );
                        }
                        let _ = writeln!(out, "{prom_name}_sum{label} {}", h.sum);
                        let _ = writeln!(out, "{prom_name}_count{label} {}", h.count);
                    }
                }
            }
            if matches!(family[0].value, MetricValue::Histogram(_)) {
                let _ = writeln!(out, "# TYPE {prom_name}_quantile gauge");
                for m in family {
                    let MetricValue::Histogram(h) = &m.value else {
                        continue;
                    };
                    let inner = if m.label.is_empty() {
                        String::new()
                    } else {
                        format!("label=\"{}\",", json::escape(&m.label))
                    };
                    for (q, qname) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
                        let _ = writeln!(
                            out,
                            "{prom_name}_quantile{{{inner}quantile=\"{qname}\"}} {}",
                            h.quantile(q)
                        );
                    }
                }
                let _ = writeln!(out, "# TYPE {prom_name}_max gauge");
                for m in family {
                    let MetricValue::Histogram(h) = &m.value else {
                        continue;
                    };
                    let _ = writeln!(out, "{prom_name}_max{} {}", prom_label(&m.label), h.max);
                }
            }
        }
        out
    }
}

fn sanitize_prom(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `{label="…"}` when the label is non-empty, nothing otherwise.
fn prom_label(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{label=\"{}\"}}", json::escape(label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("disk.seq_reads", "c1");
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);
        // Same name+label resolves to the same underlying atomic.
        assert_eq!(r.counter("disk.seq_reads", "c1").get(), 5);

        let g = r.gauge("mem.bytes", "");
        g.set(100);
        g.add(20);
        g.sub(5);
        g.fetch_max(90);
        assert_eq!(g.get(), 115);
    }

    #[test]
    fn histogram_buckets_observations() {
        let r = Registry::new();
        let h = r.histogram("span.us", "", &[10, 100, 1000]);
        for v in [3, 9, 10, 11, 500, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 3 + 9 + 10 + 11 + 500 + 5000);
        let snap = r.snapshot();
        match &snap[0].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.buckets, vec![3, 1, 1, 1]);
                assert_eq!(h.max, 5000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let r = Registry::new();
        let h = r.histogram("lat", "", &[10, 100, 1000]);
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in [3, 9, 10, 11, 500, 5000] {
            h.observe(v);
        }
        // Ranks 1..=6 fall in buckets [≤10]x3, [≤100]x1, [≤1000]x1, +Inf x1.
        assert_eq!(h.quantile(0.0), 10); // rank clamps to 1
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.66), 100);
        assert_eq!(h.quantile(0.83), 1000);
        assert_eq!(h.quantile(0.99), 5000); // +Inf bucket resolves to max
        assert_eq!(h.quantile(1.0), 5000);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let r = Registry::new();
        let h = r.histogram("lat", "", &[1000]);
        h.observe(3);
        assert_eq!(h.quantile(0.5), 3, "bound 1000 capped to max 3");
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let r = Registry::new();
        let a = r.histogram("lat", "a", &[10, 100]);
        let b = r.histogram("lat", "b", &[10, 100]);
        a.observe(5);
        a.observe(50);
        b.observe(500);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 555);
        assert_eq!(merged.max, 500);
        assert_eq!(merged.buckets, vec![1, 1, 1]);
        assert_eq!(merged.quantile(1.0), 500);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn snapshot_merge_rejects_mismatched_bounds() {
        let mut a = HistogramSnapshot::empty(&[10]);
        let b = HistogramSnapshot::empty(&[20]);
        a.merge(&b);
    }

    #[test]
    fn latency_bounds_are_strictly_increasing() {
        assert!(LATENCY_BOUNDS_NS.windows(2).all(|w| w[0] < w[1]));
        let r = Registry::new();
        // Registration must accept the shared bounds.
        let h = r.histogram("x.wall_ns", "", &LATENCY_BOUNDS_NS);
        h.observe(1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exports_include_percentiles() {
        let r = Registry::new();
        let h = r.histogram("op.wall_ns", "c1", &[10, 100]);
        for v in [4, 8, 40, 400] {
            h.observe(v);
        }
        let json = r.to_json_lines();
        assert!(json.contains("\"p50\":10"), "{json}");
        assert!(json.contains("\"p90\":400"), "{json}");
        assert!(json.contains("\"p99\":400"), "{json}");
        assert!(json.contains("\"max\":400"), "{json}");
        let prom = r.to_prometheus_text();
        assert!(
            prom.contains("op_wall_ns_quantile{label=\"c1\",quantile=\"0.5\"} 10"),
            "{prom}"
        );
        assert!(
            prom.contains("op_wall_ns_quantile{label=\"c1\",quantile=\"0.99\"} 400"),
            "{prom}"
        );
        assert!(prom.contains("op_wall_ns_max{label=\"c1\"} 400"), "{prom}");
    }

    #[test]
    fn snapshot_sorted_and_labeled() {
        let r = Registry::new();
        r.counter("b.z", "l2").inc();
        r.counter("a.z", "l1").inc_by(7);
        r.counter("b.z", "l1").inc();
        let snap = r.snapshot();
        let keys: Vec<_> = snap.iter().map(|m| (m.name, m.label.as_str())).collect();
        assert_eq!(keys, vec![("a.z", "l1"), ("b.z", "l1"), ("b.z", "l2")]);
    }

    #[test]
    fn json_lines_one_object_per_metric() {
        let r = Registry::new();
        r.counter("disk.writes", "x\"y").inc();
        r.histogram("h", "", &[1]).observe(2);
        let text = r.to_json_lines();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"label\":\"x\\\"y\""), "{text}");
        assert!(text.contains("\"le\":\"+Inf\""), "{text}");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter("disk.seq_reads", "c1").inc_by(3);
        let h = r.histogram("span.us", "", &[10, 100]);
        h.observe(5);
        h.observe(50);
        let text = r.to_prometheus_text();
        assert!(text.contains("# TYPE disk_seq_reads counter"), "{text}");
        assert!(text.contains("disk_seq_reads{label=\"c1\"} 3"), "{text}");
        assert!(text.contains("span_us_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("span_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("span_us_sum 55"), "{text}");
        assert!(text.contains("span_us_count 2"), "{text}");
    }

    #[test]
    fn prometheus_histogram_family_is_conformant() {
        // Two labelsets of one histogram family plus a counter: every
        // family must be contiguous under exactly one TYPE line, the
        // histogram family must contain only `_bucket`/`_sum`/`_count`
        // series (bare-name quantile lines belong to summaries, not
        // histograms), and `_sum`/`_count` must appear per labelset so
        // `rate()`-based averages work downstream.
        let r = Registry::new();
        let a = r.histogram("q.wall_ns", "a", &[10, 100]);
        let b = r.histogram("q.wall_ns", "b", &[10, 100]);
        for v in [5, 50] {
            a.observe(v);
        }
        b.observe(7);
        r.counter("q.zz", "").inc();
        let text = r.to_prometheus_text();
        assert!(text.contains("# TYPE q_wall_ns histogram"), "{text}");
        assert_eq!(
            text.matches("# TYPE q_wall_ns histogram").count(),
            1,
            "{text}"
        );
        for label in ["a", "b"] {
            assert!(
                text.contains(&format!("q_wall_ns_sum{{label=\"{label}\"}}")),
                "{text}"
            );
            assert!(
                text.contains(&format!("q_wall_ns_count{{label=\"{label}\"}}")),
                "{text}"
            );
        }
        assert!(text.contains("q_wall_ns_sum{label=\"a\"} 55"), "{text}");
        assert!(text.contains("q_wall_ns_count{label=\"a\"} 2"), "{text}");
        // Quantiles and max moved to their own gauge families; the
        // histogram family itself holds no bare-name series.
        assert!(text.contains("# TYPE q_wall_ns_quantile gauge"), "{text}");
        assert!(text.contains("# TYPE q_wall_ns_max gauge"), "{text}");
        for line in text.lines() {
            let Some(series) = line.split(['{', ' ']).next() else {
                continue;
            };
            if line.starts_with('#') || !series.starts_with("q_wall_ns") {
                continue;
            }
            assert!(
                ["_bucket", "_sum", "_count", "_quantile", "_max"]
                    .iter()
                    .any(|s| series == format!("q_wall_ns{s}")),
                "bare-name series inside histogram family: {line}"
            );
        }
        // Families are contiguous: each TYPE header appears after all
        // series of the previous family.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(type_lines.len(), 4, "{text}");
    }

    #[test]
    fn prometheus_scrapes_are_deterministic_and_diffable() {
        // Regression guard for the scrape-hygiene contract: repeated
        // scrapes of the same registry are byte-identical, and the order
        // must not depend on metric *registration* order — two registries
        // populated in opposite orders scrape identically, because the
        // export sorts by (name, label).
        let populate = |pairs: &[(&'static str, &str, u64)]| {
            let r = Registry::new();
            for (name, label, v) in pairs {
                r.counter(name, *label).inc_by(*v);
            }
            r
        };
        let pairs: Vec<(&'static str, &str, u64)> = vec![
            ("disk.rand_reads", "ziff", 2),
            ("disk.seq_reads", "wsj", 9),
            ("disk.seq_reads", "ap", 4),
            ("queries.inflight", "", 1),
        ];
        let forward = populate(&pairs);
        let reversed: Vec<_> = pairs.iter().rev().cloned().collect();
        let backward = populate(&reversed);
        let scrape = forward.to_prometheus_text();
        assert_eq!(
            scrape,
            forward.to_prometheus_text(),
            "same registry, same bytes"
        );
        assert_eq!(scrape, backward.to_prometheus_text(), "order-insensitive");
        let series: Vec<&str> = scrape.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted = series.clone();
        sorted.sort();
        assert_eq!(series, sorted, "series lines are (name, label) sorted");
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        // Backslash, double quote and newline are the three characters
        // the exposition format requires escaped inside label values.
        let r = Registry::new();
        r.counter("odd.labels", "back\\slash \"quoted\"\nnewline")
            .inc();
        let text = r.to_prometheus_text();
        assert!(
            text.contains(r#"odd_labels{label="back\\slash \"quoted\"\nnewline"} 1"#),
            "{text}"
        );
        // The raw newline must not survive: exactly one TYPE line plus
        // one series line.
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    #[test]
    fn shards_do_not_alias_distinct_metrics() {
        let r = Registry::new();
        for i in 0..64 {
            r.counter("m.n", format!("label{i}")).inc_by(i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64);
    }

    use proptest::prelude::*;

    // Random strictly-increasing bounds plus a batch of observations.
    fn arb_bounds() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(1u64..10_000, 1..12).prop_map(|mut raw| {
            raw.sort_unstable();
            raw.dedup();
            raw
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Each observation lands in exactly one bucket — the first whose
        /// inclusive bound is >= the value — and the bucket counts always
        /// sum to the observation count.
        #[test]
        fn prop_bucket_boundaries(
            bounds in arb_bounds(),
            values in proptest::collection::vec(0u64..20_000, 0..64),
        ) {
            let r = Registry::new();
            let h = r.histogram("p", "", &bounds);
            for &v in &values {
                h.observe(v);
            }
            let snap = h.snapshot();
            prop_assert_eq!(snap.buckets.iter().sum::<u64>(), values.len() as u64);
            for (i, &b) in bounds.iter().enumerate() {
                let expected = values
                    .iter()
                    .filter(|&&v| v <= b && (i == 0 || v > bounds[i - 1]))
                    .count() as u64;
                prop_assert_eq!(snap.buckets[i], expected, "bucket {} (le {})", i, b);
            }
            let overflow = values.iter().filter(|&&v| v > *bounds.last().unwrap()).count() as u64;
            prop_assert_eq!(*snap.buckets.last().unwrap(), overflow);
        }

        /// Merging snapshots of two histograms equals the snapshot of one
        /// histogram fed both observation streams.
        #[test]
        fn prop_merge_equals_combined(
            bounds in arb_bounds(),
            xs in proptest::collection::vec(0u64..20_000, 0..48),
            ys in proptest::collection::vec(0u64..20_000, 0..48),
        ) {
            let r = Registry::new();
            let a = r.histogram("m", "a", &bounds);
            let b = r.histogram("m", "b", &bounds);
            let both = r.histogram("m", "ab", &bounds);
            for &v in &xs {
                a.observe(v);
                both.observe(v);
            }
            for &v in &ys {
                b.observe(v);
                both.observe(v);
            }
            let mut merged = a.snapshot();
            merged.merge(&b.snapshot());
            prop_assert_eq!(merged, both.snapshot());
        }

        /// Quantiles are monotone in q, bounded by the observed max, and
        /// quantile(1.0) is exactly the max.
        #[test]
        fn prop_percentiles_monotone(
            bounds in arb_bounds(),
            values in proptest::collection::vec(0u64..20_000, 1..64),
        ) {
            let r = Registry::new();
            let h = r.histogram("q", "", &bounds);
            for &v in &values {
                h.observe(v);
            }
            let snap = h.snapshot();
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0u64;
            for &q in &qs {
                let v = snap.quantile(q);
                prop_assert!(v >= prev, "quantile({}) = {} < {}", q, v, prev);
                prop_assert!(v <= snap.max);
                prev = v;
            }
            prop_assert_eq!(snap.quantile(1.0), *values.iter().max().unwrap());
        }
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = std::sync::Arc::new(Registry::new());
        let c = r.counter("c", "");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
