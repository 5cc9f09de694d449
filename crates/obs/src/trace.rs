//! Lightweight span tracing.
//!
//! A [`Tracer`] is either disabled — the default, in which case every
//! operation on it and on its [`Span`]s is a branch on a `None` — or
//! enabled with a bounded ring buffer of finished [`SpanRecord`]s and an
//! attached metrics [`Registry`]. Spans are hierarchical (explicit
//! parenting via [`Span::child`], no thread-locals) and carry named
//! `u64` fields so executors can attach per-span metric deltas: pages
//! read, cache hits, similarity operations.

use crate::metrics::{Registry, LATENCY_BOUNDS_NS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use textjoin_common::json;

/// A finished span, as stored in the tracer's ring buffer.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id within this tracer (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for roots.
    pub parent: u64,
    /// Static span name, e.g. `"hhnl"` or `"inner_scan"`.
    pub name: &'static str,
    /// Free-form detail, e.g. a batch number or chosen-algorithm note.
    pub detail: String,
    /// Microseconds from tracer creation to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Named metric deltas recorded on the span.
    pub fields: Vec<(&'static str, u64)>,
}

struct Ring {
    records: Vec<SpanRecord>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: SpanRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.dropped += 1;
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Records in completion order (oldest first).
    ///
    /// Parent links are only kept when they can be honoured by the
    /// snapshot itself: a non-zero `parent` must refer to a record that
    /// is present *and* finishes later (the child-before-parent order
    /// consumers rely on). Links broken by ring eviction, by a parent
    /// that is still open, or by a child kept alive past its parent are
    /// remapped to 0 so no dangling ids escape.
    fn in_order(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        let index: std::collections::HashMap<u64, usize> =
            out.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        for (i, record) in out.iter_mut().enumerate() {
            let parent = record.parent;
            if parent != 0 && index.get(&parent).is_none_or(|&pi| pi <= i) {
                record.parent = 0;
            }
        }
        out
    }
}

struct Shared {
    ring: Mutex<Ring>,
    next_id: AtomicU64,
    epoch: Instant,
    registry: Arc<Registry>,
}

/// Handle to the tracing facility. `Clone` is cheap (an `Option<Arc>`);
/// a disabled tracer makes every instrumentation point a single branch.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
    /// Id every *root* span opened on this handle parents under — 0 for
    /// an ordinary tracer, non-zero for one built from a [`SpanContext`]
    /// so another thread's spans stitch into an existing tree.
    parent: u64,
}

/// A cheap, cloneable, `'static` capture of an open span's position in
/// the tree. Parallel workers receive a context cloned from the query's
/// root span and call [`SpanContext::tracer`]; every span the worker
/// opens then parents under that root instead of starting a detached
/// tree.
#[derive(Clone)]
pub struct SpanContext {
    shared: Arc<Shared>,
    parent: u64,
}

impl SpanContext {
    /// A tracer sharing the originating tracer's ring, ids and registry,
    /// whose root spans parent under the captured span.
    pub fn tracer(&self) -> Tracer {
        Tracer {
            shared: Some(self.shared.clone()),
            parent: self.parent,
        }
    }
}

impl Tracer {
    /// The no-op tracer: spans are free, nothing is recorded.
    pub fn disabled() -> Self {
        Self {
            shared: None,
            parent: 0,
        }
    }

    /// An enabled tracer retaining at most `capacity` finished spans
    /// (oldest evicted first), with its own metrics registry.
    pub fn enabled(capacity: usize) -> Self {
        Self::with_registry(capacity, Arc::new(Registry::new()))
    }

    /// An enabled tracer writing span-duration observations and sharing
    /// the given registry.
    pub fn with_registry(capacity: usize, registry: Arc<Registry>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                ring: Mutex::new(Ring {
                    records: Vec::new(),
                    capacity: capacity.max(1),
                    head: 0,
                    dropped: 0,
                }),
                next_id: AtomicU64::new(1),
                epoch: Instant::now(),
                registry,
            })),
            parent: 0,
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The registry events are counted into, when enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.shared.as_ref().map(|s| &s.registry)
    }

    /// Opens a root span (parented under the stitched span when this
    /// tracer was built from a [`SpanContext`]). On a disabled tracer
    /// this is free.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.open(name, self.parent)
    }

    /// Opens a span on an optional tracer reference — the form executors
    /// use with `JoinSpec::trace`.
    pub fn maybe<'t>(trace: Option<&'t Tracer>, name: &'static str) -> Span<'t> {
        match trace {
            Some(t) => t.span(name),
            None => Span::noop(),
        }
    }

    fn open(&self, name: &'static str, parent: u64) -> Span<'_> {
        match &self.shared {
            None => Span::noop(),
            Some(shared) => Span {
                shared: Some(shared),
                id: shared.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                detail: String::new(),
                start: Instant::now(),
                fields: Vec::new(),
            },
        }
    }

    /// Number of spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(shared) => {
                shared
                    .ring
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .dropped
            }
        }
    }

    /// Finished spans in completion order (children precede parents).
    pub fn finished(&self) -> Vec<SpanRecord> {
        match &self.shared {
            None => Vec::new(),
            Some(shared) => shared
                .ring
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .in_order(),
        }
    }

    /// One JSON object per finished span, newline-separated; fields are
    /// inlined as top-level keys.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.finished() {
            let _ = write!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
                s.id,
                s.parent,
                json::escape(s.name),
                s.start_us,
                s.dur_us
            );
            if !s.detail.is_empty() {
                let _ = write!(out, ",\"detail\":\"{}\"", json::escape(&s.detail));
            }
            for (k, v) in &s.fields {
                let _ = write!(out, ",\"{}\":{v}", json::escape(k));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// An open span. Records itself into the tracer's ring when dropped;
/// all methods are no-ops on a disabled tracer.
pub struct Span<'t> {
    shared: Option<&'t Arc<Shared>>,
    id: u64,
    parent: u64,
    name: &'static str,
    detail: String,
    start: Instant,
    fields: Vec<(&'static str, u64)>,
}

impl<'t> Span<'t> {
    fn noop() -> Self {
        Self {
            shared: None,
            id: 0,
            parent: 0,
            name: "",
            detail: String::new(),
            // Never read on the no-op path, but `Instant` has no cheap
            // dummy; one `now()` per *constructed* noop span would defeat
            // the one-branch contract, so reuse a process-wide constant.
            start: *NOOP_INSTANT.get_or_init(Instant::now),
            fields: Vec::new(),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a child span of this one.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        match self.shared {
            None => Span::noop(),
            Some(shared) => Span {
                shared: Some(shared),
                id: shared.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.id,
                name,
                detail: String::new(),
                start: Instant::now(),
                fields: Vec::new(),
            },
        }
    }

    /// Captures a cloneable, `'static` context other threads can turn
    /// back into a [`Tracer`] whose spans parent under this span.
    /// `None` on a disabled tracer.
    pub fn context(&self) -> Option<SpanContext> {
        self.shared.map(|shared| SpanContext {
            shared: Arc::clone(shared),
            parent: self.id,
        })
    }

    /// Attaches a named metric delta (pages read, cache hits, …).
    #[inline]
    pub fn record(&mut self, field: &'static str, value: u64) {
        if self.shared.is_some() {
            self.fields.push((field, value));
        }
    }

    /// Sets the free-form detail string (lazily: the closure only runs
    /// when the span is live).
    #[inline]
    pub fn detail(&mut self, f: impl FnOnce() -> String) {
        if self.shared.is_some() {
            self.detail = f();
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(shared) = self.shared else {
            return;
        };
        let end = Instant::now();
        let start_us = self
            .start
            .saturating_duration_since(shared.epoch)
            .as_micros() as u64;
        let dur = end.saturating_duration_since(self.start);
        let dur_us = dur.as_micros() as u64;
        // Every finished span also feeds a per-name latency histogram in
        // the attached registry, so phase latency distributions (p50/p99)
        // fall out of the existing span instrumentation for free.
        shared
            .registry
            .histogram("span.wall_ns", self.name, &LATENCY_BOUNDS_NS)
            .observe(dur.as_nanos() as u64);
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            start_us,
            dur_us,
            fields: std::mem::take(&mut self.fields),
        };
        shared
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }
}

// One shared Instant for no-op spans; taken once per process.
static NOOP_INSTANT: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut s = t.span("root");
            s.record("pages", 5);
            let _c = s.child("leaf");
        }
        assert!(!t.is_enabled());
        assert!(t.finished().is_empty());
        assert_eq!(t.to_json_lines(), "");
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let t = Tracer::enabled(16);
        {
            let mut root = t.span("join");
            root.record("pages", 10);
            root.detail(|| "batch 0".to_string());
            {
                let mut child = root.child("scan");
                child.record("hits", 3);
            }
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 2);
        // Children finish first.
        assert_eq!(spans[0].name, "scan");
        assert_eq!(spans[1].name, "join");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].fields, vec![("pages", 10)]);
        assert_eq!(spans[1].detail, "batch 0");
        let json = t.to_json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"name\":\"scan\""), "{json}");
        assert!(json.contains("\"hits\":3"), "{json}");
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let t = Tracer::enabled(4);
        for i in 0..10 {
            let mut s = t.span("s");
            s.record("i", i);
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 4);
        assert_eq!(t.dropped(), 6);
        // The four newest survive, oldest first.
        let is: Vec<u64> = spans.iter().map(|s| s.fields[0].1).collect();
        assert_eq!(is, vec![6, 7, 8, 9]);
    }

    #[test]
    fn maybe_handles_both_arms() {
        let t = Tracer::enabled(4);
        {
            let _s = Tracer::maybe(Some(&t), "present");
            let _n = Tracer::maybe(None, "absent");
        }
        assert_eq!(t.finished().len(), 1);
        assert_eq!(t.finished()[0].name, "present");
    }

    #[test]
    fn finished_spans_feed_latency_histograms() {
        let t = Tracer::enabled(8);
        {
            let root = t.span("join");
            let _child = root.child("scan");
        }
        {
            let _again = t.span("join");
        }
        let reg = t.registry().unwrap();
        let join = reg.histogram("span.wall_ns", "join", &LATENCY_BOUNDS_NS);
        let scan = reg.histogram("span.wall_ns", "scan", &LATENCY_BOUNDS_NS);
        assert_eq!(join.count(), 2);
        assert_eq!(scan.count(), 1);
    }

    #[test]
    fn span_context_stitches_across_threads() {
        let t = Tracer::enabled(32);
        {
            let root = t.span("join");
            let ctx = root.context().expect("enabled tracer yields a context");
            let handles: Vec<_> = (0..3)
                .map(|w| {
                    let ctx = ctx.clone();
                    std::thread::spawn(move || {
                        let worker = ctx.tracer();
                        let mut s = worker.span("worker");
                        s.record("w", w);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let spans = t.finished();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "join").unwrap();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        for w in workers {
            assert_eq!(w.parent, root.id, "worker span must stitch under root");
        }
    }

    #[test]
    fn disabled_span_has_no_context() {
        let t = Tracer::disabled();
        assert!(t.span("x").context().is_none());
    }

    #[test]
    fn eviction_never_leaves_dangling_parents() {
        // Capacity 2: the root's children get evicted as later siblings
        // finish, and the root itself stays open until the end — every
        // surviving record must either point at a later record or at 0.
        let t = Tracer::enabled(2);
        {
            let root = t.span("root");
            for _ in 0..5 {
                let _c = root.child("leaf");
            }
        }
        assert!(t.dropped() > 0);
        assert_no_dangling(&t.finished());
    }

    #[test]
    fn child_outliving_parent_is_reparented_to_root() {
        // RAII lets a child Span outlive the Span it was opened from; the
        // parent record then *precedes* the child in completion order and
        // the link cannot be honoured child-first — it must drop to 0.
        let t = Tracer::enabled(8);
        let late_child;
        {
            let parent = t.span("parent");
            late_child = parent.child("late");
        }
        drop(late_child);
        let spans = t.finished();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parent");
        assert_eq!(spans[1].name, "late");
        assert_eq!(spans[1].parent, 0, "un-honourable link must be dropped");
        assert_no_dangling(&spans);
    }

    fn assert_no_dangling(spans: &[SpanRecord]) {
        use std::collections::HashMap;
        let pos: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                let pi = *pos
                    .get(&s.parent)
                    .unwrap_or_else(|| panic!("span {} has dangling parent {}", s.id, s.parent));
                assert!(pi > i, "child (index {i}) must precede parent (index {pi})");
            }
        }
    }

    mod span_tree_invariants {
        use super::*;
        use proptest::prelude::*;

        // An interleaving step: open a root, open a child of a random
        // live span, or close a random live span. Applied against a
        // tracer with a small ring so drops are common.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn random_interleavings_uphold_tree_invariants(
                capacity in 1usize..6,
                steps in proptest::collection::vec((0u8..3, 0usize..8), 1..40),
            ) {
                let t = Tracer::enabled(capacity);
                let mut live: Vec<Span<'_>> = Vec::new();
                for (op, pick) in steps {
                    match op {
                        0 => live.push(t.span("root")),
                        1 if !live.is_empty() => {
                            let child = live[pick % live.len()].child("child");
                            live.push(child);
                        }
                        _ if !live.is_empty() => {
                            live.swap_remove(pick % live.len());
                        }
                        _ => {}
                    }
                    assert_no_dangling(&t.finished());
                }
                drop(live);
                assert_no_dangling(&t.finished());
            }
        }
    }

    #[test]
    fn tracer_exposes_its_registry() {
        let t = Tracer::enabled(4);
        t.registry().unwrap().counter("c", "").inc();
        assert!(t
            .registry()
            .unwrap()
            .to_json_lines()
            .contains("\"value\":1"));
        assert!(Tracer::disabled().registry().is_none());
    }
}
