//! Live query introspection: the in-flight ticket registry.
//!
//! Everything that exists elsewhere in this crate is post-hoc — metrics,
//! histograms and reports only describe queries that already finished.
//! This module is the while-running counterpart: every executor entry
//! point registers a [`QueryTicket`] in a [`LiveRegistry`], updates it at
//! the same per-pass checkpoints that run the cost-budget watchdog, and
//! deregisters through an RAII [`TicketGuard`] so a panic or error can
//! never leak a ticket.
//!
//! Tickets carry the plan's *calibrated* predicted page cost, so
//! `pages_so_far / predicted_pages` is a monotone progress fraction and
//! the observed page rate yields an ETA (marked `estimating` until a
//! minimum sample has accumulated). Each ticket owns a [`CancelToken`]:
//! the executors poll it cooperatively at their checkpoints, and the
//! `/queries/<id>/cancel` endpoint (see [`crate::serve`]) merely sets it.
//!
//! Page counts are accumulated as *non-negative deltas* in milli-page
//! units: parallel workers each add their thread-local I/O delta and the
//! sums interleave correctly, and monotonicity holds by construction.

use crate::metrics::Registry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;
use textjoin_common::json;

/// Cooperative cancellation flag. Cheap to clone (an `Arc<AtomicBool>`);
/// setting it never interrupts anything by force — executors observe it
/// at their per-pass checkpoints and wind down with partial results.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Pages below which the ETA is flagged `estimating` (the observed page
/// rate is not yet a meaningful sample).
const MIN_ETA_SAMPLE_MILLIPAGES: u64 = 1000;

struct TicketInner {
    id: u64,
    query: String,
    pair: String,
    algorithm: Mutex<String>,
    /// Per-thread deepest active phase, tagged with a global sequence so
    /// the snapshot can also report the most recent phase overall.
    phases: Mutex<HashMap<ThreadId, (u64, String)>>,
    phase_seq: AtomicU64,
    /// Monotone accumulated cost pages in 1/1000-page units.
    pages_milli: AtomicU64,
    /// Calibrated predicted cost pages (f64 bits); NaN = unknown.
    predicted_pages: AtomicU64,
    /// Watchdog budget pages (f64 bits); NaN = none armed.
    budget_pages: AtomicU64,
    workers: AtomicU64,
    started: Instant,
    cancel: CancelToken,
}

/// A live, shareable handle to one in-flight query's progress state.
/// All updates are lock-free except phase strings.
#[derive(Clone)]
pub struct QueryTicket {
    inner: Arc<TicketInner>,
}

impl QueryTicket {
    /// Registry-assigned id, unique for the registry's lifetime.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The ticket's cancellation token; executors receive a reference to
    /// it through `JoinSpec` and poll at checkpoints.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.inner.cancel
    }

    /// Adds a cost-page delta (negative deltas are ignored, so the
    /// accumulated count — and thus the progress fraction — is monotone
    /// non-decreasing no matter how workers interleave).
    pub fn add_pages(&self, delta: f64) {
        if delta > 0.0 {
            let milli = (delta * 1000.0).round() as u64;
            self.inner.pages_milli.fetch_add(milli, Ordering::Relaxed);
        }
    }

    /// Accumulated cost pages so far.
    pub fn pages(&self) -> f64 {
        self.inner.pages_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Records the calling thread's current phase (the deepest active
    /// phase for that worker).
    pub fn set_phase(&self, phase: impl Into<String>) {
        let seq = self.inner.phase_seq.fetch_add(1, Ordering::Relaxed);
        let mut phases = self.inner.phases.lock().unwrap_or_else(|e| e.into_inner());
        phases.insert(std::thread::current().id(), (seq, phase.into()));
    }

    /// Re-labels the algorithm, e.g. when the integrated executor
    /// re-plans onto the next-cheapest candidate mid-run.
    pub fn set_algorithm(&self, algorithm: impl Into<String>) {
        *self
            .inner
            .algorithm
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = algorithm.into();
    }

    /// Updates the calibrated predicted page cost (used when a re-plan
    /// switches algorithms and the old prediction no longer applies).
    pub fn set_predicted_pages(&self, predicted: Option<f64>) {
        self.inner
            .predicted_pages
            .store(predicted.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
    }

    /// Updates the armed watchdog budget.
    pub fn set_budget_pages(&self, budget: Option<f64>) {
        self.inner
            .budget_pages
            .store(budget.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
    }

    /// Point-in-time view of the ticket.
    pub fn snapshot(&self) -> TicketSnapshot {
        let inner = &self.inner;
        let pages_milli = inner.pages_milli.load(Ordering::Relaxed);
        let pages = pages_milli as f64 / 1000.0;
        let predicted = f64::from_bits(inner.predicted_pages.load(Ordering::Relaxed));
        let predicted = (predicted.is_finite() && predicted > 0.0).then_some(predicted);
        let budget = f64::from_bits(inner.budget_pages.load(Ordering::Relaxed));
        let budget = budget.is_finite().then_some(budget);
        let elapsed = inner.started.elapsed();
        let elapsed_ms = elapsed.as_millis() as u64;
        let progress = predicted.map(|p| (pages / p).clamp(0.0, 1.0));
        let estimating =
            pages_milli < MIN_ETA_SAMPLE_MILLIPAGES || progress.is_none_or(|p| p <= 0.0);
        // ETA from the observed page rate: remaining pages at the rate
        // seen so far, i.e. elapsed * (1 - p) / p, clamped at done.
        let eta_ms = match progress {
            Some(p) if !estimating => {
                Some((elapsed.as_secs_f64() * (1.0 - p) / p * 1000.0).round() as u64)
            }
            _ => None,
        };
        let (phases, phase) = {
            let map = inner.phases.lock().unwrap_or_else(|e| e.into_inner());
            let mut tagged: Vec<(u64, String)> = map.values().cloned().collect();
            tagged.sort();
            let phase = tagged.last().map(|(_, p)| p.clone()).unwrap_or_default();
            (tagged.into_iter().map(|(_, p)| p).collect(), phase)
        };
        TicketSnapshot {
            id: inner.id,
            query: inner.query.clone(),
            pair: inner.pair.clone(),
            algorithm: inner
                .algorithm
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            phase,
            phases,
            pages,
            predicted_pages: predicted,
            budget_pages: budget,
            budget_headroom_pages: budget.map(|b| b - pages),
            progress,
            eta_ms,
            estimating,
            elapsed_ms,
            workers: inner.workers.load(Ordering::Relaxed),
            cancelled: inner.cancel.is_cancelled(),
        }
    }
}

/// An immutable point-in-time view of one in-flight query, as served by
/// `GET /queries`.
#[derive(Clone, Debug, PartialEq)]
pub struct TicketSnapshot {
    pub id: u64,
    pub query: String,
    pub pair: String,
    pub algorithm: String,
    /// Most recently reported phase across all workers.
    pub phase: String,
    /// Deepest active phase per worker, in phase-report order.
    pub phases: Vec<String>,
    /// Accumulated cost pages (seq + α·rand) so far.
    pub pages: f64,
    /// Calibrated predicted cost pages, when the plan carried one.
    pub predicted_pages: Option<f64>,
    /// Armed watchdog budget, when one exists.
    pub budget_pages: Option<f64>,
    /// `budget - pages`: how far the run is from the watchdog tripping.
    pub budget_headroom_pages: Option<f64>,
    /// `pages / predicted`, clamped to `[0, 1]`, monotone non-decreasing.
    pub progress: Option<f64>,
    /// Estimated remaining milliseconds at the observed page rate.
    pub eta_ms: Option<u64>,
    /// True until enough pages accumulated for the ETA to mean anything.
    pub estimating: bool,
    pub elapsed_ms: u64,
    pub workers: u64,
    pub cancelled: bool,
}

impl TicketSnapshot {
    /// One JSON object, keys in fixed order (hand-rolled: the crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"id\":{},\"query\":\"{}\",\"pair\":\"{}\",\"algorithm\":\"{}\",\
             \"phase\":\"{}\",\"phases\":[",
            self.id,
            json::escape(&self.query),
            json::escape(&self.pair),
            json::escape(&self.algorithm),
            json::escape(&self.phase),
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json::escape(p));
        }
        let _ = write!(
            out,
            "],\"pages\":{:.3},\"workers\":{},\"elapsed_ms\":{},\"estimating\":{},\
             \"cancelled\":{}",
            self.pages, self.workers, self.elapsed_ms, self.estimating, self.cancelled
        );
        if let Some(p) = self.predicted_pages {
            let _ = write!(out, ",\"predicted_pages\":{p:.3}");
        }
        if let Some(b) = self.budget_pages {
            let _ = write!(out, ",\"budget_pages\":{b:.3}");
        }
        if let Some(h) = self.budget_headroom_pages {
            let _ = write!(out, ",\"budget_headroom_pages\":{h:.3}");
        }
        if let Some(p) = self.progress {
            let _ = write!(out, ",\"progress\":{p:.6}");
        }
        if let Some(e) = self.eta_ms {
            let _ = write!(out, ",\"eta_ms\":{e}");
        }
        out.push('}');
        out
    }
}

struct LiveInner {
    tickets: Mutex<Vec<QueryTicket>>,
    next_id: AtomicU64,
    /// Optional metrics mirror: `queries.inflight` gauge and
    /// `queries.cancelled` counter flow through the ordinary registry so
    /// EXPLAIN ANALYZE and the bench JSON pick them up with no wiring.
    metrics: Option<Arc<Registry>>,
}

/// The process-wide set of in-flight queries. Cloning shares the set.
#[derive(Clone)]
pub struct LiveRegistry {
    inner: Arc<LiveInner>,
}

impl Default for LiveRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl LiveRegistry {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(LiveInner {
                tickets: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                metrics: None,
            }),
        }
    }

    /// A registry mirroring its inflight/cancelled counts into `metrics`.
    pub fn with_metrics(metrics: Arc<Registry>) -> Self {
        Self {
            inner: Arc::new(LiveInner {
                tickets: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                metrics: Some(metrics),
            }),
        }
    }

    /// Registers a new in-flight query and returns the RAII guard that
    /// deregisters it. The guard must be kept alive for the duration of
    /// the run (dropping it — normally, on error, or during a panic
    /// unwind — removes the ticket).
    pub fn register(
        &self,
        query: impl Into<String>,
        pair: impl Into<String>,
        algorithm: impl Into<String>,
        predicted_pages: Option<f64>,
        budget_pages: Option<f64>,
        workers: u64,
    ) -> TicketGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ticket = QueryTicket {
            inner: Arc::new(TicketInner {
                id,
                query: query.into(),
                pair: pair.into(),
                algorithm: Mutex::new(algorithm.into()),
                phases: Mutex::new(HashMap::new()),
                phase_seq: AtomicU64::new(0),
                pages_milli: AtomicU64::new(0),
                predicted_pages: AtomicU64::new(predicted_pages.unwrap_or(f64::NAN).to_bits()),
                budget_pages: AtomicU64::new(budget_pages.unwrap_or(f64::NAN).to_bits()),
                workers: AtomicU64::new(workers),
                started: Instant::now(),
                cancel: CancelToken::new(),
            }),
        };
        self.inner
            .tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ticket.clone());
        if let Some(m) = &self.inner.metrics {
            m.gauge("queries.inflight", "").add(1);
        }
        TicketGuard {
            registry: Arc::clone(&self.inner),
            ticket,
        }
    }

    /// Number of in-flight queries.
    pub fn len(&self) -> usize {
        self.inner
            .tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live ticket with the given id, if still in flight.
    pub fn get(&self, id: u64) -> Option<QueryTicket> {
        self.inner
            .tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|t| t.id() == id)
            .cloned()
    }

    /// Sets the cancel token of the in-flight query `id`. Returns false
    /// when no such query is live (already finished or never existed).
    pub fn cancel(&self, id: u64) -> bool {
        match self.get(id) {
            Some(t) => {
                t.cancel_token().cancel();
                true
            }
            None => false,
        }
    }

    /// Point-in-time snapshots of every live ticket, id-ordered.
    pub fn snapshot(&self) -> Vec<TicketSnapshot> {
        let mut out: Vec<TicketSnapshot> = self
            .inner
            .tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|t| t.snapshot())
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// The `GET /queries` payload: `{"queries":[...]}`.
    pub fn to_json(&self) -> String {
        let snaps = self.snapshot();
        let mut out = String::from("{\"queries\":[");
        for (i, s) in snaps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// RAII deregistration handle returned by [`LiveRegistry::register`].
pub struct TicketGuard {
    registry: Arc<LiveInner>,
    ticket: QueryTicket,
}

impl TicketGuard {
    /// The live ticket, for executors to update and for callers to hand
    /// to `JoinSpec::with_ticket`.
    pub fn ticket(&self) -> &QueryTicket {
        &self.ticket
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        let id = self.ticket.id();
        let mut tickets = self
            .registry
            .tickets
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        tickets.retain(|t| t.id() != id);
        drop(tickets);
        if let Some(m) = &self.registry.metrics {
            m.gauge("queries.inflight", "").sub(1);
            if self.ticket.cancel_token().is_cancelled() {
                m.counter("queries.cancelled", "").inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_snapshot_deregister_roundtrip() {
        let live = LiveRegistry::new();
        assert!(live.is_empty());
        {
            let guard = live.register("q1", "wsj/ziff", "hhs", Some(100.0), Some(150.0), 4);
            assert_eq!(live.len(), 1);
            let t = guard.ticket();
            t.add_pages(25.0);
            t.set_phase("hhnl.pass 1");
            let s = &live.snapshot()[0];
            assert_eq!(s.query, "q1");
            assert_eq!(s.pair, "wsj/ziff");
            assert_eq!(s.algorithm, "hhs");
            assert_eq!(s.phase, "hhnl.pass 1");
            assert_eq!(s.workers, 4);
            assert!((s.pages - 25.0).abs() < 1e-9);
            assert_eq!(s.progress, Some(0.25));
            assert_eq!(s.budget_headroom_pages, Some(125.0));
            assert!(!s.cancelled);
        }
        assert!(live.is_empty(), "guard drop must deregister");
    }

    #[test]
    fn guard_deregisters_on_panic_unwind() {
        let live = LiveRegistry::new();
        let live2 = live.clone();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = live2.register("boom", "p", "hvs", None, None, 1);
            panic!("mid-run");
        }));
        assert!(r.is_err());
        assert!(live.is_empty(), "panic unwind must not leak the ticket");
    }

    #[test]
    fn progress_is_monotone_and_clamped() {
        let live = LiveRegistry::new();
        let guard = live.register("q", "p", "vvs", Some(10.0), None, 1);
        let t = guard.ticket();
        let mut last = 0.0;
        for delta in [3.0, -5.0, 0.0, 4.0, 9.0] {
            t.add_pages(delta);
            let p = t.snapshot().progress.unwrap();
            assert!(p >= last, "progress went backwards: {p} < {last}");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
        assert_eq!(last, 1.0, "overshoot past predicted clamps at 1");
    }

    #[test]
    fn eta_estimating_until_minimum_sample() {
        let live = LiveRegistry::new();
        let guard = live.register("q", "p", "hhs", Some(1000.0), None, 1);
        let t = guard.ticket();
        t.add_pages(0.5);
        let s = t.snapshot();
        assert!(s.estimating);
        assert_eq!(s.eta_ms, None);
        t.add_pages(99.5);
        let s = t.snapshot();
        assert!(!s.estimating);
        assert!(s.eta_ms.is_some());
    }

    #[test]
    fn cancel_by_id_reaches_the_token() {
        let live = LiveRegistry::new();
        let guard = live.register("q", "p", "hhs", None, None, 1);
        let id = guard.ticket().id();
        assert!(!guard.ticket().cancel_token().is_cancelled());
        assert!(live.cancel(id));
        assert!(guard.ticket().cancel_token().is_cancelled());
        assert!(live.snapshot()[0].cancelled);
        assert!(!live.cancel(id + 999), "unknown id must report false");
    }

    #[test]
    fn inflight_gauge_and_cancelled_counter_flow_through_registry() {
        let reg = Arc::new(Registry::new());
        let live = LiveRegistry::with_metrics(Arc::clone(&reg));
        let g1 = live.register("a", "p", "hhs", None, None, 1);
        let _g2 = live.register("b", "p", "hvs", None, None, 1);
        assert_eq!(reg.gauge("queries.inflight", "").get(), 2);
        g1.ticket().cancel_token().cancel();
        drop(g1);
        assert_eq!(reg.gauge("queries.inflight", "").get(), 1);
        assert_eq!(reg.counter("queries.cancelled", "").get(), 1);
    }

    #[test]
    fn per_worker_phases_and_page_sums() {
        let live = LiveRegistry::new();
        let guard = live.register("q", "p", "vvs", Some(40.0), None, 2);
        let ticket = guard.ticket().clone();
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let t = ticket.clone();
                std::thread::spawn(move || {
                    t.set_phase(format!("worker {w} merge"));
                    t.add_pages(10.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = ticket.snapshot();
        assert_eq!(s.phases.len(), 2, "one deepest phase per worker thread");
        assert!((s.pages - 20.0).abs() < 1e-9, "worker deltas must sum");
    }

    #[test]
    fn json_payload_is_wellformed_and_escaped() {
        let live = LiveRegistry::new();
        let guard = live.register("say \"hi\"\nthere\\", "p", "hhs", Some(8.0), None, 1);
        guard.ticket().add_pages(2.0);
        let json = live.to_json();
        assert!(json.starts_with("{\"queries\":[{"), "{json}");
        assert!(json.contains("\\\"hi\\\""), "{json}");
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\\\\"), "{json}");
        assert!(!json.contains('\n'), "payload must be one line: {json}");
        assert!(json.contains("\"progress\":0.25"), "{json}");
    }
}
