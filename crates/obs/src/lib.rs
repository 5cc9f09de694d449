//! `textjoin-obs` — unified observability for the textjoin stack.
//!
//! The paper this repository reproduces is an exercise in *cost
//! accounting*: its findings rest on knowing exactly how many sequential
//! and random pages each join algorithm touches. This crate makes that
//! accounting a first-class runtime facility instead of scattered one-off
//! counters:
//!
//! - [`metrics`] — a sharded, atomic metrics registry. Counters, gauges
//!   and fixed-bucket histograms are addressed by static name plus label,
//!   cost one atomic op to update, and export as JSON-lines or
//!   Prometheus text.
//! - [`trace`] — a lightweight span tracer. Hierarchical timed spans
//!   carry per-span metric deltas (pages read, cache hits, similarity
//!   ops) into a bounded ring buffer. The [`trace::Tracer`] handle is a
//!   no-op when disabled, so instrumented hot paths pay one branch.
//! - [`store`] — a persistent, bounded, append-only JSON-lines store,
//!   the durability substrate for per-query reports: what the
//!   cost-model calibrator reads back across process runs.
//! - [`live`] — the *while-running* counterpart to all of the above: an
//!   in-flight query registry of RAII-deregistered [`live::QueryTicket`]s
//!   carrying progress/ETA against the plan's calibrated prediction, plus
//!   the cooperative [`live::CancelToken`] executors poll at checkpoints.
//! - [`serve`] — an embedded `std::net::TcpListener` scrape endpoint
//!   (`/metrics`, `/queries`, `/healthz`, `POST /queries/<id>/cancel`).
//!
//! The crate is intentionally dependency-free (std only) and sits below
//! every other `textjoin-*` crate so storage, executors and the query
//! layer can all emit into one registry/trace.

#![forbid(unsafe_code)]

pub mod live;
pub mod metrics;
pub mod serve;
pub mod store;
pub mod trace;

pub use live::{CancelToken, LiveRegistry, QueryTicket, TicketGuard, TicketSnapshot};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSnapshot, MetricValue, Registry,
    LATENCY_BOUNDS_NS,
};
pub use serve::IntrospectionServer;
pub use store::ReportStore;
pub use trace::{Span, SpanContext, SpanRecord, Tracer};
