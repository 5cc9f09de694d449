//! The `textjoin-sim serve-metrics` and `textjoin-sim top` commands:
//! live introspection from the command line.
//!
//! `serve-metrics` hosts the embedded scrape endpoint
//! ([`textjoin_obs::IntrospectionServer`]) while a canned workload runs —
//! every join registers a [`textjoin_obs::QueryTicket`], so mid-run a
//! `GET /queries` shows progress/ETA and a `POST /queries/<id>/cancel`
//! winds the run down to a `Partial` result. An optional simulated
//! per-page latency stretches the runs to human (and CI-curl) timescales.
//!
//! `top` is the matching client: it polls `GET /queries` over a plain
//! `TcpStream` (the whole stack is std-only by design — no HTTP or JSON
//! crate on either side) and renders the in-flight table.

use crate::table::Table;
use crate::validate::{quick_configs, ValidationConfig};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use textjoin_common::json;
use textjoin_core::{QueryReport, ResultQuality};
use textjoin_costmodel::Algorithm;
use textjoin_obs::{IntrospectionServer, LiveRegistry, Registry};
use textjoin_storage::PageLatency;

/// Options for [`serve_workload`] (the `serve-metrics` command).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// How many times to repeat the canned workload.
    pub rounds: u64,
    /// Simulated service time per charged page, in microseconds. Zero
    /// keeps the disk a pure accountant; non-zero stretches each join so
    /// an external client can observe (and cancel) it mid-flight.
    pub page_latency_us: u64,
    /// Self-test/demo knob: cancel every query of this round immediately
    /// after registration, so the run winds down `Partial` at its first
    /// cooperative checkpoint.
    pub cancel_round: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9642".into(),
            rounds: 1,
            page_latency_us: 0,
            cancel_round: None,
        }
    }
}

/// One finished run of the served workload.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Ticket label: `"<scenario> <algorithm> round <n>"`.
    pub query: String,
    pub algorithm: Algorithm,
    /// Measured page cost (seq + α·rand).
    pub pages: f64,
    /// `Partial` when the run was cancelled (or degraded) mid-flight.
    pub quality: ResultQuality,
}

/// What [`serve_workload`] did, returned after the endpoint shuts down.
pub struct ServeSummary {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    pub runs: Vec<RunRecord>,
}

impl ServeSummary {
    pub fn partial_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.quality == ResultQuality::Partial)
            .count()
    }
}

/// Hosts the introspection endpoint while running `rounds` repetitions of
/// the canned validation workload (every scenario × every algorithm),
/// each join registered in the served [`LiveRegistry`]. `on_run` fires
/// after each join finishes, in order.
pub fn serve_workload(
    opts: &ServeOptions,
    mut on_run: impl FnMut(&RunRecord),
) -> textjoin_common::Result<ServeSummary> {
    let registry = Arc::new(Registry::new());
    let live = LiveRegistry::with_metrics(Arc::clone(&registry));
    let server = IntrospectionServer::start(&opts.addr, Arc::clone(&registry), live.clone())
        .map_err(|e| {
            textjoin_common::Error::InvalidArgument(format!("binding {}: {e}", opts.addr))
        })?;
    let addr = server.addr();
    eprintln!(
        "live introspection on http://{addr} \
         (GET /metrics | /queries | /healthz, POST /queries/<id>/cancel)"
    );
    let latency = PageLatency {
        seq_ns: opts.page_latency_us * 1_000,
        rand_ns: opts.page_latency_us * 1_000,
    };
    let mut runs = Vec::new();
    for round in 1..=opts.rounds.max(1) {
        let cancel_this_round = opts.cancel_round == Some(round);
        for cfg in quick_configs() {
            run_config(
                &cfg,
                round,
                latency,
                cancel_this_round,
                &registry,
                &live,
                &mut |r| {
                    on_run(&r);
                    runs.push(r);
                },
            )?;
        }
    }
    server.stop();
    Ok(ServeSummary { addr, runs })
}

fn run_config(
    cfg: &ValidationConfig,
    round: u64,
    latency: PageLatency,
    cancel: bool,
    registry: &Arc<Registry>,
    live: &LiveRegistry,
    sink: &mut dyn FnMut(RunRecord),
) -> textjoin_common::Result<()> {
    let pair = cfg.pair()?;
    // Only the joins themselves run at simulated disk speed — collection
    // generation and index builds above stay instant.
    pair.disk.set_page_latency(latency);
    for algorithm in Algorithm::ALL {
        let query = format!("{} {algorithm} round {round}", cfg.label);
        let spec = pair.spec(cfg.sys, cfg.query);
        let predicted = pair.predict(algorithm, &spec);
        let guard = live.register(
            query.clone(),
            format!("{} ⋈ {}", pair.c1.name(), pair.c2.name()),
            algorithm.to_string(),
            predicted,
            None,
            1,
        );
        if cancel {
            guard.ticket().cancel_token().cancel();
        }
        let spec = spec
            .with_ticket(guard.ticket())
            .with_cancel(guard.ticket().cancel_token());
        let outcome = pair.run(algorithm, &spec)?;
        // Finished runs roll up into the same registry the endpoint
        // serves, so `/metrics` carries the aggregate query series next
        // to the `queries.inflight` gauge.
        QueryReport::from_outcome(query.clone(), &outcome, None, predicted)
            .observe_into(registry, cfg.sys.alpha);
        sink(RunRecord {
            query,
            algorithm,
            pages: outcome.stats.cost,
            quality: outcome.quality,
        });
    }
    Ok(())
}

/// Options for [`top`].
#[derive(Clone, Debug)]
pub struct TopOptions {
    /// Address of a running introspection endpoint.
    pub addr: String,
    /// How many snapshots to take before exiting.
    pub iters: u64,
    /// Milliseconds between snapshots.
    pub interval_ms: u64,
    /// Clear the screen between refreshes (off for piped output).
    pub clear: bool,
}

impl Default for TopOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9642".into(),
            iters: 1,
            interval_ms: 500,
            clear: true,
        }
    }
}

/// Polls `GET /queries` and prints the in-flight table, `iters` times.
pub fn top(opts: &TopOptions) -> Result<(), String> {
    for i in 0..opts.iters.max(1) {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(opts.interval_ms));
        }
        let body = http_get(&opts.addr, "/queries")
            .map_err(|e| format!("GET /queries from {}: {e}", opts.addr))?;
        if opts.clear && opts.iters > 1 {
            // ANSI clear + home, like top(1) between refreshes.
            print!("\x1b[2J\x1b[H");
        }
        println!("{}", top_table(&opts.addr, &body)?);
    }
    Ok(())
}

/// One `GET` against the endpoint's deliberately tiny HTTP subset; the
/// server closes the connection after the response, so read-to-end
/// delimits the body.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!("{status}: {body}")));
    }
    Ok(body.to_string())
}

/// One in-flight query as decoded from the `GET /queries` payload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveRow {
    pub id: u64,
    pub query: String,
    pub algorithm: String,
    pub phase: String,
    pub pages: f64,
    pub predicted_pages: Option<f64>,
    pub budget_headroom_pages: Option<f64>,
    pub progress: Option<f64>,
    pub eta_ms: Option<u64>,
    pub estimating: bool,
    pub elapsed_ms: u64,
    pub workers: u64,
    pub cancelled: bool,
}

/// Decodes the `{"queries":[...]}` payload. Hand-rolled like the emitter:
/// a string-aware brace walk splits the objects, then per-key extraction.
pub fn parse_queries(payload: &str) -> Result<Vec<LiveRow>, String> {
    let start = payload
        .find("\"queries\":[")
        .ok_or("payload has no \"queries\" array")?;
    let array = &payload[start + "\"queries\":[".len()..];
    let mut rows = Vec::new();
    for obj in split_objects(array)? {
        rows.push(LiveRow {
            id: json::num_field(obj, "id").unwrap_or(0.0) as u64,
            query: json::str_field(obj, "query").unwrap_or_default(),
            algorithm: json::str_field(obj, "algorithm").unwrap_or_default(),
            phase: json::str_field(obj, "phase").unwrap_or_default(),
            pages: json::num_field(obj, "pages").unwrap_or(0.0),
            predicted_pages: json::num_field(obj, "predicted_pages"),
            budget_headroom_pages: json::num_field(obj, "budget_headroom_pages"),
            progress: json::num_field(obj, "progress"),
            eta_ms: json::num_field(obj, "eta_ms").map(|v| v as u64),
            estimating: json::bool_field(obj, "estimating").unwrap_or(true),
            elapsed_ms: json::num_field(obj, "elapsed_ms").unwrap_or(0.0) as u64,
            workers: json::num_field(obj, "workers").unwrap_or(1.0) as u64,
            cancelled: json::bool_field(obj, "cancelled").unwrap_or(false),
        });
    }
    Ok(rows)
}

/// Splits the inside of a JSON array into its top-level `{...}` object
/// slices, tracking string/escape state so braces inside values don't
/// confuse the depth count.
fn split_objects(array: &str) -> Result<Vec<&str>, String> {
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut obj_start = None;
    for (i, c) in array.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    let s = obj_start.take().ok_or("object end without start")?;
                    objects.push(&array[s..=i]);
                }
            }
            ']' if depth == 0 => return Ok(objects),
            _ => {}
        }
    }
    if depth != 0 {
        return Err("truncated payload".into());
    }
    Ok(objects)
}

/// Renders a `GET /queries` payload as the `top` table.
pub fn top_table(addr: &str, payload: &str) -> Result<Table, String> {
    let rows = parse_queries(payload)?;
    let mut t = Table::new(
        format!("In-flight queries @ {addr} ({} live)", rows.len()),
        &[
            "id",
            "query",
            "alg",
            "phase",
            "pages",
            "predicted",
            "progress",
            "eta",
            "headroom",
            "workers",
            "elapsed",
            "state",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.id.to_string(),
            r.query.clone(),
            r.algorithm.clone(),
            r.phase.clone(),
            format!("{:.0}", r.pages),
            r.predicted_pages.map_or("-".into(), |p| format!("{p:.0}")),
            match r.progress {
                Some(p) if !r.estimating => format!("{:.0}%", p * 100.0),
                Some(p) => format!("{:.0}%?", p * 100.0),
                None => "-".into(),
            },
            match r.eta_ms {
                Some(e) if e >= 1000 => format!("{:.1}s", e as f64 / 1000.0),
                Some(e) => format!("{e}ms"),
                None => "est.".into(),
            },
            r.budget_headroom_pages
                .map_or("-".into(), |h| format!("{h:.0}")),
            r.workers.to_string(),
            format!("{:.1}s", r.elapsed_ms as f64 / 1000.0),
            if r.cancelled { "cancelling" } else { "running" }.into(),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runs_every_scenario_and_algorithm() {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            ..ServeOptions::default()
        };
        let mut seen = 0usize;
        let summary = serve_workload(&opts, |_| seen += 1).unwrap();
        let expected = quick_configs().len() * Algorithm::ALL.len();
        assert_eq!(summary.runs.len(), expected);
        assert_eq!(seen, expected);
        assert_eq!(summary.partial_runs(), 0);
        for r in &summary.runs {
            assert_eq!(r.quality, ResultQuality::Full, "{}", r.query);
            assert!(r.pages > 0.0, "{} read no pages", r.query);
        }
    }

    #[test]
    fn cancelled_round_winds_down_partial() {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".into(),
            rounds: 2,
            cancel_round: Some(2),
            ..ServeOptions::default()
        };
        let summary = serve_workload(&opts, |_| {}).unwrap();
        let per_round = quick_configs().len() * Algorithm::ALL.len();
        assert_eq!(summary.runs.len(), 2 * per_round);
        let (r1, r2) = summary.runs.split_at(per_round);
        assert!(r1.iter().all(|r| r.quality == ResultQuality::Full));
        assert!(
            r2.iter().all(|r| r.quality == ResultQuality::Partial),
            "a pre-set token must be observed at the first checkpoint"
        );
        // Cancelled runs stop at their next checkpoint: never more pages
        // than the clean run of the same query shape, and strictly fewer
        // for the multi-checkpoint shapes (a single-pass HHNL finishes
        // its only pass before the cancel can be observed).
        for (a, b) in r1.iter().zip(r2) {
            assert!(
                b.pages <= a.pages,
                "{}: cancelled {} > clean {}",
                b.query,
                b.pages,
                a.pages
            );
        }
        assert!(
            r1.iter().zip(r2).any(|(a, b)| b.pages < a.pages),
            "no cancelled run stopped early"
        );
    }

    #[test]
    fn queries_payload_roundtrips_through_the_parser() {
        let live = LiveRegistry::new();
        let guard = live.register(
            "wsj \"quick\" hhnl\nround 1",
            "c1 ⋈ c2",
            "hhs",
            Some(200.0),
            Some(400.0),
            4,
        );
        guard.ticket().add_pages(50.0);
        guard.ticket().set_phase("hhnl.pass 2");
        let rows = parse_queries(&live.to_json()).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.query, "wsj \"quick\" hhnl\nround 1");
        assert_eq!(r.algorithm, "hhs");
        assert_eq!(r.phase, "hhnl.pass 2");
        assert!((r.pages - 50.0).abs() < 1e-9);
        assert_eq!(r.predicted_pages, Some(200.0));
        assert_eq!(r.progress, Some(0.25));
        assert_eq!(r.budget_headroom_pages, Some(350.0));
        assert_eq!(r.workers, 4);
        assert!(!r.cancelled);
        let table = top_table("addr", &live.to_json()).unwrap();
        assert!(table.width() > 0);
        assert_eq!(parse_queries("{\"queries\":[]}").unwrap(), vec![]);
    }

    #[test]
    fn http_client_reads_the_live_endpoint() {
        let registry = Arc::new(Registry::new());
        let live = LiveRegistry::with_metrics(Arc::clone(&registry));
        let guard = live.register("q", "a ⋈ b", "vvs", Some(10.0), None, 1);
        guard.ticket().add_pages(2.5);
        let server =
            IntrospectionServer::start("127.0.0.1:0", Arc::clone(&registry), live.clone()).unwrap();
        let addr = server.addr().to_string();
        assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
        let rows = parse_queries(&http_get(&addr, "/queries").unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, guard.ticket().id());
        assert!((rows[0].pages - 2.5).abs() < 1e-9);
        let metrics = http_get(&addr, "/metrics").unwrap();
        assert!(metrics.contains("queries_inflight 1"), "{metrics}");
        assert!(http_get(&addr, "/nope").is_err(), "404 must surface");
        server.stop();
    }
}
