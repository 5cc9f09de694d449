//! Embedded zero-dependency scrape endpoint.
//!
//! A single `std::net::TcpListener` accept-loop thread serving the live
//! introspection surface over a deliberately tiny subset of HTTP/1.1
//! (one request per connection, `Connection: close`):
//!
//! - `GET /metrics`  — the attached [`Registry`]'s Prometheus text;
//! - `GET /queries`  — JSON of live [`crate::live::QueryTicket`]s,
//!   including progress, ETA and budget headroom;
//! - `GET /healthz`  — liveness probe, plain `ok`;
//! - `POST /queries/<id>/cancel` — sets the ticket's `CancelToken`.
//!
//! No external HTTP crate: the paper-repro stack is std-only by design,
//! and the four routes above need nothing more than a request line.

use crate::live::LiveRegistry;
use crate::metrics::Registry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to the serving thread. Dropping it (or calling
/// [`IntrospectionServer::stop`]) shuts the listener down.
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop on a background thread.
    pub fn start(
        addr: &str,
        registry: Arc<Registry>,
        live: LiveRegistry,
    ) -> io::Result<IntrospectionServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("textjoin-introspection".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One short-lived request per connection; errors on
                        // a single connection never take the server down.
                        let _ = serve_one(stream, &registry, &live);
                    }
                }
            })?;
        Ok(IntrospectionServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; poke it awake with a
        // throwaway connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// What one connection may make the server hold: the request line, then
/// the header section as a whole and by line count. A request over any of
/// them is answered (`400` / `431`) and closed, never buffered.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
const MAX_HEADER_BYTES: u64 = 32 * 1024;
const MAX_HEADER_LINES: usize = 64;
/// How much of a refused request is read and discarded before closing, so
/// a client still mid-send sees the answer rather than a reset.
const MAX_DISCARD: u64 = 4 * 1024 * 1024;

fn serve_one(stream: TcpStream, registry: &Registry, live: &LiveRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    (&mut reader)
        .take(MAX_REQUEST_LINE)
        .read_line(&mut request_line)?;
    let refused = if !request_line.ends_with('\n') && !request_line.is_empty() {
        Some("400 Bad Request")
    } else if !drain_headers(&mut reader)? {
        Some("431 Request Header Fields Too Large")
    } else {
        None
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match refused {
        Some(status) => (status, JSON, "{\"error\":\"request too large\"}\n".into()),
        None => route(method, path, registry, live),
    };
    let mut stream = reader.get_ref();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    if refused.is_some() {
        stream.shutdown(Shutdown::Write)?;
        io::copy(&mut reader.take(MAX_DISCARD), &mut io::sink())?;
    }
    Ok(())
}

/// Reads headers up to the blank line (the body — none of our routes take
/// one — is ignored); `false` when the section exceeds
/// [`MAX_HEADER_BYTES`] or [`MAX_HEADER_LINES`].
fn drain_headers(reader: &mut BufReader<TcpStream>) -> io::Result<bool> {
    let mut section = reader.take(MAX_HEADER_BYTES);
    for _ in 0..=MAX_HEADER_LINES {
        let mut line = String::new();
        if section.read_line(&mut line)? == 0 {
            // End of input, or the byte cap cut the section short.
            return Ok(section.limit() > 0);
        }
        if line == "\r\n" || line == "\n" {
            return Ok(true);
        }
    }
    Ok(false)
}

const JSON: &str = "application/json";

fn route(
    method: &str,
    path: &str,
    registry: &Registry,
    live: &LiveRegistry,
) -> (&'static str, &'static str, String) {
    match (method, path) {
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".into()),
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.to_prometheus_text(),
        ),
        ("GET", "/queries") => ("200 OK", JSON, live.to_json()),
        ("POST", p) => match parse_cancel_path(p) {
            Some(id) if live.cancel(id) => ("200 OK", JSON, format!("{{\"cancelled\":{id}}}\n")),
            Some(id) => (
                "404 Not Found",
                JSON,
                format!("{{\"error\":\"no in-flight query {id}\"}}\n"),
            ),
            None => (
                "404 Not Found",
                JSON,
                "{\"error\":\"unknown route\"}\n".into(),
            ),
        },
        _ => (
            "404 Not Found",
            JSON,
            "{\"error\":\"unknown route\"}\n".into(),
        ),
    }
}

/// `/queries/<id>/cancel` → `Some(id)`.
fn parse_cancel_path(path: &str) -> Option<u64> {
    let rest = path.strip_prefix("/queries/")?;
    let id = rest.strip_suffix("/cancel")?;
    id.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn request(addr: SocketAddr, req: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "{req}\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_cancels() {
        let registry = Arc::new(Registry::new());
        registry.counter("pages.read", "wsj").inc_by(7);
        let live = LiveRegistry::with_metrics(Arc::clone(&registry));
        let guard = live.register("q", "wsj/ziff", "hhs", Some(10.0), None, 1);
        let id = guard.ticket().id();
        let server =
            IntrospectionServer::start("127.0.0.1:0", Arc::clone(&registry), live.clone()).unwrap();
        let addr = server.addr();

        let (head, body) = request(addr, "GET /healthz HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = request(addr, "GET /metrics HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, registry.to_prometheus_text());
        assert!(body.contains("pages_read"), "{body}");

        // `elapsed_ms` moves between two snapshots; the ticket's identity
        // does not.
        let (head, body) = request(addr, "GET /queries HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        for field in [
            format!("\"id\":{id},"),
            "\"pair\":\"wsj/ziff\"".into(),
            "\"algorithm\":\"hhs\"".into(),
            "\"cancelled\":false".into(),
        ] {
            assert!(body.contains(&field), "{field} not in {body}");
        }

        let (head, _) = request(addr, &format!("POST /queries/{id}/cancel HTTP/1.1"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(guard.ticket().cancel_token().is_cancelled());

        let (head, _) = request(addr, "POST /queries/99999/cancel HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, _) = request(addr, "GET /nope HTTP/1.1");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.stop();
    }

    /// One client cannot make the server buffer without bound: an endless
    /// request line and an endless header section are each answered and
    /// closed, and the server keeps serving.
    #[test]
    fn oversized_requests_are_refused_and_the_server_stays_up() {
        let server = IntrospectionServer::start(
            "127.0.0.1:0",
            Arc::new(Registry::new()),
            LiveRegistry::new(),
        )
        .unwrap();
        let addr = server.addr();
        let long_line = format!("GET /{} HTTP/1.1", "a".repeat(1 << 20));
        let many_headers = format!("GET /healthz HTTP/1.1{}", "\r\nX-Pad: 1".repeat(10_000));
        let fat_header = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}", "b".repeat(1 << 20));
        for (req, status) in [
            (long_line, "400"),
            (many_headers, "431"),
            (fat_header, "431"),
        ] {
            let (head, _) = request(addr, &req);
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            let (head, body) = request(addr, "GET /healthz HTTP/1.1");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");
        }
        // Right at the caps is still served.
        let pad = "\r\nX-Pad: 1".repeat(MAX_HEADER_LINES - 1);
        let (head, _) = request(addr, &format!("GET /healthz HTTP/1.1{pad}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.stop();
    }

    #[test]
    fn cancel_path_parser() {
        assert_eq!(parse_cancel_path("/queries/12/cancel"), Some(12));
        assert_eq!(parse_cancel_path("/queries/x/cancel"), None);
        assert_eq!(parse_cancel_path("/queries/12"), None);
        assert_eq!(parse_cancel_path("/metrics"), None);
    }
}
