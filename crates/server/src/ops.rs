//! The live ops plane: a second, tiny HTTP/1.1 listener beside the wire
//! protocol.
//!
//! Production tracking servers need to answer "is it healthy and what is
//! it doing" without a custom client. [`Server::serve_ops`] binds a
//! separate port (so an ops scrape can never contend with ingest framing)
//! and serves three read-only endpoints over hand-rolled std-only
//! HTTP/1.1:
//!
//! * `GET /metrics` — the merged live [`Snapshot`](wsn_telemetry::Snapshot) in Prometheus text
//!   exposition 0.0.4 (`Snapshot::to_prometheus`), scrapeable by any
//!   stock collector;
//! * `GET /healthz` — per-shard liveness JSON (queue depth, busy age,
//!   jobs done, watchdog verdict) plus epoch and session count; `200`
//!   when every shard is live, `503` when the watchdog has any shard
//!   stalled;
//! * `GET /sessions/<id>` — the owning shard's view of one session
//!   ([`SessionView`]): `200` with status/epoch/rounds/digest/last-round
//!   when active, `404` with the current epoch in the body when unknown,
//!   `503` when the shard queue is full.
//!
//! The parser is deliberately inhospitable: requests are capped at 8 KiB,
//! anything that is not a well-formed `GET` start-line is answered `400`
//! and the connection dropped, and reads carry a short timeout so a
//! slow-loris client cannot wedge the ops thread. The serve loop itself is
//! untouched by anything that happens here — the ops plane only ever
//! *reads* server state (session inspection goes through the same bounded
//! shard queues as real work, as a `Job::Query` that never mutates).

use crate::server::{merged_snapshot, Server, SessionView};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wsn_telemetry::json::compact;

/// Largest request head (start-line + headers) the ops parser will read.
/// Anything longer is answered `400` and dropped.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: an ops client that stops sending (or
/// reading) gets its connection closed instead of wedging the ops thread.
const OPS_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Why the ops plane could not start.
#[derive(Debug)]
pub enum OpsError {
    /// The ops address could not be bound (typically already in use).
    /// The tracking serve loop is unaffected — callers decide whether a
    /// missing ops plane is fatal.
    Bind {
        /// The address that failed to bind.
        addr: String,
        /// The underlying socket error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for OpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpsError::Bind { addr, source } => {
                write!(f, "cannot bind ops listener on {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for OpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpsError::Bind { source, .. } => Some(source),
        }
    }
}

/// A running ops listener. Dropping it stops the listener thread; the
/// tracking server it observes keeps running.
pub struct OpsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound ops address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the ops listener and joins its thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Server {
    /// Binds the ops plane on `addr` (`"127.0.0.1:0"` picks a free port)
    /// and starts serving `/metrics`, `/healthz` and `/sessions/<id>`.
    ///
    /// Failure to bind returns [`OpsError::Bind`] naming the address; the
    /// tracking listener keeps serving either way.
    pub fn serve_ops(&self, addr: &str) -> Result<OpsHandle, OpsError> {
        let listener = TcpListener::bind(addr).map_err(|source| OpsError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        let local = listener.local_addr().map_err(|source| OpsError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::clone(&self.state);
        let txs = self.shard_txs.clone();
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("wsn-ops".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Requests are tiny and read-only; serving them
                    // serially keeps the plane to one thread and bounds
                    // the damage any one client can do to other scrapers.
                    handle_conn(stream, &state, &txs);
                }
            })
            .map_err(|source| OpsError::Bind {
                addr: addr.to_string(),
                source,
            })?;
        Ok(OpsHandle {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }
}

fn handle_conn(
    mut stream: TcpStream,
    state: &Arc<crate::server::ServerState>,
    txs: &[std::sync::mpsc::SyncSender<crate::server::Job>],
) {
    let _ = stream.set_read_timeout(Some(OPS_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(OPS_IO_TIMEOUT));
    let path = match read_request_path(&mut stream) {
        Ok(path) => path,
        Err(reason) => {
            // Malformed or oversized request: answer 400 and drop the
            // connection without touching server state.
            respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                &format!("bad request: {reason}\n"),
            );
            return;
        }
    };
    match path.as_str() {
        "/metrics" => {
            let text = merged_snapshot(state).to_prometheus();
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &text,
            );
        }
        "/healthz" => {
            let (degraded, body) = healthz_json(state);
            if degraded {
                respond(
                    &mut stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &body,
                );
            } else {
                respond(&mut stream, 200, "OK", "application/json", &body);
            }
        }
        p if p.starts_with("/sessions/") => {
            let id = &p["/sessions/".len()..];
            match id.parse::<u64>() {
                Ok(session) => serve_session(&mut stream, state, txs, session),
                Err(_) => respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "text/plain; charset=utf-8",
                    &format!("session id must be a decimal u64, got {id:?}\n"),
                ),
            }
        }
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "text/plain; charset=utf-8",
            "unknown path; ops endpoints are /metrics, /healthz, /sessions/<id>\n",
        ),
    }
}

/// Reads and validates the request head, returning the path of a
/// well-formed `GET`. Any deviation — too large, not UTF-8 start-line,
/// wrong method or HTTP version marker — is an error string for the 400
/// body.
fn read_request_path(stream: &mut TcpStream) -> Result<String, String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        // A complete head ends in a blank line; stop early once we have
        // the start-line, headers are irrelevant to routing.
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err(format!("request head exceeds {MAX_REQUEST_BYTES} bytes"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err("read failed or timed out".into()),
        }
    }
    let head = std::str::from_utf8(&buf).map_err(|_| "request is not UTF-8".to_string())?;
    let start_line = head.lines().next().unwrap_or("");
    let mut parts = start_line.split_whitespace();
    let (method, path, version) = (
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
    );
    if method != "GET" {
        return Err(format!("only GET is supported, got {method:?}"));
    }
    if !path.starts_with('/') {
        return Err(format!("path must start with '/', got {path:?}"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    Ok(path.to_string())
}

/// Per-shard liveness JSON for `/healthz`. Returns `(degraded, body)`;
/// degraded iff the watchdog currently has any shard flagged stalled.
fn healthz_json(state: &crate::server::ServerState) -> (bool, String) {
    let now = state.now_us();
    let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
    // One reading per shard, so the verdict and the body agree.
    let shards: Vec<_> = state
        .shard_health
        .iter()
        .map(|h| {
            let busy = load(&h.busy_since_us);
            let busy_us = if busy == 0 {
                0
            } else {
                now.saturating_sub(busy)
            };
            let stalled = h.stalled.load(Ordering::Relaxed);
            (load(&h.queued), busy_us, load(&h.jobs_done), stalled)
        })
        .collect();
    let degraded = shards.iter().any(|s| s.3);
    let body = compact(|o| {
        o.field("status", if degraded { "degraded" } else { "ok" })
            .field("epoch", state.current_map().0.epoch())
            .field("sessions", state.session_count.load(Ordering::SeqCst))
            .field("uptime_us", now)
            .array("shards", |a| {
                for (i, (queued, busy_us, jobs_done, stalled)) in shards.iter().enumerate() {
                    a.object(|shard| {
                        shard
                            .field("shard", i)
                            .field("queued", queued)
                            .field("busy_us", busy_us)
                            .field("jobs_done", jobs_done)
                            .field("stalled", stalled);
                    });
                }
            });
    });
    (degraded, body)
}

fn serve_session(
    stream: &mut TcpStream,
    state: &Arc<crate::server::ServerState>,
    txs: &[std::sync::mpsc::SyncSender<crate::server::Job>],
    session: u64,
) {
    match crate::server::query_session_via(state, txs, session) {
        Some(SessionView::Active(s)) => {
            let body = compact(|o| {
                o.field("status", "active")
                    .field("session", s.session)
                    .field("epoch", s.epoch)
                    .field("rounds", s.rounds)
                    .hex("digest", s.digest);
                match &s.last {
                    Some(r) => o.object("last", |last| {
                        last.field("round", r.round)
                            .field("t", r.t)
                            .field("x", r.x)
                            .field("y", r.y)
                            .field("status", r.status)
                            .field("face", r.face);
                    }),
                    None => o.field("last", None::<u64>),
                };
            });
            respond(stream, 200, "OK", "application/json", &body);
        }
        Some(SessionView::Unknown { current_epoch }) => {
            let body = compact(|o| {
                o.field("status", "unknown")
                    .field("session", session)
                    .field("current_epoch", current_epoch);
            });
            respond(stream, 404, "Not Found", "application/json", &body);
        }
        // Shard queue full or server draining: the session may well
        // exist, so this must not read as a 404.
        None => {
            let body = compact(|o| {
                o.field("status", "unavailable")
                    .field("detail", "owning shard is saturated or draining");
            });
            respond(
                stream,
                503,
                "Service Unavailable",
                "application/json",
                &body,
            );
        }
    }
}

fn respond(stream: &mut TcpStream, code: u16, reason: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}
