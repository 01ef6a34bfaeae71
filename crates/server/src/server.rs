//! The sharded tracking server.
//!
//! One process hosts tens of thousands of [`TrackingSession`]s over a
//! single shared [`FaceMap`]:
//!
//! * an **acceptor** thread takes TCP connections; each connection gets a
//!   blocking **reader** thread (frame parse + route) and a **writer**
//!   thread (drains an outbound byte queue);
//! * the session registry is split into `shards` disjoint slices
//!   (`session_id % shards`), each behind one `Mutex<Shard>` and served
//!   by its own **worker** thread. Every job runs under its shard's lock:
//!   the worker takes it per job, and so does an idle connection reader
//!   that serves a job inline when no shard queue holds work. A shard's
//!   sessions are therefore stepped by one thread at a time, in the order
//!   their jobs were routed;
//! * workers are fed through **bounded** queues. When a shard's queue is
//!   full the reader sheds the batch immediately with
//!   [`ErrorCode::Overloaded`] instead of buffering without bound — the
//!   session is untouched and the client retries after draining replies;
//! * a **churn** repairs the current map outside the map lock, swaps the
//!   result in, and queues one adopt job per shard behind every job
//!   already waiting there: each open session moves to the repaired map
//!   ([`TrackingSession::adopt_repair`]) and keeps tracking, exactly as an
//!   in-process session does under `apply_churn`. The ack leaves only
//!   after the adopt jobs are queued, so any push read after it runs on
//!   the repaired map.

use crate::wire::{
    read_frame_traced, ErrorCode, Frame, ReadingRound, RecvError, RoundResult, DEFAULT_MAX_FRAME,
};
use fttt::replay::{digest_face_map, digest_round, Digest};
use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::{FaceMap, PaperParams, RepairMode, RepairReport};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsn_network::replay::digest_hex;
use wsn_telemetry::{
    ArgValue, Counter, Histogram, Registry, Snapshot, COUNT_BUCKETS, DURATION_US_BUCKETS,
};

/// Bytes a connection's read half buffers, and the most its writer
/// coalesces into one `write_all`: a pipelined window of pushes drains in
/// a few reads, and a burst of replies leaves in a few segments.
const CONN_IO_BYTES: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads / registry shards.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue, in jobs. A full queue
    /// sheds with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Hard cap on concurrently open sessions across all shards.
    pub max_sessions: usize,
    /// Per-connection payload bound, bytes.
    pub max_frame: u32,
    /// The field/deployment the shared map is built from. Every session
    /// matches against this one map.
    pub params: PaperParams,
    /// Fault-injection hook: stall each worker job this long before
    /// processing. `None` in production; tests use it to make
    /// backpressure sheds deterministic.
    pub ingest_stall: Option<Duration>,
    /// How often the watchdog monitor ages shard heartbeats and checks
    /// flight-recorder triggers.
    pub watchdog_interval: Duration,
    /// A shard continuously busy on one job for longer than this is
    /// declared stalled: `/healthz` flips to degraded and
    /// `fttt.server.watchdog.stalls` increments (once per transition).
    pub watchdog_stall: Duration,
    /// Anomaly flight recorder output directory; `None` disables dumping.
    ///
    /// On a watchdog stall or a shed burst (512 sheds inside one watchdog
    /// interval) the monitor thread writes two files into the
    /// directory via atomic tmp+rename: the journal ring as
    /// `flight-<unix_secs>-<n>-<reason>.trace.jsonl` (readable by
    /// `fttt-sim explain`/`replay`) and the merged metrics as the matching
    /// `.metrics.json`. At most 8 dumps are written per process so a
    /// flapping trigger cannot fill the disk.
    pub flight_dir: Option<PathBuf>,
}

/// Flight-recorder dumps per process lifetime; later triggers only count
/// `fttt.server.flight.suppressed`.
const MAX_FLIGHT_DUMPS: usize = 8;

/// Sheds within one watchdog interval that make a flight-recorder burst.
const SHED_BURST: u64 = 512;

impl ServerConfig {
    /// A server over `params` with production-ish defaults.
    pub fn new(params: PaperParams) -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 256,
            max_sessions: 200_000,
            max_frame: DEFAULT_MAX_FRAME,
            params,
            ingest_stall: None,
            watchdog_interval: Duration::from_millis(200),
            watchdog_stall: Duration::from_secs(5),
            flight_dir: None,
        }
    }

    /// A small-map configuration (8 nodes, 2 m cells — the fault
    /// campaign's fast geometry) for tests and smoke runs.
    pub fn fast() -> Self {
        Self::new(PaperParams::default().with_nodes(8).with_cell_size(2.0))
    }

    /// The tracker options every server session runs with — the fault
    /// campaign's configuration (heuristic matching, optionally extended
    /// vectors), so wire results are comparable to campaign runs.
    pub fn tracker_options(&self, extended: bool) -> TrackerOptions {
        if extended {
            TrackerOptions {
                extended: true,
                ..TrackerOptions::heuristic()
            }
        } else {
            TrackerOptions::heuristic()
        }
    }

    /// The session options every server session runs with (mirrors the
    /// fault campaign). Clients use this to build bit-identical shadow
    /// sessions.
    pub fn session_options(&self) -> SessionOptions {
        SessionOptions::new(self.params.samples_k).with_max_speed(self.params.max_speed)
    }
}

/// One registered session on a worker.
struct Entry {
    session: TrackingSession,
    conn: u64,
    digest: Digest,
    rounds: u64,
    /// The most recent round served, kept for `/sessions/<id>`.
    last: Option<RoundResult>,
}

/// What the owning shard knows about one session, as reported to the ops
/// plane (`Job::Query`, `GET /sessions/<id>`).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionView {
    /// The session is live on its shard.
    Active(SessionStatus),
    /// No session with that id is registered on the owning shard.
    Unknown {
        /// The server's current epoch.
        current_epoch: u64,
    },
}

/// The live state behind [`SessionView::Active`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// The session id.
    pub session: u64,
    /// Map epoch the session is bound to.
    pub epoch: u64,
    /// Rounds stepped so far.
    pub rounds: u64,
    /// Running replay digest over all served rounds.
    pub digest: u64,
    /// The last round served, if any were.
    pub last: Option<RoundResult>,
}

/// Work routed to a shard worker. Replies travel back through the
/// connection's outbound byte queue; `trace` is the request's wire
/// correlation id (0 = untraced v1 client) and is echoed in the reply;
/// `enqueued` is when the reader routed the job, for the shard's queue
/// wait.
pub(crate) enum Job {
    Open {
        reply: Sender<Vec<u8>>,
        enqueued: Instant,
        conn: u64,
        client_tag: u64,
        session: u64,
        extended: bool,
        trace: u64,
    },
    Push {
        reply: Sender<Vec<u8>>,
        enqueued: Instant,
        session: u64,
        rounds: Vec<ReadingRound>,
        trace: u64,
    },
    Close {
        reply: Sender<Vec<u8>>,
        enqueued: Instant,
        session: u64,
        trace: u64,
    },
    /// Ops-plane session inspection; never touches session state.
    Query {
        reply: mpsc::Sender<SessionView>,
        session: u64,
    },
    /// One churn's repaired map: every session still on the map it
    /// repaired adopts it.
    Adopt {
        map: Arc<FaceMap>,
        report: Arc<RepairReport>,
    },
    ConnClosed {
        conn: u64,
    },
    Stop,
}

/// Per-shard liveness state, updated lock-free by the router and worker
/// and aged by the watchdog monitor thread.
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    /// Jobs sent to the shard queue that the worker has not yet started;
    /// counted up before the send and down once the worker holds the
    /// shard's lock.
    pub(crate) queued: AtomicU64,
    /// Microseconds-since-server-start when the shard began its current
    /// job, on its worker or inline on a reader; `0` = idle. The watchdog
    /// ages this to detect stalls.
    pub(crate) busy_since_us: AtomicU64,
    /// Jobs fully processed.
    pub(crate) jobs_done: AtomicU64,
    /// Set by the watchdog when the shard exceeds the stall bound;
    /// cleared when it recovers. Read by `/healthz`.
    pub(crate) stalled: AtomicBool,
}

/// Clears the busy heartbeat and counts the job on every exit path of
/// [`serve`] — the match arms return early on error paths, and a
/// heartbeat left set while the shard idles would read as a stall.
struct BusyGuard<'a>(&'a ShardHealth);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy_since_us.store(0, Ordering::Relaxed);
        self.0.jobs_done.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    /// Monotonic time base for heartbeats and stall ages.
    pub(crate) started: Instant,
    /// One liveness block per shard.
    pub(crate) shard_health: Vec<ShardHealth>,
    /// The current shared map and its digest. Replaced wholesale by
    /// churn repairs; the write lock is held only for the swap.
    map: RwLock<(Arc<FaceMap>, u64)>,
    /// Serialises churn frames: repair, swap and adopt-job routing run
    /// under it, so every shard queue sees the repairs in epoch order.
    churn: Mutex<()>,
    next_session: AtomicU64,
    pub(crate) session_count: AtomicU64,
    shutdown: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
    /// Connection-plane metrics (frame counts, decode errors, sheds).
    pub(crate) conn_registry: Registry,
    /// One registry per shard worker, merged deterministically by
    /// [`Server::metrics_snapshot`].
    worker_registries: Vec<Arc<Registry>>,
    /// Each shard's sessions, served under its lock.
    shards: Vec<Mutex<Shard>>,
}

impl ServerState {
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cvar) = &self.shutdown_signal;
        *lock.lock().expect("shutdown lock poisoned") = true;
        cvar.notify_all();
    }

    /// Microseconds since the server started — the heartbeat time base.
    pub(crate) fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The current shared map and its digest.
    pub(crate) fn current_map(&self) -> (Arc<FaceMap>, u64) {
        let guard = self.map.read().expect("map lock poisoned");
        (Arc::clone(&guard.0), guard.1)
    }
}

/// Merged metrics across the connection plane and every shard worker,
/// plus the live `fttt.server.queued` gauge (jobs currently sitting in
/// shard queues, summed).
///
/// The expects encode process-local invariants: every worker registry is
/// created by the same binary so histogram ladders agree, and the
/// connection plane uses disjoint metric names.
pub(crate) fn merged_snapshot(state: &ServerState) -> Snapshot {
    let parts: Vec<(usize, Snapshot)> = state
        .worker_registries
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.snapshot()))
        .collect();
    let mut merged =
        Snapshot::merge_shards(parts).expect("shard registries share one bucket ladder");
    merged
        .try_merge(&state.conn_registry.snapshot())
        .expect("conn-plane metric names are disjoint from worker names");
    let queued: u64 = state
        .shard_health
        .iter()
        .map(|h| h.queued.load(Ordering::Relaxed))
        .sum();
    merged
        .gauges
        .insert("fttt.server.queued".into(), queued as f64);
    merged
}

/// A running tracking server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    pub(crate) state: Arc<ServerState>,
    pub(crate) shard_txs: Vec<SyncSender<Job>>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the shared map from `config.params`, binds `addr`
    /// (`"127.0.0.1:0"` picks a free port) and starts the acceptor and
    /// worker threads.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_depth > 0, "need a positive queue depth");
        let field = config.params.grid_field();
        let map = Arc::new(config.params.face_map(&field));
        let map_digest = digest_face_map(&map);
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let worker_registries: Vec<Arc<Registry>> = (0..config.shards)
            .map(|_| Arc::new(Registry::new()))
            .collect();
        let shard_health: Vec<ShardHealth> =
            (0..config.shards).map(|_| ShardHealth::default()).collect();
        if let Some(dir) = &config.flight_dir {
            wsn_telemetry::ensure_writable_dir(dir)
                .map_err(|e| std::io::Error::other(format!("flight dir: {e}")))?;
        }
        let state = Arc::new(ServerState {
            map: RwLock::new((map, map_digest)),
            churn: Mutex::new(()),
            next_session: AtomicU64::new(1),
            session_count: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            conn_registry: Registry::new(),
            shards: worker_registries
                .iter()
                .map(|r| Mutex::new(Shard::new(r)))
                .collect(),
            worker_registries,
            started: Instant::now(),
            shard_health,
            config,
        });

        let mut shard_txs = Vec::with_capacity(state.config.shards);
        let mut workers = Vec::with_capacity(state.config.shards);
        for shard in 0..state.config.shards {
            let (tx, rx) = sync_channel::<Job>(state.config.queue_depth);
            shard_txs.push(tx);
            let st = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wsn-shard-{shard}"))
                    .spawn(move || worker_loop(shard, st, rx))
                    .expect("spawn shard worker"),
            );
        }

        let acceptor = {
            let st = Arc::clone(&state);
            let txs = shard_txs.clone();
            std::thread::Builder::new()
                .name("wsn-accept".into())
                .spawn(move || accept_loop(listener, st, txs))
                .expect("spawn acceptor")
        };

        let monitor = {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("wsn-watchdog".into())
                .spawn(move || monitor_loop(st))
                .expect("spawn watchdog monitor")
        };

        Ok(Server {
            addr: local,
            state,
            shard_txs,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
            workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently registered across all shards.
    pub fn session_count(&self) -> u64 {
        self.state.session_count.load(Ordering::SeqCst)
    }

    /// The current map epoch.
    pub fn epoch(&self) -> u64 {
        self.state.current_map().0.epoch()
    }

    /// Digest of the current shared map.
    pub fn map_digest(&self) -> u64 {
        self.state.current_map().1
    }

    /// Merged metrics: the connection plane plus every shard worker,
    /// folded in ascending shard order ([`Snapshot::merge_shards`]) so the
    /// merged snapshot does not depend on thread timing.
    pub fn metrics_snapshot(&self) -> Snapshot {
        merged_snapshot(&self.state)
    }

    /// Asks `session`'s owning shard for its current view of the session
    /// (the backing of `GET /sessions/<id>`). Never mutates session
    /// state. Returns `None` if the shard queue is full or the server is
    /// draining — callers should report "unavailable", not "unknown".
    pub fn query_session(&self, session: u64) -> Option<SessionView> {
        query_session_via(&self.state, &self.shard_txs, session)
    }

    /// Blocks until a client sends [`Frame::Shutdown`] or
    /// [`Server::shutdown`] runs.
    pub fn wait_shutdown(&self) {
        let (lock, cvar) = &self.state.shutdown_signal;
        let mut down = lock.lock().expect("shutdown lock poisoned");
        while !*down {
            down = cvar.wait(down).expect("shutdown lock poisoned");
        }
    }

    /// Stops accepting, drains the workers and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.state.signal_shutdown();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        for tx in &self.shard_txs {
            let _ = tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shared implementation of session inspection for
/// [`Server::query_session`] and the ops plane (which holds the state and
/// shard senders without a `Server` handle).
pub(crate) fn query_session_via(
    state: &ServerState,
    txs: &[SyncSender<Job>],
    session: u64,
) -> Option<SessionView> {
    let shard = (session % txs.len() as u64) as usize;
    let (tx, rx) = mpsc::channel();
    let queued = &state.shard_health[shard].queued;
    queued.fetch_add(1, Ordering::SeqCst);
    if txs[shard]
        .try_send(Job::Query { reply: tx, session })
        .is_err()
    {
        queued.fetch_sub(1, Ordering::SeqCst);
        return None;
    }
    rx.recv_timeout(Duration::from_secs(2)).ok()
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, txs: Vec<SyncSender<Job>>) {
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Nagle only delays replies; a connection without it still works.
        let _ = tune_accepted(&stream);
        next_conn += 1;
        let conn_id = next_conn;
        let st = Arc::clone(&state);
        let conn_txs = txs.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("wsn-conn-{conn_id}"))
            .spawn(move || conn_loop(stream, conn_id, st, conn_txs));
        if spawned.is_err() {
            // Out of threads: drop the connection rather than the server.
            continue;
        }
        state
            .conn_registry
            .counter("fttt.server.conns_opened")
            .inc();
    }
}

/// Socket options for an accepted connection. Replies are small frames
/// written as soon as their round is stepped; with Nagle's algorithm on,
/// the kernel holds each one until the client's next request carries the
/// ACK for the one before.
fn tune_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

fn conn_loop(stream: TcpStream, conn_id: u64, state: Arc<ServerState>, txs: Vec<SyncSender<Job>>) {
    let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
    let writer = {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let write_us = state
            .conn_registry
            .histogram("fttt.server.stage.write_us", DURATION_US_BUCKETS);
        let write_frames = state
            .conn_registry
            .histogram("fttt.server.write_frames", COUNT_BUCKETS);
        std::thread::Builder::new()
            .name(format!("wsn-conn-{conn_id}-w"))
            .spawn(move || writer_loop(write_half, out_rx, &write_us, &write_frames))
    };
    let Ok(writer) = writer else { return };

    let max_frame = state.config.max_frame;
    let shards = txs.len() as u64;
    let mut stream = BufReader::with_capacity(CONN_IO_BYTES, stream);
    loop {
        let (frame, trace) = match read_frame_traced(&mut stream, max_frame) {
            Ok(f) => f,
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => break,
            Err(RecvError::Protocol(e)) => {
                // Answer the violation, then drop the connection: framing
                // is unrecoverable mid-stream.
                state
                    .conn_registry
                    .counter("fttt.server.decode_errors")
                    .inc();
                let code = match &e {
                    crate::wire::WireError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                    crate::wire::WireError::Oversize { .. } => ErrorCode::Oversize,
                    _ => ErrorCode::Malformed,
                };
                let _ = out_tx.send(
                    Frame::Error {
                        code,
                        context: 0,
                        detail: e.to_string(),
                    }
                    .encode(),
                );
                break;
            }
        };
        state.conn_registry.counter("fttt.server.frames_in").inc();
        // No further request is buffered: a job for an idle shard may be
        // served right here.
        let quiet = stream.buffer().is_empty();
        match frame {
            Frame::Open {
                client_tag,
                extended,
            } => {
                let session = state.next_session.fetch_add(1, Ordering::SeqCst);
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    client_tag,
                    trace,
                    Job::Open {
                        reply: out_tx.clone(),
                        enqueued: Instant::now(),
                        conn: conn_id,
                        client_tag,
                        session,
                        extended,
                        trace,
                    },
                    quiet,
                );
            }
            Frame::Push { session, rounds } => {
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    session,
                    trace,
                    Job::Push {
                        reply: out_tx.clone(),
                        enqueued: Instant::now(),
                        session,
                        rounds,
                        trace,
                    },
                    quiet,
                );
            }
            Frame::Close { session } => {
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    session,
                    trace,
                    Job::Close {
                        reply: out_tx.clone(),
                        enqueued: Instant::now(),
                        session,
                        trace,
                    },
                    quiet,
                );
            }
            Frame::Churn { node, death } => {
                let reply = apply_churn(&state, &txs, node as usize, death);
                let _ = out_tx.send(reply.encode_traced(trace));
            }
            Frame::Shutdown => {
                let _ = out_tx.send(Frame::ShutdownAck.encode_traced(trace));
                state.conn_registry.counter("fttt.server.shutdowns").inc();
                state.signal_shutdown();
            }
            // Server-to-client frames arriving at the server are protocol
            // abuse; answer and drop.
            _ => {
                let _ = out_tx.send(
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        context: 0,
                        detail: "client sent a server frame".into(),
                    }
                    .encode_traced(trace),
                );
                break;
            }
        }
    }

    // Sweep this connection's sessions from every shard.
    for (shard, tx) in txs.iter().enumerate() {
        send_unshed(&state, shard, tx, Job::ConnClosed { conn: conn_id });
    }
    state
        .conn_registry
        .counter("fttt.server.conns_closed")
        .inc();
    drop(out_tx);
    let _ = writer.join();
}

/// Serves `job` inline when [`serve_inline`] may (`quiet`: the reader has
/// no further request buffered), else routes it to its shard, shedding
/// with [`ErrorCode::Overloaded`] when the shard's bounded queue is full.
/// `trace` is echoed in shed / drain errors so a traced client can
/// attribute them.
#[allow(clippy::too_many_arguments)]
fn route(
    state: &ServerState,
    shard: usize,
    tx: &SyncSender<Job>,
    out: &Sender<Vec<u8>>,
    context: u64,
    trace: u64,
    job: Job,
    quiet: bool,
) {
    let Err(job) = serve_inline(state, shard, job, quiet) else {
        return;
    };
    // Counted before the send, so the worker's count-down never comes
    // first and the gauge reads 0 only when nothing is waiting.
    let queued = &state.shard_health[shard].queued;
    queued.fetch_add(1, Ordering::SeqCst);
    let sent = tx.try_send(job);
    if sent.is_err() {
        queued.fetch_sub(1, Ordering::SeqCst);
    }
    match sent {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            state.conn_registry.counter("fttt.server.shed").inc();
            if wsn_telemetry::journal_enabled() {
                wsn_telemetry::trace_instant(
                    "fttt.server.shed",
                    vec![
                        ("trace", ArgValue::Str(digest_hex(trace))),
                        ("shard", ArgValue::U64(shard as u64)),
                        ("context", ArgValue::U64(context)),
                    ],
                );
            }
            let _ = out.send(
                Frame::Error {
                    code: ErrorCode::Overloaded,
                    context,
                    detail: "shard ingest queue full; retry after draining replies".into(),
                }
                .encode_traced(trace),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            // Worker already stopped: the server is draining. This must
            // NOT be `Overloaded` — a client retrying a dead shard would
            // spin forever.
            let _ = out.send(
                Frame::Error {
                    code: ErrorCode::ShuttingDown,
                    context,
                    detail: "server is shutting down".into(),
                }
                .encode_traced(trace),
            );
        }
    }
}

/// Queues `job` on `shard` with a blocking send, for work that must never
/// be shed: a closed connection's sweep and a churn's adopt job.
fn send_unshed(state: &ServerState, shard: usize, tx: &SyncSender<Job>, job: Job) {
    let queued = &state.shard_health[shard].queued;
    queued.fetch_add(1, Ordering::SeqCst);
    if tx.send(job).is_err() {
        queued.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Repairs the shared map for one churn event, installs the result and
/// queues one [`Job::Adopt`] per shard. Runs on the connection thread
/// under the churn mutex, so repairs and their adopt jobs reach every
/// shard queue in epoch order. The repair reads the current map through
/// its own `Arc`: opens and other map readers wait only for the swap. The
/// blocking sends wait behind the jobs already queued, which the shard
/// workers drain without needing anything this thread holds.
fn apply_churn(state: &ServerState, txs: &[SyncSender<Job>], node: usize, death: bool) -> Frame {
    let _serial = state.churn.lock().unwrap_or_else(PoisonError::into_inner);
    let (map, _) = state.current_map();
    let refuse = |detail: String| Frame::Error {
        code: ErrorCode::BadChurn,
        context: node as u64,
        detail,
    };
    if node >= map.deployment().len() {
        return refuse(format!("node {node} outside the deployment"));
    }
    if death && !map.is_node_live(node) {
        return refuse(format!("node {node} is already dead"));
    }
    if !death && map.is_node_live(node) {
        return refuse(format!("node {node} is already live"));
    }
    if death && map.live_nodes().len() <= 2 {
        return refuse("a face map needs at least two live sensors".into());
    }
    let (repaired, report) = map.repaired(node, death, RepairMode::Incremental);
    let epoch = repaired.epoch();
    let digest = digest_face_map(&repaired);
    let map = Arc::new(repaired);
    *state.map.write().expect("map lock poisoned") = (Arc::clone(&map), digest);
    let report = Arc::new(report);
    for (shard, tx) in txs.iter().enumerate() {
        let job = Job::Adopt {
            map: Arc::clone(&map),
            report: Arc::clone(&report),
        };
        send_unshed(state, shard, tx, job);
    }
    state
        .conn_registry
        .counter("fttt.server.churn_repairs")
        .inc();
    Frame::ChurnAck {
        epoch,
        map_digest: digest,
    }
}

/// A shard's sessions and the instruments its jobs update, behind the
/// shard's lock. The shard worker serves its queue under the lock; a
/// connection reader with nothing else to do serves a job itself
/// ([`serve_inline`]).
pub(crate) struct Shard {
    sessions: HashMap<u64, Entry>,
    opened: Arc<Counter>,
    closed: Arc<Counter>,
    churn_adopted: Arc<Counter>,
    dropped: Arc<Counter>,
    rounds_total: Arc<Counter>,
    batches: Arc<Counter>,
    round_us: Arc<Histogram>,
    queue_wait_us: Arc<Histogram>,
}

impl Shard {
    fn new(registry: &Registry) -> Shard {
        Shard {
            sessions: HashMap::new(),
            opened: registry.counter("fttt.server.sessions_opened"),
            closed: registry.counter("fttt.server.sessions_closed"),
            churn_adopted: registry.counter("fttt.server.churn_adopted"),
            dropped: registry.counter("fttt.server.sessions_dropped"),
            rounds_total: registry.counter("fttt.server.rounds"),
            batches: registry.counter("fttt.server.push_batches"),
            round_us: registry.histogram("fttt.server.round_us", DURATION_US_BUCKETS),
            queue_wait_us: registry
                .histogram("fttt.server.stage.queue_wait_us", DURATION_US_BUCKETS),
        }
    }
}

fn worker_loop(shard: usize, state: Arc<ServerState>, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        if matches!(job, Job::Stop) {
            break;
        }
        let mut core = state.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Counted down under the lock, so a reader holding the lock that
        // reads 0 knows no job of this shard is waiting or being served.
        let _ = state.shard_health[shard].queued.fetch_update(
            Ordering::SeqCst,
            Ordering::SeqCst,
            |v| Some(v.saturating_sub(1)),
        );
        serve(&state, shard, &mut core, job);
    }
}

/// Serves `job` on the calling connection reader instead of its shard
/// worker, which saves the worker's wake-up, when nothing else waits: the
/// reader has no further request buffered (`quiet`), no shard has a job
/// waiting in its queue, and this shard's lock is free. Fault injection
/// (`ingest_stall`) stalls the worker, so it keeps every job there; so
/// does a server shutting down. Hands `job` back when it cannot serve it.
fn serve_inline(state: &ServerState, shard: usize, job: Job, quiet: bool) -> Result<(), Job> {
    let idle = |h: &ShardHealth| h.queued.load(Ordering::SeqCst) == 0;
    if !quiet
        || state.config.ingest_stall.is_some()
        || state.shutdown.load(Ordering::SeqCst)
        || !state.shard_health.iter().all(idle)
    {
        return Err(job);
    }
    let Ok(mut core) = state.shards[shard].try_lock() else {
        return Err(job);
    };
    // Re-checked under the lock: a job routed meanwhile goes first.
    if !idle(&state.shard_health[shard]) {
        return Err(job);
    }
    serve(state, shard, &mut core, job);
    Ok(())
}

/// Runs one job against its shard's sessions, on the shard worker or
/// inline on a connection reader.
fn serve(state: &ServerState, shard: usize, core: &mut Shard, job: Job) {
    if let Job::Open { enqueued, .. } | Job::Push { enqueued, .. } | Job::Close { enqueued, .. } =
        &job
    {
        core.queue_wait_us
            .observe(enqueued.elapsed().as_secs_f64() * 1e6);
    }
    let health = &state.shard_health[shard];
    // Heartbeat: mark the shard busy on this job so the watchdog can age
    // a stuck one; `now_us` is clamped to ≥ 1 so 0 stays "idle".
    health
        .busy_since_us
        .store(state.now_us().max(1), Ordering::Relaxed);
    let _busy = BusyGuard(health);
    if let Some(stall) = state.config.ingest_stall {
        std::thread::sleep(stall);
    }
    match job {
        Job::Open {
            reply,
            enqueued: _,
            conn,
            client_tag,
            session,
            extended,
            trace,
        } => {
            let before = state.session_count.fetch_add(1, Ordering::SeqCst);
            if before as usize >= state.config.max_sessions {
                state.session_count.fetch_sub(1, Ordering::SeqCst);
                let _ = reply.send(
                    Frame::Error {
                        code: ErrorCode::SessionLimit,
                        context: client_tag,
                        detail: format!("at capacity ({} sessions)", state.config.max_sessions),
                    }
                    .encode_traced(trace),
                );
                return;
            }
            let (map, map_digest) = state.current_map();
            let epoch = map.epoch();
            let tracker = Tracker::shared(map, state.config.tracker_options(extended));
            let entry = Entry {
                session: TrackingSession::new(tracker, state.config.session_options())
                    .with_session_id(session),
                conn,
                digest: Digest::new(),
                rounds: 0,
                last: None,
            };
            core.sessions.insert(session, entry);
            core.opened.inc();
            let _ = reply.send(
                Frame::OpenAck {
                    client_tag,
                    session,
                    epoch,
                    map_digest,
                }
                .encode_traced(trace),
            );
        }
        Job::Push {
            reply,
            enqueued: _,
            session,
            rounds,
            trace,
        } => {
            let Some(entry) = core.sessions.get_mut(&session) else {
                let _ = reply.send(unknown_session(session).encode_traced(trace));
                return;
            };
            // A reading sized for a different deployment would panic
            // the matcher — and a panicking worker takes the whole
            // shard (and every session on it) down with it. Reject
            // the batch whole before touching the session, so the
            // digest stays intact and the shard stays alive.
            let expected = state.config.params.nodes;
            if let Some(bad) = rounds.iter().find(|r| r.group.node_count() != expected) {
                let _ = reply.send(
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        context: session,
                        detail: format!(
                            "reading has {} nodes; this server's map has {expected}",
                            bad.group.node_count()
                        ),
                    }
                    .encode_traced(trace),
                );
                return;
            }
            let batch_started = Instant::now();
            let mut results = Vec::with_capacity(rounds.len());
            for r in &rounds {
                let started = Instant::now();
                let round = entry.session.step(r.t, &r.group);
                core.round_us.observe(started.elapsed().as_secs_f64() * 1e6);
                digest_round(&mut entry.digest, &round);
                entry.rounds += 1;
                results.push(RoundResult::from_round(&round));
            }
            entry.last = results.last().cloned();
            core.rounds_total.add(results.len() as u64);
            core.batches.inc();
            // The server half of cross-wire correlation: one event per
            // push batch keyed by the request's trace id (hex, the
            // full-range-u64 JSON convention), so `fttt-sim explain`
            // can join a client-side trace to the shard that served
            // it and the time it spent actually stepping rounds.
            if wsn_telemetry::journal_enabled() {
                wsn_telemetry::trace_instant(
                    "fttt.server.push",
                    vec![
                        ("trace", ArgValue::Str(digest_hex(trace))),
                        ("session", ArgValue::U64(session)),
                        ("shard", ArgValue::U64(shard as u64)),
                        ("rounds", ArgValue::U64(results.len() as u64)),
                        (
                            "work_us",
                            ArgValue::F64(batch_started.elapsed().as_secs_f64() * 1e6),
                        ),
                    ],
                );
            }
            let _ = reply.send(
                Frame::Rounds {
                    session,
                    results,
                    digest: entry.digest.value(),
                }
                .encode_traced(trace),
            );
        }
        Job::Close {
            reply,
            enqueued: _,
            session,
            trace,
        } => {
            let Some(entry) = core.sessions.remove(&session) else {
                let _ = reply.send(unknown_session(session).encode_traced(trace));
                return;
            };
            state.session_count.fetch_sub(1, Ordering::SeqCst);
            core.closed.inc();
            let _ = reply.send(
                Frame::CloseAck {
                    session,
                    rounds: entry.rounds,
                    digest: entry.digest.value(),
                }
                .encode_traced(trace),
            );
        }
        Job::Query { reply, session } => {
            let view = match core.sessions.get(&session) {
                Some(entry) => SessionView::Active(SessionStatus {
                    session,
                    epoch: entry.session.tracker().map().epoch(),
                    rounds: entry.rounds,
                    digest: entry.digest.value(),
                    last: entry.last.clone(),
                }),
                None => SessionView::Unknown {
                    current_epoch: state.current_map().0.epoch(),
                },
            };
            let _ = reply.send(view);
        }
        Job::Adopt { map, report } => {
            // Sessions opened after the swap already hold `map`.
            let mut adopted = 0;
            for entry in core.sessions.values_mut() {
                if entry.session.tracker().map().epoch() + 1 == report.epoch {
                    let t = entry.last.as_ref().map_or(0.0, |r| r.t);
                    entry.session.adopt_repair(t, Arc::clone(&map), &report);
                    adopted += 1;
                }
            }
            core.churn_adopted.add(adopted);
        }
        Job::ConnClosed { conn } => {
            let before = core.sessions.len();
            core.sessions.retain(|_, e| e.conn != conn);
            let swept = (before - core.sessions.len()) as u64;
            if swept > 0 {
                state.session_count.fetch_sub(swept, Ordering::SeqCst);
                core.dropped.add(swept);
            }
        }
        // `worker_loop` stops before it takes the lock.
        Job::Stop => {}
    }
}

/// The watchdog monitor: every `watchdog_interval` it ages each shard's
/// busy heartbeat against `watchdog_stall` (flipping `ShardHealth::stalled`
/// and counting `fttt.server.watchdog.stalls` once per transition) and,
/// when a flight recorder is configured, checks its burst triggers and
/// dumps evidence. Exits promptly on shutdown via the shared condvar.
fn monitor_loop(state: Arc<ServerState>) {
    let stalls = state.conn_registry.counter("fttt.server.watchdog.stalls");
    let stall_us = state.config.watchdog_stall.as_micros() as u64;
    let mut dumps_written = 0usize;
    let mut last_shed = 0u64;
    loop {
        {
            let (lock, cvar) = &state.shutdown_signal;
            let down = lock.lock().expect("shutdown lock poisoned");
            if *down {
                break;
            }
            let (down, _) = cvar
                .wait_timeout(down, state.config.watchdog_interval)
                .expect("shutdown lock poisoned");
            if *down {
                break;
            }
        }
        let now = state.now_us();
        let mut new_stall = false;
        for health in &state.shard_health {
            let busy = health.busy_since_us.load(Ordering::Relaxed);
            let stalled_now = busy != 0 && now.saturating_sub(busy) > stall_us;
            let was = health.stalled.swap(stalled_now, Ordering::Relaxed);
            if stalled_now && !was {
                stalls.inc();
                new_stall = true;
            }
        }
        let Some(dir) = &state.config.flight_dir else {
            continue;
        };
        let snap = merged_snapshot(&state);
        let shed = snap.counters.get("fttt.server.shed").copied().unwrap_or(0);
        let shed_delta = shed.saturating_sub(last_shed);
        last_shed = shed;
        let reason = if new_stall {
            "stall"
        } else if shed_delta >= SHED_BURST {
            "shed-burst"
        } else {
            continue;
        };
        if dumps_written >= MAX_FLIGHT_DUMPS {
            state
                .conn_registry
                .counter("fttt.server.flight.suppressed")
                .inc();
            continue;
        }
        dumps_written += 1;
        flight_dump(&state, dir, reason, dumps_written, snap);
    }
}

/// Writes one flight-recorder dump: the journal ring as
/// `flight-<unix_secs>-<seq>-<reason>.trace.jsonl` and the merged metrics
/// as the matching `.metrics.json`, both via atomic tmp+rename so a
/// concurrent reader never sees a torn file. With no journal installed the
/// trace file is written empty — the metrics half still captures the
/// anomaly.
fn flight_dump(state: &ServerState, dir: &Path, reason: &str, seq: usize, snap: Snapshot) {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stem = format!("flight-{secs}-{seq}-{reason}");
    let mut trace = String::new();
    wsn_telemetry::with_journal(|j| trace = j.snapshot().to_jsonl());
    let mut ok = true;
    let trace_path = dir.join(format!("{stem}.trace.jsonl"));
    if let Err(e) = wsn_telemetry::write_file_atomic(&trace_path, trace.as_bytes()) {
        eprintln!("flight recorder: {e}");
        ok = false;
    }
    let metrics_path = dir.join(format!("{stem}.metrics.json"));
    if let Err(e) = wsn_telemetry::write_file_atomic(&metrics_path, snap.to_json().as_bytes()) {
        eprintln!("flight recorder: {e}");
        ok = false;
    }
    if ok {
        state
            .conn_registry
            .counter("fttt.server.flight.dumps")
            .inc();
    }
}

fn unknown_session(session: u64) -> Frame {
    Frame::Error {
        code: ErrorCode::UnknownSession,
        context: session,
        detail: format!("session {session} is not registered on this shard"),
    }
}

/// Sends a connection's reply frames in channel order. Each wake-up takes
/// every frame already queued, up to [`CONN_IO_BYTES`], and writes them
/// with one `write_all`, so a burst of replies does not become one
/// segment per frame on a `TCP_NODELAY` socket.
fn writer_loop(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Vec<u8>>,
    write_us: &Histogram,
    write_frames: &Histogram,
) {
    let mut buf = Vec::with_capacity(CONN_IO_BYTES);
    while let Ok(frame) = rx.recv() {
        buf.clear();
        buf.extend_from_slice(&frame);
        let mut frames = 1u64;
        while buf.len() < CONN_IO_BYTES {
            let Ok(frame) = rx.try_recv() else { break };
            buf.extend_from_slice(&frame);
            frames += 1;
        }
        let started = Instant::now();
        if stream.write_all(&buf).is_err() {
            break;
        }
        write_us.observe(started.elapsed().as_secs_f64() * 1e6);
        write_frames.observe(frames as f64);
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_accepted_disables_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        tune_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
    }
}
