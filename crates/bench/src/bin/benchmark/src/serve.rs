//! The serve workloads: a `wsn-serve` child driven over one TCP
//! connection, every reply checked bit for bit against a shadow engine.
//!
//! A run has five phases on one connection, each with its own deadline
//! so that a lost reply becomes a counted failure instead of a hang:
//!
//! 1. **open** — every session opened, pipelined [`WINDOW`] deep;
//! 2. **paced** — an open loop at the paper's localization period: each
//!    session pushes one round every `k/λ = 0.5 s`, sessions staggered
//!    evenly across the period. One thread sends on schedule, a second
//!    reads replies; each push is timed from its *scheduled* send time,
//!    so a stall is charged to every push it delays;
//! 3. **saturation** — a closed loop, [`WINDOW`] pushes in flight with at
//!    most one per session for a fixed time, measuring rounds answered
//!    per second;
//! 4. **close** — every session closed, its final replay digest checked;
//! 5. **shadow** — after the child has exited, the same readings are
//!    stepped through in-process [`TrackingSession`]s over the same map;
//!    every reply must match bit for bit. Then the accuracy set is stepped
//!    through the same engine and scored against its ground truth.
//!
//! `/metrics` on the child's ops plane is scraped between phases; its
//! `fttt_server_round_us` deltas split the paced latency into server
//! work and everything else.

use crate::layers::{self, span, Spans, Tally, Tracing};
use crate::report::{self, RunResult};
use crate::stats;
use fttt::replay::{digest_round, Digest};
use fttt::session::TrackingSession;
use fttt::tracker::Tracker;
use fttt::{FaceMap, PaperParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsn_geometry::Point;
use wsn_network::SensorField;
use wsn_parallel::{par_map_threads, seed_for};
use wsn_server::{ErrorCode, Frame, ReadingRound, RoundResult, ServerConfig, DEFAULT_MAX_FRAME};

/// Every `EXTENDED_EVERY`-th session runs extended (Section 6) vectors.
const EXTENDED_EVERY: u64 = 4;
/// Pushes in flight in the open, saturation and close phases. Deep enough
/// that the server's threads seldom sleep between pushes, so saturation
/// measures their work rather than how fast the host wakes them (on the
/// 2-vCPU reference host, against 64: 9% more rounds/s on `serve-n10` in
/// each of 8 paired runs, and a narrower spread), and shallow enough that
/// neither shard's ingest queue (256) fills.
const WINDOW: usize = 160;
/// Shard workers of the server under test (one per core of the 2-core
/// reference host).
const SHARDS: usize = 2;
/// Threads for input generation and the shadow check, both outside any
/// measured phase.
const THREADS: usize = 2;
/// A paced round meets the latency objective when it is answered
/// correctly within 5 ms, 1% of the localization period.
const SLO_US: f64 = 5_000.0;
/// Sessions and rounds per session of the accuracy set.
const ACCURACY_SESSIONS: usize = 100;
const ACCURACY_ROUNDS: usize = 20;

const BANNER_DEADLINE: Duration = Duration::from_secs(30);
const OPEN_DEADLINE: Duration = Duration::from_secs(30);
const PACED_GRACE: Duration = Duration::from_secs(5);
const SATURATION_DEADLINE: Duration = Duration::from_secs(60);
const CLOSE_DEADLINE: Duration = Duration::from_secs(30);
const EXIT_WAIT: Duration = Duration::from_secs(5);
/// Socket read timeout: how often a blocked reader re-checks its deadline.
const POLL: Duration = Duration::from_millis(50);
/// A write that cannot progress this long means the server stopped
/// reading; the connection is then treated as broken.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// One serve workload's shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Deployment size.
    pub nodes: usize,
    /// Face-map raster cell, metres.
    pub cell: f64,
    /// Concurrent sessions, all on one connection.
    pub sessions: usize,
    /// Rounds per session in the paced phase.
    pub paced_rounds: usize,
    /// Seconds the saturation phase sends for, so that a slow host
    /// lengthens neither the phase nor the shadow check after it.
    pub saturation_s: f64,
    /// Rounds per session generated for the saturation phase; a host fast
    /// enough to use them all up ends the phase early.
    pub saturation_rounds: usize,
    /// The traced pass covers every `traced_stride`-th session (odd, so
    /// basic and extended sessions are both sampled).
    pub traced_stride: usize,
    /// Server starts per run; `setup_s` is their median.
    pub setup_starts: usize,
}

impl Shape {
    /// `serve-n10`: a small map and many sessions, so the wire, the
    /// server's threads and queues and the socket dominate each reply.
    /// The paced median repeats within a few percent from a dozen rounds;
    /// the saturation rate follows the host's speed, so it gets the larger
    /// share of the run.
    pub fn n10(seconds: u64) -> Shape {
        Shape {
            nodes: 10,
            cell: 2.0,
            sessions: 10_000,
            paced_rounds: paced_rounds(0.3 * seconds as f64),
            saturation_s: 0.7 * seconds as f64,
            saturation_rounds: 5 * seconds as usize,
            traced_stride: 83,
            setup_starts: 21,
        }
    }

    /// `serve-n100`: a 10⁴-face map far larger than the last-level cache,
    /// so Algorithm 1 and matching dominate each step. Its paced latency
    /// is pinned by the held reply, but the host's memory bandwidth sags
    /// for seconds at a time, and a step that outgrows the 1 ms gap lifts
    /// every reply behind it: the paced median needs enough rounds to
    /// outlast a sag. The shadow check re-steps every saturation round,
    /// which costs about as long again as the phase.
    pub fn n100(seconds: u64) -> Shape {
        Shape {
            nodes: 100,
            cell: 1.0,
            sessions: 500,
            paced_rounds: paced_rounds(0.35 * seconds as f64),
            saturation_s: 0.45 * seconds as f64,
            saturation_rounds: 8 * seconds as usize,
            traced_stride: 15,
            setup_starts: 7,
        }
    }

    fn params(&self) -> PaperParams {
        PaperParams::default()
            .with_nodes(self.nodes)
            .with_cell_size(self.cell)
    }

    /// The configuration the child serves and the shadow mirrors.
    pub fn server_config(&self) -> ServerConfig {
        let mut config = ServerConfig::new(self.params());
        config.shards = SHARDS;
        config
    }

    fn rounds(&self) -> usize {
        self.paced_rounds + self.saturation_rounds
    }
}

/// Localization periods in `seconds` of paced load.
fn paced_rounds(seconds: f64) -> usize {
    let period = PaperParams::default().localization_period();
    ((seconds / period) as usize).max(1)
}

/// One session's generated inputs: the readings pushed over the wire and
/// the target's true position at each round.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInput {
    extended: bool,
    rounds: Vec<ReadingRound>,
    truth: Vec<Point>,
}

/// Session `global`'s inputs: a random-waypoint trace and one grouping
/// sampling per localization period along it, all from
/// `seed_for(seed, global)`.
fn session_input(
    params: &PaperParams,
    field: &SensorField,
    seed: u64,
    global: u64,
    rounds: usize,
) -> SessionInput {
    let mut rng = ChaCha8Rng::seed_from_u64(seed_for(seed, global));
    let duration = rounds as f64 * params.localization_period();
    let trace = span(layers::TRACE, || params.random_trace(duration, &mut rng));
    let sampler = params.sampler();
    let points = &trace.points()[..rounds];
    SessionInput {
        extended: global.is_multiple_of(EXTENDED_EVERY),
        rounds: points
            .iter()
            .map(|p| ReadingRound {
                t: p.t,
                group: span(layers::SAMPLE, || sampler.sample(field, p.pos, &mut rng)),
            })
            .collect(),
        truth: points.iter().map(|p| p.pos).collect(),
    }
}

/// Every session's inputs, generated on [`THREADS`] threads.
pub fn generate(shape: &Shape, seed: u64) -> Vec<SessionInput> {
    let params = shape.params();
    let field = params.grid_field();
    let ids: Vec<u64> = (0..shape.sessions as u64).collect();
    par_map_threads(THREADS, &ids, |_, &g| {
        session_input(&params, &field, seed, g, shape.rounds())
    })
}

// ---------------------------------------------------------------------
// The child process
// ---------------------------------------------------------------------

/// The `wsn-serve` binary next to this one.
fn sibling() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let path = exe
        .parent()
        .ok_or("own executable has no directory")?
        .join("wsn-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it into the same target directory with \
             `cargo build --release -p wsn-server --bin wsn-serve` (run.sh does)",
            path.display()
        ))
    }
}

/// A running `wsn-serve` child, killed and reaped on drop unless it was
/// shut down cleanly first.
struct ServerChild {
    child: Child,
    addr: String,
    ops: String,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    /// Spawns the child; returns it with the seconds from spawn to its
    /// `LISTENING` line.
    fn spawn(exe: &Path, shape: &Shape) -> Result<(ServerChild, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(["--listen", "127.0.0.1:0", "--ops-listen", "127.0.0.1:0"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--nodes", &shape.nodes.to_string()])
            .args(["--cell-size", &shape.cell.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The banner is read on a helper thread so that a child that never
        // prints it is killed at the deadline instead of blocking us.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            let mut line = String::new();
            let banner = |stdout: &mut BufReader<ChildStdout>, line: &mut String, prefix| {
                line.clear();
                stdout
                    .read_line(line)
                    .map_err(|e| format!("read banner: {e}"))?;
                line.trim()
                    .strip_prefix(prefix)
                    .map(str::to_string)
                    .ok_or_else(|| format!("unexpected banner {line:?}"))
            };
            let result = banner(&mut stdout, &mut line, "LISTENING ").and_then(|addr| {
                let at = Instant::now();
                let ops = banner(&mut stdout, &mut line, "OPS LISTENING ")?;
                Ok((addr, at, ops))
            });
            let _ = tx.send(result.map(|r| (r, stdout)));
        });
        let outcome = rx.recv_timeout(BANNER_DEADLINE);
        if outcome.is_err() {
            let _ = child.kill();
        }
        let _ = reader.join();
        match outcome {
            Ok(Ok(((addr, at, ops), stdout))) => Ok((
                ServerChild {
                    child,
                    addr,
                    ops,
                    _stdout: stdout,
                },
                (at - started).as_secs_f64(),
            )),
            Ok(Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("wsn-serve: {e}"))
            }
            Err(_) => {
                let _ = child.wait();
                Err(format!(
                    "wsn-serve printed no banner in {BANNER_DEADLINE:?}"
                ))
            }
        }
    }

    /// `VmHWM` of the child, MB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends a `Shutdown` frame and waits for the child to exit; kills it
    /// if it does not within [`EXIT_WAIT`].
    fn shutdown(mut self) {
        let _ =
            TcpStream::connect(&self.addr).and_then(|mut s| s.write_all(&Frame::Shutdown.encode()));
        let until = Instant::now() + EXIT_WAIT;
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("read {status}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status} has no VmHWM line"))
}

// ---------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------

/// Reads whole frames off a socket, never losing a partial frame to a
/// read timeout.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    chunk: Box<[u8]>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> Result<FrameReader, String> {
        stream
            .set_read_timeout(Some(POLL))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(FrameReader {
            stream,
            buf: Vec::new(),
            start: 0,
            chunk: vec![0u8; 1 << 16].into_boxed_slice(),
        })
    }

    /// The next frame, or `None` once `deadline` passes without one.
    fn next(&mut self, deadline: Instant) -> Result<Option<Frame>, String> {
        loop {
            let avail = &self.buf[self.start..];
            if avail.len() >= 4 {
                let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
                if len > DEFAULT_MAX_FRAME {
                    return Err(format!(
                        "reply frame of {len} bytes exceeds the frame bound"
                    ));
                }
                let end = 4 + len as usize;
                if avail.len() >= end {
                    let frame = Frame::decode(&avail[4..end])
                        .map_err(|e| format!("undecodable reply: {e}"))?;
                    self.start += end;
                    return Ok(Some(frame));
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            self.buf.drain(..self.start);
            self.start = 0;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// The write half, shared by the paced sender and the reader's retries.
struct Writer(Mutex<TcpStream>);

impl Writer {
    fn send(&self, frame: &Frame) -> Result<(), String> {
        self.0
            .lock()
            .expect("writer lock poisoned by a panicking sender")
            .write_all(&frame.encode())
            .map_err(|e| format!("write: {e}"))
    }
}

/// One answered push.
#[derive(Debug, Clone)]
struct Reply {
    result: RoundResult,
    digest: u64,
}

/// `/metrics` values read between phases.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    round_us_sum: f64,
    round_us_count: f64,
    shed: f64,
}

/// Everything the wire returned.
pub struct Record {
    /// Server session id per input session, `None` if the open failed.
    ids: Vec<Option<u64>>,
    /// Per session, one entry per push answered in round order: the reply,
    /// or `None` for a typed error.
    replies: Vec<Vec<Option<Reply>>>,
    /// Per session, µs from each paced push's scheduled send time to its
    /// answer (`NaN` for a typed error).
    paced_us: Vec<Vec<f64>>,
    /// µs the paced sender ran behind its schedule, per push.
    late_us: Vec<f64>,
    /// Per session, the close ack's `(rounds, digest)`.
    closes: Vec<Option<(u64, u64)>>,
    /// Pushes or opens shed with `Overloaded` and resent.
    shed_retries: u64,
    /// Typed errors other than a retried `Overloaded`, first few.
    errors: Vec<String>,
    /// Why the connection broke, if it did; every later operation failed.
    broken: Option<String>,
    /// Per session, how many of its rounds were pushed.
    pushed: Vec<usize>,
    /// Pushes answered in the saturation phase, and the phase's seconds.
    saturation: (u64, f64),
    /// `/metrics` before the paced phase, after it, after saturation.
    scrapes: [Scrape; 3],
}

impl Record {
    fn note_error(&mut self, code: ErrorCode, context: u64, detail: &str) {
        if self.errors.len() < 5 {
            self.errors
                .push(format!("{code:?} (context {context}): {detail}"));
        }
    }
}

/// Drives every phase against a live server at `addr` whose ops plane is
/// at `ops`. Failures are recorded, never returned: a broken connection
/// ends the run with every remaining operation failed.
pub fn drive(
    addr: &str,
    ops: &str,
    shape: &Shape,
    inputs: &[SessionInput],
) -> Result<Record, String> {
    let n = inputs.len();
    let mut record = Record {
        ids: vec![None; n],
        replies: vec![Vec::new(); n],
        paced_us: vec![Vec::new(); n],
        late_us: Vec::new(),
        closes: vec![None; n],
        shed_retries: 0,
        errors: Vec::new(),
        broken: None,
        pushed: vec![0; n],
        saturation: (0, 0.0),
        scrapes: [Scrape::default(); 3],
    };
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_write_timeout(Some(WRITE_STALL)))
        .map_err(|e| format!("configure socket: {e}"))?;
    let writer = Writer(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?,
    ));
    let mut reader = FrameReader::new(stream)?;
    let period = shape.params().localization_period();

    // `/metrics` is scraped after each of the first three phases: before
    // the paced phase, after it, and after saturation. A failed scrape
    // means the server is gone.
    for slot in 0..3 {
        if record.broken.is_none() {
            let (rec, rd) = (&mut record, &mut reader);
            let phase = match slot {
                0 => open_phase(rec, rd, &writer, inputs),
                1 => paced_phase(rec, rd, &writer, inputs, shape.paced_rounds, period),
                _ => saturation_phase(rec, rd, &writer, inputs, shape),
            };
            if let Err(e) = phase {
                record.broken = Some(e);
            }
        }
        match scrape(ops) {
            Ok(s) => record.scrapes[slot] = s,
            Err(e) => {
                record.broken.get_or_insert(e);
            }
        }
    }
    if record.broken.is_none() {
        if let Err(e) = close_phase(&mut record, &mut reader, &writer) {
            record.broken = Some(e);
        }
    }
    Ok(record)
}

fn push_frame(session: u64, round: &ReadingRound) -> Frame {
    Frame::Push {
        session,
        rounds: vec![round.clone()],
    }
}

fn open_phase(
    record: &mut Record,
    reader: &mut FrameReader,
    writer: &Writer,
    inputs: &[SessionInput],
) -> Result<(), String> {
    let deadline = Instant::now() + OPEN_DEADLINE;
    let mut pending: VecDeque<usize> = (0..inputs.len()).collect();
    let (mut answered, mut inflight) = (0, 0);
    while answered < inputs.len() {
        while inflight < WINDOW {
            let Some(s) = pending.pop_front() else { break };
            writer.send(&Frame::Open {
                client_tag: s as u64,
                extended: inputs[s].extended,
            })?;
            inflight += 1;
        }
        let Some(frame) = reader.next(deadline)? else {
            return Err(format!(
                "{} opens unanswered at the deadline",
                inputs.len() - answered
            ));
        };
        inflight -= 1;
        match frame {
            Frame::OpenAck {
                client_tag,
                session,
                ..
            } if (client_tag as usize) < inputs.len() => {
                record.ids[client_tag as usize] = Some(session);
                answered += 1;
            }
            Frame::Error {
                code: ErrorCode::Overloaded,
                context,
                ..
            } if (context as usize) < inputs.len() => {
                pending.push_back(context as usize);
                record.shed_retries += 1;
            }
            Frame::Error {
                code,
                context,
                detail,
            } => {
                record.note_error(code, context, &detail);
                answered += 1;
            }
            other => return Err(format!("unexpected reply to an open: {other:?}")),
        }
    }
    Ok(())
}

/// The open loop. The calling thread sends every push at its scheduled
/// time (but never a session's next push before its previous one was
/// answered); a second thread reads the replies.
fn paced_phase(
    record: &mut Record,
    reader: &mut FrameReader,
    writer: &Writer,
    inputs: &[SessionInput],
    rounds: usize,
    period: f64,
) -> Result<(), String> {
    let n = inputs.len();
    let index: HashMap<u64, usize> = record
        .ids
        .iter()
        .enumerate()
        .filter_map(|(s, id)| id.map(|id| (id, s)))
        .collect();
    let expected = index.len() * rounds;
    let inflight: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |s: usize, r: usize| {
        t0 + Duration::from_secs_f64(period * (r as f64 + s as f64 / n as f64))
    };
    let deadline = due(0, rounds) + PACED_GRACE;
    let Record {
        ids,
        replies,
        paced_us,
        late_us,
        pushed,
        shed_retries,
        errors,
        ..
    } = record;
    let ids = &*ids;

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> Result<(), String> {
            let mut got = 0;
            while got < expected {
                let Some(frame) = reader.next(deadline)? else {
                    return Ok(());
                };
                let at = Instant::now();
                let (session, reply) = match frame {
                    Frame::Rounds {
                        session,
                        mut results,
                        digest,
                    } if results.len() == 1 => (
                        session,
                        Some(Reply {
                            result: results.pop().expect("one result"),
                            digest,
                        }),
                    ),
                    Frame::Error {
                        code: ErrorCode::Overloaded,
                        context,
                        ..
                    } if index.contains_key(&context) => {
                        let s = index[&context];
                        *shed_retries += 1;
                        writer.send(&push_frame(context, &inputs[s].rounds[replies[s].len()]))?;
                        continue;
                    }
                    Frame::Error {
                        code,
                        context,
                        detail,
                    } if index.contains_key(&context) => {
                        if errors.len() < 5 {
                            errors.push(format!("{code:?} (context {context}): {detail}"));
                        }
                        (context, None)
                    }
                    other => return Err(format!("unexpected reply to a paced push: {other:?}")),
                };
                let s = *index
                    .get(&session)
                    .ok_or_else(|| format!("reply for unknown session {session}"))?;
                let r = replies[s].len();
                let latency = (at - due(s, r)).as_secs_f64() * 1e6;
                paced_us[s].push(if reply.is_some() { latency } else { f64::NAN });
                replies[s].push(reply);
                inflight[s].store(false, Ordering::Release);
                got += 1;
            }
            Ok(())
        });

        let sent = (|| -> Result<(), String> {
            for r in 0..rounds {
                for (s, id) in ids.iter().enumerate() {
                    let Some(id) = *id else { continue };
                    let at = due(s, r);
                    wait_until(at);
                    while inflight[s].load(Ordering::Acquire) {
                        if Instant::now() >= deadline {
                            return Ok(());
                        }
                        std::thread::yield_now();
                    }
                    inflight[s].store(true, Ordering::Release);
                    late_us.push((Instant::now() - at).as_secs_f64() * 1e6);
                    pushed[s] = r + 1;
                    writer.send(&push_frame(id, &inputs[s].rounds[r]))?;
                }
            }
            Ok(())
        })();
        let received = receiver.join().expect("paced receiver panicked");
        sent.and(received)
    })
}

/// Sleeps, then yields, until `at`.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The closed loop: pushes the saturation rounds of every session whose
/// paced rounds were all answered, [`WINDOW`] in flight, at most one per
/// session, for [`Shape::saturation_s`] seconds; then waits for the pushes
/// in flight.
fn saturation_phase(
    record: &mut Record,
    reader: &mut FrameReader,
    writer: &Writer,
    inputs: &[SessionInput],
    shape: &Shape,
) -> Result<(), String> {
    let (first, rounds) = (shape.paced_rounds, shape.rounds());
    let mut ready: VecDeque<usize> = (0..inputs.len())
        .filter(|&s| record.ids[s].is_some() && answered(record, s) == first)
        .collect();
    let index: HashMap<u64, usize> = ready
        .iter()
        .map(|&s| (record.ids[s].expect("open"), s))
        .collect();
    let started = Instant::now();
    let stop = started + Duration::from_secs_f64(shape.saturation_s);
    let deadline = stop + SATURATION_DEADLINE;
    let mut inflight = 0usize;
    loop {
        while inflight < WINDOW && Instant::now() < stop {
            let Some(s) = ready.pop_front() else { break };
            let r = record.replies[s].len();
            record.pushed[s] = r + 1;
            writer.send(&push_frame(
                record.ids[s].expect("open"),
                &inputs[s].rounds[r],
            ))?;
            inflight += 1;
        }
        if inflight == 0 {
            break;
        }
        let Some(frame) = reader.next(deadline)? else {
            break;
        };
        inflight -= 1;
        let (session, reply) = match frame {
            Frame::Rounds {
                session,
                mut results,
                digest,
            } if results.len() == 1 => {
                record.saturation = (record.saturation.0 + 1, started.elapsed().as_secs_f64());
                (
                    session,
                    Some(Reply {
                        result: results.pop().expect("one result"),
                        digest,
                    }),
                )
            }
            Frame::Error {
                code: ErrorCode::Overloaded,
                context,
                ..
            } if index.contains_key(&context) => {
                // The shard never saw the push: it counts once resent,
                // which it is not if the phase has stopped sending.
                let s = index[&context];
                record.shed_retries += 1;
                record.pushed[s] = record.replies[s].len();
                ready.push_back(s);
                continue;
            }
            Frame::Error {
                code,
                context,
                detail,
            } if index.contains_key(&context) => {
                record.note_error(code, context, &detail);
                (context, None)
            }
            other => return Err(format!("unexpected reply to a push: {other:?}")),
        };
        let s = *index
            .get(&session)
            .ok_or_else(|| format!("reply for unknown session {session}"))?;
        record.replies[s].push(reply);
        if record.replies[s].len() < rounds {
            ready.push_back(s);
        }
    }
    Ok(())
}

fn close_phase(
    record: &mut Record,
    reader: &mut FrameReader,
    writer: &Writer,
) -> Result<(), String> {
    let deadline = Instant::now() + CLOSE_DEADLINE;
    let mut pending: VecDeque<u64> = record.ids.iter().flatten().copied().collect();
    let index: HashMap<u64, usize> = record
        .ids
        .iter()
        .enumerate()
        .filter_map(|(s, id)| id.map(|id| (id, s)))
        .collect();
    let (mut answered, mut inflight) = (0, 0);
    while answered < index.len() {
        while inflight < WINDOW {
            let Some(session) = pending.pop_front() else {
                break;
            };
            writer.send(&Frame::Close { session })?;
            inflight += 1;
        }
        let Some(frame) = reader.next(deadline)? else {
            return Ok(());
        };
        inflight -= 1;
        match frame {
            Frame::CloseAck {
                session,
                rounds,
                digest,
            } if index.contains_key(&session) => {
                record.closes[index[&session]] = Some((rounds, digest));
                answered += 1;
            }
            Frame::Error {
                code: ErrorCode::Overloaded,
                context,
                ..
            } if index.contains_key(&context) => {
                pending.push_back(context);
                record.shed_retries += 1;
            }
            Frame::Error {
                code,
                context,
                detail,
            } => {
                record.note_error(code, context, &detail);
                answered += 1;
            }
            other => return Err(format!("unexpected reply to a close: {other:?}")),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The ops plane
// ---------------------------------------------------------------------

fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let sock = addr
        .parse()
        .map_err(|e| format!("ops address {addr:?}: {e}"))?;
    let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))
        .map_err(|e| format!("connect ops {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("ops read timeout: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: wsn-ops\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("GET {path}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("GET {path} reply: {e}"))?;
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        _ => Err(format!(
            "GET {path} failed: {}",
            raw.lines().next().unwrap_or("")
        )),
    }
}

fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

fn scrape(ops: &str) -> Result<Scrape, String> {
    let text = http_get(ops, "/metrics")?;
    Ok(Scrape {
        round_us_sum: prom_value(&text, "fttt_server_round_us_sum"),
        round_us_count: prom_value(&text, "fttt_server_round_us_count"),
        shed: prom_value(&text, "fttt_server_shed"),
    })
}

// ---------------------------------------------------------------------
// The shadow check
// ---------------------------------------------------------------------

/// What the shadow engine says each answered round must be.
#[derive(Debug, Clone)]
pub struct Expected {
    results: Vec<RoundResult>,
    /// Running replay digest after each round.
    digests: Vec<u64>,
}

/// The leading answered rounds of session `s`: the only ones whose
/// expected result is defined (a typed error or a missing reply leaves
/// the server's session state unknown).
fn answered(record: &Record, s: usize) -> usize {
    record.replies[s].iter().take_while(|r| r.is_some()).count()
}

fn shadow_session(config: &ServerConfig, map: &Arc<FaceMap>, extended: bool) -> TrackingSession {
    let tracker = Tracker::shared(Arc::clone(map), config.tracker_options(extended));
    TrackingSession::new(tracker, config.session_options())
}

/// Steps every session's answered rounds through a shadow engine on
/// [`THREADS`] threads.
pub fn shadow(
    config: &ServerConfig,
    map: &Arc<FaceMap>,
    inputs: &[SessionInput],
    record: &Record,
) -> Vec<Expected> {
    let ids: Vec<usize> = (0..inputs.len()).collect();
    par_map_threads(THREADS, &ids, |_, &s| {
        let mut session = shadow_session(config, map, inputs[s].extended);
        let mut digest = Digest::new();
        let mut expected = Expected {
            results: Vec::new(),
            digests: Vec::new(),
        };
        for r in &inputs[s].rounds[..answered(record, s)] {
            let round = session.step(r.t, &r.group);
            digest_round(&mut digest, &round);
            expected.results.push(RoundResult::from_round(&round));
            expected.digests.push(digest.value());
        }
        expected
    })
}

/// Bit-level equality: the contract is "the same f64 bit patterns".
fn bits_eq(a: &RoundResult, b: &RoundResult) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    a.round == b.round
        && a.t.to_bits() == b.t.to_bits()
        && a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.status_before == b.status_before
        && a.status == b.status
        && a.cause == b.cause
        && a.face == b.face
        && bits(a.similarity) == bits(b.similarity)
        && a.missing_fraction.to_bits() == b.missing_fraction.to_bits()
        && a.zero_fraction.to_bits() == b.zero_fraction.to_bits()
        && a.samples == b.samples
        && a.k_after == b.k_after
        && a.flags == b.flags
}

/// The verdict over every operation of a run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Opens, pushes and closes attempted.
    pub attempted: u64,
    /// Of which failed: a typed error, a missed deadline, or a result or
    /// digest that differs from the shadow.
    pub failed: u64,
    /// Paced rounds answered correctly within [`SLO_US`].
    slo_met: u64,
    paced_total: u64,
}

/// Checks every operation against the shadow's expectations.
pub fn verify(shape: &Shape, record: &Record, expected: &[Expected]) -> Verdict {
    let mut v = Verdict::default();
    for (s, exp) in expected.iter().enumerate() {
        // Every paced round was due; saturation rounds count once pushed.
        let rounds = record.pushed[s].max(shape.paced_rounds);
        v.attempted += 2 + rounds as u64;
        v.paced_total += shape.paced_rounds as u64;
        if record.ids[s].is_none() {
            v.failed += 2 + rounds as u64;
            continue;
        }
        let mut good = 0usize;
        for (r, reply) in record.replies[s].iter().enumerate().take(exp.results.len()) {
            let reply = reply.as_ref().expect("answered prefix");
            if bits_eq(&reply.result, &exp.results[r]) && reply.digest == exp.digests[r] {
                good += 1;
                if r < shape.paced_rounds && record.paced_us[s][r] <= SLO_US {
                    v.slo_met += 1;
                }
            } else {
                // Every later round of the session is unverifiable.
                break;
            }
        }
        v.failed += (rounds - good) as u64;
        let want = (
            exp.results.len() as u64,
            exp.digests.last().copied().unwrap_or(Digest::new().value()),
        );
        if record.closes[s] != Some(want) || good < exp.results.len() {
            v.failed += 1;
        }
    }
    v
}

// ---------------------------------------------------------------------
// A whole run
// ---------------------------------------------------------------------

/// Runs one serve workload; `Err` is an environment error.
pub fn run(
    name: &str,
    shape: &Shape,
    seed: u64,
    traced: bool,
    journal: &Path,
) -> Result<RunResult, String> {
    let exe = sibling()?;
    let inputs = generate(shape, seed);
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..shape.setup_starts {
        if let Some(old) = server.take() {
            ServerChild::shutdown(old);
        }
        let (child, s) = ServerChild::spawn(&exe, shape)?;
        setup.push(s);
        server = Some(child);
    }
    let server = server.expect("at least one start");
    let record = drive(&server.addr, &server.ops, shape, &inputs);
    let peak_rss_mb = server.peak_rss_mb();
    server.shutdown();
    let record = record?;
    // Latency is timed from the schedule, so a late sender is charged to
    // the pushes it delays. A sender whose median push leaves more than a
    // tenth of the inter-arrival gap late offered less than the intended
    // open loop; that happens only while the host stalls every thread,
    // the server's too, so the run stands and says so.
    let gap_us = shape.params().localization_period() * 1e6 / shape.sessions as f64;
    let late_p50 = stats::median(&record.late_us);
    if late_p50 > 0.1 * gap_us {
        eprintln!(
            "{name}: the paced sender ran {late_p50:.1} us late at the median, over a \
             tenth of the {gap_us:.0} us inter-arrival gap: the host stalled"
        );
    }
    if let Some(why) = &record.broken {
        eprintln!("{name}: connection broke: {why}");
    }
    for e in &record.errors {
        eprintln!("{name}: server error {e}");
    }

    let config = shape.server_config();
    let tracing = traced.then(Tracing::new);
    if let Some(t) = &tracing {
        t.on();
    }
    let params = config.params;
    let map = Arc::new(span(layers::BUILD, || {
        params.face_map(&params.grid_field())
    }));
    if let Some(t) = &tracing {
        t.off();
    }
    let expected = shadow(&config, &map, &inputs, &record);
    let verdict = verify(shape, &record, &expected);

    let mut values = BTreeMap::new();
    let paced: Vec<f64> = record
        .paced_us
        .iter()
        .flatten()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    // Latency is taken over windows of one paced round per session (the
    // median of each round's percentile), so a transient stall moves one
    // window, not the run. Throughput is the whole saturation phase's: the
    // host's speed drifts over seconds, and only the longest average holds
    // still against it.
    let windows: Vec<Vec<f64>> = (0..shape.paced_rounds)
        .map(|r| {
            let at = record.paced_us.iter().filter_map(|l| l.get(r).copied());
            at.filter(|v| v.is_finite()).collect()
        })
        .collect();
    let windowed = |q| {
        stats::median(
            &windows
                .iter()
                .map(|w| stats::percentile(w, q))
                .collect::<Vec<_>>(),
        )
    };
    let (saturated, saturation_s) = record.saturation;
    values.insert("setup_s".into(), stats::median(&setup));
    values.insert("rounds_per_s".into(), saturated as f64 / saturation_s);
    values.insert("latency_p50_us".into(), windowed(0.5));
    values.insert("latency_p90_us".into(), windowed(0.9));
    values.insert("latency_p99_us".into(), stats::percentile(&paced, 0.99));
    values.insert("latency_p999_us".into(), stats::percentile(&paced, 0.999));
    values.insert("latency_samples".into(), paced.len() as f64);
    values.insert("peak_rss_mb".into(), peak_rss_mb?);
    values.insert(
        "mean_error_m".into(),
        accuracy_error_m(shape, &config, &map),
    );
    values.insert(
        "slo_frac".into(),
        verdict.slo_met as f64 / verdict.paced_total as f64,
    );
    values.insert("loadgen.late_p50_us".into(), late_p50);
    values.insert(
        "loadgen.late_p99_us".into(),
        stats::percentile(&record.late_us, 0.99),
    );
    let [before, after_paced, after_sat] = record.scrapes;
    let pushes = (paced.len() as u64 + saturated).max(1);
    values.insert(
        "server.shed_frac".into(),
        (after_sat.shed - before.shed) / pushes as f64,
    );
    let mut traced_failures = 0;
    if let Some(t) = tracing {
        let round_us = (after_paced.round_us_sum - before.round_us_sum)
            / (after_paced.round_us_count - before.round_us_count);
        traced_failures = traced_pass(
            shape,
            seed,
            &config,
            &map,
            &inputs,
            &record,
            &expected,
            t,
            journal,
            &mut values,
        )?;
        let residual = stats::mean(&paced) - round_us;
        let codec: f64 = [
            "wire.push_encode_us",
            "wire.push_decode_us",
            "wire.reply_encode_us",
            "wire.reply_decode_us",
        ]
        .iter()
        .map(|k| values.get(*k).copied().unwrap_or(f64::NAN))
        .sum();
        values.insert("runner.round_us_mean".into(), round_us);
        values.insert("runner.residual_us_mean".into(), residual);
        values.insert("runner.unattributed_us".into(), residual - codec);
    }
    let attempted = verdict.attempted;
    let failed = verdict.failed + traced_failures;
    values.insert("failed_frac".into(), failed as f64 / attempted as f64);
    Ok(RunResult {
        workload: name.to_string(),
        seed,
        traced,
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}

/// The engine's mean tracking error over the accuracy set: the first
/// [`ACCURACY_ROUNDS`] rounds of [`ACCURACY_SESSIONS`] sessions of this
/// shape generated from [`report::ACCURACY_SEED`].
fn accuracy_error_m(shape: &Shape, config: &ServerConfig, map: &Arc<FaceMap>) -> f64 {
    let set = Shape {
        sessions: ACCURACY_SESSIONS,
        paced_rounds: ACCURACY_ROUNDS,
        saturation_s: 0.0,
        saturation_rounds: 0,
        ..shape.clone()
    };
    let inputs = generate(&set, report::ACCURACY_SEED);
    let sums = par_map_threads(THREADS, &inputs, |_, input| {
        let mut session = shadow_session(config, map, input.extended);
        input
            .rounds
            .iter()
            .zip(&input.truth)
            .map(|(r, truth)| session.step(r.t, &r.group).estimate.distance(*truth))
            .sum::<f64>()
    });
    sums.iter().sum::<f64>() / (ACCURACY_SESSIONS * ACCURACY_ROUNDS) as f64
}

/// The traced pass over every `traced_stride`-th session: regenerates its
/// inputs under spans (they must equal the pushed ones), steps it once
/// untraced and once traced with every stage re-run under its own span,
/// then probes the map: 100 indexed matches on a grid, a clone, and a
/// kill/revive of node 1 both incrementally and by rebuild. Returns the
/// number of traced rounds that disagreed with the shadow check.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    shape: &Shape,
    seed: u64,
    config: &ServerConfig,
    map: &Arc<FaceMap>,
    inputs: &[SessionInput],
    record: &Record,
    expected: &[Expected],
    tracing: Tracing,
    journal: &Path,
    values: &mut BTreeMap<String, f64>,
) -> Result<u64, String> {
    let params = config.params;
    let field = params.grid_field();
    let mut tally = Tally::default();
    let mut mismatches = 0u64;
    for s in (0..inputs.len()).step_by(shape.traced_stride) {
        let rounds = &inputs[s].rounds[..answered(record, s)];
        let mut plain = shadow_session(config, map, inputs[s].extended);
        for r in rounds {
            let started = Instant::now();
            std::hint::black_box(plain.step(r.t, &r.group));
            tally.plain_step_us += started.elapsed().as_secs_f64() * 1e6;
        }
        tracing.on();
        let regenerated = session_input(&params, &field, seed, s as u64, shape.rounds());
        mismatches += u64::from(regenerated != inputs[s]);
        let mut session = shadow_session(config, map, inputs[s].extended);
        let mut digest = Digest::new();
        let mut start = map.center_face();
        for (i, r) in rounds.iter().enumerate() {
            let _round = wsn_telemetry::span("bench.session.round");
            let round = span(layers::STEP, || session.step(r.t, &r.group));
            span(layers::DIGEST, || digest_round(&mut digest, &round));
            let codec_ok = tally.probe_round(map, &r.group, inputs[s].extended, &round, start);
            start = round.face.unwrap_or(start);
            mismatches += u64::from(
                !codec_ok
                    || !bits_eq(&RoundResult::from_round(&round), &expected[s].results[i])
                    || digest.value() != expected[s].digests[i],
            );
        }
        tracing.off();
    }
    tracing.on();
    tally.probe_grid(&params, &field, map, seed);
    tally.probe_churn(map);
    let spans: Spans = tracing.finish(journal)?;
    values.extend(tally.rows(&spans));
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_server::Server;

    /// 50 sessions × 3 rounds against an in-process server (a test
    /// fixture only: the benchmark itself always drives the `wsn-serve`
    /// binary). A clean run verifies; one corrupted shadow expectation
    /// must surface as a failed push and exit code 1.
    #[test]
    fn a_corrupted_expectation_fails_the_run() {
        let shape = Shape {
            nodes: 8,
            cell: 2.0,
            sessions: 50,
            paced_rounds: 1,
            saturation_s: 60.0,
            saturation_rounds: 2,
            traced_stride: 7,
            setup_starts: 1,
        };
        let config = shape.server_config();
        let mut server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
        let ops = server.serve_ops("127.0.0.1:0").unwrap();
        let inputs = generate(&shape, 42);
        let record = drive(
            &server.local_addr().to_string(),
            &ops.local_addr().to_string(),
            &shape,
            &inputs,
        )
        .unwrap();
        drop(ops);
        server.shutdown();
        assert!(record.broken.is_none(), "{:?}", record.broken);

        let params = config.params;
        let map = Arc::new(params.face_map(&params.grid_field()));
        let mut expected = shadow(&config, &map, &inputs, &record);
        let clean = verify(&shape, &record, &expected);
        assert_eq!(clean.attempted, 50 * 5);
        assert_eq!(clean.failed, 0, "{clean:?}");

        expected[0].results[1].x += 1.0;
        let corrupted = verify(&shape, &record, &expected);
        // A run with a failed operation is not correct, and exits 1.
        assert!(corrupted.failed > 0, "failed_frac must be above 0");
    }
}
