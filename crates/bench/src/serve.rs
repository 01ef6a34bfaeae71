//! The shadow-checked load client: drives concurrent tracking sessions
//! against one `wsn-server` process and verifies every one of them
//! bit-for-bit against an in-process shadow engine. `serve_smoke` and
//! `ops_smoke` run it against an in-process server, and the `serve_load`
//! bin against a running `wsn-serve`; throughput and latency are measured
//! by the benchmark package (`crates/bench/src/bin/benchmark`), not here.
//!
//! The workload is fully deterministic: session `i` seeds a ChaCha8
//! stream with [`seed_for`]`(seed, i)`, walks a random trace, and samples
//! the shared field along it — exactly once, up front. The same readings
//! are then (a) stepped through a local [`TrackingSession`] over the same
//! shared map to produce the *expected* per-round results and replay
//! digests, and (b) pushed over the wire. Any divergence between the two
//! is a correctness failure (`result_mismatches` / `digest_mismatches`).
//!
//! Load shape: `conns` client connections each own `sessions / conns`
//! sessions and keep up to `window` pushes in flight (at most one per
//! session, so per-session ordering — which the digest depends on — is
//! preserved even when the server sheds a batch with `Overloaded` and the
//! harness retries it). All sessions are opened before the first round is
//! pushed and closed after the last, so the server really holds
//! `sessions` concurrent sessions while the rounds are served.

use fttt::replay::{digest_round, Digest};
use fttt::session::TrackingSession;
use fttt::tracker::Tracker;
use fttt::{FaceMap, PaperParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wsn_network::replay::digest_hex;
use wsn_parallel::seed_for;
use wsn_server::{Connection, ErrorCode, Frame, ReadingRound, RoundResult, ServerConfig};
use wsn_telemetry::ArgValue;

/// Load-generator shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent sessions to open (all at once).
    pub sessions: usize,
    /// Rounds pushed per session, one per frame.
    pub rounds: usize,
    /// Client connections; sessions are dealt round-robin across them.
    pub conns: usize,
    /// Max in-flight pushes per connection (pipelining depth).
    pub window: usize,
    /// Master seed for the deterministic workload.
    pub seed: u64,
    /// Every `k`-th session runs the extended sampling-vector tracker
    /// (`0` = none), mirroring the campaign's basic/extended split.
    pub extended_every: usize,
    /// Send pushes as traced v2 wire frames ([`push_trace_id`]) and emit
    /// one `fttt.client.push` journal event per acked push, so a client
    /// trace can be joined against the server's journal by trace id.
    /// `false` keeps every frame bit-identical to the v1 encoding.
    pub trace: bool,
}

impl LoadConfig {
    /// A sub-second shape: 200 sessions × 3 rounds over 4 connections.
    pub fn fast() -> Self {
        LoadConfig {
            sessions: 200,
            rounds: 3,
            conns: 4,
            window: 16,
            seed: 42,
            extended_every: 4,
            trace: false,
        }
    }
}

/// The deterministic trace id a traced load run stamps on the push of
/// round `round` for workload session `global`: `(global+1) << 20 |
/// (round+1)`. Never zero (zero means "untraced v1"), unique per
/// (session, round), and *stable across shed retries* — a retried push
/// reuses the id, so the server-side shed and the eventual serve share
/// one correlation key.
pub fn push_trace_id(global: u64, round: usize) -> u64 {
    ((global + 1) << 20) | (round as u64 + 1)
}

/// What one load run (or one of its connections) verified.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Sessions whose close-time replay digest was compared.
    pub digest_checked: usize,
    /// Sessions whose server digest diverged from the shadow engine.
    pub digest_mismatches: usize,
    /// Individual rounds whose wire result diverged from the shadow.
    pub result_mismatches: usize,
    /// Pushes the server shed with `Overloaded` and the harness retried.
    pub shed_retries: u64,
    /// Total rounds served (retries excluded).
    pub rounds_total: u64,
}

/// Bit-level equality for wire results: the shadow contract is "the same
/// f64 bit patterns", which `==` on floats would weaken (NaN, -0.0).
fn bits_eq(a: &RoundResult, b: &RoundResult) -> bool {
    let opt_bits = |v: Option<f64>| v.map(f64::to_bits);
    a.round == b.round
        && a.t.to_bits() == b.t.to_bits()
        && a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.status_before == b.status_before
        && a.status == b.status
        && a.cause == b.cause
        && a.face == b.face
        && opt_bits(a.similarity) == opt_bits(b.similarity)
        && a.missing_fraction.to_bits() == b.missing_fraction.to_bits()
        && a.zero_fraction.to_bits() == b.zero_fraction.to_bits()
        && a.samples == b.samples
        && a.k_after == b.k_after
        && a.flags == b.flags
}

/// One session's deterministic workload plus its shadow-engine truth.
struct SessWork {
    global: u64,
    extended: bool,
    rounds: Vec<ReadingRound>,
    /// Expected wire result per round, from the shadow session.
    expected: Vec<RoundResult>,
    /// Expected running replay digest *after* each round.
    digest_after: Vec<u64>,
    server_session: u64,
    next_round: usize,
}

/// Generates session `global`'s readings and steps them through a shadow
/// engine over the same shared map the server serves from.
fn build_work(
    params: &PaperParams,
    field: &wsn_network::SensorField,
    map: &Arc<FaceMap>,
    server: &ServerConfig,
    load: &LoadConfig,
    global: u64,
) -> SessWork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed_for(load.seed, global));
    let duration = load.rounds as f64 * params.localization_period();
    let trace = params.random_trace(duration, &mut rng);
    let sampler = params.sampler();
    let points = trace.points();
    assert!(
        points.len() >= load.rounds,
        "trace too short: {} points for {} rounds",
        points.len(),
        load.rounds
    );
    let rounds: Vec<ReadingRound> = points[..load.rounds]
        .iter()
        .map(|p| ReadingRound {
            t: p.t,
            group: sampler.sample(field, p.pos, &mut rng),
        })
        .collect();

    let extended = load.extended_every > 0 && global.is_multiple_of(load.extended_every as u64);
    let tracker = Tracker::shared(Arc::clone(map), server.tracker_options(extended));
    let mut shadow = TrackingSession::new(tracker, server.session_options());
    let mut digest = Digest::new();
    let mut expected = Vec::with_capacity(load.rounds);
    let mut digest_after = Vec::with_capacity(load.rounds);
    for r in &rounds {
        let round = shadow.step(r.t, &r.group);
        digest_round(&mut digest, &round);
        expected.push(RoundResult::from_round(&round));
        digest_after.push(digest.value());
    }
    SessWork {
        global,
        extended,
        rounds,
        expected,
        digest_after,
        server_session: 0,
        next_round: 0,
    }
}

/// One load phase as seen by a connection thread: drive the connection
/// over its sessions, accumulating into the thread's stats.
type PhaseFn<'a> =
    &'a mut dyn FnMut(&mut Connection, &mut Vec<SessWork>, &mut ServeReport) -> Result<(), String>;

fn conn_server_err(code: ErrorCode, context: u64, detail: &str) -> String {
    format!("server error {code:?} (context {context}): {detail}")
}

/// Opens this connection's sessions, pipelined `window` deep.
/// `Overloaded` sheds carry the client tag back, so a shed open is
/// simply re-sent; a burst of opens against full shard queues must
/// degrade into retries, never into a dead connection.
fn open_phase(
    conn: &mut Connection,
    work: &mut [SessWork],
    window: usize,
    stats: &mut ServeReport,
) -> Result<(), String> {
    let mut pending: VecDeque<usize> = (0..work.len()).collect();
    let mut acked = 0usize;
    let mut inflight = 0usize;
    let mut by_tag: HashMap<u64, usize> = work
        .iter()
        .enumerate()
        .map(|(i, w)| (w.global, i))
        .collect();
    while acked < work.len() {
        while inflight < window {
            let Some(i) = pending.pop_front() else { break };
            let w = &work[i];
            conn.send(&Frame::Open {
                client_tag: w.global,
                extended: w.extended,
            })
            .map_err(|e| e.to_string())?;
            inflight += 1;
        }
        match conn.recv().map_err(|e| e.to_string())? {
            Frame::OpenAck {
                client_tag,
                session,
                ..
            } => {
                let idx = by_tag
                    .remove(&client_tag)
                    .ok_or_else(|| format!("open ack for unknown tag {client_tag}"))?;
                work[idx].server_session = session;
                acked += 1;
                inflight -= 1;
            }
            Frame::Error {
                code: ErrorCode::Overloaded,
                context,
                ..
            } if by_tag.contains_key(&context) => {
                // Shed before the shard saw it; requeue the same open.
                pending.push_back(by_tag[&context]);
                stats.shed_retries += 1;
                inflight -= 1;
            }
            Frame::Error {
                code,
                context,
                detail,
            } => return Err(conn_server_err(code, context, &detail)),
            other => return Err(format!("unexpected open reply {other:?}")),
        }
    }
    Ok(())
}

/// Pushes every round of every owned session, one round per frame, with
/// at most one in-flight push per session and `window` per connection.
/// `Overloaded` sheds are retried (the shed batch never touched the
/// session, so the round sequence — and the digest — stay intact).
fn push_phase(
    conn: &mut Connection,
    work: &mut [SessWork],
    window: usize,
    traced: bool,
    stats: &mut ServeReport,
) -> Result<(), String> {
    let total_rounds: usize = work.iter().map(|w| w.rounds.len()).sum();
    let mut ready: VecDeque<usize> = (0..work.len()).collect();
    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut done_rounds = 0usize;
    while done_rounds < total_rounds {
        while inflight.len() < window {
            let Some(i) = ready.pop_front() else { break };
            let w = &work[i];
            let trace = if traced {
                push_trace_id(w.global, w.next_round)
            } else {
                0
            };
            conn.send_traced(
                &Frame::Push {
                    session: w.server_session,
                    rounds: vec![w.rounds[w.next_round].clone()],
                },
                trace,
            )
            .map_err(|e| e.to_string())?;
            inflight.insert(w.server_session, (i, Instant::now()));
        }
        let (frame, trace) = conn.recv_traced().map_err(|e| e.to_string())?;
        match frame {
            Frame::Rounds {
                session,
                results,
                digest,
            } => {
                let (i, sent_at) = inflight
                    .remove(&session)
                    .ok_or_else(|| format!("rounds reply for idle session {session}"))?;
                // The client half of cross-wire correlation: same trace id
                // the server stamped on its `fttt.server.push` event.
                if traced && wsn_telemetry::journal_enabled() {
                    let rtt_us = sent_at.elapsed().as_secs_f64() * 1e6;
                    wsn_telemetry::trace_instant(
                        "fttt.client.push",
                        vec![
                            ("trace", ArgValue::Str(digest_hex(trace))),
                            ("session", ArgValue::U64(session)),
                            ("rounds", ArgValue::U64(results.len() as u64)),
                            ("rtt_us", ArgValue::F64(rtt_us)),
                        ],
                    );
                }
                let w = &mut work[i];
                for r in &results {
                    if !bits_eq(r, &w.expected[w.next_round]) {
                        stats.result_mismatches += 1;
                    }
                    w.next_round += 1;
                    done_rounds += 1;
                    stats.rounds_total += 1;
                }
                if digest != w.digest_after[w.next_round - 1] {
                    stats.result_mismatches += 1;
                }
                if w.next_round < w.rounds.len() {
                    ready.push_back(i);
                }
            }
            Frame::Error {
                code: ErrorCode::Overloaded,
                context,
                ..
            } => {
                let (i, _) = inflight
                    .remove(&context)
                    .ok_or_else(|| format!("shed reply for idle session {context}"))?;
                stats.shed_retries += 1;
                ready.push_back(i);
            }
            Frame::Error {
                code,
                context,
                detail,
            } => return Err(conn_server_err(code, context, &detail)),
            other => return Err(format!("unexpected push reply {other:?}")),
        }
    }
    Ok(())
}

/// Closes every owned session and checks the final replay digest.
fn close_phase(
    conn: &mut Connection,
    work: &[SessWork],
    stats: &mut ServeReport,
) -> Result<(), String> {
    for w in work {
        let (rounds, digest) = conn
            .close_session(w.server_session)
            .map_err(|e| e.to_string())?;
        stats.digest_checked += 1;
        let want = *w
            .digest_after
            .last()
            .expect("at least one round per session");
        if rounds != w.rounds.len() as u64 || digest != want {
            stats.digest_mismatches += 1;
        }
    }
    Ok(())
}

/// Runs the full open → push → close load against a live server at
/// `addr`, which must be serving `server`'s exact configuration (the
/// shadow engine rebuilds the map from `server.params` and the digests
/// will disagree otherwise — by design).
pub fn run_load(
    addr: &str,
    server: &ServerConfig,
    load: &LoadConfig,
) -> Result<ServeReport, String> {
    assert!(load.sessions > 0 && load.rounds > 0 && load.conns > 0 && load.window > 0);
    let params = server.params;
    let field = params.grid_field();
    let map = Arc::new(params.face_map(&field));

    // Phase barriers between the `conns` worker threads: every session
    // is open before the first push and every push is answered before
    // the first close.
    let barrier = Barrier::new(load.conns);

    // Converts a phase panic into an error so the thread still reaches
    // its remaining barriers — a worker that vanished mid-ladder would
    // deadlock every other party on the next `wait()`.
    fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(p) => Err(p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "connection thread panicked".into())),
        }
    }

    let conn_results: Vec<Result<ServeReport, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(load.conns);
        for c in 0..load.conns {
            let barrier = &barrier;
            let params = &params;
            let field = &field;
            let map = &map;
            handles.push(scope.spawn(move || -> Result<ServeReport, String> {
                // Deal sessions round-robin; generate workload + shadow
                // truth before the first open. A failure here (or in
                // any phase) is *recorded*, not returned, so the thread
                // still shows up at every barrier.
                let mut failure: Option<String> = None;
                let mut setup = match guarded(|| {
                    let work: Vec<SessWork> = (c..load.sessions)
                        .step_by(load.conns)
                        .map(|g| build_work(params, field, map, server, load, g as u64))
                        .collect();
                    let conn = Connection::connect(addr).map_err(|e| e.to_string())?;
                    Ok((work, conn))
                }) {
                    Ok(pair) => Some(pair),
                    Err(e) => {
                        failure = Some(e);
                        None
                    }
                };
                let mut stats = ServeReport::default();
                let mut phase = |f: PhaseFn| {
                    if failure.is_none() {
                        if let Some((work, conn)) = setup.as_mut() {
                            if let Err(e) = guarded(|| f(conn, work, &mut stats)) {
                                failure = Some(e);
                            }
                        }
                    }
                };
                phase(&mut |conn, work, stats| open_phase(conn, work, load.window, stats));
                barrier.wait(); // every session open
                phase(&mut |conn, work, stats| {
                    push_phase(conn, work, load.window, load.trace, stats)
                });
                barrier.wait(); // every push answered
                phase(&mut |conn, work, stats| close_phase(conn, work, stats));
                match failure {
                    Some(e) => Err(e),
                    None => Ok(stats),
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });

    let mut report = ServeReport::default();
    for r in conn_results {
        let stats = r?;
        report.shed_retries += stats.shed_retries;
        report.result_mismatches += stats.result_mismatches;
        report.digest_checked += stats.digest_checked;
        report.digest_mismatches += stats.digest_mismatches;
        report.rounds_total += stats.rounds_total;
    }
    Ok(report)
}
