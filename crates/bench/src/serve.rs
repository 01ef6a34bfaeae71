//! The `serve_load` harness: drives tens of thousands of concurrent
//! tracking sessions against one `wsn-server` process and verifies every
//! one of them bit-for-bit against an in-process shadow engine.
//!
//! The workload is fully deterministic: session `i` seeds a ChaCha8
//! stream with [`seed_for`]`(seed, i)`, walks a random trace, and samples
//! the shared field along it — exactly once, up front. The same readings
//! are then (a) stepped through a local [`TrackingSession`] over the same
//! shared map to produce the *expected* per-round results and replay
//! digests, and (b) pushed over the wire. Any divergence between the two
//! is a correctness failure (`result_mismatches` / `digest_mismatches`),
//! not a performance number — [`crate::gate::check_serve`] refuses to
//! waive it regardless of baseline.
//!
//! Load shape: `conns` client connections each own `sessions / conns`
//! sessions and keep up to `window` pushes in flight (at most one per
//! session, so per-session ordering — which the digest depends on — is
//! preserved even when the server sheds a batch with `Overloaded` and the
//! harness retries it). All sessions are opened before the first round is
//! pushed and closed after the last, so the server really holds
//! `sessions` concurrent sessions for the whole measured window.

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
use wsn_telemetry::json;
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
    /// The committed-baseline shape: 10⁴ concurrent sessions.
    pub fn full() -> Self {
        LoadConfig {
            sessions: 10_000,
            rounds: 5,
            conns: 8,
            window: 64,
            seed: 42,
            extended_every: 4,
            trace: false,
        }
    }

    /// A sub-second shape for smoke tests.
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

/// What one load run measured and verified.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Sessions actually driven.
    pub sessions: usize,
    /// Rounds per session.
    pub rounds: usize,
    /// Client connections used.
    pub conns: usize,
    /// Session opens per second (wall clock over the open phase).
    pub open_per_sec: f64,
    /// Engine rounds per second (wall clock over the push phase).
    pub rounds_per_sec: f64,
    /// Median push round trip, µs (send → matching `Rounds` reply, under
    /// pipelined load — queue wait included).
    pub round_p50_us: f64,
    /// 99th-percentile push round trip, µs.
    pub round_p99_us: f64,
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
    &'a mut dyn FnMut(&mut Connection, &mut Vec<SessWork>, &mut ConnStats) -> Result<(), String>;

/// What one connection thread measured.
struct ConnStats {
    latencies_us: Vec<f64>,
    shed_retries: u64,
    result_mismatches: usize,
    digest_checked: usize,
    digest_mismatches: usize,
    rounds_total: u64,
}

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
    stats: &mut ConnStats,
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
    stats: &mut ConnStats,
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
                let rtt_us = sent_at.elapsed().as_secs_f64() * 1e6;
                stats.latencies_us.push(rtt_us);
                // The client half of cross-wire correlation: same trace id
                // the server stamped on its `fttt.server.push` event.
                if traced && wsn_telemetry::journal_enabled() {
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
    stats: &mut ConnStats,
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

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
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

    // Phase barriers: `conns` worker threads + this thread, which only
    // keeps wall time — so per-phase elapsed covers all connections.
    let barrier = Barrier::new(load.conns + 1);
    let mut open_elapsed = 0.0f64;
    let mut push_elapsed = 0.0f64;

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

    let conn_results: Vec<Result<ConnStats, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(load.conns);
        for c in 0..load.conns {
            let barrier = &barrier;
            let params = &params;
            let field = &field;
            let map = &map;
            handles.push(scope.spawn(move || -> Result<ConnStats, String> {
                // Deal sessions round-robin; generate workload + shadow
                // truth before any timing starts. A failure here (or in
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
                let mut stats = ConnStats {
                    latencies_us: Vec::new(),
                    shed_retries: 0,
                    result_mismatches: 0,
                    digest_checked: 0,
                    digest_mismatches: 0,
                    rounds_total: 0,
                };
                let mut phase = |f: PhaseFn| {
                    if failure.is_none() {
                        if let Some((work, conn)) = setup.as_mut() {
                            if let Err(e) = guarded(|| f(conn, work, &mut stats)) {
                                failure = Some(e);
                            }
                        }
                    }
                };
                barrier.wait(); // open starts
                phase(&mut |conn, work, stats| open_phase(conn, work, load.window, stats));
                barrier.wait(); // open ends
                barrier.wait(); // push starts
                phase(&mut |conn, work, stats| {
                    push_phase(conn, work, load.window, load.trace, stats)
                });
                barrier.wait(); // push ends
                phase(&mut |conn, work, stats| close_phase(conn, work, stats));
                match failure {
                    Some(e) => Err(e),
                    None => Ok(stats),
                }
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        open_elapsed = t0.elapsed().as_secs_f64();
        barrier.wait();
        let t1 = Instant::now();
        barrier.wait();
        push_elapsed = t1.elapsed().as_secs_f64();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });

    let mut latencies = Vec::new();
    let mut report = ServeReport {
        sessions: load.sessions,
        rounds: load.rounds,
        conns: load.conns,
        open_per_sec: 0.0,
        rounds_per_sec: 0.0,
        round_p50_us: 0.0,
        round_p99_us: 0.0,
        digest_checked: 0,
        digest_mismatches: 0,
        result_mismatches: 0,
        shed_retries: 0,
        rounds_total: 0,
    };
    for r in conn_results {
        let stats = r?;
        latencies.extend(stats.latencies_us);
        report.shed_retries += stats.shed_retries;
        report.result_mismatches += stats.result_mismatches;
        report.digest_checked += stats.digest_checked;
        report.digest_mismatches += stats.digest_mismatches;
        report.rounds_total += stats.rounds_total;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    report.round_p50_us = percentile(&latencies, 0.50);
    report.round_p99_us = percentile(&latencies, 0.99);
    report.open_per_sec = load.sessions as f64 / open_elapsed.max(1e-9);
    report.rounds_per_sec = report.rounds_total as f64 / push_elapsed.max(1e-9);
    Ok(report)
}

/// Renders a `BENCH_serve.json` document (the shape
/// [`crate::gate::check_serve`] consumes).
pub fn render_serve_json(server: &ServerConfig, load: &LoadConfig, report: &ServeReport) -> String {
    json::pretty(|o| {
        o.field("bench", "serve")
            .object("config", |c| {
                c.field("shards", server.shards)
                    .field("queue_depth", server.queue_depth)
                    .field("nodes", server.params.nodes)
                    .field("conns", report.conns)
                    .field("window", load.window)
                    .field("seed", load.seed)
                    .field("extended_every", load.extended_every);
            })
            .array("results", |a| {
                a.object(|r| {
                    r.field("sessions", report.sessions)
                        .field("rounds", report.rounds)
                        .field("open_per_sec", report.open_per_sec)
                        .field("rounds_per_sec", report.rounds_per_sec)
                        .field("round_p50_us", report.round_p50_us)
                        .field("round_p99_us", report.round_p99_us)
                        .field("digest_checked", report.digest_checked)
                        .field("digest_mismatches", report.digest_mismatches)
                        .field("result_mismatches", report.result_mismatches)
                        .field("shed_retries", report.shed_retries)
                        .field("rounds_total", report.rounds_total);
                });
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_telemetry::json::JsonValue;

    #[test]
    fn rendered_report_parses_and_self_gates() {
        let server = ServerConfig::fast();
        let load = LoadConfig::fast();
        let report = ServeReport {
            sessions: load.sessions,
            rounds: load.rounds,
            conns: load.conns,
            open_per_sec: 12_000.0,
            rounds_per_sec: 40_000.0,
            round_p50_us: 650.0,
            round_p99_us: 4_200.0,
            digest_checked: load.sessions,
            digest_mismatches: 0,
            result_mismatches: 0,
            shed_retries: 3,
            rounds_total: (load.sessions * load.rounds) as u64,
        };
        let doc = JsonValue::parse(&render_serve_json(&server, &load, &report)).unwrap();
        let violations = crate::gate::check_serve(&doc, &doc).unwrap();
        assert_eq!(violations, Vec::<String>::new());
    }

    #[test]
    fn percentiles_pick_order_statistics() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // Nearest-rank on the 0-indexed array: (99 × 0.5).round() = 50.
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
