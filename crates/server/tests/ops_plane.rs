//! Failure-path tests for the live ops plane: a bind conflict must be a
//! named error that leaves the serve loop running, hostile HTTP must be
//! answered 400 and dropped without touching server state, session
//! inspection must distinguish active from unknown with the epoch in the
//! body, and a deliberately stalled shard must flip `/healthz` to
//! degraded, count a watchdog stall, and leave a flight dump behind.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wsn_network::GroupSampling;
use wsn_server::{Connection, OpsError, ReadingRound, Server, ServerConfig};
use wsn_signal::Rss;

/// One HTTP/1.1 GET against the ops plane; returns (status, whole body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(stream)
}

/// Sends raw bytes and reads whatever comes back (empty = dropped).
fn http_raw(addr: &str, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect ops");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.write_all(bytes);
    read_response(stream)
}

fn read_response(mut stream: TcpStream) -> (u16, String) {
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fttt-ops-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn one_round(t: f64) -> ReadingRound {
    let mut group = GroupSampling::empty(8, 3);
    for instant in 0..3 {
        for node in 0..8 {
            let dbm = -42.0 - 1.5 * node as f64 - 0.25 * instant as f64;
            group.set(instant, node, Some(Rss::new(dbm)));
        }
    }
    ReadingRound { t, group }
}

#[test]
fn ops_bind_conflict_is_named_and_the_serve_loop_lives() {
    let squatter = TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = squatter.local_addr().unwrap().to_string();
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let Err(err) = server.serve_ops(&taken) else {
        panic!("binding an occupied port must fail");
    };
    let OpsError::Bind { ref addr, .. } = err;
    assert_eq!(*addr, taken);
    let msg = err.to_string();
    assert!(msg.contains("cannot bind ops listener"), "{msg}");
    assert!(msg.contains(&taken), "{msg}");
    // The tracking serve loop is unaffected: a full session lifecycle
    // still works, and a second serve_ops on a free port succeeds.
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(7, false).unwrap();
    conn.push_rounds(info.session, vec![one_round(0.0)])
        .unwrap();
    let (rounds, _) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds, 1);
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let (status, _) = http_get(&ops.local_addr().to_string(), "/healthz");
    assert_eq!(status, 200);
}

#[test]
fn hostile_http_gets_400_and_the_server_is_unharmed() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let addr = ops.local_addr().to_string();

    // Binary garbage (not UTF-8).
    let (status, body) = http_raw(&addr, b"\x16\x03\x01\xff junk\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad request"), "{body}");
    // An oversized head: more than the 8 KiB cap with no terminator.
    let big = vec![b'A'; wsn_server::ops::MAX_REQUEST_BYTES + 1024];
    let (status, body) = http_raw(&addr, &big);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("exceeds"), "{body}");
    // Wrong method.
    let (status, body) = http_raw(&addr, b"POST /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("only GET"), "{body}");
    // Non-numeric session id and an unknown path.
    let (status, body) = http_get(&addr, "/sessions/abc");
    assert_eq!(status, 400, "{body}");
    let (status, body) = http_get(&addr, "/nope");
    assert_eq!(status, 404, "{body}");

    // None of that touched server state, and the plane still answers.
    assert_eq!(server.session_count(), 0);
    let (status, _) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(1, false).unwrap();
    let (rounds, _) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds, 0);
}

#[test]
fn session_endpoint_distinguishes_active_and_unknown() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let addr = ops.local_addr().to_string();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(3, false).unwrap();
    conn.push_rounds(info.session, vec![one_round(0.0)])
        .unwrap();

    // Active: status, rounds and the last estimate are reported.
    let (status, body) = http_get(&addr, &format!("/sessions/{}", info.session));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"active\""), "{body}");
    assert!(body.contains("\"rounds\":1"), "{body}");
    assert!(body.contains("\"last\":{"), "{body}");

    // Unknown id: 404 with the current epoch in the body.
    let (status, body) = http_get(&addr, "/sessions/999999");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"status\":\"unknown\""), "{body}");
    assert!(
        body.contains(&format!("\"current_epoch\":{}", server.epoch())),
        "{body}"
    );

    // Churn the map: the session adopts the repair and stays active,
    // now on the new epoch.
    let (epoch, _) = conn.churn(0, true).unwrap();
    assert!(epoch > info.epoch);
    let (status, body) = http_get(&addr, &format!("/sessions/{}", info.session));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"active\""), "{body}");
    assert!(body.contains(&format!("\"epoch\":{epoch}")), "{body}");
    assert!(body.contains("\"rounds\":1"), "{body}");
}

/// A worker pinned by `ingest_stall` longer than the watchdog threshold:
/// `/healthz` must flip to 503/degraded naming the stalled shard, the
/// stall counter must move, a flight dump must land in the configured
/// dir, and once the job finishes health must recover to 200.
#[test]
fn stalled_shard_degrades_healthz_and_dumps_flight_data() {
    let dir = scratch("stall");
    let mut config = ServerConfig::fast();
    config.shards = 2;
    config.ingest_stall = Some(Duration::from_millis(600));
    config.watchdog_interval = Duration::from_millis(25);
    config.watchdog_stall = Duration::from_millis(100);
    config.flight_dir = Some(dir.clone());
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let addr = ops.local_addr().to_string();

    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(1, false).unwrap();
    // Push from a helper thread: the reply only comes back after the
    // stalled worker wakes, and we need to poll /healthz meanwhile.
    let session = info.session;
    let pusher = std::thread::spawn(move || {
        conn.push_rounds(session, vec![one_round(0.0)]).unwrap();
        conn
    });

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_degraded = false;
    while Instant::now() < deadline {
        let (status, body) = http_get(&addr, "/healthz");
        if status == 503 {
            assert!(body.contains("\"status\":\"degraded\""), "{body}");
            assert!(body.contains("\"stalled\":true"), "{body}");
            saw_degraded = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_degraded, "watchdog never degraded /healthz");
    let stalls = server.metrics_snapshot().counters["fttt.server.watchdog.stalls"];
    assert!(stalls >= 1, "stall counter must move, got {stalls}");

    let mut conn = pusher.join().unwrap();
    let (rounds, _) = conn.close_session(session).unwrap();
    assert_eq!(rounds, 1);

    // The stall produced a bounded flight dump: journal + metrics pair.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut dumped = Vec::new();
    while Instant::now() < deadline {
        dumped = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        if dumped.iter().any(|n| n.ends_with(".metrics.json")) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        dumped.iter().any(|n| n.starts_with("flight-")
            && n.contains("-stall")
            && n.ends_with(".metrics.json")),
        "no flight metrics dump in {dumped:?}"
    );
    assert!(
        dumped.iter().any(|n| n.ends_with(".trace.jsonl")),
        "no flight trace dump in {dumped:?}"
    );
    assert!(
        !dumped.iter().any(|n| n.ends_with(".tmp")),
        "atomic write left a tmp file behind: {dumped:?}"
    );

    // The worker woke up and drained: health recovers on its own.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut recovered = false;
    while Instant::now() < deadline {
        if http_get(&addr, "/healthz").0 == 200 {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(recovered, "health never recovered after the stall cleared");
    drop(ops);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-stage histograms: every routed job observes its shard queue
/// wait at dequeue, and every coalesced write its duration and frame
/// count. After an open and N sequential pushes, each answered before the
/// next is sent, the queue wait has at least N + 1 observations, and all
/// three series are on `/metrics`.
#[test]
fn metrics_expose_queue_wait_and_write_stages() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let ops = server.serve_ops("127.0.0.1:0").unwrap();
    let addr = ops.local_addr().to_string();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(11, false).unwrap();
    let pushes = 20u64;
    for i in 0..pushes {
        conn.push_rounds(info.session, vec![one_round(i as f64)])
            .unwrap();
    }

    let (status, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200, "{body}");
    let count_of = |family: &str| -> u64 {
        let prefix = format!("{family}_count ");
        body.lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no {family}_count in the scrape:\n{body}"))
            .trim()
            .parse()
            .unwrap()
    };
    let queue_wait = count_of("fttt_server_stage_queue_wait_us");
    assert!(
        queue_wait > pushes,
        "queue wait observed {queue_wait} jobs, want at least {} (open + pushes)",
        pushes + 1
    );
    count_of("fttt_server_stage_write_us");
    count_of("fttt_server_write_frames");
    // Request/response traffic queues one reply at a time, so each reply
    // is its own write; only the last may not be observed yet when its
    // bytes reach the client.
    let writes = server.metrics_snapshot().histograms["fttt.server.stage.write_us"].count;
    assert!(
        writes >= pushes,
        "{writes} writes timed for {} replies",
        pushes + 1
    );
}
