//! Live-server tests over loopback TCP: backpressure sheds, churn adopted
//! by open sessions, protocol abuse, the no-leaked-slots contract, and the
//! per-connection I/O path (frames split and joined across reads, and
//! reply order across coalesced writes).

use fttt::replay::{digest_round, Digest};
use fttt::session::TrackingSession;
use fttt::tracker::Tracker;
use fttt::RepairMode;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use wsn_network::GroupSampling;
use wsn_server::{
    read_frame, ClientError, Connection, ErrorCode, Frame, ReadingRound, RecvError, RoundResult,
    Server, ServerConfig, SessionView, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use wsn_signal::Rss;

fn reading_round(t: f64, nodes: usize) -> ReadingRound {
    shifted_round(t, nodes, 0)
}

/// Like [`reading_round`], with the loudest node moved by `shift` so that
/// different sessions track different targets.
fn shifted_round(t: f64, nodes: usize, shift: usize) -> ReadingRound {
    let mut group = GroupSampling::empty(nodes, 3);
    for instant in 0..3 {
        for node in 0..nodes {
            let rank = (node + shift) % nodes;
            let dbm = -40.0 - 2.0 * rank as f64 - 0.5 * instant as f64;
            group.set(instant, node, Some(Rss::new(dbm)));
        }
    }
    ReadingRound { t, group }
}

fn wait_for_session_count(server: &Server, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.session_count() != want {
        assert!(
            Instant::now() < deadline,
            "session count stuck at {} (want {want})",
            server.session_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn open_push_close_round_trip() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let nodes = 8;
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(99, false).unwrap();
    assert_eq!(info.epoch, server.epoch());
    assert_eq!(info.map_digest, server.map_digest());
    assert_eq!(server.session_count(), 1);

    let (results, digest) = conn
        .push_rounds(
            info.session,
            vec![reading_round(0.0, nodes), reading_round(1.0, nodes)],
        )
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].round, 0);
    assert_eq!(results[1].round, 1);
    let (rounds, final_digest) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds, 2);
    assert_eq!(final_digest, digest);
    wait_for_session_count(&server, 0);

    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.counters["fttt.server.sessions_opened"], 1);
    assert_eq!(metrics.counters["fttt.server.rounds"], 2);
}

#[test]
fn unknown_session_is_a_typed_error() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    match conn.push_rounds(424242, vec![reading_round(0.0, 8)]) {
        Err(ClientError::Server { code, context, .. }) => {
            assert_eq!(code, ErrorCode::UnknownSession);
            assert_eq!(context, 424242);
        }
        other => panic!("expected UnknownSession, got {other:?}"),
    }
}

/// An in-process session configured as the server configures its own,
/// on a fresh copy of the server's initial map.
fn shadow_session(config: &ServerConfig, extended: bool, session: u64) -> TrackingSession {
    let field = config.params.grid_field();
    let map = Arc::new(config.params.face_map(&field));
    let tracker = Tracker::shared(map, config.tracker_options(extended));
    TrackingSession::new(tracker, config.session_options()).with_session_id(session)
}

/// Pushes three rounds from `t0` to every session and checks each reply's
/// results and running digest against the session's shadow.
fn push_and_compare(
    conn: &mut Connection,
    sessions: &mut [(u64, TrackingSession, Digest)],
    t0: f64,
) {
    let rounds: Vec<ReadingRound> = (0..3)
        .map(|k| shifted_round(t0 + 0.5 * k as f64, 8, k))
        .collect();
    for (session, shadow, digest) in sessions.iter_mut() {
        let (results, got) = conn.push_rounds(*session, rounds.clone()).unwrap();
        let want: Vec<RoundResult> = rounds
            .iter()
            .map(|r| {
                let round = shadow.step(r.t, &r.group);
                digest_round(digest, &round);
                RoundResult::from_round(&round)
            })
            .collect();
        assert_eq!(results, want, "session {session}");
        assert_eq!(got, digest.value(), "session {session}");
    }
}

/// Open sessions live through churn as in-process sessions do: after a
/// death and a birth, every reply equals that of a shadow session that
/// applied the same churn at the same boundary, and no session is lost.
#[test]
fn churn_is_adopted_by_open_sessions_as_in_process() {
    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let mut sessions: Vec<(u64, TrackingSession, Digest)> = [false, true]
        .into_iter()
        .enumerate()
        .map(|(tag, extended)| {
            let info = conn.open_session(tag as u64, extended).unwrap();
            let shadow = shadow_session(&config, extended, info.session);
            (info.session, shadow, Digest::new())
        })
        .collect();
    let mut epoch = server.epoch();
    push_and_compare(&mut conn, &mut sessions, 0.0);
    for (step, death) in [true, false].into_iter().enumerate() {
        let (new_epoch, map_digest) = conn.churn(3, death).unwrap();
        assert_eq!(new_epoch, epoch + 1);
        assert_eq!(server.map_digest(), map_digest);
        epoch = new_epoch;
        // The churn lands after the last round pushed so far.
        let last_t = 1.5 * step as f64 + 1.0;
        for (session, shadow, _) in sessions.iter_mut() {
            shadow.apply_churn(last_t, 3, death, RepairMode::Incremental);
            match server.query_session(*session) {
                Some(SessionView::Active(status)) => assert_eq!(status.epoch, epoch),
                other => panic!("session {session} after churn: {other:?}"),
            }
        }
        assert_eq!(server.session_count(), 2);
        push_and_compare(&mut conn, &mut sessions, last_t + 0.5);
    }

    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.counters["fttt.server.churn_repairs"], 2);
    assert_eq!(metrics.counters["fttt.server.churn_adopted"], 4);
    for (session, _, digest) in &sessions {
        let (rounds, got) = conn.close_session(*session).unwrap();
        assert_eq!(rounds, 9);
        assert_eq!(got, digest.value());
    }
    wait_for_session_count(&server, 0);
}

/// A churn's adopt jobs wait for room in full shard queues, while a
/// second connection keeps a window of pushes in flight into those same
/// queues: both acks arrive, every push is served or shed, and no
/// session is lost.
#[test]
fn churn_under_saturated_queues_cannot_deadlock() {
    const WINDOW: usize = 8;
    let mut config = ServerConfig::fast();
    config.shards = 2;
    config.queue_depth = 2;
    // Slow workers keep both queues full while the window is open.
    config.ingest_stall = Some(Duration::from_millis(2));
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut stream = raw_stream(&server);
    let sessions: Vec<u64> = (0..4).map(|tag| open_raw(&mut stream, tag)).collect();

    let churned = Arc::new(AtomicBool::new(false));
    let (acks_tx, acks) = mpsc::channel();
    let (filled_tx, filled) = mpsc::channel();
    let churner = {
        let addr = server.local_addr();
        let churned = Arc::clone(&churned);
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            // Churn only once the first window is in the queues.
            filled.recv().unwrap();
            for death in [true, false] {
                acks_tx.send(conn.churn(3, death)).unwrap();
            }
            churned.store(true, Ordering::SeqCst);
        })
    };

    let (mut sent, mut served, mut shed) = (0usize, 0usize, 0usize);
    let mut served_per_session: HashMap<u64, u64> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    // At least eight windows, however soon the churns are acknowledged.
    while (sent < 8 * WINDOW || !churned.load(Ordering::SeqCst)) && Instant::now() < deadline {
        let burst: Vec<u8> = (0..WINDOW)
            .flat_map(|i| {
                let session = sessions[(sent + i) % sessions.len()];
                push_bytes(session, &reading_round((sent + i) as f64, 8))
            })
            .collect();
        stream.write_all(&burst).unwrap();
        if sent == 0 {
            filled_tx.send(()).unwrap();
        }
        sent += WINDOW;
        for _ in 0..WINDOW {
            match recv(&mut stream) {
                Frame::Rounds { session, .. } => {
                    *served_per_session.entry(session).or_default() += 1;
                    served += 1;
                }
                Frame::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Overloaded);
                    shed += 1;
                }
                other => panic!("expected Rounds or Overloaded, got {other:?}"),
            }
        }
    }
    for death in [true, false] {
        let ack = acks
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("no ack for the churn (death: {death})"));
        assert!(ack.is_ok(), "{ack:?}");
    }
    churner.join().unwrap();
    assert_eq!(served + shed, sent);
    assert!(shed > 0, "the window never saturated the queues");
    assert_eq!(server.session_count(), sessions.len() as u64);
    for &session in &sessions {
        // The adopt jobs may still fill the queue: a shed close is retried.
        let rounds = loop {
            stream
                .write_all(&Frame::Close { session }.encode())
                .unwrap();
            match recv(&mut stream) {
                Frame::CloseAck { rounds, .. } => break rounds,
                Frame::Error {
                    code: ErrorCode::Overloaded,
                    ..
                } => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("expected CloseAck, got {other:?}"),
            }
        };
        assert_eq!(
            rounds,
            served_per_session.get(&session).copied().unwrap_or(0)
        );
    }
    // The closes queued behind both adopt jobs on every shard.
    assert_eq!(
        server.metrics_snapshot().counters["fttt.server.churn_adopted"],
        8
    );
}

#[test]
fn bad_churn_requests_are_refused_not_panics() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    // Out-of-range node.
    match conn.churn(10_000, true) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadChurn),
        other => panic!("expected BadChurn, got {other:?}"),
    }
    // Reviving a node that is already live.
    match conn.churn(0, false) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadChurn),
        other => panic!("expected BadChurn, got {other:?}"),
    }
    // The connection survives typed refusals.
    assert!(conn.open_session(1, false).is_ok());
}

#[test]
fn full_shard_queue_sheds_with_overloaded() {
    let mut config = ServerConfig::fast();
    config.shards = 1;
    config.queue_depth = 2;
    // The fault-injection stall makes the worker drain far slower than
    // the reader enqueues, so the bounded queue fills deterministically.
    config.ingest_stall = Some(Duration::from_millis(40));
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(7, false).unwrap();

    // Fire a burst of pushes without reading any replies.
    let burst = 12usize;
    for i in 0..burst {
        conn.send(&Frame::Push {
            session: info.session,
            rounds: vec![reading_round(i as f64, 8)],
        })
        .unwrap();
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for _ in 0..burst {
        match conn.recv().unwrap() {
            Frame::Rounds { session, .. } => {
                assert_eq!(session, info.session);
                served += 1;
            }
            Frame::Error { code, context, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert_eq!(context, info.session);
                shed += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(shed > 0, "a 12-deep burst into a 2-deep queue must shed");
    assert!(served > 0, "queued batches must still be served");
    // Shed batches never touched the session: rounds served == engine
    // rounds stepped.
    let (rounds, _) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds as usize, served);
    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.counters["fttt.server.shed"], shed as u64);
}

#[test]
fn malformed_frame_errors_close_the_conn_and_free_the_slot() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let _info = conn.open_session(5, false).unwrap();
    assert_eq!(server.session_count(), 1);

    // A garbage frame: valid length prefix, junk payload.
    conn.send(&Frame::Open {
        client_tag: 0,
        extended: false,
    })
    .ok();
    let _ = conn.recv(); // drain the second open's ack
    let mut raw = Vec::new();
    raw.extend_from_slice(&6u32.to_le_bytes());
    raw.extend_from_slice(&[9, 9, 9, 9, 9, 9]); // bad version byte

    // Reach the raw stream through a fresh connection to keep the typed
    // helper API clean.
    let mut bad = std::net::TcpStream::connect(server.local_addr()).unwrap();
    bad.write_all(&raw).unwrap();
    let mut bad_conn = Connection::connect(server.local_addr()).unwrap();
    drop(bad_conn.open_session(1, false)); // ensure server is responsive
    drop(bad);

    // The abusive connection owned no sessions; the polite one owns two.
    // Drop it and verify every slot is swept.
    drop(conn);
    drop(bad_conn);
    wait_for_session_count(&server, 0);
    let metrics = server.metrics_snapshot();
    assert!(metrics.counters["fttt.server.decode_errors"] >= 1);
    assert!(
        metrics
            .counters
            .get("fttt.server.sessions_dropped")
            .copied()
            .unwrap_or(0)
            >= 2
    );
}

#[test]
fn bad_version_answers_unsupported_version_then_closes() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    // Send a frame with a bogus version byte.
    let mut bytes = Frame::Shutdown.encode();
    bytes[4] = 77;
    conn.send(&Frame::Open {
        client_tag: 1,
        extended: false,
    })
    .unwrap();
    let _ = conn.recv().unwrap();
    // Raw write past the typed API.
    use std::io::Write as _;
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&bytes).unwrap();
    let mut raw_reader = raw.try_clone().unwrap();
    let reply = wsn_server::read_frame(&mut raw_reader, 1 << 20).unwrap();
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected version error, got {other:?}"),
    }
    // The server then closes that connection.
    match wsn_server::read_frame(&mut raw_reader, 1 << 20) {
        Err(wsn_server::RecvError::Closed) => {}
        other => panic!("expected close after framing violation, got {other:?}"),
    }
}

#[test]
fn session_limit_is_enforced_per_open() {
    let mut config = ServerConfig::fast();
    config.max_sessions = 3;
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let mut opened = Vec::new();
    for tag in 0..3 {
        opened.push(conn.open_session(tag, false).unwrap());
    }
    match conn.open_session(99, false) {
        Err(ClientError::Server { code, context, .. }) => {
            assert_eq!(code, ErrorCode::SessionLimit);
            assert_eq!(context, 99);
        }
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    // Closing one frees capacity.
    conn.close_session(opened[0].session).unwrap();
    assert!(conn.open_session(100, false).is_ok());
}

/// A reading sized for a different deployment must be rejected with
/// `Malformed` — not panic the shard worker. The session (and every
/// other session on the shard) must keep working afterwards, with the
/// digest unaffected by the rejected batch.
#[test]
fn wrong_dimension_reading_is_rejected_not_fatal() {
    let config = ServerConfig::fast(); // 8-node map
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(1, false).unwrap();

    match conn.push_rounds(info.session, vec![reading_round(0.0, 10)]) {
        Err(ClientError::Server {
            code,
            context,
            detail,
        }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(context, info.session);
            assert!(detail.contains("10 nodes"), "{detail}");
            assert!(detail.contains('8'), "{detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }

    // The shard survived and the rejected batch never touched the
    // session: a correct push works and counts from round 0.
    let (results, _) = conn
        .push_rounds(info.session, vec![reading_round(0.0, 8)])
        .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].round, 0);
    let (rounds, _) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds, 1);
}

/// The running digest after each of `rounds`, from an in-process session
/// configured as the server configures its own.
fn shadow_digests(config: &ServerConfig, rounds: &[ReadingRound]) -> Vec<u64> {
    let field = config.params.grid_field();
    let map = Arc::new(config.params.face_map(&field));
    let tracker = Tracker::shared(map, config.tracker_options(false));
    let mut session = TrackingSession::new(tracker, config.session_options());
    let mut digest = Digest::new();
    rounds
        .iter()
        .map(|r| {
            digest_round(&mut digest, &session.step(r.t, &r.group));
            digest.value()
        })
        .collect()
}

/// A bare socket to `server`, for writing bytes the typed client would
/// never split or join. The timeout turns a lost reply into a failure
/// rather than a hang.
fn raw_stream(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

fn recv(stream: &mut TcpStream) -> Frame {
    read_frame(stream, DEFAULT_MAX_FRAME).unwrap()
}

fn open_raw(stream: &mut TcpStream, client_tag: u64) -> u64 {
    stream
        .write_all(
            &Frame::Open {
                client_tag,
                extended: false,
            }
            .encode(),
        )
        .unwrap();
    match recv(stream) {
        Frame::OpenAck {
            client_tag: tag,
            session,
            ..
        } if tag == client_tag => session,
        other => panic!("expected OpenAck for tag {client_tag}, got {other:?}"),
    }
}

fn push_bytes(session: u64, round: &ReadingRound) -> Vec<u8> {
    Frame::Push {
        session,
        rounds: vec![round.clone()],
    }
    .encode()
}

/// A well-framed payload with a valid version and an unknown frame kind.
fn unknown_kind_frame() -> Vec<u8> {
    let mut bytes = 2u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[WIRE_VERSION, 0xEE]);
    bytes
}

/// The read half may hold many frames from one read: 64 pushes for 8
/// sessions, sent as one `write_all`, are each answered once, in each
/// session's order, with the shadow engine's running digest.
#[test]
fn pushes_joined_in_one_write_are_all_answered() {
    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut stream = raw_stream(&server);
    let sessions: Vec<u64> = (0..8).map(|tag| open_raw(&mut stream, tag)).collect();
    let rounds: Vec<Vec<ReadingRound>> = (0..8)
        .map(|j| (0..8).map(|k| shifted_round(k as f64, 8, j + k)).collect())
        .collect();
    let mut burst = Vec::new();
    for k in 0..8 {
        for (&session, own) in sessions.iter().zip(&rounds) {
            burst.extend(push_bytes(session, &own[k]));
        }
    }
    stream.write_all(&burst).unwrap();

    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); 8];
    for _ in 0..64 {
        match recv(&mut stream) {
            Frame::Rounds {
                session,
                results,
                digest,
            } => {
                let j = sessions.iter().position(|&s| s == session).unwrap();
                assert_eq!(results.len(), 1);
                assert_eq!(results[0].round, digests[j].len() as u64);
                digests[j].push(digest);
            }
            other => panic!("expected Rounds, got {other:?}"),
        }
    }
    for (j, got) in digests.iter().enumerate() {
        assert_eq!(*got, shadow_digests(&config, &rounds[j]), "session {j}");
    }
}

/// The read half may need many reads for one frame: a push sent a byte at
/// a time, each byte its own segment, decodes and is answered.
#[test]
fn a_frame_split_into_single_bytes_decodes() {
    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut stream = raw_stream(&server);
    let session = open_raw(&mut stream, 1);
    let round = shifted_round(0.0, 8, 3);
    for byte in push_bytes(session, &round) {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_micros(500));
    }
    match recv(&mut stream) {
        Frame::Rounds {
            session: s,
            results,
            digest,
        } => {
            assert_eq!(s, session);
            assert_eq!(results.len(), 1);
            assert_eq!(digest, shadow_digests(&config, &[round])[0]);
        }
        other => panic!("expected Rounds, got {other:?}"),
    }
}

/// Valid frames followed by a malformed one in the same segment: the
/// valid ones are served, then `Error{Malformed}`, then the server hangs
/// up — and keeps serving other connections.
#[test]
fn valid_frames_before_a_malformed_one_are_answered_first() {
    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();

    // Churn is answered on the reader thread itself, so its replies are
    // queued before the reader decodes the malformed frame: the order is
    // exact.
    let mut stream = raw_stream(&server);
    let mut segment = Frame::Churn {
        node: 3,
        death: true,
    }
    .encode();
    segment.extend(
        Frame::Churn {
            node: 3,
            death: false,
        }
        .encode(),
    );
    segment.extend(unknown_kind_frame());
    stream.write_all(&segment).unwrap();
    assert!(matches!(recv(&mut stream), Frame::ChurnAck { .. }));
    match recv(&mut stream) {
        Frame::ChurnAck { epoch, map_digest } => {
            assert_eq!(epoch, server.epoch());
            assert_eq!(map_digest, server.map_digest());
        }
        other => panic!("expected ChurnAck, got {other:?}"),
    }
    match recv(&mut stream) {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error, got {other:?}"),
    }
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(RecvError::Closed) => {}
        other => panic!("expected close after framing violation, got {other:?}"),
    }

    // Pushes are answered by a shard worker, which may still be stepping
    // when the reader reports the malformed frame, so only their order
    // among themselves is fixed. Every one is answered before the hangup.
    let mut stream = raw_stream(&server);
    let session = open_raw(&mut stream, 2);
    let rounds: Vec<ReadingRound> = (0..3).map(|k| shifted_round(k as f64, 8, k)).collect();
    let mut segment: Vec<u8> = rounds.iter().flat_map(|r| push_bytes(session, r)).collect();
    segment.extend(unknown_kind_frame());
    stream.write_all(&segment).unwrap();
    let mut digests = Vec::new();
    let mut errors = 0;
    loop {
        match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Frame::Rounds {
                session: s,
                results,
                digest,
            }) => {
                assert_eq!(s, session);
                assert_eq!(results[0].round, digests.len() as u64);
                digests.push(digest);
            }
            Ok(Frame::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::Malformed);
                errors += 1;
            }
            Err(RecvError::Closed) => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(errors, 1);
    assert_eq!(digests, shadow_digests(&config, &rounds));

    let mut conn = Connection::connect(server.local_addr()).unwrap();
    assert!(conn.open_session(3, false).is_ok());
}

/// A burst of replies far past the writer's 64 KiB coalescing cap keeps
/// the channel order: 4 000 pipelined opens each get exactly one intact
/// `OpenAck`, and then two pushes and a close per session, sent phase by
/// phase so that each session's replies are spread across the burst,
/// come back in each session's order.
#[test]
fn coalesced_replies_keep_order_past_the_write_cap() {
    const SESSIONS: u64 = 4_000;
    let mut config = ServerConfig::fast();
    config.queue_depth = 8_192;
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut stream = raw_stream(&server);

    // A second thread writes while this one reads, so neither side's
    // socket buffer has to hold a whole burst.
    let send = |bytes: Vec<u8>, stream: &TcpStream| {
        let mut writer = stream.try_clone().unwrap();
        std::thread::spawn(move || writer.write_all(&bytes).unwrap())
    };
    let opens: Vec<u8> = (0..SESSIONS)
        .flat_map(|tag| {
            Frame::Open {
                client_tag: tag,
                extended: false,
            }
            .encode()
        })
        .collect();
    let sender = send(opens, &stream);
    let mut session_of = HashMap::new();
    for _ in 0..SESSIONS {
        match recv(&mut stream) {
            Frame::OpenAck {
                client_tag,
                session,
                epoch,
                map_digest,
            } => {
                assert!(client_tag < SESSIONS);
                assert_eq!(epoch, server.epoch());
                assert_eq!(map_digest, server.map_digest());
                let dup = session_of.insert(client_tag, session);
                assert!(dup.is_none(), "tag {client_tag} acknowledged twice");
            }
            other => panic!("expected OpenAck, got {other:?}"),
        }
    }
    sender.join().unwrap();
    assert_eq!(server.session_count(), SESSIONS);

    let rounds = [reading_round(0.0, 8), reading_round(1.0, 8)];
    let expected = shadow_digests(&config, &rounds);
    let mut burst = Vec::new();
    for round in &rounds {
        for &session in session_of.values() {
            burst.extend(push_bytes(session, round));
        }
    }
    for &session in session_of.values() {
        burst.extend(Frame::Close { session }.encode());
    }
    let sender = send(burst, &stream);
    let mut replies: HashMap<u64, usize> = HashMap::new();
    for _ in 0..3 * SESSIONS {
        let (session, step) = match recv(&mut stream) {
            Frame::Rounds {
                session,
                results,
                digest,
            } => {
                let step = results[0].round as usize;
                assert_eq!(digest, expected[step]);
                (session, step)
            }
            Frame::CloseAck {
                session,
                rounds,
                digest,
            } => {
                assert_eq!(rounds, 2);
                assert_eq!(digest, expected[1]);
                (session, 2)
            }
            other => panic!("expected Rounds or CloseAck, got {other:?}"),
        };
        let seen = replies.entry(session).or_default();
        assert_eq!(*seen, step, "session {session} replied out of order");
        *seen += 1;
    }
    sender.join().unwrap();
    assert_eq!(replies.len() as u64, SESSIONS);
    assert!(replies.values().all(|&n| n == 3));
    wait_for_session_count(&server, 0);
}
