//! Tier-1 smoke for the tracking server: a small loopback load must be
//! bit-for-bit identical to the in-process engine — per-round results,
//! running digests and close-time digests — including blackout rounds.

use fttt::replay::{digest_round, Digest};
use fttt::session::TrackingSession;
use fttt::tracker::Tracker;
use fttt_bench::serve::{run_load, LoadConfig};
use std::sync::Arc;
use wsn_network::GroupSampling;
use wsn_server::{Connection, ReadingRound, RoundResult, Server, ServerConfig};
use wsn_signal::Rss;

/// The full harness over loopback: every session digest-checked against
/// the shadow engine, mixed basic/extended trackers.
#[test]
fn load_harness_is_bit_identical_to_the_engine() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::fast()).unwrap();
    let load = LoadConfig {
        sessions: 60,
        rounds: 3,
        conns: 3,
        window: 8,
        seed: 42,
        extended_every: 4,
        trace: false,
    };
    let report = run_load(
        &server.local_addr().to_string(),
        &ServerConfig::fast(),
        &load,
    )
    .unwrap();
    assert_eq!(report.digest_checked, 60);
    assert_eq!(report.digest_mismatches, 0, "close digests diverged");
    assert_eq!(report.result_mismatches, 0, "per-round results diverged");
    assert_eq!(report.rounds_total, 180);
}

/// Hand-driven session with a blackout round in the middle: the wire
/// results must equal `RoundResult::from_round` of the local engine,
/// field for field, and the final digests must agree.
#[test]
fn blackout_rounds_round_trip_bit_for_bit() {
    let config = ServerConfig::fast();
    let server = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let params = &config.params;
    let field = params.grid_field();
    let map = Arc::new(params.face_map(&field));
    let mut shadow = TrackingSession::new(
        Tracker::shared(Arc::clone(&map), config.tracker_options(false)),
        config.session_options(),
    );
    let mut digest = Digest::new();

    let group_at = |present: bool| {
        let mut g = GroupSampling::empty(8, 3);
        if present {
            for instant in 0..3 {
                for node in 0..8 {
                    let dbm = -42.0 - 1.5 * node as f64 - 0.25 * instant as f64;
                    g.set(instant, node, Some(Rss::new(dbm)));
                }
            }
        }
        g
    };

    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let info = conn.open_session(1, false).unwrap();
    // Round 1 is an all-missing blackout; the session must hold and both
    // sides must agree on the hold, bit for bit.
    for (round, present) in [(0.0, true), (1.0, false), (2.0, true)] {
        let group = group_at(present);
        let local = shadow.step(round, &group);
        digest_round(&mut digest, &local);
        let (results, running) = conn
            .push_rounds(info.session, vec![ReadingRound { t: round, group }])
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0], RoundResult::from_round(&local), "t = {round}");
        assert_eq!(running, digest.value(), "running digest at t = {round}");
    }
    let (rounds, final_digest) = conn.close_session(info.session).unwrap();
    assert_eq!(rounds, 3);
    assert_eq!(final_digest, digest.value());
}
