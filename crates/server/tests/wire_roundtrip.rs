//! Property tests for the wire protocol: every frame type round-trips
//! bit-exactly, and adversarial byte streams (truncations, hostile length
//! prefixes, wrong versions, trailing garbage) decode to typed errors —
//! never panics.

use proptest::prelude::*;
use wsn_network::GroupSampling;
use wsn_server::wire::{flags, WireError};
use wsn_server::{read_frame, ErrorCode, Frame, ReadingRound, RecvError, RoundResult};
use wsn_signal::Rss;

fn arb_u64() -> impl Strategy<Value = u64> {
    (0u64..u64::MAX, 0u8..2).prop_map(|(v, hi)| if hi == 1 { u64::MAX - v % 7 } else { v })
}

/// Full-bit-pattern f64s: normals, subnormals, infinities and NaNs all
/// appear — the wire carries bit patterns, so all must survive.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    arb_u64().prop_map(f64::from_bits)
}

fn arb_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn arb_group() -> impl Strategy<Value = GroupSampling> {
    (1usize..6, 1usize..5, arb_u64()).prop_map(|(nodes, instants, mask)| {
        let mut g = GroupSampling::empty(nodes, instants);
        for instant in 0..instants {
            for node in 0..nodes {
                let i = instant * nodes + node;
                if mask >> (i % 64) & 1 == 1 {
                    // A deterministic, full-precision dBm value per cell.
                    let dbm = -30.0 - (i as f64) * 7.25 - (mask % 97) as f64 * 0.125;
                    g.set(instant, node, Some(Rss::new(dbm)));
                }
            }
        }
        g
    })
}

fn arb_round() -> impl Strategy<Value = ReadingRound> {
    (arb_f64_bits(), arb_group()).prop_map(|(t, group)| ReadingRound { t, group })
}

fn arb_result() -> impl Strategy<Value = RoundResult> {
    (
        (arb_u64(), arb_f64_bits(), arb_f64_bits(), arb_f64_bits()),
        (0u8..3, 0u8..3, 0u8..5, 0u8..64),
        (
            arb_u64(),
            prop_oneof![Just(None), arb_f64_bits().prop_map(Some)],
        ),
        (arb_f64_bits(), arb_f64_bits()),
        (0u32..u32::MAX, 0u32..u32::MAX),
    )
        .prop_map(
            |(
                (round, t, x, y),
                (status_before, status, cause, flag_bits),
                (face, similarity),
                (missing_fraction, zero_fraction),
                (samples, k_after),
            )| RoundResult {
                round,
                t,
                x,
                y,
                status_before,
                status,
                cause,
                face,
                similarity,
                missing_fraction,
                zero_fraction,
                samples,
                k_after,
                flags: flag_bits,
            },
        )
}

fn arb_detail() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (arb_u64(), arb_bool()).prop_map(|(client_tag, extended)| Frame::Open {
            client_tag,
            extended
        }),
        (arb_u64(), proptest::collection::vec(arb_round(), 0..4))
            .prop_map(|(session, rounds)| Frame::Push { session, rounds }),
        arb_u64().prop_map(|session| Frame::Close { session }),
        (0u32..u32::MAX, arb_bool()).prop_map(|(node, death)| Frame::Churn { node, death }),
        Just(Frame::Shutdown),
        (arb_u64(), arb_u64(), arb_u64(), arb_u64()).prop_map(
            |(client_tag, session, epoch, map_digest)| Frame::OpenAck {
                client_tag,
                session,
                epoch,
                map_digest
            }
        ),
        (
            arb_u64(),
            proptest::collection::vec(arb_result(), 0..4),
            arb_u64()
        )
            .prop_map(|(session, results, digest)| Frame::Rounds {
                session,
                results,
                digest
            }),
        (arb_u64(), arb_u64(), arb_u64()).prop_map(|(session, rounds, digest)| Frame::CloseAck {
            session,
            rounds,
            digest,
        }),
        (arb_u64(), arb_u64())
            .prop_map(|(epoch, map_digest)| Frame::ChurnAck { epoch, map_digest }),
        Just(Frame::ShutdownAck),
        (
            (0u16..u16::MAX).prop_map(ErrorCode::from_u16),
            arb_u64(),
            arb_detail()
        )
            .prop_map(|(code, context, detail)| Frame::Error {
                code,
                context,
                detail,
            }),
    ]
}

/// NaN-tolerant frame equality: the wire moves f64 bit patterns, so two
/// frames are equal when their encodings are — which `PartialEq` on `f64`
/// would deny for NaN payloads.
fn assert_wire_eq(a: &Frame, b: &Frame) {
    assert_eq!(a.encode(), b.encode(), "{a:?} vs {b:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity for every frame type, including
    /// non-finite floats (bit patterns travel, not values).
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = frame.encode();
        // Header invariant: the length prefix counts the payload exactly.
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, bytes.len() - 4);
        let decoded = Frame::decode(&bytes[4..]).expect("own encoding must decode");
        assert_wire_eq(&decoded, &frame);
    }

    /// Every truncation of a valid payload is a typed error, not a panic.
    #[test]
    fn truncations_never_panic(frame in arb_frame(), cut in 0usize..200) {
        let bytes = frame.encode();
        let payload = &bytes[4..];
        if cut < payload.len() {
            // A prefix may parse as a smaller valid frame only if it is
            // byte-identical under re-encoding; otherwise it must error.
            if let Ok(f) = Frame::decode(&payload[..cut]) {
                prop_assert_eq!(&f.encode()[4..], &payload[..cut]);
            }
        }
    }

    /// Arbitrary byte soup decodes to a typed error or to a frame that
    /// re-encodes to the same bytes — never a panic.
    #[test]
    fn random_bytes_never_panic(payload in proptest::collection::vec(0u8..=255, 0..300)) {
        if let Ok(f) = Frame::decode(&payload) {
            prop_assert_eq!(&f.encode()[4..], &payload[..]);
        }
    }

    /// The version byte is checked before anything else. Both accepted
    /// versions are excluded: v2 (traced) reinterprets the following
    /// bytes as kind + trace id, which is exercised by the wire unit
    /// tests instead.
    #[test]
    fn wrong_version_is_rejected(frame in arb_frame(), v in 0u8..=255) {
        prop_assume!(v != wsn_server::WIRE_VERSION && v != wsn_server::WIRE_VERSION_TRACED);
        let mut bytes = frame.encode();
        bytes[4] = v;
        prop_assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::BadVersion(v)));
    }

    /// Trailing garbage after a complete frame is malformed.
    #[test]
    fn trailing_bytes_are_rejected(frame in arb_frame(), extra in 1usize..8) {
        let mut bytes = frame.encode()[4..].to_vec();
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(Frame::decode(&bytes).is_err());
    }
}

#[test]
fn oversized_length_prefix_fails_before_allocating() {
    for claim in [u32::MAX, 1 << 30, (1 << 20) + 1] {
        let mut stream = Vec::new();
        stream.extend_from_slice(&claim.to_le_bytes());
        stream.extend_from_slice(&[1u8; 16]);
        let mut cursor = std::io::Cursor::new(stream);
        match read_frame(&mut cursor, 1 << 20) {
            Err(RecvError::Protocol(WireError::Oversize { len, max })) => {
                assert_eq!(len, claim);
                assert_eq!(max, 1 << 20);
            }
            other => panic!("claim {claim}: expected oversize, got {other:?}"),
        }
    }
}

#[test]
fn eof_between_frames_is_closed_mid_frame_is_truncated() {
    let bytes = Frame::Shutdown.encode();
    // Clean boundary → Closed.
    let mut empty = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(
        read_frame(&mut empty, 1024),
        Err(RecvError::Closed)
    ));
    // Inside the header or payload → Truncated.
    for cut in 1..bytes.len() {
        let mut cursor = std::io::Cursor::new(bytes[..cut].to_vec());
        assert!(
            matches!(
                read_frame(&mut cursor, 1024),
                Err(RecvError::Protocol(WireError::Truncated))
            ),
            "cut at {cut}"
        );
    }
}

#[test]
fn push_rejects_degenerate_grouping_dimensions() {
    // Hand-build a push whose grouping claims 0 × 5 cells: the decoder
    // must refuse rather than construct (GroupSampling::empty would
    // panic on zero dims — the decoder guards before it).
    let mut payload = vec![wsn_server::WIRE_VERSION, 0x02];
    payload.extend_from_slice(&7u64.to_le_bytes()); // session
    payload.extend_from_slice(&1u16.to_le_bytes()); // one round
    payload.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // t
    payload.extend_from_slice(&0u16.to_le_bytes()); // nodes = 0
    payload.extend_from_slice(&5u16.to_le_bytes()); // instants = 5
    assert_eq!(
        Frame::decode(&payload),
        Err(WireError::BadValue("empty grouping dimensions"))
    );
}

#[test]
fn round_result_survives_engine_round_trip() {
    // RoundResult ↔ SessionRound is lossless for every status/cause/flag
    // combination the engine can emit.
    use fttt::session::{Cause, RoundTrace, SessionRound, TrackStatus};
    use fttt::FaceId;
    use wsn_geometry::Point;
    for status in TrackStatus::ALL {
        for cause in Cause::ALL {
            for face in [None, Some(FaceId(0)), Some(FaceId(41))] {
                let round = SessionRound {
                    t: 12.5,
                    estimate: Point::new(3.25, -8.75),
                    status,
                    samples: 5,
                    face,
                    similarity: face.map(|_| 0.625),
                    missing_fraction: 0.25,
                    reacquired: cause == Cause::Stranded,
                    held: status == TrackStatus::Lost,
                    trace: RoundTrace {
                        round: 9,
                        status_before: status,
                        cause,
                        blackout: cause == Cause::Blackout,
                        stranded: cause == Cause::Stranded,
                        starved: cause == Cause::Starved,
                        teleported: cause == Cause::Teleported,
                        zero_fraction: 0.125,
                        k_after: 7,
                    },
                };
                let wire = RoundResult::from_round(&round);
                assert_eq!(wire.to_session_round().unwrap(), round);
                // Spot-check the flag encoding is the documented bits.
                assert_eq!(wire.flags & flags::HELD != 0, round.held);
                assert_eq!(wire.flags & flags::BLACKOUT != 0, round.trace.blackout);
            }
        }
    }
}
