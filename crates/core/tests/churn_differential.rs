//! Differential suite for incremental face-map repair: after *any* random
//! sequence of death/birth events, the incrementally repaired map must be
//! bit-identical — faces, signature planes, chunk envelopes, neighbor
//! links, cell table, and replay digest — to (a) the same sequence run
//! through [`RepairMode::Rebuild`], and (b) a from-scratch
//! [`FaceMap::build`] over the surviving node set (modulo the epoch and
//! churn provenance, which a fresh build cannot know).

use fttt::facemap::{FaceMap, RepairMode};
use fttt::replay::digest_face_map;
use proptest::prelude::*;
use wsn_geometry::{Point, Rect};

const FIELD_SIDE: f64 = 50.0;
const C: f64 = 1.15;
const CELL: f64 = 5.0;

fn arb_positions() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (2.0..48.0f64, 2.0..48.0f64).prop_map(|(x, y)| Point::new(x, y)),
        5..9,
    )
}

/// Turns raw node picks into a valid kill/revive schedule: a pick of a
/// live node kills it (skipped when only three sensors remain), a pick of
/// a dead node revives it. Returns `(node, death)` events.
fn schedule(n: usize, picks: &[usize]) -> Vec<(usize, bool)> {
    let mut live = vec![true; n];
    let mut alive = n;
    let mut events = Vec::new();
    for &p in picks {
        let node = p % n;
        if live[node] {
            if alive <= 3 {
                continue;
            }
            live[node] = false;
            alive -= 1;
            events.push((node, true));
        } else {
            live[node] = true;
            alive += 1;
            events.push((node, false));
        }
    }
    events
}

/// Everything a fresh build can be compared on: division content plus the
/// live-set bookkeeping (but not epoch/provenance history).
fn assert_content_identical(repaired: &FaceMap, fresh: &FaceMap) {
    assert_eq!(repaired.faces(), fresh.faces(), "face lists differ");
    assert_eq!(
        repaired.planes(),
        fresh.planes(),
        "signature planes / chunk envelopes differ"
    );
    assert_eq!(repaired.positions(), fresh.positions(), "positions differ");
    assert_eq!(
        repaired.pair_dimension(),
        fresh.pair_dimension(),
        "pair dimensions differ"
    );
    for (idx, p) in repaired.grid().iter_centers() {
        assert_eq!(
            repaired.face_at(p),
            fresh.face_at(p),
            "cell {:?} maps to different faces",
            idx
        );
    }
    for f in repaired.faces() {
        assert_eq!(
            repaired.neighbors(f.id),
            fresh.neighbors(f.id),
            "neighbor links of {} differ",
            f.id
        );
    }
    // Memory accounting must stay exact across repairs: the repaired map
    // differs from the fresh build only by its topology bookkeeping
    // (deployment roster, live list, pair-gather table — empty when the
    // live set is the whole deployment).
    let topology = |map: &FaceMap| {
        let gather = if map.positions().len() == map.deployment().len() {
            0
        } else {
            wsn_network::pair_count(map.positions().len())
        };
        std::mem::size_of_val(map.deployment())
            + (map.live_nodes().len() + gather) * std::mem::size_of::<u32>()
    };
    assert_eq!(
        repaired.memory_bytes() - topology(repaired),
        fresh.memory_bytes() - topology(fresh),
        "memory accounting drifted from the fresh-build equivalent"
    );
}

/// Tier-1 churn smoke test: a session tracking through a death storm
/// (three sensors die back-to-back, then return) must degrade gracefully
/// and recover to `Tracking`, with its map's epoch counting every repair.
#[test]
fn sessions_recover_to_tracking_after_a_death_storm() {
    use fttt::session::{SessionOptions, TrackStatus, TrackingSession};
    use fttt::tracker::{Tracker, TrackerOptions};
    use rand::SeedableRng;
    use wsn_mobility::WaypointPath;
    use wsn_network::{Deployment, GroupSampler, SensorField};
    use wsn_signal::PathLossModel;

    let field = Rect::square(100.0);
    let deployment = Deployment::grid(9, field);
    let sensor_field = SensorField::new(deployment, 150.0);
    let model = PathLossModel::new(-40.0, 0.0, 4.0, 4.0);
    let c = model.uncertainty_constant(1.0);
    let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 2.0);
    let sampler = GroupSampler::new(model, 5);
    let mut session = TrackingSession::new(
        Tracker::new(map, TrackerOptions::heuristic()),
        SessionOptions::new(5),
    );
    let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
        .walk_constant(3.0, 1.0);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);

    // Deaths at t = 5, 6, 7; births back at t = 12, 13, 14.
    let mut events = vec![
        (5.0, 1usize, true),
        (6.0, 3, true),
        (7.0, 5, true),
        (12.0, 1, false),
        (13.0, 3, false),
        (14.0, 5, false),
    ];
    let run = session.run_with(
        &trace,
        &mut rng,
        |k, pos, _, r| {
            let sampler = GroupSampler {
                samples: k,
                ..sampler.clone()
            };
            sampler.sample(&sensor_field, pos, r)
        },
        |s, t| {
            while let Some(&(et, node, death)) = events.first() {
                if et > t {
                    break;
                }
                let report = s.apply_churn(t, node, death, RepairMode::Incremental);
                assert_eq!(report.node, node);
                assert_eq!(report.death, death);
                events.remove(0);
            }
        },
    );

    assert!(events.is_empty(), "every churn event must have applied");
    assert!(
        run.rounds.last().unwrap().status == TrackStatus::Tracking,
        "session must recover to Tracking after the storm, ended {:?}",
        run.rounds.last().unwrap().status
    );
    assert!(
        run.error_stats().mean.is_finite() && run.error_stats().mean < 30.0,
        "tracking error must stay sane through churn, mean {}",
        run.error_stats().mean
    );
    // Rounds during the storm matched against the 6-survivor map.
    assert!(run.rounds.iter().all(|r| r.estimate.x.is_finite()));
}

/// A session that adopts maps repaired once and shared
/// ([`TrackingSession::adopt_repair`]) must walk exactly the trajectory
/// of one that repairs its own map per event
/// ([`TrackingSession::apply_churn`]): same rounds, same run digest.
#[test]
fn adopting_a_shared_repair_matches_applying_churn() {
    use fttt::replay::{digest_run, Digest};
    use fttt::session::{SessionOptions, SessionRun, TrackingSession};
    use fttt::tracker::{Tracker, TrackerOptions};
    use rand::SeedableRng;
    use std::sync::Arc;
    use wsn_mobility::WaypointPath;
    use wsn_network::{Deployment, GroupSampler, SensorField};
    use wsn_signal::PathLossModel;

    let field = Rect::square(100.0);
    let sensor_field = SensorField::new(Deployment::grid(9, field), 150.0);
    let model = PathLossModel::new(-40.0, 0.0, 4.0, 4.0);
    let c = model.uncertainty_constant(1.0);
    let base = Arc::new(FaceMap::build(
        &sensor_field.deployment().positions(),
        field,
        c,
        2.0,
    ));
    let sampler = GroupSampler::new(model, 5);
    let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
        .walk_constant(3.0, 1.0);
    let events = [
        (5.0, 1usize, true),
        (6.0, 3, true),
        (7.0, 5, true),
        (12.0, 1, false),
        (13.0, 3, false),
        (14.0, 5, false),
    ];

    for mode in [RepairMode::Incremental, RepairMode::Rebuild] {
        // Each event repaired once, from the map the previous one left.
        let mut chain = Vec::new();
        let mut map = Arc::clone(&base);
        for &(_, node, death) in &events {
            let (next, report) = map.repaired(node, death, mode);
            map = Arc::new(next);
            chain.push((Arc::clone(&map), report));
        }

        let run = |shared: bool| -> (SessionRun, u64, TrackingSession) {
            let tracker = if shared {
                Tracker::shared(Arc::clone(&base), TrackerOptions::heuristic())
            } else {
                Tracker::new((*base).clone(), TrackerOptions::heuristic())
            };
            let mut session = TrackingSession::new(tracker, SessionOptions::new(5));
            let mut next = 0usize;
            let run = session.run_with(
                &trace,
                &mut rand_chacha::ChaCha8Rng::seed_from_u64(23),
                |k, pos, _, r| {
                    let sampler = GroupSampler {
                        samples: k,
                        ..sampler.clone()
                    };
                    sampler.sample(&sensor_field, pos, r)
                },
                |s, t| {
                    while let Some(&(et, node, death)) = events.get(next) {
                        if et > t {
                            break;
                        }
                        if shared {
                            let (map, report) = &chain[next];
                            s.adopt_repair(t, Arc::clone(map), report);
                        } else {
                            s.apply_churn(t, node, death, mode);
                        }
                        next += 1;
                    }
                },
            );
            assert_eq!(next, events.len(), "every churn event must have applied");
            let mut digest = Digest::new();
            digest_run(&mut digest, &run);
            (run, digest.value(), session)
        };

        let (applied, applied_digest, applied_session) = run(false);
        let (adopted, adopted_digest, adopted_session) = run(true);
        assert_eq!(applied.rounds, adopted.rounds, "{mode:?}: rounds differ");
        assert_eq!(
            applied_digest, adopted_digest,
            "{mode:?}: run digests differ"
        );
        assert_eq!(
            digest_face_map(applied_session.tracker().map()),
            digest_face_map(adopted_session.tracker().map()),
        );
        // The adopting session holds the chain's last map, not a copy.
        assert!(std::ptr::eq(
            adopted_session.tracker().map(),
            &*chain.last().unwrap().0
        ));
        assert!(
            applied.rounds.iter().any(|r| r.reacquired),
            "{mode:?}: the storm must exercise the remap ladder"
        );
    }
}

/// A repair handed to a session whose map it does not follow is refused.
#[test]
#[should_panic(expected = "does not follow")]
fn adopting_a_repair_of_another_map_is_refused() {
    use fttt::session::{SessionOptions, TrackingSession};
    use fttt::tracker::{Tracker, TrackerOptions};
    use std::sync::Arc;

    let positions = [
        Point::new(10.0, 10.0),
        Point::new(40.0, 12.0),
        Point::new(25.0, 40.0),
        Point::new(44.0, 44.0),
    ];
    let map = FaceMap::build(&positions, Rect::square(FIELD_SIDE), C, CELL);
    let (once, _) = map.repaired(0, true, RepairMode::Incremental);
    let (twice, report) = once.repaired(1, true, RepairMode::Incremental);
    let mut session = TrackingSession::new(
        Tracker::new(map, TrackerOptions::heuristic()),
        SessionOptions::new(5),
    );
    session.adopt_repair(0.0, Arc::new(twice), &report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: incremental == rebuild-per-event (full
    /// equality including digests) and both == from-scratch build of the
    /// survivors (content equality).
    #[test]
    fn incremental_repair_matches_full_rebuild(
        positions in arb_positions(),
        picks in prop::collection::vec(0usize..64, 1..10),
    ) {
        let field = Rect::square(FIELD_SIDE);
        let n = positions.len();
        let mut incremental = FaceMap::build(&positions, field, C, CELL);
        let mut rebuilt = FaceMap::build(&positions, field, C, CELL);
        let events = schedule(n, &picks);

        for &(node, death) in &events {
            let (ri, rr) = if death {
                (
                    incremental.kill_node(node, RepairMode::Incremental),
                    rebuilt.kill_node(node, RepairMode::Rebuild),
                )
            } else {
                (
                    incremental.revive_node(node, RepairMode::Incremental),
                    rebuilt.revive_node(node, RepairMode::Rebuild),
                )
            };
            prop_assert_eq!(ri.epoch, rr.epoch);
            prop_assert_eq!(ri.faces_after, rr.faces_after);
            prop_assert_eq!(ri.planes_retired, rr.planes_retired);
            prop_assert_eq!(ri.planes_added, rr.planes_added);

            // Full bit-equality between the two repair modes, digest
            // included — same epoch history, same everything.
            assert_content_identical(&incremental, &rebuilt);
            prop_assert_eq!(incremental.epoch(), rebuilt.epoch());
            prop_assert_eq!(incremental.live_nodes(), rebuilt.live_nodes());
            prop_assert_eq!(
                digest_face_map(&incremental),
                digest_face_map(&rebuilt),
                "replay digests diverged between repair modes"
            );

            // Content equality against a from-scratch build of the
            // current survivors.
            let survivors: Vec<Point> = incremental
                .live_nodes()
                .iter()
                .map(|&i| positions[i as usize])
                .collect();
            let fresh = FaceMap::build(&survivors, field, C, CELL);
            assert_content_identical(&incremental, &fresh);

            // The remap is total over the pre-repair faces and every
            // target id is in range.
            prop_assert_eq!(ri.remap_len(), ri.faces_before);
            for f in 0..ri.faces_before {
                let (nf, _) = ri.remap_face(fttt::FaceId(f as u32)).unwrap();
                prop_assert!(nf.index() < ri.faces_after);
            }
        }

        prop_assert_eq!(incremental.epoch(), events.len() as u64);
    }

    /// Sampling-vector projection agrees with manually gathering the
    /// surviving pair components.
    #[test]
    fn projection_matches_manual_gather(
        positions in arb_positions(),
        dead_pick in 0usize..64,
    ) {
        use fttt::vector::SamplingVector;
        use wsn_network::{pair_count, PairIter};
        let field = Rect::square(FIELD_SIDE);
        let n = positions.len();
        let dead = dead_pick % n;
        let mut map = FaceMap::build(&positions, field, C, CELL);
        map.kill_node(dead, RepairMode::Incremental);

        let full: Vec<Option<f64>> = (0..pair_count(n))
            .map(|i| if i % 3 == 0 { None } else { Some((i as f64) / 64.0) })
            .collect();
        let projected = map.project_sampling_vector(SamplingVector::new(full.clone()));

        let expected: Vec<Option<f64>> = PairIter::new(n)
            .enumerate()
            .filter(|&(_, (i, j))| i != dead && j != dead)
            .map(|(d, _)| full[d])
            .collect();
        prop_assert_eq!(projected.components(), &expected[..]);
        prop_assert_eq!(projected.len(), map.pair_dimension());
    }
}
