//! Deterministic-replay digests for tracking sessions.
//!
//! The digest primitive ([`Digest`], re-exported from
//! [`wsn_network::replay`]) lives in the network crate so the regime
//! engine can digest its own private state; this module adds the
//! session-side folds: per-round state, whole runs, the face map, and the
//! stable session ids that keep journaled campaigns keyed identically
//! across runs, thread counts and processes.
//!
//! What a per-round digest covers (in canonical fold order): the round
//! index and simulation time, status before/after, the failure cause, the
//! matched face and reported estimate, similarity, missing/zero fractions,
//! the monitor's verdict flags, and the sampling ladder (`k`, `k_after`).
//! Callers fold the *world* state (regime engine + live-node set) next to
//! it via [`wsn_network::replay::digest_world`]; the two together pin a
//! simulation round completely — any divergence in RNG consumption, fault
//! state, matching, or session policy changes the trial digest.
//!
//! What it deliberately does **not** cover: wall-clock time, thread
//! ordinals, journal sequence numbers, and telemetry histograms of
//! durations — scheduling, not simulation.

use crate::facemap::FaceMap;
use crate::session::{status_name, SessionRound, SessionRun};
pub use wsn_network::replay::{
    digest_hex, digest_live_set, digest_world, parse_digest_hex, Digest,
};

/// Folds one session round into `digest` (see the module docs for the
/// field list and order).
pub fn digest_round(digest: &mut Digest, round: &SessionRound) {
    let trace = &round.trace;
    digest.write_u64(trace.round);
    digest.write_f64(round.t);
    digest.write_str(status_name(trace.status_before));
    digest.write_str(status_name(round.status));
    digest.write_str(trace.cause.name());
    // 1-based face, 0 = blackout hold — the same encoding the journal and
    // the replay diff use.
    digest.write_u64(round.face.map_or(0, |f| f.0 as u64 + 1));
    digest.write_f64(round.estimate.x);
    digest.write_f64(round.estimate.y);
    digest.write_bool(round.similarity.is_some());
    digest.write_f64(round.similarity.unwrap_or(0.0));
    digest.write_f64(round.missing_fraction);
    digest.write_f64(trace.zero_fraction);
    digest.write_bool(trace.blackout);
    digest.write_bool(trace.stranded);
    digest.write_bool(trace.starved);
    digest.write_bool(trace.teleported);
    digest.write_bool(round.held);
    digest.write_bool(round.reacquired);
    digest.write_u64(round.samples as u64);
    digest.write_u64(trace.k_after as u64);
}

/// Folds a completed run: every round in order, then the per-round errors
/// (bit patterns — the ground-truth side of the trial).
pub fn digest_run(digest: &mut Digest, run: &SessionRun) {
    digest.write_u64(run.rounds.len() as u64);
    for round in &run.rounds {
        digest_round(digest, round);
    }
    for &e in &run.errors {
        digest.write_f64(e);
    }
}

/// Digests a face map: the map epoch, face count, then per face (in id
/// order) the signature components, centroid and cell count.
///
/// Runs after every churn repair, so the signatures are decoded from the
/// plane arena into one reused buffer — no allocation per face.
///
/// This is the audit anchor for the map-construction path: face ids are
/// assigned by first encounter in row-major raster order, *not* by
/// `HashMap` iteration — if a refactor ever let hash-map ordering leak
/// into face numbering, signatures, or centroids, every downstream
/// campaign checksum would move. A map digest in the campaign header
/// catches that class of bug at the source instead of as an unexplained
/// round divergence.
///
/// The epoch fold (PR 8) means a churned map can never digest equal to a
/// static one even when the surviving division happens to coincide —
/// "same faces after node 3 died and came back" and "never churned" are
/// different replay histories. The epoch is hex-encoded with
/// [`digest_hex`] wherever it surfaces in journals, like every other u64
/// digest (the PR-7 convention).
pub fn digest_face_map(map: &FaceMap) -> u64 {
    let mut d = Digest::new();
    d.write_u64(map.epoch());
    let faces = map.faces();
    d.write_u64(faces.len() as u64);
    let mut components = vec![0u8; map.pair_dimension()];
    for face in faces {
        d.write_u64(face.id.0 as u64);
        // One component per byte (two's complement), as the codec writes.
        map.planes()
            .component_bytes(face.id.index(), &mut components);
        d.write_bytes(&components);
        d.write_f64(face.centroid.x);
        d.write_f64(face.centroid.y);
        d.write_u64(face.cell_count as u64);
    }
    d.value()
}

/// A stable session id for one campaign trial, derived from the trial's
/// identity rather than a process counter: `(regime label, method label,
/// fault-rate bits, trial index, map epoch)` hashed and truncated to 48
/// bits. The epoch is the face map's epoch *at session start* — a trial
/// replayed against a churned map keys differently from one against the
/// pristine build, so merged journals never alias the two.
///
/// 48 bits keeps ids exactly representable as JSON numbers (f64 is exact
/// below 2⁵³) while leaving the collision probability over a campaign's
/// few hundred sessions at ~10⁻⁹ (birthday bound). The same inputs give
/// the same id in every process, which is what lets a replay diff key
/// against a recorded run's journal.
pub fn stable_session_id(
    regime: &str,
    method: &str,
    fault_rate: Option<f64>,
    trial: u64,
    epoch: u64,
) -> u64 {
    let mut d = Digest::new();
    d.write_str(regime);
    d.write_str(method);
    d.write_bool(fault_rate.is_some());
    d.write_f64(fault_rate.unwrap_or(0.0));
    d.write_u64(trial);
    d.write_u64(epoch);
    d.value() & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facemap::FaceId;
    use crate::session::tests::matched_round;
    use crate::session::{Cause, TrackStatus};

    fn round() -> SessionRound {
        matched_round(0, TrackStatus::Tracking, Cause::Healthy)
    }

    #[test]
    fn round_digest_sees_every_field_it_claims_to() {
        let base = round();
        let value_of = |r: &SessionRound| {
            let mut d = Digest::new();
            digest_round(&mut d, r);
            d.value()
        };
        let baseline = value_of(&base);
        assert_eq!(value_of(&base), baseline, "digesting is pure");

        type Mutation = Box<dyn Fn(&mut SessionRound)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(|r| r.t = 2.0),
            Box::new(|r| r.estimate.x += 0.001),
            Box::new(|r| r.status = TrackStatus::Lost),
            Box::new(|r| r.samples = 4),
            Box::new(|r| r.face = Some(FaceId(8))),
            Box::new(|r| r.face = None),
            Box::new(|r| r.similarity = Some(0.8750000000000001)),
            Box::new(|r| r.similarity = None),
            Box::new(|r| r.missing_fraction = 0.5),
            Box::new(|r| r.held = true),
            Box::new(|r| r.reacquired = true),
            Box::new(|r| r.trace.round = 5),
            Box::new(|r| r.trace.status_before = TrackStatus::Tracking),
            Box::new(|r| r.trace.cause = Cause::Stranded),
            Box::new(|r| r.trace.stranded = true),
            Box::new(|r| r.trace.zero_fraction = 0.125),
            Box::new(|r| r.trace.k_after = 10),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut m = round();
            mutate(&mut m);
            assert_ne!(
                value_of(&m),
                baseline,
                "mutation {i} did not change the digest"
            );
        }
    }

    #[test]
    fn face_none_and_face_zero_disambiguate() {
        // face = None encodes as 0, face = FaceId(0) as 1 — a blackout
        // hold and a match on face 0 must not collide.
        let mut none = round();
        none.face = None;
        let mut zero = round();
        zero.face = Some(FaceId(0));
        let (mut a, mut b) = (Digest::new(), Digest::new());
        digest_round(&mut a, &none);
        digest_round(&mut b, &zero);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn stable_ids_are_stable_distinct_and_json_safe() {
        let id = stable_session_id("node-failure", "FTTT-ext", Some(0.3), 2, 0);
        assert_eq!(
            id,
            stable_session_id("node-failure", "FTTT-ext", Some(0.3), 2, 0)
        );
        assert!(id < (1 << 48), "must survive an f64 JSON round-trip");

        let mut seen = std::collections::HashSet::new();
        for regime in ["node-failure", "burst", "blackout", "energy"] {
            for method in ["FTTT-basic", "FTTT-ext"] {
                for rate in [None, Some(0.0), Some(0.1), Some(0.3), Some(0.5)] {
                    for trial in 0..16 {
                        for epoch in [0, 3] {
                            assert!(
                                seen.insert(stable_session_id(regime, method, rate, trial, epoch)),
                                "collision at {regime}/{method}/{rate:?}/{trial}/{epoch}"
                            );
                        }
                    }
                }
            }
        }
        // rate = None and rate = Some(0.0) are distinct identities.
        assert_ne!(
            stable_session_id("r", "m", None, 0, 0),
            stable_session_id("r", "m", Some(0.0), 0, 0)
        );
    }

    #[test]
    fn face_map_digest_is_deterministic_and_shape_sensitive() {
        use crate::config::PaperParams;
        let params = PaperParams::default().with_nodes(8);
        let field = params.grid_field();
        let map_a = params.face_map(&field);
        let map_b = params.face_map(&field);
        assert_eq!(digest_face_map(&map_a), digest_face_map(&map_b));

        let other = PaperParams::default().with_nodes(9);
        let other_map = other.face_map(&other.grid_field());
        assert_ne!(digest_face_map(&map_a), digest_face_map(&other_map));
    }

    #[test]
    fn face_map_digest_is_epoch_sensitive() {
        use crate::config::PaperParams;
        use crate::facemap::RepairMode;
        let params = PaperParams::default().with_nodes(8);
        let field = params.grid_field();
        let pristine = params.face_map(&field);
        let mut churned = params.face_map(&field);
        churned.kill_node(3, RepairMode::Incremental);
        let after_kill = digest_face_map(&churned);
        assert_ne!(digest_face_map(&pristine), after_kill);
        // Reviving restores the identical division, but the epoch keeps
        // counting — the digest must still differ from the pristine map.
        churned.revive_node(3, RepairMode::Incremental);
        assert_eq!(churned.faces(), pristine.faces());
        assert_ne!(
            digest_face_map(&churned),
            digest_face_map(&pristine),
            "a kill+revive history must not alias an unchurned map"
        );
        assert_ne!(digest_face_map(&churned), after_kill);
    }
}
