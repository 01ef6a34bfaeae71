//! Integration tests of the self-healing session layer: the session must
//! stay alive and finite under *any* fault pressure — total blackout,
//! mid-run mass death, lying (stuck) sensors — and must walk its status
//! ladder Lost → Tracking across a bounded blackout window.

use fttt_suite::fttt::config::PaperParams;
use fttt_suite::fttt::session::{SessionOptions, TrackStatus, TrackingSession};
use fttt_suite::fttt::tracker::{Tracker, TrackerOptions};
use fttt_suite::network::{GroupSampler, RegimeEngine, RegimeKind, Schedule};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn params() -> PaperParams {
    PaperParams::default().with_nodes(8).with_cell_size(2.0)
}

fn session(p: &PaperParams, extended: bool) -> TrackingSession {
    let field = p.grid_field();
    let map = p.face_map(&field);
    let options = if extended {
        TrackerOptions {
            extended: true,
            ..TrackerOptions::heuristic()
        }
    } else {
        TrackerOptions::heuristic()
    };
    TrackingSession::new(
        Tracker::new(map, options),
        SessionOptions::new(p.samples_k).with_max_speed(p.max_speed),
    )
}

/// Runs a 15 s session under `engine`, checking every round's invariants.
fn run_checked(p: &PaperParams, extended: bool, mut engine: RegimeEngine, seed: u64) {
    let field = p.grid_field();
    let mut world = rng(seed);
    let trace = p.random_trace(15.0, &mut world);
    let mut s = session(p, extended);
    let base = p.sampler();
    let run = s.run(&trace, &mut world, |k, pos, t, r| {
        let sampler = GroupSampler {
            samples: k,
            ..base.clone()
        };
        let mut g = sampler.sample(&field, pos, r);
        engine.apply(t, &mut g, r);
        g
    });
    assert_eq!(run.rounds.len(), trace.len());
    for (round, err) in run.rounds.iter().zip(&run.errors) {
        assert!(
            round.estimate.x.is_finite() && round.estimate.y.is_finite(),
            "estimate must stay finite (t = {})",
            round.t
        );
        assert!(err.is_finite(), "error must stay finite (t = {})", round.t);
        assert!(round.samples >= 1 && round.samples <= s.options().max_samples());
        assert!((0.0..=1.0).contains(&round.missing_fraction));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session never panics and always reports finite estimates under
    /// any static node-failure rate in [0, 1] — including 1.0, a run-long
    /// total blackout.
    #[test]
    fn session_survives_any_fault_rate(rate in 0.0..=1.0f64, seed in 0u64..1000, ext in 0u8..2) {
        let ext = ext == 1;
        let p = params();
        let schedule = Schedule::parse(&format!("static node_failure={rate}"))
            .expect("rate in [0,1] must parse");
        run_checked(&p, ext, schedule.engine(p.nodes), seed);
    }

    /// Mid-run mass death (an unbounded outage of every node from a random
    /// onset) never panics the session.
    #[test]
    fn session_survives_midrun_mass_death(onset in 0.0..15.0f64, seed in 0u64..1000) {
        let p = params();
        let engine = RegimeEngine::new(p.nodes).with(RegimeKind::Outage {
            nodes: BTreeSet::new(),
            from: onset,
            until: f64::INFINITY,
        });
        run_checked(&p, false, engine, seed);
    }

    /// Every sensor lying (stuck at its last reading) from a random onset:
    /// the readings stay present, so the `*`-rule never fires, and only the
    /// behavioral monitor stands between the session and silent garbage.
    /// It must at minimum stay finite and alive.
    #[test]
    fn session_survives_all_readings_stuck(onset in 0.0..10.0f64, seed in 0u64..1000) {
        let p = params();
        let engine = RegimeEngine::new(p.nodes)
            .with(RegimeKind::StuckAt { nodes: BTreeSet::new(), from: onset });
        run_checked(&p, false, engine, seed);
    }
}

/// Regression: a bounded total blackout drives the session into `Lost`
/// during the window and back to `Tracking` after it — the Lost →
/// Tracking transition the recovery ladder exists for.
#[test]
fn session_recovers_across_blackout_window() {
    let p = params();
    let field = p.grid_field();
    let schedule = Schedule::parse("outage from=6 until=12").expect("valid schedule");
    let mut engine = schedule.engine(p.nodes);
    let mut world = rng(7);
    let trace = p.random_trace(25.0, &mut world);
    let mut s = session(&p, false);
    let base = p.sampler();
    let run = s.run(&trace, &mut world, |k, pos, t, r| {
        let sampler = GroupSampler {
            samples: k,
            ..base.clone()
        };
        let mut g = sampler.sample(&field, pos, r);
        engine.apply(t, &mut g, r);
        g
    });
    let lost_at = run
        .rounds
        .iter()
        .position(|r| r.status == TrackStatus::Lost)
        .expect("a six-second total blackout must reach Lost");
    assert!(
        run.rounds[lost_at].t >= 6.0 && run.rounds[lost_at].t < 12.0,
        "Lost must be entered inside the blackout window, got t = {}",
        run.rounds[lost_at].t
    );
    assert!(
        run.recovered_from_lost(),
        "the session must return to Tracking after the window"
    );
    // While Lost in the blackout, the session holds a finite estimate
    // instead of reporting the all-tie field centre.
    for r in &run.rounds {
        if r.status == TrackStatus::Lost && r.similarity.is_none() {
            assert!(r.held, "blackout rounds must be holds");
        }
    }
    // A *total* blackout has zero live pairs, so the Section-5.1 bound is
    // undefined and the session must NOT escalate k against phantom pairs
    // (the old `.max(1)` bug): k holds constant across the window.
    let blackout_ks: BTreeSet<usize> = run
        .rounds
        .iter()
        .filter(|r| r.held && r.similarity.is_none())
        .map(|r| r.samples)
        .collect();
    assert_eq!(
        blackout_ks.len(),
        1,
        "k must hold constant through a zero-pair blackout, saw {blackout_ks:?}"
    );
}

/// A *partial* outage (live pairs remain, so the Section-5.1 bound is
/// defined) escalates the sampling times, the escalation stays within the
/// clamp, and `k` decays back toward the baseline once rounds run healthy
/// again.
#[test]
fn sampling_times_decay_after_recovery() {
    let p = params();
    let field = p.grid_field();
    // Nodes 4–7 go silent for the window: 22 of 28 pairs unknown (starved,
    // > MAX_MISSING_FRACTION) while 4 live nodes leave 6 pairs to escalate
    // against.
    let schedule = Schedule::parse("outage nodes=4,5,6,7 from=3 until=6").expect("valid schedule");
    let mut engine = schedule.engine(p.nodes);
    let mut world = rng(11);
    let trace = p.random_trace(30.0, &mut world);
    let mut s = session(&p, false);
    let base = p.sampler();
    let run = s.run(&trace, &mut world, |k, pos, t, r| {
        let sampler = GroupSampler {
            samples: k,
            ..base.clone()
        };
        let mut g = sampler.sample(&field, pos, r);
        engine.apply(t, &mut g, r);
        g
    });
    let peak = run.rounds.iter().map(|r| r.samples).max().unwrap();
    assert!(peak > p.samples_k, "partial outage must escalate k");
    assert!(
        peak <= s.options().max_samples(),
        "escalation must respect the clamp"
    );
    let last = run.rounds.last().unwrap();
    assert!(
        last.samples < peak,
        "k must decay after recovery: peak {peak}, final {}",
        last.samples
    );
}
