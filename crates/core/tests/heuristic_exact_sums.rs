//! The work the extended climb's screen saves, counted: one seeded
//! extended heuristic session at 100 nodes and 1 m cells (the geometry
//! where a Definition-10 sum is 4 950 sequential adds) must take at most
//! two exact sums per climb on average, against about thirteen
//! evaluations.
//!
//! Installs a telemetry sink, so it is its own test binary.

use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::PaperParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

#[test]
fn extended_climbs_take_about_one_exact_sum() {
    let params = PaperParams::default().with_nodes(100).with_cell_size(1.0);
    let field = params.grid_field();
    let map = params.face_map(&field);
    let sampler = params.sampler();
    let mut rng = ChaCha8Rng::seed_from_u64(301);
    let trace = params.random_trace(30.0 * params.localization_period(), &mut rng);
    let groups: Vec<_> = trace.points()[..30]
        .iter()
        .map(|p| (p.t, sampler.sample(&field, p.pos, &mut rng)))
        .collect();
    let options = TrackerOptions {
        extended: true,
        ..TrackerOptions::heuristic()
    };
    let mut session = TrackingSession::new(Tracker::new(map, options), SessionOptions::new(5));

    let registry = Arc::new(wsn_telemetry::Registry::new());
    wsn_telemetry::install(Arc::clone(&registry));
    for (t, group) in &groups {
        session.step(*t, group);
    }
    wsn_telemetry::uninstall();

    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let climbs = counter("fttt.match.heuristic.calls");
    let exact = counter("fttt.match.heuristic.exact_sums");
    assert!(
        climbs >= 20,
        "too few climbs to average: {:?}",
        snap.counters
    );
    let per_climb = exact as f64 / climbs as f64;
    assert!(
        per_climb <= 2.0,
        "{exact} exact sums over {climbs} climbs ({per_climb:.2} per climb)"
    );
    assert!(exact >= climbs, "every climb takes its winner's sum");
}
