//! Integration tests of the fault-tolerance path (Section 4.4.3) across
//! the network, sampling and matching crates.

use fttt_suite::fttt::config::PaperParams;
use fttt_suite::fttt::sampling::basic_sampling_vector;
use fttt_suite::fttt::tracker::{Tracker, TrackerOptions};
use fttt_suite::network::{FaultModel, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn params() -> PaperParams {
    PaperParams::default().with_nodes(10).with_cell_size(2.0)
}

/// The sampling vector keeps the signature dimension no matter how many
/// sensors fail — the property eq. (6) exists to guarantee.
#[test]
fn vector_dimension_survives_any_fault_rate() {
    let p = params();
    let mut world = rng(1);
    let field = p.random_field(&mut world);
    let expected_dim = field.len() * (field.len() - 1) / 2;
    for prob in [0.0, 0.3, 0.7, 1.0] {
        let sampler = p.sampler().with_fault(FaultModel::with_node_failure(prob));
        let group = sampler.sample(&field, p.rect().center(), &mut world);
        let v = basic_sampling_vector(&group);
        assert_eq!(
            v.len(),
            expected_dim,
            "dimension must be invariant (P = {prob})"
        );
    }
}

/// With every sensor dead the vector is all '*' and matching still returns
/// a defined (if uninformative) answer rather than failing.
#[test]
fn total_blackout_still_localizes_gracefully() {
    let p = params();
    let mut world = rng(2);
    let field = p.random_field(&mut world);
    let map = p.face_map(&field);
    let dead: Vec<NodeId> = field.nodes().iter().map(|n| n.id).collect();
    let sampler = p.sampler().with_fault(FaultModel::with_dead_nodes(dead));
    let group = sampler.sample(&field, p.rect().center(), &mut world);
    let v = basic_sampling_vector(&group);
    assert_eq!(v.unknown_count(), v.len(), "every pair must be '*'");
    let mut tracker = Tracker::new(map, TrackerOptions::default());
    let (estimate, outcome) = tracker.localize(&tracker.query(&group));
    assert!(p.rect().contains(estimate));
    // All faces tie; tie-averaging pulls the estimate toward the field's
    // centre of mass.
    assert!(outcome.ties.len() > 1);
}

/// Error grows smoothly (not catastrophically) with the failure rate.
#[test]
fn degradation_is_graceful() {
    let p = params();
    let mean_for = |prob: f64| {
        let mut total = 0.0;
        let seeds = 4;
        for s in 0..seeds {
            let mut world = rng(300 + s);
            let field = p.random_field(&mut world);
            let map = p.face_map(&field);
            let trace = p.random_trace(15.0, &mut world);
            let sampler = p.sampler().with_fault(FaultModel::with_node_failure(prob));
            let mut tracker = Tracker::new(map, TrackerOptions::default());
            total += tracker
                .track(&field, &sampler, &trace, &mut world)
                .error_stats()
                .mean;
        }
        total / seeds as f64
    };
    let clean = mean_for(0.0);
    let faulty = mean_for(0.3);
    let very_faulty = mean_for(0.6);
    assert!(
        clean <= faulty * 1.05,
        "faults should not help: {clean} vs {faulty}"
    );
    assert!(
        very_faulty < 45.0,
        "even at 60% failure the tracker must stay in the field's scale, got {very_faulty}"
    );
}

/// Dead sensors are equivalent to out-of-range sensors: a far target and a
/// dead node produce the same '*'/±1 pattern for the affected pairs.
#[test]
fn dead_node_equals_out_of_range_node() {
    // Sensing range large enough that every live node hears the target —
    // otherwise an out-of-range partner would legitimately turn a pair
    // into '*'.
    let p = PaperParams {
        sensing_range: 200.0,
        ..PaperParams::default().with_nodes(5).with_cell_size(2.0)
    };
    let mut world = rng(9);
    let field = p.random_field(&mut world);
    // Node 0 dead:
    let sampler_dead = p
        .sampler()
        .with_fault(FaultModel::with_dead_nodes([NodeId(0)]));
    let g = sampler_dead.sample(&field, p.rect().center(), &mut world);
    // Pairs involving node 0 must be -1 (node 0 is the smaller id and is
    // silent ⟹ "silent reads weaker" ⟹ value −1), never '*', because the
    // partner responded.
    let v = basic_sampling_vector(&g);
    for j in 1..field.len() {
        let idx = j - 1; // pairs (0,1),(0,2),… are the first n−1 components
        assert_eq!(v.component(idx), Some(-1.0), "pair (0,{j})");
    }
}
