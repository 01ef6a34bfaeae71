//! Tier-1 overhead smoke test: with NO telemetry sink installed, the
//! instrumented `match_exhaustive` must cost essentially the same as an
//! uninstrumented inline scan of the same work. This file must stay the
//! only test in its binary and must NEVER install a sink — integration
//! tests share a process per file, and a sink installed by any test here
//! would arm the global enabled-flag for the timed loops.

use fttt::facemap::FaceMap;
use fttt::matching::match_exhaustive;
use fttt::sampling::basic_sampling_vector;
use fttt::vector::{PackedQuery, SamplingVector};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use wsn_geometry::{Point, Rect};
use wsn_network::{Deployment, GroupSampler, SensorField};
use wsn_signal::{uncertainty_constant, PathLossModel};

fn setup() -> (FaceMap, SamplingVector) {
    // Small world (coarse cells) so the whole test stays well under the
    // tier-1 budget even in debug builds.
    let field = Rect::square(100.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let deployment = Deployment::random_uniform(12, field, &mut rng);
    let sensor_field = SensorField::new(deployment, 200.0);
    let c = uncertainty_constant(1.0, 4.0, 6.0);
    let map = FaceMap::build(&sensor_field.deployment().positions(), field, c, 4.0);
    let sampler = GroupSampler::new(PathLossModel::paper_default(), 5);
    let group = sampler.sample(&sensor_field, Point::new(47.0, 53.0), &mut rng);
    (map, basic_sampling_vector(&group))
}

/// The matcher's work without any telemetry call sites: one distance and
/// one `1/√d²` per face, tracking the best similarity.
fn uninstrumented_scan(map: &FaceMap, v: &SamplingVector) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let q = PackedQuery::new(v);
    for (_, d2) in map.planes().scan(&q) {
        let s = if d2 == 0.0 {
            f64::INFINITY
        } else {
            1.0 / d2.sqrt()
        };
        if s > best {
            best = s;
        }
    }
    best
}

/// Min-of-rounds over batches: each round times one batch of each
/// candidate back to back; the minimum approximates uncontended cost.
fn min_batch_us(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    best
}

#[test]
fn disabled_telemetry_is_effectively_free() {
    assert!(
        !wsn_telemetry::enabled(),
        "this test binary must never install a sink"
    );
    let (map, v) = setup();
    // Warmup both paths.
    for _ in 0..10 {
        std::hint::black_box(match_exhaustive(&map, &v));
        std::hint::black_box(uninstrumented_scan(&map, &v));
    }
    let rounds = 8;
    let batch = 25;
    let instrumented = min_batch_us(rounds, batch, || {
        std::hint::black_box(match_exhaustive(&map, &v));
    });
    let bare = min_batch_us(rounds, batch, || {
        std::hint::black_box(uninstrumented_scan(&map, &v));
    });
    // The instrumented matcher does strictly more (tie tracking and the
    // final tie sort), so this is a loose sanity
    // bound: the enabled-check must not make it an outlier. Lenient by
    // design — it guards against a sink accidentally armed by default or
    // an unconditional allocation on the hot path, not microvariance.
    assert!(
        instrumented < 5.0 * bare + 20.0,
        "instrumented match_exhaustive {instrumented:.2} µs vs bare scan {bare:.2} µs — \
         telemetry is not free with no sink installed"
    );
}
