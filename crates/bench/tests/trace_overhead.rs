//! Tier-1 overhead smoke test: with NO metrics sink and NO journal
//! installed, the instrumented hot paths must cost essentially the same
//! as an uninstrumented inline scan of the same work, and a disabled span
//! must be nearly free. This file must stay the only test in its binary
//! and must NEVER install a sink or a journal — integration tests share a
//! process per file, and either installed by any test here would arm a
//! global enabled-flag for the timed loops.

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

/// The matcher's work without any instrumentation call sites: one
/// distance and one `1/√d²` per face, tracking the best similarity.
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

/// Min-of-rounds over batches: the minimum approximates uncontended cost.
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
fn disabled_tracing_is_effectively_free() {
    assert!(
        !wsn_telemetry::enabled() && !wsn_telemetry::journal_enabled(),
        "this test binary must never install a sink or a journal"
    );
    let (map, v) = setup();
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
    // final tie sort), so this is a loose sanity bound, lenient by design:
    // it guards against a sink or journal accidentally armed by default,
    // an unconditional allocation or event construction on the hot path,
    // not microvariance.
    assert!(
        instrumented < 5.0 * bare + 20.0,
        "instrumented match_exhaustive {instrumented:.2} µs vs bare scan {bare:.2} µs — \
         instrumentation is not free with no sink or journal installed"
    );

    // A disabled span must degenerate to a couple of relaxed loads: even a
    // generous bound catches an accidental allocation or lock per call.
    let span_us = min_batch_us(rounds, 10_000, || {
        let _ = std::hint::black_box(wsn_telemetry::span("trace.overhead.test"));
    });
    assert!(
        span_us < 1.0,
        "a disabled span costs {span_us:.4} µs — expected well under a microsecond"
    );
}
