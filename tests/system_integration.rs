//! Integration tests for the full system path: sampling → uplink →
//! tracking, with energy accounting; plus the extra baselines.

use fttt_suite::baselines::{ParticleFilter, WeightedCentroid};
use fttt_suite::fttt::config::PaperParams;
use fttt_suite::fttt::postprocess;
use fttt_suite::fttt::tracker::{Tracker, TrackerOptions};
use fttt_suite::network::{EnergyLedger, EnergyModel, Uplink};
use fttt_suite::signal::Gaussian;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn params() -> PaperParams {
    PaperParams::default().with_nodes(10).with_cell_size(2.0)
}

#[test]
fn lossy_uplink_degrades_gracefully() {
    let p = params();
    let run_with_loss = |loss: f64| {
        let mut world = rng(50);
        let field = p.random_field(&mut world);
        let map = p.face_map(&field);
        let trace = p.random_trace(20.0, &mut world);
        let sampler = p.sampler();
        let uplink = Uplink::new(loss, Gaussian::new(0.0, 0.0), f64::INFINITY);
        let mut tracker = Tracker::new(map, TrackerOptions::default());
        let mut total = 0.0;
        let mut count = 0usize;
        for pt in trace.points() {
            let sensed = sampler.sample(&field, pt.pos, &mut world);
            let (received, _) = uplink.deliver(&sensed, &mut world);
            let (estimate, _) = tracker.localize(&tracker.query(&received));
            total += estimate.distance(pt.pos);
            count += 1;
        }
        total / count as f64
    };
    let clean = run_with_loss(0.0);
    let lossy = run_with_loss(0.4);
    assert!(clean.is_finite() && lossy.is_finite());
    assert!(
        lossy < 45.0,
        "40% packet loss must not collapse tracking: {lossy}"
    );
    assert!(
        clean <= lossy * 1.1,
        "loss should not help: {clean} vs {lossy}"
    );
}

#[test]
fn energy_accounting_scales_with_k() {
    let p = params();
    let energy_for_k = |k: usize| {
        let pk = p.with_samples(k);
        let mut world = rng(60);
        let field = pk.random_field(&mut world);
        let sampler = pk.sampler();
        let mut ledger = EnergyLedger::new(EnergyModel::default(), field.len());
        // Same number of localizations for both k.
        for i in 0..40 {
            let target = pk.rect().clamp(wsn_geometry_point(i));
            let g = sampler.sample(&field, target, &mut world);
            ledger.charge_grouping(&g);
        }
        ledger.total()
    };
    let e3 = energy_for_k(3);
    let e9 = energy_for_k(9);
    assert!(e9 > e3, "more samples must cost more energy");
    // Sampling cost triples; messages stay constant — the ratio sits
    // strictly between 1 and 3.
    assert!(e9 / e3 < 3.0, "ratio {}", e9 / e3);
    assert!(e9 / e3 > 1.5, "ratio {}", e9 / e3);
}

fn wsn_geometry_point(i: usize) -> fttt_suite::geometry::Point {
    fttt_suite::geometry::Point::new(
        10.0 + (i as f64 * 7.3) % 80.0,
        10.0 + (i as f64 * 3.9) % 80.0,
    )
}

#[test]
fn smoothing_helps_the_basic_tracker() {
    let p = params();
    let mut world = rng(70);
    let field = p.random_field(&mut world);
    let map = p.face_map(&field);
    let trace = p.random_trace(30.0, &mut world);
    let mut tracker = Tracker::new(map, TrackerOptions::default());
    let run = tracker.track(&field, &p.sampler(), &trace, &mut world);
    let smoothed = postprocess::smooth_estimates(&run, 2);
    assert!(postprocess::roughness(&smoothed) < postprocess::roughness(&run));
    // Smoothing a mostly-continuous target trajectory should not hurt the
    // mean much (and usually helps).
    assert!(smoothed.error_stats().mean < run.error_stats().mean * 1.15);
}

#[test]
fn extra_baselines_run_end_to_end() {
    let p = params();
    let mut world = rng(80);
    let field = p.random_field(&mut world);
    let trace = p.random_trace(15.0, &mut world);
    let positions = field.deployment().positions();

    let wcl = WeightedCentroid::with_path_loss_degree(&positions, p.rect(), p.beta);
    let run_wcl = wcl.track(&field, &p.sampler(), &trace, &mut rng(81));
    assert!(run_wcl.error_stats().mean < 35.0);

    let mut pf = ParticleFilter::new(
        &positions,
        p.rect(),
        p.model(),
        400,
        p.max_speed,
        p.localization_period(),
    );
    let run_pf = pf.track(&field, &p.sampler(), &trace, &mut rng(82));
    assert!(run_pf.error_stats().mean.is_finite());
    for l in &run_pf.localizations {
        assert!(p.rect().contains(l.estimate));
    }
}
