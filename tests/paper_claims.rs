//! Integration tests pinning the paper's comparative claims at small
//! scale — the same shapes the bench binaries reproduce at full scale.

use fttt_suite::baselines::{DirectMle, PathMatching};
use fttt_suite::fttt::config::PaperParams;
use fttt_suite::fttt::theory;
use fttt_suite::fttt::tracker::{Tracker, TrackerOptions};
use fttt_suite::fttt::FaceMap;
use fttt_suite::geometry::{Point, Rect};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn params() -> PaperParams {
    PaperParams::default().with_nodes(10).with_cell_size(2.0)
}

/// Means over a few worlds for each method, all seeing identical worlds.
fn method_means(seeds: std::ops::Range<u64>) -> (f64, f64, f64, f64) {
    let p = params();
    let (mut fttt_sum, mut ext_sum, mut pm_sum, mut mle_sum) = (0.0, 0.0, 0.0, 0.0);
    let n = (seeds.end - seeds.start) as f64;
    for s in seeds {
        let mut world = rng(s);
        let field = p.random_field(&mut world);
        let trace = p.random_trace(20.0, &mut world);
        let positions = field.deployment().positions();

        let map = p.face_map(&field);
        let mut tracker = Tracker::new(map.clone(), TrackerOptions::default());
        let mut noise = rng(s + 1000);
        fttt_sum += tracker
            .track(&field, &p.sampler(), &trace, &mut noise)
            .error_stats()
            .mean;

        let mut ext = Tracker::new(map, TrackerOptions::extended());
        let mut noise = rng(s + 1000);
        ext_sum += ext
            .track(&field, &p.sampler(), &trace, &mut noise)
            .error_stats()
            .mean;

        let mut pm = PathMatching::new(
            &positions,
            p.rect(),
            p.cell_size,
            p.max_speed,
            p.localization_period(),
        );
        let mut noise = rng(s + 1000);
        pm_sum += pm
            .track(&field, &p.sampler(), &trace, &mut noise)
            .error_stats()
            .mean;

        let mle = DirectMle::new(&positions, p.rect(), p.cell_size);
        let mut noise = rng(s + 1000);
        mle_sum += mle
            .track(&field, &p.sampler(), &trace, &mut noise)
            .error_stats()
            .mean;
    }
    (fttt_sum / n, ext_sum / n, pm_sum / n, mle_sum / n)
}

/// The paper's headline ordering (Fig. 10/11), adjusted for the fact that
/// this suite's PM is deliberately stronger than the published one
/// (tie-averaged estimates; see DESIGN.md §3a.3): extended FTTT must beat
/// PM outright, basic FTTT must at least match it, and PM must beat
/// Direct MLE.
#[test]
fn fttt_beats_pm_beats_direct_mle() {
    let (fttt, ext, pm, mle) = method_means(0..6);
    assert!(
        ext < pm,
        "extended FTTT ({ext:.2} m) must beat PM ({pm:.2} m)"
    );
    assert!(
        fttt < pm * 1.1,
        "basic FTTT ({fttt:.2} m) must at least match PM ({pm:.2} m)"
    );
    assert!(pm < mle, "PM ({pm:.2} m) must beat Direct MLE ({mle:.2} m)");
    assert!(
        fttt < mle,
        "basic FTTT ({fttt:.2} m) must beat Direct MLE ({mle:.2} m)"
    );
}

/// Fig. 12(c,d): the extension keeps (or improves) the mean and cuts the
/// deviation. At integration-test scale the std effect needs a deployment
/// dense enough for quantitative pair values to matter — the paper's own
/// std figure is likewise strongest at n ≥ 10 over 60 s runs; the
/// full-scale sweep lives in the fig12cd experiment.
#[test]
fn extension_smooths_the_trajectory() {
    let p = PaperParams::default().with_nodes(20).with_cell_size(2.0);
    let (mut basic_std, mut ext_std, mut basic_mean, mut ext_mean) = (0.0, 0.0, 0.0, 0.0);
    let seeds = 6;
    for s in 0..seeds {
        let mut world = rng(40 + s);
        let field = p.random_field(&mut world);
        let trace = p.random_trace(30.0, &mut world);
        let map = p.face_map(&field);

        let mut noise = rng(140 + s);
        let mut basic = Tracker::new(map.clone(), TrackerOptions::default());
        let run = basic.track(&field, &p.sampler(), &trace, &mut noise);
        basic_std += run.error_stats().std;
        basic_mean += run.error_stats().mean;

        let mut noise = rng(140 + s);
        let mut ext = Tracker::new(map, TrackerOptions::extended());
        let run = ext.track(&field, &p.sampler(), &trace, &mut noise);
        ext_std += run.error_stats().std;
        ext_mean += run.error_stats().mean;
    }
    assert!(
        ext_std < basic_std * 1.02,
        "extension must not worsen std: {:.2} vs {:.2}",
        ext_std / seeds as f64,
        basic_std / seeds as f64
    );
    assert!(
        ext_mean < basic_mean * 1.05,
        "extension must not worsen the mean: {:.2} vs {:.2}",
        ext_mean / seeds as f64,
        basic_mean / seeds as f64
    );
}

/// Section 5.1's numeric example, end to end through the theory module.
#[test]
fn sampling_times_bound_matches_paper_example() {
    let pairs_20_nodes = 20 * 19 / 2;
    assert_eq!(theory::required_sampling_times(0.99, pairs_20_nodes), 16);
}

/// Fig. 3's trend. The arrangement of uncertain boundaries is scale
/// invariant (Apollonius bands grow with the pair separation), so the
/// meaningful statement of "certain faces disappear as nodes move apart"
/// is relative to a *fixed observation region*: a target zone in the
/// middle of the field is covered by certain faces when the nodes are
/// nearby, and swallowed whole by uncertain bands once the nodes are far
/// away (every distance ratio tends to 1 with range).
#[test]
fn certain_faces_vanish_with_spacing() {
    let field = Rect::square(100.0);
    let c = params().uncertainty_constant();
    let square = |half: f64| {
        vec![
            Point::new(50.0 - half, 50.0 - half),
            Point::new(50.0 + half, 50.0 - half),
            Point::new(50.0 - half, 50.0 + half),
            Point::new(50.0 + half, 50.0 + half),
        ]
    };
    let window = Rect::new(Point::new(40.0, 40.0), Point::new(60.0, 60.0));
    let certain_cells_in_window = |half: f64| {
        let map = FaceMap::build(&square(half), field, c, 1.0);
        map.grid()
            .iter_centers()
            .filter(|&(_, center)| window.contains(center))
            .filter(|&(_, center)| {
                let id = map.face_at(center).unwrap();
                map.is_certain(id)
            })
            .count()
    };
    let tight = certain_cells_in_window(8.0);
    let wide = certain_cells_in_window(45.0);
    assert!(
        tight > 0,
        "nearby nodes must give certain cells in the window"
    );
    assert!(
        (wide as f64) < 0.25 * tight as f64,
        "certainty must collapse in the window: tight {tight} vs wide {wide} cells"
    );
}

/// The uncertainty constant threads consistently through the stack: the
/// face map built by PaperParams uses exactly eq. (3)'s value.
#[test]
fn constant_is_consistent_across_crates() {
    let p = params();
    let mut world = rng(77);
    let field = p.random_field(&mut world);
    let map = p.face_map(&field);
    assert_eq!(map.uncertainty_constant(), p.uncertainty_constant());
    assert_eq!(
        map.uncertainty_constant(),
        fttt_suite::signal::uncertainty_constant(p.epsilon, p.beta, p.sigma)
    );
}
