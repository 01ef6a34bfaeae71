//! PM: path matching with MLE under a maximum-velocity constraint.

use crate::one_shot::one_shot_vector;
use fttt::facemap::{FaceId, FaceMap};
use fttt::tracker::{Localization, TrackingRun};
use fttt::vector::{similarity, PackedQuery, SamplingVector};
use rand::Rng;
use wsn_geometry::{Point, Rect};
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, GroupSampling, SensorField};

/// The PM tracker (paper ref. \[22\]'s optimal path matching, reproduced as
/// an online beam Viterbi):
///
/// * certain-face division (`C = 1` bisectors) and one-shot sequences,
///   like [`crate::DirectMle`];
/// * a beam of path hypotheses, each a face with a cumulative
///   log-likelihood score (negative sequence distance);
/// * hypotheses only extend to faces reachable within `v_max·Δt` (plus the
///   two faces' radii — faces are regions, not points), the assumed-
///   maximum-velocity constraint the paper criticizes PM for needing.
///
/// The published algorithm solves the path assignment over a bounded
/// trace window; the beam recursion here is the online form of the same
/// dynamic program, with two knobs that emulate the finite window:
///
/// * **forgetting** `γ ∈ (0, 1]` — previous path scores decay by `γ` per
///   step, bounding the effective memory to `≈ 1/(1−γ)` localizations the
///   way the published window does (with `γ = 1` evidence accumulates
///   forever and one bad lock-in poisons the rest of the trace);
/// * **jump penalty** — transitions that violate the velocity constraint
///   are either forbidden (`None`, the strict published rule) or charged a
///   fixed score penalty, letting strong fresh evidence override a wrong
///   path hypothesis as the window-limited batch algorithm would.
///
/// Per-step cost is `O(beam × faces)`.
#[derive(Debug, Clone)]
pub struct PathMatching {
    map: FaceMap,
    max_speed: f64,
    dt: f64,
    beam_width: usize,
    /// Per-step decay of accumulated path scores (default 0.7).
    forgetting: f64,
    /// Score charge for a constraint-violating transition; `None` forbids
    /// them outright (default `Some(2.0)`).
    jump_penalty: Option<f64>,
    /// Current hypotheses: `(face, cumulative score)`, best first.
    beam: Vec<(FaceId, f64)>,
}

impl PathMatching {
    /// Builds the tracker.
    ///
    /// `max_speed` is the *assumed* maximum target speed (m/s), `dt` the
    /// time between localizations (s).
    ///
    /// # Panics
    ///
    /// Panics unless `max_speed` and `dt` are strictly positive.
    pub fn new(positions: &[Point], field: Rect, cell_size: f64, max_speed: f64, dt: f64) -> Self {
        assert!(
            max_speed > 0.0 && max_speed.is_finite(),
            "max speed must be positive"
        );
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let map = FaceMap::build_with_threads(
            positions,
            field,
            1.0,
            cell_size,
            wsn_parallel::recommended_threads(),
        );
        Self {
            map,
            max_speed,
            dt,
            beam_width: 64,
            forgetting: 1.0,
            jump_penalty: None,
            beam: Vec::new(),
        }
    }

    /// The strict published formulation — no score forgetting, hard
    /// velocity constraint. This **is** the default; the method exists so
    /// call sites can state the choice explicitly next to
    /// [`PathMatching::robust`].
    pub fn strict(mut self) -> Self {
        self.forgetting = 1.0;
        self.jump_penalty = None;
        self
    }

    /// A windowed/robust variant: exponential score forgetting (γ = 0.7)
    /// and a soft penalty (2.0) for constraint-violating jumps, letting
    /// strong fresh evidence override a locked-in path hypothesis. In our
    /// measurements (`ablation_pm`) the strict form with tie-averaged
    /// estimates is already competitive; the knobs remain for studying the
    /// lock-in behaviour.
    pub fn robust(mut self) -> Self {
        self.forgetting = 0.7;
        self.jump_penalty = Some(2.0);
        self
    }

    /// The underlying face map.
    pub fn map(&self) -> &FaceMap {
        &self.map
    }

    /// Replaces the beam width (default 64).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_beam_width(mut self, width: usize) -> Self {
        assert!(width > 0, "beam width must be positive");
        self.beam_width = width;
        self
    }

    /// Drops all path hypotheses (target lost / new track).
    pub fn reset(&mut self) {
        self.beam.clear();
    }

    /// Localizes one grouping sampling, advancing the path beam.
    pub fn localize(&mut self, group: &GroupSampling) -> (Point, FaceId, f64, usize) {
        let v: SamplingVector = one_shot_vector(group);
        let faces = self.map.faces();
        // Per-face observation cost: sequence distance (lower = better),
        // computed with the packed bit-plane kernel.
        let q = PackedQuery::new(&v);
        let planes = self.map.planes();
        let dists: Vec<f64> = faces
            .iter()
            .map(|f| planes.distance_squared(f.id.index(), &q).sqrt())
            .collect();

        let reach = self.max_speed * self.dt;
        let mut scored: Vec<(FaceId, f64)> = if self.beam.is_empty() {
            faces.iter().map(|f| (f.id, -dists[f.id.index()])).collect()
        } else {
            faces
                .iter()
                .filter_map(|f| {
                    // A face is reachable from a hypothesis if the closest
                    // points of the two regions (conservatively, their
                    // bounding boxes) are within v_max·Δt; unreachable
                    // transitions pay the jump penalty (or are dropped).
                    let best_prev = self
                        .beam
                        .iter()
                        .filter_map(|&(pid, score)| {
                            if self.map.face(pid).bbox.distance_to(&f.bbox) <= reach {
                                Some(self.forgetting * score)
                            } else {
                                self.jump_penalty.map(|pen| self.forgetting * score - pen)
                            }
                        })
                        .fold(f64::NEG_INFINITY, f64::max);
                    (best_prev > f64::NEG_INFINITY).then(|| (f.id, best_prev - dists[f.id.index()]))
                })
                .collect()
        };
        if scored.is_empty() {
            // Every hypothesis died (target out-ran the assumed v_max):
            // restart from scratch, exactly the failure mode the paper
            // attributes to PM.
            scored = faces.iter().map(|f| (f.id, -dists[f.id.index()])).collect();
        }
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        // Tie-average the estimate over all top-scoring faces (the same
        // rule the other trackers use — with integer-quantized sequence
        // distances, ties are the norm, not the exception).
        let top = scored[0].1;
        let mut x = 0.0;
        let mut y = 0.0;
        let mut ties = 0usize;
        for &(id, score) in &scored {
            if score < top {
                break;
            }
            let c = self.map.face(id).centroid;
            x += c.x;
            y += c.y;
            ties += 1;
        }
        let estimate = Point::new(x / ties as f64, y / ties as f64);

        scored.truncate(self.beam_width);
        // Renormalize so cumulative scores do not drift to −∞ over long
        // traces (only score differences matter).
        for s in &mut scored {
            s.1 -= top;
        }
        let best = scored[0].0;
        let evaluated = faces.len();
        self.beam = scored;
        let sim = similarity(&v, &self.map.signature(best));
        (estimate, best, sim, evaluated)
    }

    /// Tracks a target along `trace`, one localization per trace point.
    pub fn track<R: Rng + ?Sized>(
        &mut self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
    ) -> TrackingRun {
        let mut localizations = Vec::with_capacity(trace.len());
        for p in trace.points() {
            let group = sampler.sample(field, p.pos, rng);
            let (estimate, face, sim, evaluated) = self.localize(&group);
            localizations.push(Localization {
                t: p.t,
                truth: p.pos,
                estimate,
                face,
                similarity: sim,
                error: estimate.distance(p.pos),
                evaluated,
            });
        }
        TrackingRun { localizations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wsn_mobility::WaypointPath;
    use wsn_network::Deployment;
    use wsn_signal::PathLossModel;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(sigma: f64) -> (SensorField, PathMatching, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(9, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let pm = PathMatching::new(&sensor_field.deployment().positions(), field, 2.0, 5.0, 1.0);
        let sampler = GroupSampler::new(PathLossModel::new(-40.0, 0.0, 4.0, sigma), 5);
        (sensor_field, pm, sampler)
    }

    fn straight() -> Trace {
        WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0)
    }

    #[test]
    fn noiseless_path_tracking_is_accurate() {
        let (field, mut pm, sampler) = setup(0.0);
        let run = pm.track(&field, &sampler, &straight(), &mut rng(1));
        assert!(
            run.error_stats().mean < 8.0,
            "mean {}",
            run.error_stats().mean
        );
    }

    #[test]
    fn velocity_constraint_smooths_versus_direct_mle() {
        use crate::direct_mle::DirectMle;
        let (field, mut pm, sampler) = setup(6.0);
        let mle = DirectMle::new(&field.deployment().positions(), Rect::square(100.0), 2.0);
        let trace = straight();
        let mut pm_means = Vec::new();
        let mut mle_means = Vec::new();
        for seed in 0..6 {
            pm.reset();
            pm_means.push(
                pm.track(&field, &sampler, &trace, &mut rng(10 + seed))
                    .error_stats()
                    .mean,
            );
            mle_means.push(
                mle.track(&field, &sampler, &trace, &mut rng(10 + seed))
                    .error_stats()
                    .mean,
            );
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&pm_means) <= avg(&mle_means) * 1.05,
            "PM {} vs Direct MLE {}",
            avg(&pm_means),
            avg(&mle_means)
        );
    }

    #[test]
    fn beam_state_is_resettable() {
        let (field, mut pm, sampler) = setup(6.0);
        let g = sampler.sample(&field, Point::new(30.0, 30.0), &mut rng(3));
        let _ = pm.localize(&g);
        assert!(!pm.beam.is_empty());
        pm.reset();
        assert!(pm.beam.is_empty());
    }

    #[test]
    fn survives_target_outrunning_vmax() {
        // A 2 m/s assumed v_max against a 12 m/s target: hypotheses keep
        // dying; the tracker must restart rather than wedge.
        let field_rect = Rect::square(100.0);
        let deployment = Deployment::grid(9, field_rect);
        let field = SensorField::new(deployment, 150.0);
        let mut pm = PathMatching::new(&field.deployment().positions(), field_rect, 2.0, 2.0, 1.0);
        let sampler = GroupSampler::new(PathLossModel::new(-40.0, 0.0, 4.0, 6.0), 5);
        let fast = WaypointPath::new(vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)])
            .walk_constant(12.0, 1.0);
        let run = pm.track(&field, &sampler, &fast, &mut rng(4));
        assert!(run.error_stats().mean.is_finite());
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_beam_rejected() {
        let (field, pm, _) = setup(0.0);
        let _ = field;
        let _ = pm.with_beam_width(0);
    }
}
