//! Direct MLE: memoryless one-shot sequence matching on certain faces.

use crate::one_shot::one_shot_vector;
use fttt::facemap::FaceMap;
use fttt::matching::{match_exhaustive, MatchOutcome};
use fttt::tracker::{Localization, TrackingRun};
use rand::Rng;
use wsn_geometry::{Point, Rect};
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, GroupSampling, SensorField};

/// The Direct-MLE tracker (paper ref. \[24\]'s sequence localization used as
/// a tracking baseline): perpendicular-bisector face division (`C = 1`),
/// one-shot detection sequences, exhaustive maximum-likelihood matching,
/// no temporal state.
#[derive(Debug, Clone)]
pub struct DirectMle {
    map: FaceMap,
}

impl DirectMle {
    /// Builds the baseline's certain-face division for sensors at
    /// `positions` over `field`, rasterized at `cell_size` metres.
    pub fn new(positions: &[Point], field: Rect, cell_size: f64) -> Self {
        // C = 1: the uncertain band degenerates to the bisector itself.
        Self {
            map: FaceMap::build_with_threads(
                positions,
                field,
                1.0,
                cell_size,
                wsn_parallel::recommended_threads(),
            ),
        }
    }

    /// The underlying face map.
    pub fn map(&self) -> &FaceMap {
        &self.map
    }

    /// Localizes one grouping sampling (only its newest instant is used).
    pub fn localize(&self, group: &GroupSampling) -> (Point, MatchOutcome) {
        let v = one_shot_vector(group);
        let outcome = match_exhaustive(&self.map, &v);
        let estimate = if outcome.ties.len() > 1 {
            let mut x = 0.0;
            let mut y = 0.0;
            for &id in &outcome.ties {
                let c = self.map.face(id).centroid;
                x += c.x;
                y += c.y;
            }
            let n = outcome.ties.len() as f64;
            Point::new(x / n, y / n)
        } else {
            self.map.face(outcome.face).centroid
        };
        (estimate, outcome)
    }

    /// Tracks a target along `trace`, one localization per trace point.
    pub fn track<R: Rng + ?Sized>(
        &self,
        field: &SensorField,
        sampler: &GroupSampler,
        trace: &Trace,
        rng: &mut R,
    ) -> TrackingRun {
        let mut localizations = Vec::with_capacity(trace.len());
        for p in trace.points() {
            let group = sampler.sample(field, p.pos, rng);
            let (estimate, outcome) = self.localize(&group);
            localizations.push(Localization {
                t: p.t,
                truth: p.pos,
                estimate,
                face: outcome.face,
                similarity: outcome.similarity,
                error: estimate.distance(p.pos),
                evaluated: outcome.evaluated,
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

    fn setup(sigma: f64) -> (SensorField, DirectMle, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(9, field);
        let sensor_field = SensorField::new(deployment, 150.0);
        let mle = DirectMle::new(&sensor_field.deployment().positions(), field, 2.0);
        let sampler = GroupSampler::new(PathLossModel::new(-40.0, 0.0, 4.0, sigma), 5);
        (sensor_field, mle, sampler)
    }

    #[test]
    fn map_is_the_certain_division() {
        let (_, mle, _) = setup(0.0);
        assert_eq!(mle.map().uncertainty_constant(), 1.0);
        // Essentially every face of a bisector division is certain.
        assert!(mle.map().certain_face_count() as f64 >= 0.9 * mle.map().face_count() as f64);
    }

    #[test]
    fn noiseless_one_shot_is_accurate() {
        let (field, mle, sampler) = setup(0.0);
        let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0);
        let run = mle.track(&field, &sampler, &trace, &mut rng(1));
        assert!(
            run.error_stats().mean < 8.0,
            "mean {}",
            run.error_stats().mean
        );
    }

    #[test]
    fn noise_degrades_it_substantially() {
        let (field, mle, sampler) = setup(6.0);
        let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0);
        let clean = setup(0.0);
        let run_noisy = mle.track(&field, &sampler, &trace, &mut rng(2));
        let run_clean = clean.1.track(&clean.0, &clean.2, &trace, &mut rng(2));
        assert!(
            run_noisy.error_stats().mean > run_clean.error_stats().mean,
            "noise must hurt the certain-sequence method"
        );
    }

    #[test]
    fn localize_is_memoryless() {
        let (field, mle, sampler) = setup(6.0);
        let g = sampler.sample(&field, Point::new(30.0, 30.0), &mut rng(3));
        let (a, _) = mle.localize(&g);
        let (b, _) = mle.localize(&g);
        assert_eq!(a, b, "same input, same output, no hidden state");
    }
}
