//! The paper's Table-1 parameter set, as one reusable configuration.

use crate::facemap::FaceMap;
use rand::Rng;
use wsn_geometry::Rect;
use wsn_mobility::{RandomWaypoint, Trace};
use wsn_network::{Deployment, GroupSampler, SensorField};
use wsn_signal::PathLossModel;

/// How the face-map uncertainty constant `C` is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstantRule {
    /// The paper's eq. (3): `C` from the expected distance ratio at the
    /// sensing-resolution limit. Faithful default.
    PaperEq3,
    /// `wsn_signal::calibrated_uncertainty_constant`: the ratio where a
    /// k-sample grouping witnesses a flip with probability ½, making the
    /// offline division consistent with the online sampling statistics
    /// (suite extension; see the `fig12b` experiment).
    FlipCalibrated,
}

/// Which sensing-noise model the sampler draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseModel {
    /// Eq. 1's log-normal shadowing (physical default).
    GaussianEq1,
    /// The paper's idealized sensing model: bounded noise whose
    /// flip-possible region is exactly the eq.-3 Apollonius band (flips
    /// never occur outside any pair's uncertain area — the assumption
    /// behind the Section-5 analysis).
    IdealizedBand,
}

/// System parameters and settings (paper Table 1) plus the two
/// implementation knobs the paper leaves implicit (reference path loss and
/// grid cell size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperParams {
    /// Field side, metres (Table 1: 100 × 100 m²).
    pub field_side: f64,
    /// Path-loss exponent β (Table 1: 4).
    pub beta: f64,
    /// Shadowing σ_X, dB (Table 1: 6).
    pub sigma: f64,
    /// Reference path loss at 1 m, dBm (implementation constant; cancels
    /// out of all pairwise comparisons).
    pub pl_d0: f64,
    /// Number of sensor nodes (Table 1: 5–40).
    pub nodes: usize,
    /// Sensing range R, metres (Table 1: 40).
    pub sensing_range: f64,
    /// Sensing resolution ε, dBm (Table 1: 0.5–3).
    pub epsilon: f64,
    /// Sampling rate λ, Hz (Table 1: 10).
    pub sampling_rate_hz: f64,
    /// Target speed range, m/s (Table 1: 1–5).
    pub min_speed: f64,
    /// Maximum target speed, m/s.
    pub max_speed: f64,
    /// Grouping sampling times k (Table 1: 3–9).
    pub samples_k: usize,
    /// Raster cell size for the approximate grid division, metres.
    pub cell_size: f64,
    /// How `C` is derived (default: the paper's eq. 3).
    pub constant_rule: ConstantRule,
    /// Which noise model the sampler uses (default: eq. 1 Gaussian).
    pub noise_model: NoiseModel,
}

impl Default for PaperParams {
    fn default() -> Self {
        Self {
            field_side: 100.0,
            beta: 4.0,
            sigma: 6.0,
            pl_d0: -40.0,
            nodes: 10,
            sensing_range: 40.0,
            epsilon: 1.0,
            sampling_rate_hz: 10.0,
            min_speed: 1.0,
            max_speed: 5.0,
            samples_k: 5,
            cell_size: 1.0,
            constant_rule: ConstantRule::PaperEq3,
            noise_model: NoiseModel::GaussianEq1,
        }
    }
}

impl PaperParams {
    /// Sets the node count.
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the sensing resolution ε (dBm).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the grouping sampling times k.
    pub fn with_samples(mut self, k: usize) -> Self {
        self.samples_k = k;
        self
    }

    /// Sets the raster cell size (metres).
    pub fn with_cell_size(mut self, cell: f64) -> Self {
        self.cell_size = cell;
        self
    }

    /// Sets the shadowing σ (dB).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = sigma;
        self
    }

    /// The monitored rectangle.
    pub fn rect(&self) -> Rect {
        Rect::square(self.field_side)
    }

    /// The radio model.
    pub fn model(&self) -> PathLossModel {
        PathLossModel::new(self.pl_d0, 0.0, self.beta, self.sigma)
    }

    /// Switches to the flip-calibrated constant rule.
    pub fn with_calibrated_constant(mut self) -> Self {
        self.constant_rule = ConstantRule::FlipCalibrated;
        self
    }

    /// The uncertainty constant `C` for these parameters, per the active
    /// [`ConstantRule`].
    pub fn uncertainty_constant(&self) -> f64 {
        match self.constant_rule {
            ConstantRule::PaperEq3 => self.model().uncertainty_constant(self.epsilon),
            ConstantRule::FlipCalibrated => wsn_signal::calibrated_uncertainty_constant(
                self.epsilon,
                self.beta,
                self.sigma,
                self.samples_k,
            ),
        }
    }

    /// Uniform-random deployment of [`PaperParams::nodes`] sensors.
    pub fn random_field<R: Rng + ?Sized>(&self, rng: &mut R) -> SensorField {
        SensorField::new(
            Deployment::random_uniform(self.nodes, self.rect(), rng),
            self.sensing_range,
        )
    }

    /// Regular-grid deployment of [`PaperParams::nodes`] sensors.
    pub fn grid_field(&self) -> SensorField {
        SensorField::new(
            Deployment::grid(self.nodes, self.rect()),
            self.sensing_range,
        )
    }

    /// Builds the face map for a deployment under these parameters
    /// (parallel rasterization).
    pub fn face_map(&self, field: &SensorField) -> FaceMap {
        FaceMap::build_with_threads(
            &field.deployment().positions(),
            self.rect(),
            self.uncertainty_constant(),
            self.cell_size,
            wsn_parallel::recommended_threads(),
        )
    }

    /// Switches to the idealized bounded-noise sensing model.
    pub fn with_idealized_noise(mut self) -> Self {
        self.noise_model = NoiseModel::IdealizedBand;
        self
    }

    /// The grouping sampler (no faults), under the active [`NoiseModel`].
    pub fn sampler(&self) -> GroupSampler {
        let s = GroupSampler::new(self.model(), self.samples_k);
        match self.noise_model {
            NoiseModel::GaussianEq1 => s,
            NoiseModel::IdealizedBand => {
                // The flip-possible band is the eq.-3 constant regardless
                // of the face-map rule, so the offline division matches
                // the idealized physics exactly.
                s.with_idealized_band(self.model().uncertainty_constant(self.epsilon))
            }
        }
    }

    /// The random-waypoint mobility model.
    pub fn mobility(&self) -> RandomWaypoint {
        RandomWaypoint::new(self.rect(), self.min_speed, self.max_speed, 0.0)
    }

    /// Seconds between localizations: one grouping sampling of `k` samples
    /// at the Table-1 sampling rate.
    pub fn localization_period(&self) -> f64 {
        self.samples_k as f64 / self.sampling_rate_hz
    }

    /// A random-waypoint trace of `duration` seconds sampled at the
    /// localization period.
    pub fn random_trace<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Trace {
        self.mobility()
            .trace(duration, self.localization_period(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn defaults_match_table1() {
        let p = PaperParams::default();
        assert_eq!(p.field_side, 100.0);
        assert_eq!(p.beta, 4.0);
        assert_eq!(p.sigma, 6.0);
        assert_eq!(p.sensing_range, 40.0);
        assert_eq!(p.sampling_rate_hz, 10.0);
        assert_eq!(p.min_speed, 1.0);
        assert_eq!(p.max_speed, 5.0);
    }

    #[test]
    fn builders_chain() {
        let p = PaperParams::default()
            .with_nodes(25)
            .with_epsilon(2.0)
            .with_samples(7);
        assert_eq!(p.nodes, 25);
        assert_eq!(p.epsilon, 2.0);
        assert_eq!(p.samples_k, 7);
    }

    #[test]
    fn localization_period_follows_rate() {
        let p = PaperParams::default().with_samples(5);
        assert_eq!(p.localization_period(), 0.5);
    }

    #[test]
    fn constant_matches_signal_crate() {
        let p = PaperParams::default();
        let expected = wsn_signal::uncertainty_constant(p.epsilon, p.beta, p.sigma);
        assert_eq!(p.uncertainty_constant(), expected);
        assert!(p.uncertainty_constant() > 1.0);
    }

    #[test]
    fn calibrated_rule_widens_the_constant() {
        let eq3 = PaperParams::default();
        let cal = PaperParams::default().with_calibrated_constant();
        assert!(cal.uncertainty_constant() > eq3.uncertainty_constant());
        // Calibrated C tracks k; eq. 3's does not.
        let cal9 = cal.with_samples(9);
        assert!(cal9.uncertainty_constant() > cal.uncertainty_constant());
        let eq3_9 = eq3.with_samples(9);
        assert_eq!(eq3_9.uncertainty_constant(), eq3.uncertainty_constant());
    }

    #[test]
    fn end_to_end_assembly() {
        let p = PaperParams::default().with_nodes(6).with_cell_size(4.0);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let field = p.random_field(&mut rng);
        assert_eq!(field.len(), 6);
        let map = p.face_map(&field);
        assert!(map.face_count() > 1);
        assert_eq!(map.pair_dimension(), 15);
        let trace = p.random_trace(5.0, &mut rng);
        assert!(trace.len() >= 10);
    }
}
