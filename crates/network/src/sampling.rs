//! The grouping-sampling data path (paper Definition 3).
//!
//! For one localization, every sensor samples the target's signal `k` times
//! within a short window `Δt`; the paper treats the target as stationary
//! within the window (at a 10 Hz sampling rate and ≤ 5 m/s this holds to a
//! few decimetres). The result is a `k × n` matrix of readings, with holes
//! where a sensor was out of range, dead, or a one-shot sample was lost.

use crate::fault::FaultModel;
use crate::field::SensorField;
use rand::Rng;
use wsn_geometry::Point;
use wsn_signal::{PathLossModel, Rss};
use wsn_telemetry as telemetry;

/// The `k × n` matrix of one grouping sampling. Row = time instant,
/// column = node (in ID order); `None` marks a missing reading.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSampling {
    nodes: usize,
    instants: usize,
    readings: Vec<Option<Rss>>,
}

impl GroupSampling {
    /// An empty matrix (all readings missing).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn empty(nodes: usize, instants: usize) -> Self {
        assert!(
            nodes > 0 && instants > 0,
            "matrix dimensions must be positive"
        );
        Self {
            nodes,
            instants,
            readings: vec![None; nodes * instants],
        }
    }

    /// Builds a matrix from rows of readings (each row one instant,
    /// `row[j]` the reading of node `j`).
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or an empty matrix.
    pub fn from_rows(rows: Vec<Vec<Option<Rss>>>) -> Self {
        assert!(!rows.is_empty(), "need at least one instant");
        let nodes = rows[0].len();
        assert!(nodes > 0, "need at least one node");
        let instants = rows.len();
        let mut readings = Vec::with_capacity(nodes * instants);
        for row in &rows {
            assert_eq!(row.len(), nodes, "ragged sampling matrix");
            readings.extend_from_slice(row);
        }
        Self {
            nodes,
            instants,
            readings,
        }
    }

    /// Number of node columns.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of sampling instants (the paper's `k`).
    #[inline]
    pub fn instants(&self) -> usize {
        self.instants
    }

    /// Reading of node `node` at `instant`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn get(&self, instant: usize, node: usize) -> Option<Rss> {
        assert!(
            instant < self.instants && node < self.nodes,
            "index out of range"
        );
        self.readings[instant * self.nodes + node]
    }

    /// Sets one reading.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn set(&mut self, instant: usize, node: usize, value: Option<Rss>) {
        assert!(
            instant < self.instants && node < self.nodes,
            "index out of range"
        );
        self.readings[instant * self.nodes + node] = value;
    }

    /// Every reading in row-major order: instant `t`'s row is
    /// `readings()[t * node_count()..(t + 1) * node_count()]`.
    #[inline]
    pub fn readings(&self) -> &[Option<Rss>] {
        &self.readings
    }

    /// Column of node `node` across all instants.
    pub fn column(&self, node: usize) -> impl Iterator<Item = Option<Rss>> + '_ {
        assert!(node < self.nodes, "node index out of range");
        (0..self.instants).map(move |t| self.readings[t * self.nodes + node])
    }

    /// `true` if the node produced at least one reading (paper: the node is
    /// in `N_r`).
    pub fn node_responded(&self, node: usize) -> bool {
        self.column(node).any(|r| r.is_some())
    }

    /// Per-node response flags, in ID order.
    pub fn responding(&self) -> Vec<bool> {
        (0..self.nodes).map(|j| self.node_responded(j)).collect()
    }

    /// Count of missing readings in the whole matrix.
    pub fn missing_count(&self) -> usize {
        self.readings.iter().filter(|r| r.is_none()).count()
    }
}

/// How per-reading noise is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerNoise {
    /// Eq. 1's log-normal shadowing: Gaussian with the model's σ (the
    /// physical default).
    GaussianEq1,
    /// Bounded uniform noise of the given half-width (dB): the paper's
    /// idealized sensing model, where pair orders can only flip inside a
    /// bounded Apollonius band (see
    /// `wsn_signal::PathLossModel::band_half_width`).
    UniformBand {
        /// Noise half-width in dB.
        half_width: f64,
    },
}

/// Draws grouping samplings from a [`SensorField`] under a radio and fault
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSampler {
    /// Radio model generating the RSS readings.
    pub model: PathLossModel,
    /// Sampling times `k` per grouping (Table 1: 3–9).
    pub samples: usize,
    /// Fault injection applied to nodes and readings.
    pub fault: FaultModel,
    /// Noise distribution (default: eq. 1's Gaussian).
    pub noise: SamplerNoise,
    /// Per-node calibration offsets in dB, added to every reading of the
    /// corresponding node (empty = perfectly calibrated). Models hardware
    /// gain variation between sensors: constant over time, unknown to the
    /// trackers.
    pub node_offsets: Vec<f64>,
}

impl GroupSampler {
    /// Creates a sampler with no faults.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(model: PathLossModel, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample per grouping");
        Self {
            model,
            samples,
            fault: FaultModel::none(),
            noise: SamplerNoise::GaussianEq1,
            node_offsets: Vec::new(),
        }
    }

    /// Sets per-node calibration offsets (dB). The vector length must
    /// match the sampled field's node count; missing entries are treated
    /// as zero.
    pub fn with_node_offsets(mut self, offsets: Vec<f64>) -> Self {
        assert!(
            offsets.iter().all(|o| o.is_finite()),
            "calibration offsets must be finite"
        );
        self.node_offsets = offsets;
        self
    }

    /// Replaces the fault model.
    ///
    /// # Panics
    ///
    /// Panics if `fault` fails [`FaultModel::validate`] — a model built by
    /// filling the public fields directly (e.g. from a config file) must
    /// not reach the sampling path with out-of-range probabilities.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        if let Err(e) = fault.validate() {
            panic!("{e}");
        }
        self.fault = fault;
        self
    }

    /// Switches to the idealized bounded-noise model whose flip-possible
    /// region is the Apollonius band of ratio `c`.
    pub fn with_idealized_band(mut self, c: f64) -> Self {
        self.noise = SamplerNoise::UniformBand {
            half_width: self.model.band_half_width(c),
        };
        self
    }

    /// Performs one grouping sampling of a target at `target`.
    ///
    /// A node yields readings only if it is within sensing range and does
    /// not fail for this grouping; individual readings may still drop.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        field: &SensorField,
        target: Point,
        rng: &mut R,
    ) -> GroupSampling {
        let n = field.len();
        let mut out = GroupSampling::empty(n, self.samples);
        // Fault tallies, accumulated locally and flushed once at the end —
        // with no telemetry sink the cost is a few dead integer adds.
        let mut silent_nodes = 0u64;
        let mut dropped = 0u64;
        let mut delivered = 0u64;
        for (j, node) in field.nodes().iter().enumerate() {
            if !field.in_range(node, target) || self.fault.node_fails(node.id, rng) {
                silent_nodes += 1;
                continue;
            }
            let d = node.distance_to(target);
            for t in 0..self.samples {
                if self.fault.reading_drops(rng) {
                    dropped += 1;
                    continue;
                }
                let reading = match self.noise {
                    SamplerNoise::GaussianEq1 => self.model.sample_rss(d, rng),
                    SamplerNoise::UniformBand { half_width } => {
                        self.model.sample_rss_bounded(d, half_width, rng)
                    }
                };
                let offset = self.node_offsets.get(j).copied().unwrap_or(0.0);
                out.set(t, j, Some(Rss::new(reading.dbm() + offset)));
                delivered += 1;
            }
        }
        if telemetry::enabled() {
            telemetry::counter_add("wsn.sampler.groupings", 1);
            telemetry::counter_add("wsn.sampler.silent_nodes", silent_nodes);
            telemetry::counter_add("wsn.sampler.readings_dropped", dropped);
            telemetry::counter_add("wsn.sampler.readings_delivered", delivered);
        }
        if telemetry::journal_enabled() {
            use telemetry::ArgValue;
            telemetry::trace_instant(
                "wsn.sampler.grouping",
                vec![
                    ("silent_nodes", ArgValue::U64(silent_nodes)),
                    ("dropped", ArgValue::U64(dropped)),
                    ("delivered", ArgValue::U64(delivered)),
                ],
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::node::NodeId;
    use rand::SeedableRng;
    use wsn_geometry::Rect;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn field() -> SensorField {
        let d = Deployment::grid(4, Rect::square(40.0));
        SensorField::new(d, 60.0)
    }

    #[test]
    fn matrix_layout_round_trip() {
        let mut m = GroupSampling::empty(3, 2);
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.instants(), 2);
        m.set(1, 2, Some(Rss::new(-50.0)));
        assert_eq!(m.get(1, 2), Some(Rss::new(-50.0)));
        assert_eq!(m.get(0, 2), None);
        assert_eq!(m.missing_count(), 5);
    }

    #[test]
    fn from_rows_matches_sets() {
        let r = Rss::new(-45.0);
        let m = GroupSampling::from_rows(vec![vec![Some(r), None], vec![None, Some(r)]]);
        assert_eq!(m.get(0, 0), Some(r));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 1), Some(r));
        let col0: Vec<_> = m.column(0).collect();
        assert_eq!(col0, vec![Some(r), None]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = GroupSampling::from_rows(vec![vec![None], vec![None, None]]);
    }

    #[test]
    fn faultless_sampling_is_complete() {
        let s = GroupSampler::new(PathLossModel::paper_default(), 5);
        let m = s.sample(&field(), Point::new(20.0, 20.0), &mut rng(1));
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.instants(), 5);
        assert_eq!(m.missing_count(), 0);
        assert!(m.responding().iter().all(|&b| b));
    }

    #[test]
    fn out_of_range_nodes_do_not_respond() {
        // Range 15 m on a 40 m field: the far-corner grid node can't hear a
        // target near the origin corner.
        let d = Deployment::grid(4, Rect::square(40.0));
        let f = SensorField::new(d, 15.0);
        let s = GroupSampler::new(PathLossModel::paper_default(), 3);
        let m = s.sample(&f, Point::new(10.0, 10.0), &mut rng(2));
        assert!(m.node_responded(0), "nearest node must respond");
        assert!(!m.node_responded(3), "far corner node must be silent");
    }

    #[test]
    fn dead_nodes_yield_empty_columns() {
        let s = GroupSampler::new(PathLossModel::paper_default(), 4)
            .with_fault(FaultModel::with_dead_nodes([NodeId(1)]));
        let m = s.sample(&field(), Point::new(20.0, 20.0), &mut rng(3));
        assert!(!m.node_responded(1));
        assert!(m.node_responded(0));
        assert_eq!(m.missing_count(), 4);
    }

    #[test]
    fn reading_drops_thin_the_matrix() {
        let s = GroupSampler::new(PathLossModel::paper_default(), 50)
            .with_fault(FaultModel::with_reading_drop(0.5));
        let m = s.sample(&field(), Point::new(20.0, 20.0), &mut rng(4));
        let total = 4 * 50;
        let missing = m.missing_count();
        assert!(
            missing > total / 4 && missing < 3 * total / 4,
            "missing {missing}/{total}"
        );
    }

    #[test]
    fn sampling_is_reproducible_under_seed() {
        let s = GroupSampler::new(PathLossModel::paper_default(), 5)
            .with_fault(FaultModel::with_reading_drop(0.2));
        let a = s.sample(&field(), Point::new(12.0, 30.0), &mut rng(9));
        let b = s.sample(&field(), Point::new(12.0, 30.0), &mut rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn idealized_band_confines_flips() {
        // Two nodes 20 m apart; target 2 m off the midpoint toward node 0.
        // Under the idealized band of ratio 1.05 the distance ratio 8/12
        // is far outside the band ⟹ order must never flip; under Gaussian
        // noise (σ = 6) it flips often.
        let d = Deployment::explicit(
            &[Point::new(10.0, 20.0), Point::new(30.0, 20.0)],
            Rect::square(40.0),
        );
        let f = SensorField::new(d, 60.0);
        let target = Point::new(18.0, 20.0);
        let mut r = rng(8);
        let ideal = GroupSampler::new(PathLossModel::paper_default(), 1).with_idealized_band(1.05);
        for _ in 0..2_000 {
            let m = ideal.sample(&f, target, &mut r);
            assert!(
                m.get(0, 0).unwrap() > m.get(0, 1).unwrap(),
                "idealized order flipped"
            );
        }
        let gaussian = GroupSampler::new(PathLossModel::paper_default(), 1);
        let flips = (0..2_000)
            .filter(|_| {
                let m = gaussian.sample(&f, target, &mut r);
                m.get(0, 0).unwrap() < m.get(0, 1).unwrap()
            })
            .count();
        assert!(
            flips > 100,
            "Gaussian noise must flip sometimes, got {flips}"
        );
    }

    #[test]
    fn idealized_band_flips_inside_band() {
        // Target exactly on the bisector: flips must occur under any
        // positive noise width.
        let d = Deployment::explicit(
            &[Point::new(10.0, 20.0), Point::new(30.0, 20.0)],
            Rect::square(40.0),
        );
        let f = SensorField::new(d, 60.0);
        let target = Point::new(20.0, 20.0);
        let ideal = GroupSampler::new(PathLossModel::paper_default(), 1).with_idealized_band(1.2);
        let mut r = rng(9);
        let mut first_louder = 0;
        for _ in 0..2_000 {
            let m = ideal.sample(&f, target, &mut r);
            if m.get(0, 0).unwrap() > m.get(0, 1).unwrap() {
                first_louder += 1;
            }
        }
        let frac = first_louder as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "bisector flip rate {frac}");
    }

    #[test]
    fn node_offsets_shift_readings() {
        let base = GroupSampler::new(PathLossModel::paper_default().noiseless(), 2);
        let offset = base.clone().with_node_offsets(vec![3.0, 0.0, -2.0, 0.0]);
        let mut r1 = rng(14);
        let mut r2 = rng(14);
        let target = Point::new(20.0, 20.0);
        let g0 = base.sample(&field(), target, &mut r1);
        let g1 = offset.sample(&field(), target, &mut r2);
        assert!((g1.get(0, 0).unwrap().dbm() - g0.get(0, 0).unwrap().dbm() - 3.0).abs() < 1e-12);
        assert_eq!(g1.get(0, 1), g0.get(0, 1));
        assert!((g1.get(1, 2).unwrap().dbm() - g0.get(1, 2).unwrap().dbm() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn short_offset_vector_pads_with_zero() {
        let s = GroupSampler::new(PathLossModel::paper_default().noiseless(), 1)
            .with_node_offsets(vec![5.0]);
        let g = s.sample(&field(), Point::new(20.0, 20.0), &mut rng(15));
        // Node 3 has no configured offset: unshifted deterministic value.
        let clean = GroupSampler::new(PathLossModel::paper_default().noiseless(), 1).sample(
            &field(),
            Point::new(20.0, 20.0),
            &mut rng(15),
        );
        assert_eq!(g.get(0, 3), clean.get(0, 3));
        assert_ne!(g.get(0, 0), clean.get(0, 0));
    }

    #[test]
    fn nearer_node_is_louder_on_average() {
        let s = GroupSampler::new(PathLossModel::paper_default(), 1);
        let target = Point::new(5.0, 5.0); // next to node 0 of the grid
        let mut r = rng(11);
        let mut node0_louder = 0;
        let rounds = 2_000;
        for _ in 0..rounds {
            let m = s.sample(&field(), target, &mut r);
            if m.get(0, 0).unwrap() > m.get(0, 3).unwrap() {
                node0_louder += 1;
            }
        }
        let frac = node0_louder as f64 / rounds as f64;
        assert!(frac > 0.9, "P(near louder than far) = {frac}");
    }
}
