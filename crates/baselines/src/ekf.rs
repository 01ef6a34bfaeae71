//! An extended Kalman filter tracker: the classic recursive model-based
//! comparator (paper ref. \[18\]).
//!
//! * **State** `x = [pₓ, p_y, vₓ, v_y]`, constant-velocity process with
//!   white-acceleration noise.
//! * **Measurement** the mean group RSS of each responding node;
//!   `h_i(x) = PL(d₀) − 10β·log10(‖p − s_i‖)` is nonlinear, so the update
//!   linearizes around the predicted state (the "extended" part) with
//!   `∂h_i/∂p = −(10β/ln 10)·(p − s_i)/d²`.
//! * **Update** processed **sequentially** per node: with a diagonal
//!   measurement covariance each scalar update needs only `4×4` algebra,
//!   no matrix inversion — the textbook trick that keeps mote-class
//!   implementations feasible.
//!
//! Like the particle filter it consumes absolute RSS and a motion model,
//! inheriting both of their failure modes (calibration error, model
//! mismatch); unlike it, the Gaussian posterior cannot represent the
//! multi-modal ambiguity RSS rings create, so it needs a sane
//! initialization (we use the weighted centroid of the first sampling).

use fttt::tracker::{Localization, TrackingRun};
use rand::Rng;
use wsn_geometry::{Point, Rect};
use wsn_mobility::Trace;
use wsn_network::{GroupSampler, GroupSampling, SensorField};
use wsn_signal::PathLossModel;

/// A 4×4 matrix in row-major order (tiny fixed-size algebra, no deps).
type Mat4 = [[f64; 4]; 4];
type Vec4 = [f64; 4];

fn mat_identity() -> Mat4 {
    let mut m = [[0.0; 4]; 4];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

fn mat_mul(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = 0.0;
            for (k, bk) in b.iter().enumerate() {
                s += a[i][k] * bk[j];
            }
            out[i][j] = s;
        }
    }
    out
}

fn mat_transpose(a: &Mat4) -> Mat4 {
    let mut out = [[0.0; 4]; 4];
    for (i, row) in a.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            out[j][i] = *v;
        }
    }
    out
}

fn mat_add(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = *a;
    for (row, brow) in out.iter_mut().zip(b.iter()) {
        for (v, bv) in row.iter_mut().zip(brow.iter()) {
            *v += bv;
        }
    }
    out
}

fn mat_vec(a: &Mat4, v: &Vec4) -> Vec4 {
    let mut out = [0.0; 4];
    for (o, row) in out.iter_mut().zip(a.iter()) {
        *o = row.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
    }
    out
}

/// The EKF tracker.
#[derive(Debug, Clone)]
pub struct ExtendedKalman {
    field: Rect,
    positions: Vec<Point>,
    model: PathLossModel,
    /// Acceleration noise std, m/s² (process noise intensity).
    pub accel_std: f64,
    /// Time between localizations, seconds.
    pub dt: f64,
    state: Vec4,
    cov: Mat4,
    initialized: bool,
}

impl ExtendedKalman {
    /// Creates the filter.
    ///
    /// # Panics
    ///
    /// Panics unless at least two sensors are given and `dt` is positive
    /// and finite.
    pub fn new(positions: &[Point], field: Rect, model: PathLossModel, dt: f64) -> Self {
        assert!(positions.len() >= 2, "need at least two sensors");
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        Self {
            field,
            positions: positions.to_vec(),
            model,
            accel_std: 1.0,
            dt,
            state: [0.0; 4],
            cov: mat_identity(),
            initialized: false,
        }
    }

    /// Forgets the track.
    pub fn reset(&mut self) {
        self.initialized = false;
    }

    /// Current position estimate.
    pub fn position(&self) -> Point {
        Point::new(self.state[0], self.state[1])
    }

    fn mean_observations(&self, group: &GroupSampling) -> Vec<(usize, f64)> {
        (0..group.node_count())
            .filter_map(|j| {
                let mut sum = 0.0;
                let mut n = 0usize;
                for r in group.column(j).flatten() {
                    sum += r.dbm();
                    n += 1;
                }
                (n > 0).then(|| (j, sum / n as f64))
            })
            .collect()
    }

    fn initialize(&mut self, observations: &[(usize, f64)]) {
        // Weighted-centroid warm start with a wide prior.
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        for &(j, dbm) in observations {
            let w = 10f64.powf(dbm / (10.0 * self.model.beta));
            wx += w * self.positions[j].x;
            wy += w * self.positions[j].y;
            wsum += w;
        }
        let start = if wsum > 0.0 {
            self.field.clamp(Point::new(wx / wsum, wy / wsum))
        } else {
            self.field.center()
        };
        self.state = [start.x, start.y, 0.0, 0.0];
        self.cov = [[0.0; 4]; 4];
        let side = self.field.width().max(self.field.height());
        self.cov[0][0] = (side / 4.0) * (side / 4.0);
        self.cov[1][1] = self.cov[0][0];
        self.cov[2][2] = 9.0; // ±3 m/s prior velocity spread
        self.cov[3][3] = 9.0;
        self.initialized = true;
    }

    fn predict(&mut self) {
        let dt = self.dt;
        let mut f = mat_identity();
        f[0][2] = dt;
        f[1][3] = dt;
        self.state = mat_vec(&f, &self.state);
        // Q for white acceleration: blocks [dt⁴/4, dt³/2; dt³/2, dt²]·σ².
        let q2 = self.accel_std * self.accel_std;
        let (q11, q12, q22) = (dt.powi(4) / 4.0 * q2, dt.powi(3) / 2.0 * q2, dt * dt * q2);
        let mut q = [[0.0; 4]; 4];
        q[0][0] = q11;
        q[1][1] = q11;
        q[0][2] = q12;
        q[2][0] = q12;
        q[1][3] = q12;
        q[3][1] = q12;
        q[2][2] = q22;
        q[3][3] = q22;
        self.cov = mat_add(&mat_mul(&mat_mul(&f, &self.cov), &mat_transpose(&f)), &q);
    }

    fn scalar_update(&mut self, node: usize, observed_dbm: f64, r_var: f64) {
        let s = self.positions[node];
        let p = self.position();
        let dx = p.x - s.x;
        let dy = p.y - s.y;
        // Floor at 1 m²: below the reference distance the log-linear model
        // (and its gradient) is meaningless, and an unbounded gradient
        // produces teleporting updates.
        let d2 = (dx * dx + dy * dy).max(1.0);
        let d = d2.sqrt();
        let predicted = self.model.mean_rss(d).dbm();
        // H = [∂h/∂pₓ, ∂h/∂p_y, 0, 0].
        let g = -10.0 * self.model.beta / std::f64::consts::LN_10;
        let h = [g * dx / d2, g * dy / d2, 0.0, 0.0];
        // S = H P Hᵀ + r (scalar).
        let ph = mat_vec(&self.cov, &h);
        let s_inn: f64 = h.iter().zip(&ph).map(|(a, b)| a * b).sum::<f64>() + r_var;
        if s_inn <= 0.0 || s_inn.is_nan() {
            return;
        }
        let innovation = observed_dbm - predicted;
        // χ² gate: an innovation beyond 3σ is more likely a linearization
        // failure (RSS rings are not Gaussian in position) than signal —
        // absorbing it would teleport the posterior.
        if innovation * innovation > 9.0 * s_inn {
            return;
        }
        let gain: Vec4 = [ph[0] / s_inn, ph[1] / s_inn, ph[2] / s_inn, ph[3] / s_inn];
        for (x, k) in self.state.iter_mut().zip(&gain) {
            *x += k * innovation;
        }
        // P ← (I − K H) P, then symmetrize against round-off.
        let mut kh = [[0.0; 4]; 4];
        for (i, krow) in kh.iter_mut().enumerate() {
            for (j, v) in krow.iter_mut().enumerate() {
                *v = gain[i] * h[j];
            }
        }
        let mut ikh = mat_identity();
        for i in 0..4 {
            for j in 0..4 {
                ikh[i][j] -= kh[i][j];
            }
        }
        self.cov = mat_mul(&ikh, &self.cov);
        for i in 0..4 {
            for j in (i + 1)..4 {
                let avg = 0.5 * (self.cov[i][j] + self.cov[j][i]);
                self.cov[i][j] = avg;
                self.cov[j][i] = avg;
            }
        }
    }

    /// One predict–update cycle over a grouping sampling.
    pub fn localize(&mut self, group: &GroupSampling) -> Point {
        let observations = self.mean_observations(group);
        if !self.initialized {
            self.initialize(&observations);
        } else {
            self.predict();
        }
        let r_var = (self.model.sigma * self.model.sigma / group.instants() as f64).max(1e-6);
        for &(j, dbm) in &observations {
            self.scalar_update(j, dbm, r_var);
        }
        // Keep the posterior inside the field (the linearization knows
        // nothing about walls), and re-open the position covariance when
        // the wall actually bites — otherwise a confident-but-wrong
        // posterior pinned at the boundary can never recover.
        let raw = self.position();
        let clamped = self.field.clamp(raw);
        if raw.distance(clamped) > 1e-9 {
            self.cov[0][0] += 25.0;
            self.cov[1][1] += 25.0;
        }
        self.state[0] = clamped.x;
        self.state[1] = clamped.y;
        clamped
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
            let estimate = self.localize(&group);
            localizations.push(Localization {
                t: p.t,
                truth: p.pos,
                estimate,
                face: fttt::facemap::FaceId(0),
                similarity: 0.0,
                error: estimate.distance(p.pos),
                evaluated: field.len(),
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

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn setup(sigma: f64) -> (SensorField, ExtendedKalman, GroupSampler) {
        let field = Rect::square(100.0);
        let deployment = Deployment::grid(9, field);
        let sf = SensorField::new(deployment, 150.0);
        let model = PathLossModel::new(-40.0, 0.0, 4.0, sigma);
        let ekf = ExtendedKalman::new(&sf.deployment().positions(), field, model, 1.0);
        let sampler = GroupSampler::new(model, 5);
        (sf, ekf, sampler)
    }

    #[test]
    fn matrix_helpers() {
        let i = mat_identity();
        let a: Mat4 = [
            [1.0, 2.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ];
        assert_eq!(mat_mul(&a, &i), a);
        assert_eq!(mat_mul(&i, &a), a);
        let at = mat_transpose(&a);
        assert_eq!(at[0][1], 3.0);
        assert_eq!(mat_vec(&a, &[1.0, 1.0, 0.0, 0.0]), [3.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn converges_on_stationary_target() {
        let (field, mut ekf, sampler) = setup(2.0);
        let target = Point::new(62.0, 41.0);
        let mut r = rng(1);
        let mut last = Point::ORIGIN;
        for _ in 0..25 {
            let g = sampler.sample(&field, target, &mut r);
            last = ekf.localize(&g);
        }
        assert!(
            last.distance(target) < 8.0,
            "estimate {last} vs target {target}"
        );
    }

    #[test]
    fn tracks_a_straight_walk() {
        let (field, mut ekf, sampler) = setup(4.0);
        let trace = WaypointPath::new(vec![Point::new(20.0, 50.0), Point::new(80.0, 50.0)])
            .walk_constant(3.0, 1.0);
        let run = ekf.track(&field, &sampler, &trace, &mut rng(2));
        let half = run.localizations.len() / 2;
        let late: f64 = run.localizations[half..]
            .iter()
            .map(|l| l.error)
            .sum::<f64>()
            / (run.localizations.len() - half) as f64;
        assert!(late < 15.0, "late mean {late}");
    }

    #[test]
    fn estimates_stay_in_field_and_finite() {
        let (field, mut ekf, sampler) = setup(6.0);
        let mut r = rng(3);
        for i in 0..40 {
            let target = Point::new(2.0 + (i as f64 * 5.1) % 96.0, 2.0 + (i as f64 * 3.3) % 96.0);
            let g = sampler.sample(&field, target, &mut r);
            let est = ekf.localize(&g);
            assert!(est.is_finite());
            assert!(field.rect().contains(est));
        }
    }

    #[test]
    fn blackout_is_survivable() {
        let (field, mut ekf, _) = setup(6.0);
        let g = GroupSampling::empty(field.len(), 5);
        let est = ekf.localize(&g);
        assert!(field.rect().contains(est));
        // A subsequent real sampling still works.
        let sampler = GroupSampler::new(PathLossModel::new(-40.0, 0.0, 4.0, 6.0), 5);
        let g2 = sampler.sample(&field, Point::new(30.0, 70.0), &mut rng(4));
        assert!(field.rect().contains(ekf.localize(&g2)));
    }

    #[test]
    fn reset_reinitializes() {
        let (field, mut ekf, sampler) = setup(2.0);
        let mut r = rng(5);
        let g = sampler.sample(&field, Point::new(20.0, 20.0), &mut r);
        let _ = ekf.localize(&g);
        assert!(ekf.initialized);
        ekf.reset();
        assert!(!ekf.initialized);
    }

    #[test]
    #[should_panic(expected = "at least two sensors")]
    fn needs_sensors() {
        let _ = ExtendedKalman::new(
            &[Point::ORIGIN],
            Rect::square(10.0),
            PathLossModel::paper_default(),
            1.0,
        );
    }
}
