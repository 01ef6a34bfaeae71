//! The Gauss–Markov mobility model.
//!
//! A standard alternative to random waypoint with *tunable memory*: speed
//! and heading evolve as first-order autoregressive processes,
//!
//! ```text
//! s_t = α·s_{t−1} + (1−α)·s̄ + √(1−α²)·σ_s·w,
//! θ_t = α·θ_{t−1} + (1−α)·θ̄_t + √(1−α²)·σ_θ·w,
//! ```
//!
//! with `α ∈ [0, 1]` the memory parameter (`α → 1`: near-linear motion;
//! `α → 0`: Brownian-like). Near the field boundary the mean heading
//! `θ̄_t` is steered back toward the centre, the usual edge treatment.
//!
//! FTTT itself is mobility-model-free; this model exists to *stress the
//! comparators that are not* (the `ablation_mobility` experiment).

use crate::trace::{TimedPoint, Trace};
use rand::Rng;
use wsn_geometry::{Point, Rect, Vector};

/// Gauss–Markov mobility parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussMarkov {
    /// Field the target roams in.
    pub field: Rect,
    /// Memory parameter `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Long-run mean speed, m/s.
    pub mean_speed: f64,
    /// Speed process std-dev, m/s.
    pub speed_std: f64,
    /// Heading process std-dev, radians.
    pub heading_std: f64,
}

impl GaussMarkov {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ alpha ≤ 1`, `mean_speed > 0`, and the std-devs
    /// are non-negative and finite.
    pub fn new(field: Rect, alpha: f64, mean_speed: f64, speed_std: f64, heading_std: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "α must be in [0, 1], got {alpha}"
        );
        assert!(
            mean_speed > 0.0 && mean_speed.is_finite(),
            "mean speed must be positive"
        );
        assert!(
            speed_std >= 0.0 && speed_std.is_finite(),
            "speed std must be non-negative"
        );
        assert!(
            heading_std >= 0.0 && heading_std.is_finite(),
            "heading std must be non-negative"
        );
        Self {
            field,
            alpha,
            mean_speed,
            speed_std,
            heading_std,
        }
    }

    /// A smooth walker matched to the paper's speed range (mean 3 m/s).
    pub fn paper_default(field: Rect) -> Self {
        Self::new(field, 0.85, 3.0, 1.0, 0.6)
    }

    /// Generates a trace of `duration` seconds sampled every `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration` or `dt` is not strictly positive.
    pub fn trace<R: Rng + ?Sized>(&self, duration: f64, dt: f64, rng: &mut R) -> Trace {
        assert!(
            duration > 0.0 && duration.is_finite(),
            "duration must be positive"
        );
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let mut pos = Point::new(
            rng.gen_range(self.field.min.x..=self.field.max.x),
            rng.gen_range(self.field.min.y..=self.field.max.y),
        );
        let mut speed = self.mean_speed;
        let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let innovation = (1.0 - self.alpha * self.alpha).sqrt();

        let gauss = |rng: &mut R| {
            // Box–Muller, one variate.
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };

        let steps = (duration / dt).ceil() as usize;
        let mut samples = Vec::with_capacity(steps + 1);
        for i in 0..=steps {
            samples.push(TimedPoint::new(i as f64 * dt, pos));
            // Mean heading: straight ahead, unless close to the boundary —
            // then steer toward the field centre.
            let margin = 0.1 * self.field.width().min(self.field.height());
            let near_edge = pos.x < self.field.min.x + margin
                || pos.x > self.field.max.x - margin
                || pos.y < self.field.min.y + margin
                || pos.y > self.field.max.y - margin;
            let mean_heading = if near_edge {
                let to_center = self.field.center() - pos;
                to_center.y.atan2(to_center.x)
            } else {
                heading
            };
            speed = self.alpha * speed
                + (1.0 - self.alpha) * self.mean_speed
                + innovation * self.speed_std * gauss(rng);
            speed = speed.max(0.0);
            heading = self.alpha * heading
                + (1.0 - self.alpha) * mean_heading
                + innovation * self.heading_std * gauss(rng);
            pos = self
                .field
                .clamp(pos + Vector::new(heading.cos(), heading.sin()) * (speed * dt));
        }
        Trace::new(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn model() -> GaussMarkov {
        GaussMarkov::paper_default(Rect::square(100.0))
    }

    #[test]
    fn stays_in_field_and_is_seeded() {
        let m = model();
        let a = m.trace(60.0, 0.5, &mut rng(1));
        let b = m.trace(60.0, 0.5, &mut rng(1));
        assert_eq!(a, b);
        for p in a.points() {
            assert!(m.field.contains(p.pos));
        }
    }

    #[test]
    fn mean_speed_is_respected() {
        let m = model();
        let tr = m.trace(300.0, 0.5, &mut rng(2));
        let mean_step: f64 = tr
            .points()
            .windows(2)
            .map(|w| w[0].pos.distance(w[1].pos))
            .sum::<f64>()
            / (tr.len() - 1) as f64;
        let mean_speed = mean_step / 0.5;
        // Boundary clamping eats a little of the nominal speed.
        assert!(
            mean_speed > 0.5 * m.mean_speed && mean_speed < 1.5 * m.mean_speed,
            "mean speed {mean_speed}"
        );
    }

    #[test]
    fn high_alpha_is_smoother_than_low_alpha() {
        let field = Rect::square(200.0);
        let turn_sum = |alpha: f64| {
            let m = GaussMarkov::new(field, alpha, 3.0, 0.5, 0.8);
            let tr = m.trace(120.0, 1.0, &mut rng(3));
            tr.points()
                .windows(3)
                .map(|w| {
                    let a = w[1].pos - w[0].pos;
                    let b = w[2].pos - w[1].pos;
                    (b - a).norm()
                })
                .sum::<f64>()
        };
        assert!(
            turn_sum(0.95) < turn_sum(0.1),
            "high-memory walk must turn less: {} vs {}",
            turn_sum(0.95),
            turn_sum(0.1)
        );
    }

    #[test]
    #[should_panic(expected = "α must be in")]
    fn bad_alpha_rejected() {
        let _ = GaussMarkov::new(Rect::square(10.0), 1.5, 1.0, 0.1, 0.1);
    }
}
