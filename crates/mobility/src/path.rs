//! Scripted piecewise-linear waypoint paths (the outdoor "⌐" trace of
//! paper Fig. 13).

use crate::trace::{TimedPoint, Trace};
use rand::Rng;
use wsn_geometry::Point;

/// A deterministic sequence of waypoints walked leg by leg.
#[derive(Debug, Clone, PartialEq)]
pub struct WaypointPath {
    waypoints: Vec<Point>,
}

impl WaypointPath {
    /// Creates a path through `waypoints`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two waypoints are given or consecutive
    /// waypoints coincide (a zero-length leg has no direction).
    pub fn new(waypoints: Vec<Point>) -> Self {
        assert!(waypoints.len() >= 2, "a path needs at least two waypoints");
        for w in waypoints.windows(2) {
            assert!(
                w[0].distance(w[1]) > f64::EPSILON,
                "consecutive waypoints must be distinct"
            );
        }
        Self { waypoints }
    }

    /// The "⌐"-shaped walk of the outdoor evaluation: out along +x for
    /// `leg` metres, then down along −y for `leg` metres, starting at
    /// `start`.
    pub fn corner(start: Point, leg: f64) -> Self {
        assert!(leg > 0.0 && leg.is_finite(), "leg length must be positive");
        Self::new(vec![
            start,
            Point::new(start.x + leg, start.y),
            Point::new(start.x + leg, start.y - leg),
        ])
    }

    /// The waypoints.
    #[inline]
    pub fn waypoints(&self) -> &[Point] {
        &self.waypoints
    }

    /// Total length of the path.
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Walks the path at constant `speed` (m/s), sampled every `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `speed` or `dt` is not strictly positive.
    pub fn walk_constant(&self, speed: f64, dt: f64) -> Trace {
        assert!(speed > 0.0 && speed.is_finite(), "speed must be positive");
        self.walk_with(|_| speed, dt)
    }

    /// Walks the path with a per-leg speed drawn uniformly from
    /// `[min_speed, max_speed]` (the outdoor target's "changeable velocity
    /// in 1–5 m/s"), sampled every `dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_speed ≤ max_speed` and `dt > 0`.
    pub fn walk_random_speed<R: Rng + ?Sized>(
        &self,
        min_speed: f64,
        max_speed: f64,
        dt: f64,
        rng: &mut R,
    ) -> Trace {
        assert!(min_speed > 0.0 && max_speed >= min_speed, "bad speed range");
        let speeds: Vec<f64> = (0..self.waypoints.len() - 1)
            .map(|_| {
                if max_speed > min_speed {
                    rng.gen_range(min_speed..=max_speed)
                } else {
                    min_speed
                }
            })
            .collect();
        self.walk_with(|leg| speeds[leg], dt)
    }

    /// Walks with an arbitrary per-leg speed function.
    fn walk_with<F: Fn(usize) -> f64>(&self, speed_of_leg: F, dt: f64) -> Trace {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        // Build (cumulative time, waypoint) knots, then resample.
        let mut knots = vec![TimedPoint::new(0.0, self.waypoints[0])];
        let mut t = 0.0;
        for (leg, w) in self.waypoints.windows(2).enumerate() {
            let v = speed_of_leg(leg);
            assert!(v > 0.0 && v.is_finite(), "leg {leg} speed must be positive");
            t += w[0].distance(w[1]) / v;
            knots.push(TimedPoint::new(t, w[1]));
        }
        Trace::new(knots).resample(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corner_shape() {
        let p = WaypointPath::corner(Point::new(10.0, 80.0), 40.0);
        assert_eq!(p.waypoints().len(), 3);
        assert_eq!(p.length(), 80.0);
        assert_eq!(p.waypoints()[1], Point::new(50.0, 80.0));
        assert_eq!(p.waypoints()[2], Point::new(50.0, 40.0));
    }

    #[test]
    fn constant_walk_timing() {
        let p = WaypointPath::corner(Point::new(0.0, 50.0), 10.0);
        let tr = p.walk_constant(2.0, 0.5);
        // 20 m at 2 m/s = 10 s.
        assert!((tr.duration() - 10.0).abs() < 1e-9);
        // Halfway in time is the corner waypoint.
        assert_eq!(tr.position_at(5.0), Point::new(10.0, 50.0));
        // Speed between samples is constant.
        for w in tr.points().windows(2) {
            let v = w[0].pos.distance(w[1].pos) / (w[1].t - w[0].t);
            assert!((v - 2.0).abs() < 1e-6, "v={v}");
        }
    }

    #[test]
    fn random_speed_walk_is_seeded_and_bounded() {
        let p = WaypointPath::corner(Point::new(0.0, 50.0), 20.0);
        let mut r1 = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut r2 = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let a = p.walk_random_speed(1.0, 5.0, 0.2, &mut r1);
        let b = p.walk_random_speed(1.0, 5.0, 0.2, &mut r2);
        assert_eq!(a, b);
        // Duration bounded by length / extreme speeds.
        assert!(a.duration() >= 40.0 / 5.0 - 1e-9);
        assert!(a.duration() <= 40.0 / 1.0 + 1e-9);
    }

    #[test]
    fn walk_visits_every_waypoint() {
        let p = WaypointPath::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(0.0, 5.0),
        ]);
        let tr = p.walk_constant(1.0, 0.25);
        for wp in p.waypoints() {
            let nearest = tr
                .points()
                .iter()
                .map(|s| s.pos.distance(*wp))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.26, "waypoint {wp} missed by {nearest}");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn repeated_waypoints_rejected() {
        let _ = WaypointPath::new(vec![Point::ORIGIN, Point::ORIGIN]);
    }
}
