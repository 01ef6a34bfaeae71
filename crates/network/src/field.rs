//! A deployment equipped with a sensing range.

use crate::deployment::Deployment;
use crate::node::{NodeId, SensorNode};
use wsn_geometry::{Point, Rect};

/// A sensor field: deployment + sensing range `R` (Table 1: `R = 40 m`).
///
/// The sensing range decides which sensors return readings for a given
/// target position; out-of-range sensors are indistinguishable from failed
/// ones downstream (they land in the paper's `N̄_r` set and are filled in by
/// the fault-tolerance rule, eq. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorField {
    deployment: Deployment,
    sensing_range: f64,
}

impl SensorField {
    /// Combines a deployment with a sensing range.
    ///
    /// # Panics
    ///
    /// Panics if `sensing_range` is not strictly positive and finite.
    pub fn new(deployment: Deployment, sensing_range: f64) -> Self {
        assert!(
            sensing_range.is_finite() && sensing_range > 0.0,
            "sensing range must be positive, got {sensing_range}"
        );
        Self {
            deployment,
            sensing_range,
        }
    }

    /// The underlying deployment.
    #[inline]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// All sensors, in ID order.
    #[inline]
    pub fn nodes(&self) -> &[SensorNode] {
        self.deployment.nodes()
    }

    /// Number of sensors.
    #[inline]
    pub fn len(&self) -> usize {
        self.deployment.len()
    }

    /// Always `false`; included for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deployment.is_empty()
    }

    /// The monitored rectangle.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.deployment.field()
    }

    /// Sensing range `R` in metres.
    #[inline]
    pub fn sensing_range(&self) -> f64 {
        self.sensing_range
    }

    /// `true` if `node` can sense a target at `p`.
    #[inline]
    pub fn in_range(&self, node: &SensorNode, p: Point) -> bool {
        node.pos.distance_squared(p) <= self.sensing_range * self.sensing_range
    }

    /// IDs of all sensors able to sense a target at `p`.
    pub fn nodes_in_range(&self, p: Point) -> Vec<NodeId> {
        self.nodes()
            .iter()
            .filter(|n| self.in_range(n, p))
            .map(|n| n.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_field() -> SensorField {
        let d = Deployment::explicit(
            &[
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(50.0, 50.0),
            ],
            Rect::square(100.0),
        );
        SensorField::new(d, 20.0)
    }

    #[test]
    fn range_filtering() {
        let f = small_field();
        let near_origin = f.nodes_in_range(Point::new(1.0, 1.0));
        assert_eq!(near_origin, vec![NodeId(0), NodeId(1)]);
        let middle = f.nodes_in_range(Point::new(40.0, 40.0));
        assert_eq!(middle, vec![NodeId(2)]);
        let nowhere = f.nodes_in_range(Point::new(99.0, 0.0));
        assert!(nowhere.is_empty());
    }

    #[test]
    fn in_range_boundary_is_closed() {
        let f = small_field();
        let node = f.nodes()[0];
        assert!(f.in_range(&node, Point::new(20.0, 0.0)));
        assert!(!f.in_range(&node, Point::new(20.001, 0.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        let d = Deployment::grid(4, Rect::square(10.0));
        let _ = SensorField::new(d, 0.0);
    }
}
