//! Planar points and vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the monitored plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (metres).
    pub x: f64,
    /// Vertical coordinate (metres).
    pub y: f64,
}

/// A displacement between two [`Point`]s, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component (metres).
    pub x: f64,
    /// Vertical component (metres).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this in hot predicates: the pairwise-region classification in
    /// [`crate::apollonius`] is expressed entirely in squared distances to
    /// avoid a `sqrt` per grid cell per pair.
    #[inline]
    pub fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment `self..other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Both coordinates are finite (neither NaN nor infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vector {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vector = Vector::new(0.0, 0.0);

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component of the 3D cross product).
    #[inline]
    pub fn cross(self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction, or `None` for (near-)zero vectors.
    #[inline]
    pub fn normalized(self) -> Option<Vector> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Vector {
        Vector::new(-self.y, self.x)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector> for f64 {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: Vector) -> Vector {
        rhs * self
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -7.0);
        let d = a.distance(b);
        assert!((a.distance_squared(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn vector_algebra() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
        assert_eq!(v.dot(Vector::new(1.0, 0.0)), 3.0);
        assert_eq!(v.cross(Vector::new(1.0, 0.0)), -4.0);
        assert_eq!(-v, Vector::new(-3.0, -4.0));
        assert_eq!(v * 2.0, Vector::new(6.0, 8.0));
        assert_eq!(2.0 * v, v * 2.0);
        assert_eq!(v / 2.0, Vector::new(1.5, 2.0));
    }

    #[test]
    fn normalized_handles_zero() {
        assert!(Vector::ZERO.normalized().is_none());
        let u = Vector::new(0.0, -2.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(u, Vector::new(0.0, -1.0));
    }

    #[test]
    fn perp_is_ccw_quarter_turn() {
        let v = Vector::new(1.0, 0.0);
        assert_eq!(v.perp(), Vector::new(0.0, 1.0));
        assert_eq!(v.perp().perp(), -v);
        assert_eq!(v.dot(v.perp()), 0.0);
    }

    #[test]
    fn point_vector_round_trip() {
        let p = Point::new(2.0, 3.0);
        let v = Vector::new(-1.0, 4.0);
        let q = p + v;
        assert_eq!(q - p, v);
        assert_eq!(q - v, p);
        let mut r = p;
        r += v;
        assert_eq!(r, q);
        r -= v;
        assert_eq!(r, p);
    }

    #[test]
    fn is_finite_flags_nan_and_inf() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
