//! 2-D geometry for node positions and motion.
//!
//! The paper's field is a 1000 m × 1000 m plane; all distances are in
//! meters. Antenna heights enter the propagation model as scalar constants,
//! so positions stay two-dimensional.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Sub};

/// A position on the field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

/// A displacement or velocity (m or m/s).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    /// East component.
    pub x: f64,
    /// North component.
    pub y: f64,
}

impl Point {
    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance (avoids the sqrt when only comparing).
    #[inline]
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: `self` at `t = 0`, `to` at `t = 1`.
    pub fn lerp(self, to: Point, t: f64) -> Point {
        Point {
            x: self.x + (to.x - self.x) * t,
            y: self.y + (to.y - self.y) * t,
        }
    }
}

impl Vector {
    /// Construct from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, v: Vector) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, k: f64) -> Vector {
        Vector::new(self.x * k, self.y * k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_345() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn vector_algebra() {
        let p = Point::new(1.0, 2.0);
        let q = Point::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vector::new(3.0, 4.0));
        assert_eq!(p + v, q);
        assert_eq!((v * 2.0).norm(), 10.0);
    }
}
