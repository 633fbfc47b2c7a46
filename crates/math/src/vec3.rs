use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A 3-component `f32` vector.
///
/// # Examples
///
/// ```
/// use parallax_math::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 3.0);
/// let b = Vec3::splat(2.0);
/// assert_eq!(a + b, Vec3::new(3.0, 4.0, 5.0));
/// assert_eq!(a.dot(b), 12.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3::new(1.0, 1.0, 1.0);
    /// Unit vector along +X.
    pub const UNIT_X: Vec3 = Vec3::new(1.0, 0.0, 0.0);
    /// Unit vector along +Y.
    pub const UNIT_Y: Vec3 = Vec3::new(0.0, 1.0, 0.0);
    /// Unit vector along +Z.
    pub const UNIT_Z: Vec3 = Vec3::new(0.0, 0.0, 1.0);

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components set to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3::new(v, v, v)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn length_squared(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn length(self) -> f32 {
        self.length_squared().sqrt()
    }

    /// Returns the unit-length vector in the same direction, or `Vec3::ZERO`
    /// if the vector is shorter than `1e-12`.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len > 1e-12 {
            self / len
        } else {
            Vec3::ZERO
        }
    }

    /// Returns the normalized vector and its original length, or `None` if
    /// the vector is (near) zero.
    #[inline]
    pub fn normalized_with_length(self) -> Option<(Vec3, f32)> {
        let len = self.length();
        if len > 1e-12 {
            Some((self / len, len))
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Largest component.
    #[inline]
    pub fn max_element(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Linear interpolation: `self * (1 - t) + rhs * t`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f32) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Distance to `rhs`.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f32 {
        (self - rhs).length()
    }

    /// Returns `true` if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Returns an arbitrary unit vector orthogonal to `self`.
    ///
    /// `self` does not need to be normalized, but must be non-zero.
    #[inline]
    pub fn any_orthogonal(self) -> Vec3 {
        // Pick the axis least aligned with self to avoid degeneracy.
        let axis = if self.x.abs() < self.y.abs().min(self.z.abs()) {
            Vec3::UNIT_X
        } else if self.y.abs() < self.z.abs() {
            Vec3::UNIT_Y
        } else {
            Vec3::UNIT_Z
        };
        self.cross(axis).normalized()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Mul<Vec3> for Vec3 {
    type Output = Vec3;
    /// Component-wise product.
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }
}

impl MulAssign<f32> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, rhs: f32) {
        *self = *self * rhs;
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f32) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl DivAssign<f32> for Vec3 {
    #[inline]
    fn div_assign(&mut self, rhs: f32) {
        *self = *self / rhs;
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    /// Indexes components 0..3.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    fn index(&self, index: usize) -> &f32 {
        match index {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {index}"),
        }
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(b / 2.0, Vec3::new(2.0, 2.5, 3.0));
    }

    #[test]
    fn dot_and_cross() {
        assert_eq!(Vec3::UNIT_X.dot(Vec3::UNIT_Y), 0.0);
        assert_eq!(Vec3::UNIT_X.cross(Vec3::UNIT_Y), Vec3::UNIT_Z);
        assert_eq!(Vec3::UNIT_Y.cross(Vec3::UNIT_Z), Vec3::UNIT_X);
        assert_eq!(Vec3::UNIT_Z.cross(Vec3::UNIT_X), Vec3::UNIT_Y);
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.normalized().length() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        assert!(Vec3::ZERO.normalized_with_length().is_none());
        let (unit, len) = v.normalized_with_length().unwrap();
        assert!((len - 5.0).abs() < 1e-6);
        assert!((unit - Vec3::new(0.6, 0.8, 0.0)).length() < 1e-6);
    }

    #[test]
    fn min_max_abs() {
        let a = Vec3::new(-1.0, 5.0, 2.0);
        let b = Vec3::new(3.0, -2.0, 2.5);
        assert_eq!(a.min(b), Vec3::new(-1.0, -2.0, 2.0));
        assert_eq!(a.max(b), Vec3::new(3.0, 5.0, 2.5));
        assert_eq!(a.abs(), Vec3::new(1.0, 5.0, 2.0));
        assert_eq!(a.max_element(), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::ZERO;
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn any_orthogonal_is_orthogonal_and_unit() {
        for v in [
            Vec3::UNIT_X,
            Vec3::UNIT_Y,
            Vec3::UNIT_Z,
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-5.0, 0.1, 0.1),
        ] {
            let o = v.any_orthogonal();
            assert!(v.dot(o).abs() < 1e-5, "not orthogonal for {v:?}");
            assert!((o.length() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn indexing_and_conversions() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[2], 9.0);
        let arr: [f32; 3] = v.into();
        assert_eq!(Vec3::from(arr), v);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn sum_of_vectors() {
        let vs = [Vec3::UNIT_X, Vec3::UNIT_Y, Vec3::UNIT_Z];
        assert_eq!(vs.into_iter().sum::<Vec3>(), Vec3::ONE);
    }
}
