use serde::{Deserialize, Serialize};

use crate::Vec3;

/// An axis-aligned bounding box.
///
/// # Examples
///
/// ```
/// use parallax_math::{Aabb, Vec3};
///
/// let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
/// let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
/// assert!(a.overlaps(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Default for Aabb {
    /// An "empty" box that unions as an identity element.
    fn default() -> Self {
        Aabb::EMPTY
    }
}

impl Aabb {
    /// The empty box (min = +∞, max = −∞); identity for [`Aabb::union`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        max: Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
    };

    /// Creates a box from two corners.
    ///
    /// # Panics
    ///
    /// Debug-panics if any `min` component exceeds the matching `max`.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb::new: min must be <= max componentwise"
        );
        Aabb { min, max }
    }

    /// Creates a box centred at `center` with half-extents `half`.
    #[inline]
    pub fn from_center_half_extents(center: Vec3, half: Vec3) -> Self {
        Aabb::new(center - half, center + half)
    }

    /// Returns `true` if the boxes overlap (closed intervals).
    ///
    /// The six compares are combined with `&`, not `&&`: no branch to
    /// mispredict, and the same answer (a NaN compare is `false` either
    /// way).
    #[inline]
    pub fn overlaps(&self, other: &Aabb) -> bool {
        (self.min.x <= other.max.x)
            & (self.max.x >= other.min.x)
            & (self.min.y <= other.max.y)
            & (self.max.y >= other.min.y)
            & (self.min.z <= other.max.z)
            & (self.max.z >= other.min.z)
    }

    /// Returns `true` if `p` is inside the box (closed).
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if `other` lies entirely inside the box (closed).
    /// Branch-free, as [`overlaps`](Self::overlaps).
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        (self.min.x <= other.min.x)
            & (self.min.y <= other.min.y)
            & (self.min.z <= other.min.z)
            & (self.max.x >= other.max.x)
            & (self.max.y >= other.max.y)
            & (self.max.z >= other.max.z)
    }

    /// Smallest box containing both.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Box grown by `margin` on every side.
    #[inline]
    pub fn expanded(&self, margin: f32) -> Aabb {
        let m = Vec3::splat(margin);
        Aabb {
            min: self.min - m,
            max: self.max + m,
        }
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Half-extent vector.
    #[inline]
    pub fn half_extents(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }

    /// Surface area of the box (0 for the empty box).
    #[inline]
    pub fn surface_area(&self) -> f32 {
        if self.min.x > self.max.x {
            return 0.0;
        }
        let d = self.max - self.min;
        2.0 * (d.x * d.y + d.y * d.z + d.z * d.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_symmetric_and_touching_counts() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let b = Aabb::new(Vec3::splat(1.0), Vec3::splat(2.0));
        assert!(a.overlaps(&b), "touching boxes must overlap (closed)");
        assert!(b.overlaps(&a));
        let c = Aabb::new(Vec3::splat(1.01), Vec3::splat(2.0));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn contains_point_boundaries() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!(a.contains_point(Vec3::ZERO));
        assert!(a.contains_point(Vec3::ONE));
        assert!(a.contains_point(Vec3::splat(0.5)));
        assert!(!a.contains_point(Vec3::new(0.5, 0.5, 1.1)));
    }

    #[test]
    fn contains_is_closed_and_rejects_partial_overlap() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!(a.contains(&a));
        assert!(a.contains(&Aabb::new(Vec3::splat(0.25), Vec3::splat(0.75))));
        assert!(!a.contains(&Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5))));
        assert!(!Aabb::new(Vec3::splat(0.25), Vec3::splat(0.75)).contains(&a));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = Aabb::new(Vec3::new(-1.0, 0.0, 2.0), Vec3::new(0.0, 1.0, 3.0));
        assert_eq!(Aabb::EMPTY.union(&a), a);
        assert_eq!(a.union(&Aabb::EMPTY), a);
    }

    #[test]
    fn center_and_half_extents_roundtrip() {
        let a = Aabb::from_center_half_extents(Vec3::new(1.0, 2.0, 3.0), Vec3::splat(0.5));
        assert_eq!(a.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(a.half_extents(), Vec3::splat(0.5));
    }

    #[test]
    fn expanded_grows_every_side() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE).expanded(0.25);
        assert_eq!(a.min, Vec3::splat(-0.25));
        assert_eq!(a.max, Vec3::splat(1.25));
    }

    #[test]
    fn surface_area_of_unit_cube() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        assert!((a.surface_area() - 6.0).abs() < 1e-6);
        assert_eq!(Aabb::EMPTY.surface_area(), 0.0);
    }
}
