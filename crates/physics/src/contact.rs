//! Contact points and manifolds produced by narrow-phase collision.

use parallax_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::shape::GeomId;

/// A single contact point between two geoms.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ContactPoint {
    /// World-space contact position.
    pub position: Vec3,
    /// Unit contact normal, pointing from geom B towards geom A.
    pub normal: Vec3,
    /// Penetration depth (>= 0 when overlapping).
    pub depth: f32,
    /// Stable feature id assigned by the narrow-phase routine that
    /// produced the point (box corner index, clipped-face vertex, capsule
    /// cap, mesh triangle index, ...; 0 for spheres). Two points of the
    /// same pair carrying the same feature id across consecutive steps
    /// are the *same* physical contact, which is what lets the contact
    /// cache transfer accumulated solver impulses between steps.
    pub feature: u32,
}

/// The points of one manifold, stored inline: at most
/// [`ContactManifold::MAX_POINTS`], no heap behind them, so a manifold is
/// plain data that the narrow phase writes and the arena copies.
///
/// Dereferences to the slice of live points.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct ContactPoints {
    len: u32,
    buf: [ContactPoint; ContactManifold::MAX_POINTS],
}

impl ContactPoints {
    const EMPTY: ContactPoints = ContactPoints {
        len: 0,
        buf: [ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::ZERO,
            depth: 0.0,
            feature: 0,
        }; ContactManifold::MAX_POINTS],
    };

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics when [`ContactManifold::MAX_POINTS`] points are already
    /// stored; [`ContactManifold::push`] is the capped insert.
    #[inline]
    pub fn push(&mut self, p: ContactPoint) {
        self.buf[self.len as usize] = p;
        self.len += 1;
    }
}

impl std::ops::Deref for ContactPoints {
    type Target = [ContactPoint];

    #[inline]
    fn deref(&self) -> &[ContactPoint] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::DerefMut for ContactPoints {
    #[inline]
    fn deref_mut(&mut self) -> &mut [ContactPoint] {
        &mut self.buf[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a ContactPoints {
    type Item = &'a ContactPoint;
    type IntoIter = std::slice::Iter<'a, ContactPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for ContactPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// All contact points between one pair of geoms.
///
/// Narrow-phase produces at most [`ContactManifold::MAX_POINTS`] points per
/// pair, matching ODE's per-pair contact cap.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ContactManifold {
    /// First geom of the pair.
    pub geom_a: GeomId,
    /// Second geom of the pair.
    pub geom_b: GeomId,
    /// The contact points.
    pub points: ContactPoints,
    /// Combined friction coefficient for the pair.
    pub friction: f32,
    /// Combined restitution for the pair.
    pub restitution: f32,
}

impl ContactManifold {
    /// Maximum number of contact points retained per pair.
    pub const MAX_POINTS: usize = 4;

    /// Creates an empty manifold for the pair.
    #[inline]
    pub fn new(geom_a: GeomId, geom_b: GeomId) -> Self {
        ContactManifold {
            geom_a,
            geom_b,
            points: ContactPoints::EMPTY,
            friction: 0.6,
            restitution: 0.1,
        }
    }

    /// Makes this an empty manifold for the pair, as [`Self::new`] would,
    /// without rewriting the point storage.
    #[inline]
    pub(crate) fn reset(&mut self, geom_a: GeomId, geom_b: GeomId) {
        self.geom_a = geom_a;
        self.geom_b = geom_b;
        self.points.len = 0;
        self.friction = 0.6;
        self.restitution = 0.1;
    }

    /// Adds a point, keeping only the deepest [`Self::MAX_POINTS`].
    #[inline]
    pub fn push(&mut self, p: ContactPoint) {
        debug_assert!(p.normal.is_finite() && p.position.is_finite());
        if self.points.len() < Self::MAX_POINTS {
            self.points.push(p);
            return;
        }
        // Replace the shallowest point if the new one is deeper.
        let (idx, shallowest) = self
            .points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.depth.total_cmp(&b.1.depth))
            .map(|(i, c)| (i, c.depth))
            .expect("manifold is non-empty here");
        if p.depth > shallowest {
            self.points[idx] = p;
        }
    }

    /// Returns `true` when the manifold has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of contact points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(depth: f32) -> ContactPoint {
        ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth,
            feature: 0,
        }
    }

    #[test]
    fn push_caps_at_max_points_keeping_deepest() {
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        for d in [0.1, 0.2, 0.3, 0.4] {
            m.push(pt(d));
        }
        assert_eq!(m.len(), 4);
        // A deeper point replaces the shallowest.
        m.push(pt(0.5));
        assert_eq!(m.len(), 4);
        assert!(m.points.iter().all(|p| p.depth >= 0.2));
        // A shallower point is dropped.
        m.push(pt(0.05));
        assert!(m.points.iter().all(|p| p.depth >= 0.2));
    }

    #[test]
    fn empty_manifold() {
        let m = ContactManifold::new(GeomId(3), GeomId(4));
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
