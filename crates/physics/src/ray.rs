//! Ray casting against shapes and the world.
//!
//! The paper's cloth collision detection "is based on a combination of ray
//! casting and axis-aligned bounding volume hierarchies"; this module
//! provides the ray queries (used by cloth continuous collision and
//! available as public API for gameplay queries like projectile tests).

use parallax_math::{Transform, Vec3};

use crate::shape::{GeomId, Heightfield, Shape};
use crate::world::World;

/// A ray: origin + unit direction, limited to `max_t`.
#[derive(Debug, Clone, Copy)]
pub struct Ray {
    /// Start point.
    pub origin: Vec3,
    /// Unit direction.
    pub dir: Vec3,
    /// Maximum distance along the ray.
    pub max_t: f32,
}

impl Ray {
    /// Creates a ray; `dir` is normalized (a zero direction yields +Y).
    pub fn new(origin: Vec3, dir: Vec3, max_t: f32) -> Ray {
        Ray {
            origin,
            dir: dir
                .normalized_with_length()
                .map(|(d, _)| d)
                .unwrap_or(Vec3::UNIT_Y),
            max_t,
        }
    }

    /// Creates the segment ray from `a` to `b`.
    pub fn between(a: Vec3, b: Vec3) -> Ray {
        let d = b - a;
        Ray::new(a, d, d.length())
    }

    /// Point at parameter `t`.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }
}

/// A ray-cast hit.
#[derive(Debug, Clone, Copy)]
pub struct RayHit {
    /// Distance along the ray.
    pub t: f32,
    /// World-space hit point.
    pub point: Vec3,
    /// Outward surface normal at the hit.
    pub normal: Vec3,
}

/// Casts `ray` against one posed shape, returning the nearest hit.
pub fn cast_shape(ray: &Ray, shape: &Shape, pose: &Transform) -> Option<RayHit> {
    match shape {
        Shape::Sphere { radius } => ray_sphere(ray, pose.position, *radius),
        Shape::Cuboid { half } => ray_box(ray, pose, *half),
        Shape::Capsule { radius, half_len } => {
            let axis = pose.apply_vector(Vec3::UNIT_Y) * *half_len;
            ray_capsule(ray, pose.position - axis, pose.position + axis, *radius)
        }
        Shape::Plane { normal, offset } => ray_plane(ray, *normal, *offset),
        Shape::Heightfield(hf) => {
            // March the ray in local space, sampling the field.
            let local_o = pose.apply_inverse(ray.origin);
            let local_d = pose.rotation.rotate_inverse(ray.dir);
            if stays_above(hf, local_o, local_d, ray.max_t) {
                return None;
            }
            let steps = 128;
            let dt = ray.max_t / steps as f32;
            let mut prev_above = local_o.y >= hf.height_at(local_o.x, local_o.z);
            for i in 1..=steps {
                let t = dt * i as f32;
                let p = local_o + local_d * t;
                let above = p.y >= hf.height_at(p.x, p.z);
                if above != prev_above {
                    // Crossed the surface between steps; refine midpoint.
                    let tm = t - dt * 0.5;
                    let pm = local_o + local_d * tm;
                    let n = pose.apply_vector(hf.normal_at(pm.x, pm.z));
                    return Some(RayHit {
                        t: tm,
                        point: ray.at(tm),
                        normal: n,
                    });
                }
                prev_above = above;
            }
            None
        }
        Shape::TriMesh(mesh) => {
            let local_o = pose.apply_inverse(ray.origin);
            let local_d = pose.rotation.rotate_inverse(ray.dir);
            let mut best: Option<RayHit> = None;
            for i in 0..mesh.triangles().len() {
                let tri = mesh.triangle(i);
                if let Some(t) = ray_triangle(local_o, local_d, ray.max_t, tri) {
                    if best.is_none_or(|b| t < b.t) {
                        let n_local = (tri[1] - tri[0]).cross(tri[2] - tri[0]).normalized();
                        let n = pose.apply_vector(n_local);
                        // Face the normal against the ray.
                        let n = if n.dot(ray.dir) > 0.0 { -n } else { n };
                        best = Some(RayHit {
                            t,
                            point: ray.at(t),
                            normal: n,
                        });
                    }
                }
            }
            best
        }
    }
}

fn ray_sphere(ray: &Ray, center: Vec3, radius: f32) -> Option<RayHit> {
    let oc = ray.origin - center;
    let b = oc.dot(ray.dir);
    let c = oc.length_squared() - radius * radius;
    if c > 0.0 && b > 0.0 {
        return None; // Outside and pointing away.
    }
    let disc = b * b - c;
    if disc < 0.0 {
        return None;
    }
    let t = -b - disc.sqrt();
    let t = if t < 0.0 { 0.0 } else { t }; // Start inside: hit at origin.
    if t > ray.max_t {
        return None;
    }
    let point = ray.at(t);
    Some(RayHit {
        t,
        point,
        normal: (point - center).normalized(),
    })
}

fn ray_plane(ray: &Ray, n: Vec3, offset: f32) -> Option<RayHit> {
    let denom = n.dot(ray.dir);
    if denom.abs() < 1e-9 {
        return None;
    }
    let t = (offset - n.dot(ray.origin)) / denom;
    if !(0.0..=ray.max_t).contains(&t) {
        return None;
    }
    Some(RayHit {
        t,
        point: ray.at(t),
        normal: if denom < 0.0 { n } else { -n },
    })
}

fn ray_box(ray: &Ray, pose: &Transform, half: Vec3) -> Option<RayHit> {
    // Slab test in box-local space.
    let o = pose.apply_inverse(ray.origin);
    let d = pose.rotation.rotate_inverse(ray.dir);
    let mut tmin = 0.0f32;
    let mut tmax = ray.max_t;
    let mut axis = 0usize;
    let mut sign = 1.0f32;
    for i in 0..3 {
        let (oi, di, hi) = (o[i], d[i], half[i]);
        if di.abs() < 1e-9 {
            if oi.abs() > hi {
                return None;
            }
            continue;
        }
        let inv = 1.0 / di;
        let mut t1 = (-hi - oi) * inv;
        let mut t2 = (hi - oi) * inv;
        if t1 > t2 {
            std::mem::swap(&mut t1, &mut t2);
        }
        if t1 > tmin {
            tmin = t1;
            axis = i;
            // The entry face always opposes the ray direction on this axis.
            sign = -di.signum();
        }
        tmax = tmax.min(t2);
        if tmin > tmax {
            return None;
        }
    }
    let mut n_local = Vec3::ZERO;
    match axis {
        0 => n_local.x = sign,
        1 => n_local.y = sign,
        _ => n_local.z = sign,
    }
    Some(RayHit {
        t: tmin,
        point: ray.at(tmin),
        normal: pose.apply_vector(n_local),
    })
}

/// Relative float-rounding slack of the bounds that skip exact collision
/// work (the ray marches' early outs here, the cloth's collider bounds):
/// `1e-5` — about 168 ULPs at 1.0 — of the largest coordinate magnitude a
/// bound involves, far above the few ULPs the exact routines and the
/// bounds themselves round by.
pub(crate) const ROUNDING_SLACK: f32 = 1e-5;

/// Whether a heightfield march provably finds no crossing: the segment,
/// in field-local space, starts and ends above the field's highest sample
/// by the slack, so every sample is above a surface that bilinear
/// interpolation keeps at or below that height. Only finite segments over
/// tame fields qualify (a NaN coordinate makes the march's `above` tests
/// flip on their own, and a NaN sample bounds nothing).
fn stays_above(hf: &Heightfield, o: Vec3, d: Vec3, max_t: f32) -> bool {
    let end = o + d * max_t;
    let finite = (o.x + o.y + o.z + d.x + d.y + d.z + max_t).is_finite();
    if !finite || !hf.is_tame() {
        return false;
    }
    let field = hf.local_aabb();
    let mag = o.abs().max_element() + max_t + field.min.y.abs().max(field.max.y.abs());
    let top = field.max.y + ROUNDING_SLACK * (1.0 + mag);
    o.y > top && end.y > top
}

fn ray_capsule(ray: &Ray, a: Vec3, b: Vec3, radius: f32) -> Option<RayHit> {
    // Sample-based: march and refine against distance-to-segment; robust
    // and adequate for gameplay queries.
    let steps = 64;
    let dt = ray.max_t / steps as f32;
    let dist = |p: Vec3| {
        let c = crate::narrowphase::closest_point_on_segment(a, b, p);
        (p - c).length() - radius
    };
    let d0 = dist(ray.origin);
    if d0 <= 0.0 {
        return Some(RayHit {
            t: 0.0,
            point: ray.origin,
            normal: -ray.dir,
        });
    }
    // The distance is 1-Lipschitz along a unit-direction ray: a sample less
    // than `d - slack` past one at distance `d` is outside too, so it is
    // skipped without changing which sample first reaches the surface.
    // NaN distances, an infinite slack or a direction that is not unit
    // length skip nothing.
    let mag = ray.origin.abs().max(a.abs()).max(b.abs()).max_element() + radius + ray.max_t;
    let slack = ROUNDING_SLACK * (1.0 + mag);
    let unit = (ray.dir.length() - 1.0).abs() <= 1e-6;
    let mut clear_until = if unit { d0 - slack } else { f32::NEG_INFINITY };
    for i in 1..=steps {
        let t = dt * i as f32;
        if t < clear_until {
            continue;
        }
        let d = dist(ray.at(t));
        if d <= 0.0 {
            // Bisect for the surface crossing.
            let (mut lo, mut hi) = (t - dt, t);
            for _ in 0..12 {
                let mid = 0.5 * (lo + hi);
                if dist(ray.at(mid)) <= 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let point = ray.at(hi);
            let c = crate::narrowphase::closest_point_on_segment(a, b, point);
            return Some(RayHit {
                t: hi,
                point,
                normal: (point - c).normalized(),
            });
        }
        if unit {
            clear_until = t + d - slack;
        }
    }
    None
}

/// Möller–Trumbore ray-triangle intersection; returns `t`.
fn ray_triangle(o: Vec3, d: Vec3, max_t: f32, tri: [Vec3; 3]) -> Option<f32> {
    let e1 = tri[1] - tri[0];
    let e2 = tri[2] - tri[0];
    let p = d.cross(e2);
    let det = e1.dot(p);
    if det.abs() < 1e-9 {
        return None;
    }
    let inv = 1.0 / det;
    let s = o - tri[0];
    let u = s.dot(p) * inv;
    if !(0.0..=1.0).contains(&u) {
        return None;
    }
    let q = s.cross(e1);
    let v = d.dot(q) * inv;
    if v < 0.0 || u + v > 1.0 {
        return None;
    }
    let t = e2.dot(q) * inv;
    (0.0..=max_t).contains(&t).then_some(t)
}

impl World {
    /// Casts a ray against every enabled geom, returning the nearest hit
    /// and the geom it struck.
    ///
    /// # Examples
    ///
    /// ```
    /// use parallax_physics::{World, WorldConfig, Shape};
    /// use parallax_physics::ray::Ray;
    /// use parallax_math::Vec3;
    ///
    /// let mut world = World::new(WorldConfig::default());
    /// world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    /// let ray = Ray::new(Vec3::new(0.0, 5.0, 0.0), -Vec3::UNIT_Y, 100.0);
    /// let (geom, hit) = world.raycast(&ray).expect("hits the ground");
    /// assert_eq!(geom.0, 0);
    /// assert!((hit.t - 5.0).abs() < 1e-4);
    /// ```
    pub fn raycast(&self, ray: &Ray) -> Option<(GeomId, RayHit)> {
        let mut best: Option<(GeomId, RayHit)> = None;
        for (i, geom) in self.geoms().iter().enumerate() {
            if !geom.is_enabled() {
                continue;
            }
            // AABB reject using a conservative ray-AABB slab test.
            let bb = geom.aabb();
            if !ray_hits_aabb(ray, bb.min, bb.max) {
                continue;
            }
            let pose = match geom.body() {
                Some(b) => self.body(b).transform(),
                None => Transform::IDENTITY,
            }
            .compose(&geom_local(geom));
            if let Some(hit) = cast_shape(ray, geom.shape(), &pose) {
                if best.as_ref().is_none_or(|(_, b)| hit.t < b.t) {
                    best = Some((GeomId(i as u32), hit));
                }
            }
        }
        best
    }
}

// Geom's local transform is private to the shape module; mirror the world's
// composition here via the public AABB-consistent accessor.
fn geom_local(geom: &crate::shape::Geom) -> Transform {
    geom.local_transform()
}

fn ray_hits_aabb(ray: &Ray, min: Vec3, max: Vec3) -> bool {
    let mut tmin = 0.0f32;
    let mut tmax = ray.max_t;
    for i in 0..3 {
        let (o, d) = (ray.origin[i], ray.dir[i]);
        if d.abs() < 1e-9 {
            if o < min[i] || o > max[i] {
                return false;
            }
            continue;
        }
        let inv = 1.0 / d;
        let mut t1 = (min[i] - o) * inv;
        let mut t2 = (max[i] - o) * inv;
        if t1 > t2 {
            std::mem::swap(&mut t1, &mut t2);
        }
        tmin = tmin.max(t1);
        tmax = tmax.min(t2);
        if tmin > tmax {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_math::Quat;

    #[test]
    fn ray_hits_sphere_head_on() {
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::UNIT_Z, 100.0);
        let hit = ray_sphere(&ray, Vec3::ZERO, 1.0).expect("hit");
        assert!((hit.t - 4.0).abs() < 1e-5);
        assert!(hit.normal.z < -0.99);
    }

    #[test]
    fn ray_misses_sphere_behind() {
        let ray = Ray::new(Vec3::new(0.0, 0.0, 5.0), Vec3::UNIT_Z, 100.0);
        assert!(ray_sphere(&ray, Vec3::ZERO, 1.0).is_none());
    }

    #[test]
    fn ray_hits_rotated_box_face() {
        let pose = Transform::new(
            Vec3::ZERO,
            Quat::from_axis_angle(Vec3::UNIT_Y, std::f32::consts::FRAC_PI_4),
        );
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::UNIT_Z, 100.0);
        let hit = cast_shape(&ray, &Shape::cuboid(Vec3::splat(1.0)), &pose).expect("hit");
        // 45°-rotated unit cube: nearest corner at z = -√2.
        assert!(
            (hit.t - (5.0 - 2.0f32.sqrt())).abs() < 1e-3,
            "t = {}",
            hit.t
        );
    }

    #[test]
    fn ray_hits_capsule_side() {
        let ray = Ray::new(Vec3::new(-5.0, 0.0, 0.0), Vec3::UNIT_X, 100.0);
        let hit = cast_shape(&ray, &Shape::capsule(0.5, 1.0), &Transform::IDENTITY).expect("hit");
        assert!((hit.t - 4.5).abs() < 1e-2, "t = {}", hit.t);
        assert!(hit.normal.x < -0.95);
    }

    #[test]
    fn ray_plane_from_both_sides() {
        let above = Ray::new(Vec3::new(0.0, 2.0, 0.0), -Vec3::UNIT_Y, 10.0);
        let hit = ray_plane(&above, Vec3::UNIT_Y, 0.0).expect("hit");
        assert!((hit.t - 2.0).abs() < 1e-5);
        assert!(hit.normal.y > 0.99);
        let below = Ray::new(Vec3::new(0.0, -2.0, 0.0), Vec3::UNIT_Y, 10.0);
        let hit = ray_plane(&below, Vec3::UNIT_Y, 0.0).expect("hit");
        assert!(hit.normal.y < -0.99, "normal faces the ray");
    }

    #[test]
    fn ray_triangle_inside_and_outside() {
        let tri = [
            Vec3::new(-1.0, 0.0, -1.0),
            Vec3::new(1.0, 0.0, -1.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let down = Vec3::new(0.0, -1.0, 0.0);
        assert!(ray_triangle(Vec3::new(0.0, 1.0, 0.0), down, 10.0, tri).is_some());
        assert!(ray_triangle(Vec3::new(5.0, 1.0, 0.0), down, 10.0, tri).is_none());
    }

    #[test]
    fn world_raycast_picks_nearest() {
        use crate::{BodyDesc, WorldConfig};
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        w.add_body(BodyDesc::dynamic(Vec3::new(0.0, 2.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0));
        let ray = Ray::new(Vec3::new(0.0, 10.0, 0.0), -Vec3::UNIT_Y, 100.0);
        let (geom, hit) = w.raycast(&ray).expect("hit");
        // Sphere (geom 1) is nearer than the plane (geom 0).
        assert_eq!(geom.index(), 1);
        assert!((hit.t - 7.5).abs() < 1e-3, "t = {}", hit.t);
    }

    #[test]
    fn world_raycast_skips_disabled_geoms() {
        use crate::{BodyDesc, WorldConfig};
        let mut w = World::new(WorldConfig::default());
        let b = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 2.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        w.set_body_enabled(b, false);
        let ray = Ray::new(Vec3::new(0.0, 10.0, 0.0), -Vec3::UNIT_Y, 100.0);
        assert!(w.raycast(&ray).is_none());
    }

    #[test]
    fn ray_between_is_a_segment() {
        let r = Ray::between(Vec3::ZERO, Vec3::new(0.0, 0.0, 3.0));
        assert!((r.max_t - 3.0).abs() < 1e-6);
        // A sphere beyond the segment end is not hit.
        assert!(ray_sphere(&r, Vec3::new(0.0, 0.0, 5.0), 0.5).is_none());
    }
}
