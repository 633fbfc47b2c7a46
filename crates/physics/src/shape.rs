//! Collision shapes (geoms) and their bounding volumes.
//!
//! The paper reports 116 B of memory per geom; shapes here are stored by
//! value with heavier assets (heightfields, triangle meshes) shared behind
//! `Arc` so geoms stay small.

use std::sync::Arc;

use parallax_math::{Aabb, Mat3, Transform, Vec3};
use serde::{Deserialize, Serialize};

/// Identifier of a geom (collision shape instance) inside a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GeomId(pub u32);

impl GeomId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A regular-grid heightfield terrain.
///
/// Heights are sampled on an `nx × nz` grid with spacing `cell`; the field
/// is centred on its local origin in X/Z.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Heightfield {
    nx: usize,
    nz: usize,
    cell: f32,
    heights: Vec<f32>,
    min_height: f32,
    max_height: f32,
    /// Every sample is finite and under 1e30 in magnitude, so bilinear
    /// interpolation neither overflows nor makes a NaN: only then do the
    /// height bounds that skip collision work hold.
    tame: bool,
}

impl Heightfield {
    /// Creates a heightfield from row-major `heights` (`nx * nz` samples).
    ///
    /// # Panics
    ///
    /// Panics if `heights.len() != nx * nz` or either dimension is < 2.
    pub fn new(nx: usize, nz: usize, cell: f32, heights: Vec<f32>) -> Self {
        assert!(nx >= 2 && nz >= 2, "heightfield must be at least 2x2");
        assert_eq!(heights.len(), nx * nz, "heights must have nx*nz samples");
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &h in &heights {
            lo = lo.min(h);
            hi = hi.max(h);
        }
        let tame = heights.iter().all(|h| h.abs() <= 1e30);
        Heightfield {
            nx,
            nz,
            cell,
            heights,
            min_height: lo,
            max_height: hi,
            tame,
        }
    }

    /// Grid size along X.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid size along Z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// World width along X.
    #[inline]
    pub fn width_x(&self) -> f32 {
        (self.nx - 1) as f32 * self.cell
    }

    /// World width along Z.
    #[inline]
    pub fn width_z(&self) -> f32 {
        (self.nz - 1) as f32 * self.cell
    }

    /// Bilinear height sample at local coordinates `(x, z)`.
    ///
    /// Coordinates outside the field clamp to the border.
    pub fn height_at(&self, x: f32, z: f32) -> f32 {
        let fx = ((x + self.width_x() * 0.5) / self.cell).clamp(0.0, (self.nx - 1) as f32);
        let fz = ((z + self.width_z() * 0.5) / self.cell).clamp(0.0, (self.nz - 1) as f32);
        let ix = (fx as usize).min(self.nx - 2);
        let iz = (fz as usize).min(self.nz - 2);
        let tx = fx - ix as f32;
        let tz = fz - iz as f32;
        let h00 = self.heights[iz * self.nx + ix];
        let h10 = self.heights[iz * self.nx + ix + 1];
        let h01 = self.heights[(iz + 1) * self.nx + ix];
        let h11 = self.heights[(iz + 1) * self.nx + ix + 1];
        let a = h00 + (h10 - h00) * tx;
        let b = h01 + (h11 - h01) * tx;
        a + (b - a) * tz
    }

    /// Whether every sample is finite and under 1e30 in magnitude, which
    /// the height bounds that skip collision work rely on.
    pub(crate) fn is_tame(&self) -> bool {
        self.tame
    }

    /// Outward surface normal at local `(x, z)` via central differences.
    pub fn normal_at(&self, x: f32, z: f32) -> Vec3 {
        let e = self.cell * 0.5;
        let dx = self.height_at(x + e, z) - self.height_at(x - e, z);
        let dz = self.height_at(x, z + e) - self.height_at(x, z - e);
        Vec3::new(-dx, 2.0 * e, -dz).normalized()
    }

    /// Local-space bounding box.
    pub fn local_aabb(&self) -> Aabb {
        Aabb::new(
            Vec3::new(
                -self.width_x() * 0.5,
                self.min_height,
                -self.width_z() * 0.5,
            ),
            Vec3::new(self.width_x() * 0.5, self.max_height, self.width_z() * 0.5),
        )
    }
}

/// An indexed triangle mesh used for static terrain/obstacles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriMesh {
    vertices: Vec<Vec3>,
    /// Triangles as vertex-index triples.
    triangles: Vec<[u32; 3]>,
    local_aabb: Aabb,
}

impl TriMesh {
    /// Creates a mesh from vertices and index triples.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn new(vertices: Vec<Vec3>, triangles: Vec<[u32; 3]>) -> Self {
        let n = vertices.len() as u32;
        for t in &triangles {
            assert!(
                t[0] < n && t[1] < n && t[2] < n,
                "triangle index out of range"
            );
        }
        let mut aabb = Aabb::EMPTY;
        for v in &vertices {
            aabb = aabb.union(&Aabb::new(*v, *v));
        }
        TriMesh {
            vertices,
            triangles,
            local_aabb: aabb,
        }
    }

    /// The vertex positions.
    #[inline]
    pub fn vertices(&self) -> &[Vec3] {
        &self.vertices
    }

    /// The triangle index triples.
    #[inline]
    pub fn triangles(&self) -> &[[u32; 3]] {
        &self.triangles
    }

    /// Corner positions of triangle `i`.
    #[inline]
    pub fn triangle(&self, i: usize) -> [Vec3; 3] {
        let t = self.triangles[i];
        [
            self.vertices[t[0] as usize],
            self.vertices[t[1] as usize],
            self.vertices[t[2] as usize],
        ]
    }

    /// Local-space bounding box.
    #[inline]
    pub fn local_aabb(&self) -> Aabb {
        self.local_aabb
    }
}

/// A collision shape.
///
/// # Examples
///
/// ```
/// use parallax_physics::Shape;
/// use parallax_math::Vec3;
///
/// let ball = Shape::sphere(0.5);
/// let brick = Shape::cuboid(Vec3::new(0.5, 0.25, 0.25));
/// assert!(ball.volume() > 0.0 && brick.volume() > 0.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Shape {
    /// Sphere of the given radius.
    Sphere {
        /// Radius (m).
        radius: f32,
    },
    /// Box with the given half-extents.
    Cuboid {
        /// Half-extent along each local axis.
        half: Vec3,
    },
    /// Capsule aligned with the local Y axis.
    Capsule {
        /// Radius of the cylindrical section and caps.
        radius: f32,
        /// Half the length of the cylindrical section.
        half_len: f32,
    },
    /// Infinite plane `n·x = d` with outward unit normal `n`.
    Plane {
        /// Unit normal.
        normal: Vec3,
        /// Signed offset along the normal.
        offset: f32,
    },
    /// Heightfield terrain (shared, static only).
    Heightfield(Arc<Heightfield>),
    /// Triangle mesh terrain (shared, static only).
    TriMesh(Arc<TriMesh>),
}

impl Shape {
    /// Creates a sphere shape.
    ///
    /// # Panics
    ///
    /// Debug-panics on non-positive radius.
    pub fn sphere(radius: f32) -> Shape {
        debug_assert!(radius > 0.0, "sphere radius must be positive");
        Shape::Sphere { radius }
    }

    /// Creates a box shape from half-extents.
    pub fn cuboid(half: Vec3) -> Shape {
        debug_assert!(
            half.x > 0.0 && half.y > 0.0 && half.z > 0.0,
            "box half-extents must be positive"
        );
        Shape::Cuboid { half }
    }

    /// Creates a Y-aligned capsule.
    pub fn capsule(radius: f32, half_len: f32) -> Shape {
        debug_assert!(radius > 0.0 && half_len >= 0.0);
        Shape::Capsule { radius, half_len }
    }

    /// Creates a plane from a (not necessarily unit) normal and offset.
    pub fn plane(normal: Vec3, offset: f32) -> Shape {
        Shape::Plane {
            normal: normal.normalized(),
            offset,
        }
    }

    /// Creates a heightfield shape.
    pub fn heightfield(hf: Heightfield) -> Shape {
        Shape::Heightfield(Arc::new(hf))
    }

    /// Creates a triangle-mesh shape.
    pub fn trimesh(mesh: TriMesh) -> Shape {
        Shape::TriMesh(Arc::new(mesh))
    }

    /// Inertia tensor of the shape for unit mass, about its local origin.
    ///
    /// Planes and terrain (static-only shapes) return an identity placeholder.
    pub fn unit_inertia(&self) -> Mat3 {
        match *self {
            Shape::Sphere { radius } => Mat3::from_diagonal(Vec3::splat(0.4 * radius * radius)),
            Shape::Cuboid { half } => {
                let d = half * 2.0;
                let c = 1.0 / 12.0;
                Mat3::from_diagonal(Vec3::new(
                    c * (d.y * d.y + d.z * d.z),
                    c * (d.x * d.x + d.z * d.z),
                    c * (d.x * d.x + d.y * d.y),
                ))
            }
            Shape::Capsule { radius, half_len } => {
                // Approximate with the bounding cylinder for simplicity.
                let h = 2.0 * (half_len + radius);
                let r2 = radius * radius;
                let ix = (3.0 * r2 + h * h) / 12.0;
                Mat3::from_diagonal(Vec3::new(ix, 0.5 * r2, ix))
            }
            Shape::Plane { .. } | Shape::Heightfield(_) | Shape::TriMesh(_) => Mat3::IDENTITY,
        }
    }

    /// Volume of the shape (0 for planes/terrain).
    pub fn volume(&self) -> f32 {
        match *self {
            Shape::Sphere { radius } => 4.0 / 3.0 * std::f32::consts::PI * radius.powi(3),
            Shape::Cuboid { half } => 8.0 * half.x * half.y * half.z,
            Shape::Capsule { radius, half_len } => {
                let r2 = radius * radius;
                std::f32::consts::PI * r2 * (2.0 * half_len)
                    + 4.0 / 3.0 * std::f32::consts::PI * r2 * radius
            }
            Shape::Plane { .. } | Shape::Heightfield(_) | Shape::TriMesh(_) => 0.0,
        }
    }

    /// World-space AABB of the shape under `transform`.
    pub fn aabb(&self, transform: &Transform) -> Aabb {
        match self {
            Shape::Sphere { radius } => {
                Aabb::from_center_half_extents(transform.position, Vec3::splat(*radius))
            }
            Shape::Cuboid { half } => {
                // |R| * half gives the rotated half-extents.
                let m = transform.rotation.to_mat3();
                let ext = Vec3::new(
                    m.rows[0].abs().dot(*half),
                    m.rows[1].abs().dot(*half),
                    m.rows[2].abs().dot(*half),
                );
                Aabb::from_center_half_extents(transform.position, ext)
            }
            Shape::Capsule { radius, half_len } => {
                let axis = transform.apply_vector(Vec3::UNIT_Y) * *half_len;
                let p0 = transform.position - axis;
                let p1 = transform.position + axis;
                Aabb::new(p0.min(p1), p0.max(p1)).expanded(*radius)
            }
            Shape::Plane { .. } => {
                // Planes are infinite; give a huge box so they pair with
                // everything in broad-phase.
                Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1e9))
            }
            Shape::Heightfield(hf) => transform_aabb(transform, hf.local_aabb()),
            Shape::TriMesh(mesh) => transform_aabb(transform, mesh.local_aabb()),
        }
    }

    /// Which primitive this shape is.
    #[inline]
    pub fn kind(&self) -> ShapeKind {
        match self {
            Shape::Sphere { .. } => ShapeKind::Sphere,
            Shape::Cuboid { .. } => ShapeKind::Cuboid,
            Shape::Capsule { .. } => ShapeKind::Capsule,
            Shape::Plane { .. } => ShapeKind::Plane,
            Shape::Heightfield(_) => ShapeKind::Heightfield,
            Shape::TriMesh(_) => ShapeKind::TriMesh,
        }
    }

    /// Heap bytes of a terrain payload (charged to every holder of the
    /// shared data); 0 for the primitives.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        match self {
            Shape::Heightfield(hf) => size_of::<Heightfield>() + vec_bytes(&hf.heights),
            Shape::TriMesh(mesh) => {
                size_of::<TriMesh>() + vec_bytes(&mesh.vertices) + vec_bytes(&mesh.triangles)
            }
            _ => 0,
        }
    }
}

/// The primitive a [`Shape`] is, as one byte: what the narrow phase
/// buckets pairs by, what the per-pair work records carry and what the
/// trace's cost model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum ShapeKind {
    /// [`Shape::Sphere`].
    Sphere,
    /// [`Shape::Cuboid`].
    Cuboid,
    /// [`Shape::Capsule`].
    Capsule,
    /// [`Shape::Plane`].
    Plane,
    /// [`Shape::Heightfield`].
    Heightfield,
    /// [`Shape::TriMesh`].
    TriMesh,
}

impl ShapeKind {
    /// Number of kinds (the side of the kind-pair bucket table).
    pub const COUNT: usize = 6;

    /// A short, stable name for profiling and traces.
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::Sphere => "sphere",
            ShapeKind::Cuboid => "box",
            ShapeKind::Capsule => "capsule",
            ShapeKind::Plane => "plane",
            ShapeKind::Heightfield => "heightfield",
            ShapeKind::TriMesh => "trimesh",
        }
    }
}

/// Transforms a local AABB into a world-space AABB (conservative).
fn transform_aabb(t: &Transform, local: Aabb) -> Aabb {
    let c = local.center();
    let h = local.half_extents();
    let m = t.rotation.to_mat3();
    let ext = Vec3::new(
        m.rows[0].abs().dot(h),
        m.rows[1].abs().dot(h),
        m.rows[2].abs().dot(h),
    );
    Aabb::from_center_half_extents(t.apply(c), ext)
}

/// A geom: a shape instance attached to a body (or static, body = `None`).
#[derive(Debug, Clone)]
pub struct Geom {
    pub(crate) shape: Shape,
    /// Owning body; `None` for world-static geoms.
    pub(crate) body: Option<crate::BodyId>,
    /// Offset from the body frame.
    pub(crate) local: Transform,
    /// Cached world AABB, refreshed at the start of broad-phase.
    pub(crate) aabb: Aabb,
    pub(crate) enabled: bool,
}

/// What the narrow phase's classifier needs to know of a geom, packed
/// into eight bytes so that a candidate pair is judged without touching
/// the geom, its body or a hash table. Rebuilt every step by the pass
/// that refreshes the AABBs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeomClass {
    /// Owning body, `u32::MAX` for world-static geoms.
    pub body: u32,
    pub kind: ShapeKind,
    pub bits: u8,
}

impl GeomClass {
    /// The geom participates in collision.
    pub const ENABLED: u8 = 1;
    /// The body is dynamic and awake: a pair needs one such side to
    /// produce contacts.
    pub const AWAKE_DYNAMIC: u8 = 2;
    /// The body is disabled (dormant debris keeps enabled geoms).
    pub const BODY_DISABLED: u8 = 4;
    /// The body appears in the collision-exclusion table.
    pub const EXCLUDES: u8 = 8;
}

impl Geom {
    /// The shape of this geom.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The owning body, if any.
    #[inline]
    pub fn body(&self) -> Option<crate::BodyId> {
        self.body
    }

    /// Cached world-space AABB from the last broad-phase update.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// Whether this geom currently participates in collision.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Offset from the owning body's frame (the world pose for
    /// world-static geoms).
    #[inline]
    pub fn local_transform(&self) -> Transform {
        self.local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_math::Quat;

    #[test]
    fn sphere_aabb_is_tight() {
        let s = Shape::sphere(2.0);
        let t = Transform::from_position(Vec3::new(1.0, 0.0, 0.0));
        let bb = s.aabb(&t);
        assert_eq!(bb.min, Vec3::new(-1.0, -2.0, -2.0));
        assert_eq!(bb.max, Vec3::new(3.0, 2.0, 2.0));
    }

    #[test]
    fn rotated_box_aabb_grows() {
        let s = Shape::cuboid(Vec3::new(1.0, 0.1, 0.1));
        let t = Transform::new(
            Vec3::ZERO,
            Quat::from_axis_angle(Vec3::UNIT_Z, std::f32::consts::FRAC_PI_4),
        );
        let bb = s.aabb(&t);
        // Rotating a long thin box 45° about Z spreads X extent into Y.
        assert!(bb.max.y > 0.5, "expected y extent to grow, got {bb:?}");
        assert!(bb.max.x < 1.0);
    }

    #[test]
    fn capsule_aabb_covers_caps() {
        let s = Shape::capsule(0.5, 1.0);
        let bb = s.aabb(&Transform::IDENTITY);
        assert!((bb.max.y - 1.5).abs() < 1e-6);
        assert!((bb.max.x - 0.5).abs() < 1e-6);
    }

    #[test]
    fn heightfield_sampling_bilinear() {
        // A 2x2 field forming a ramp along x: h = x + 0.5 (cell=1 centred).
        let hf = Heightfield::new(2, 2, 1.0, vec![0.0, 1.0, 0.0, 1.0]);
        assert!((hf.height_at(-0.5, 0.0) - 0.0).abs() < 1e-6);
        assert!((hf.height_at(0.5, 0.0) - 1.0).abs() < 1e-6);
        assert!((hf.height_at(0.0, 0.0) - 0.5).abs() < 1e-6);
        // Normal should tilt against +x.
        let n = hf.normal_at(0.0, 0.0);
        assert!(n.x < 0.0 && n.y > 0.0);
    }

    #[test]
    fn heightfield_clamps_out_of_range() {
        let hf = Heightfield::new(2, 2, 1.0, vec![0.0, 1.0, 0.0, 1.0]);
        assert!((hf.height_at(-100.0, 0.0) - 0.0).abs() < 1e-6);
        assert!((hf.height_at(100.0, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn trimesh_aabb_and_access() {
        let mesh = TriMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
            ],
            vec![[0, 1, 2]],
        );
        assert_eq!(mesh.local_aabb().max, Vec3::new(1.0, 2.0, 0.0));
        assert_eq!(mesh.triangle(0)[2], Vec3::new(0.0, 2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "triangle index out of range")]
    fn trimesh_rejects_bad_indices() {
        let _ = TriMesh::new(vec![Vec3::ZERO], vec![[0, 1, 2]]);
    }

    #[test]
    fn unit_inertia_positive_definite() {
        for s in [
            Shape::sphere(0.5),
            Shape::cuboid(Vec3::new(0.5, 1.0, 2.0)),
            Shape::capsule(0.3, 0.7),
        ] {
            let i = s.unit_inertia();
            let d = i.diagonal();
            assert!(d.x > 0.0 && d.y > 0.0 && d.z > 0.0, "{s:?}");
        }
    }

    #[test]
    fn volumes_are_sane() {
        assert!((Shape::sphere(1.0).volume() - 4.18879).abs() < 1e-3);
        assert!((Shape::cuboid(Vec3::splat(0.5)).volume() - 1.0).abs() < 1e-6);
        assert_eq!(Shape::plane(Vec3::UNIT_Y, 0.0).volume(), 0.0);
    }
}
