//! Cloth simulation: Jakobsen-style position-based dynamics (paper §3.2).
//!
//! A cloth is a triangular mesh where every edge is a length constraint.
//! Vertices are integrated with a Verlet step and constraints are solved by
//! iterative relaxation (vertex projection). Collision with rigid bodies on
//! the cloth's contact list is resolved by projecting vertices out of the
//! offending shape.
//!
//! Each vertex update is independent — this is the fine-grain parallel
//! kernel the paper maps onto FG cores. The real execution exploits the
//! same structure with SIMD: each step gathers the vertices into scratch
//! structure-of-arrays lanes, runs the Verlet sweep `LANES` vertices at a
//! time, and relaxes the constraints in precomputed conflict-free batches
//! (no two constraints in a batch share a vertex) so a whole batch can be
//! projected in packed registers. The batch schedule is deterministic and
//! the scalar path walks the *same* schedule one lane at a time, so every
//! [`SimdMode`] produces bit-identical vertices.

use parallax_math::simd::WideF32;
#[cfg(target_arch = "x86_64")]
use parallax_math::simd::{F32x4, F32x8};
use parallax_math::{Aabb, SimdMode, Transform, Vec3};
use serde::{Deserialize, Serialize};

use crate::shape::Shape;

/// Identifier of a cloth object inside a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClothId(pub u32);

impl ClothId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Configuration for a cloth object.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClothConfig {
    /// Constraint-relaxation iterations per step.
    pub iterations: usize,
    /// Velocity damping (0..1 fraction retained per step).
    pub damping: f32,
    /// Thickness used when projecting vertices out of colliders.
    pub thickness: f32,
}

impl Default for ClothConfig {
    fn default() -> Self {
        ClothConfig {
            iterations: 8,
            damping: 0.995,
            thickness: 0.02,
        }
    }
}

/// One cloth vertex.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClothVertex {
    /// Current position.
    pub pos: Vec3,
    /// Previous position (Verlet state).
    pub prev: Vec3,
    /// Pinned vertices do not move (attachment points).
    pub pinned: bool,
}

/// A distance constraint between two vertices.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LengthConstraint {
    /// First vertex index.
    pub a: u32,
    /// Second vertex index.
    pub b: u32,
    /// Rest length.
    pub rest: f32,
}

/// Work statistics from one cloth step, consumed by the trace layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClothStats {
    /// Vertices integrated.
    pub vertices: usize,
    /// Constraint projections executed (constraints × iterations).
    pub projections: usize,
    /// Vertex-collider tests executed.
    pub collision_tests: usize,
    /// Vertices pushed out of colliders.
    pub collisions_resolved: usize,
}

/// A cloth object: triangular mesh + length constraints.
///
/// # Examples
///
/// ```
/// use parallax_physics::cloth::Cloth;
/// use parallax_math::Vec3;
///
/// // A 5x5 vertex cloth (the paper's "small" cloth is 25 vertices).
/// let cloth = Cloth::rectangle(Vec3::new(0.0, 2.0, 0.0), 1.0, 1.0, 5, 5, &[0, 4]);
/// assert_eq!(cloth.vertices().len(), 25);
/// ```
#[derive(Debug, Clone)]
pub struct Cloth {
    verts: Vec<ClothVertex>,
    constraints: Vec<LengthConstraint>,
    triangles: Vec<[u32; 3]>,
    config: ClothConfig,
    /// Conflict-free relaxation schedule: each inner list holds constraint
    /// indices that share no vertex, so they can be projected in any order
    /// (and hence in packed lanes). Built once from the topology.
    batches: Vec<Vec<u32>>,
    /// Structure-of-arrays scratch for the SIMD step (gather/scatter
    /// target; persists for allocation reuse).
    scratch: ClothScratch,
    /// Bodies to collide against this step (world maintains this from
    /// broad-phase overlaps with the cloth's AABB).
    pub(crate) contact_bodies: Vec<u32>,
    /// World-static geoms (ground plane, terrain) on the contact list.
    pub(crate) contact_static_geoms: Vec<u32>,
}

/// Scratch SoA lanes for one cloth step: positions, Verlet previous
/// positions and the pin mask (all-ones bits for pinned vertices).
#[derive(Debug, Default, Clone)]
struct ClothScratch {
    sx: Vec<f32>,
    sy: Vec<f32>,
    sz: Vec<f32>,
    px: Vec<f32>,
    py: Vec<f32>,
    pz: Vec<f32>,
    pin: Vec<f32>,
}

impl ClothScratch {
    fn gather(&mut self, verts: &[ClothVertex]) {
        let n = verts.len();
        self.sx.resize(n, 0.0);
        self.sy.resize(n, 0.0);
        self.sz.resize(n, 0.0);
        self.px.resize(n, 0.0);
        self.py.resize(n, 0.0);
        self.pz.resize(n, 0.0);
        self.pin.resize(n, 0.0);
        for (i, v) in verts.iter().enumerate() {
            self.sx[i] = v.pos.x;
            self.sy[i] = v.pos.y;
            self.sz[i] = v.pos.z;
            self.px[i] = v.prev.x;
            self.py[i] = v.prev.y;
            self.pz[i] = v.prev.z;
            self.pin[i] = f32::from_bits(if v.pinned { u32::MAX } else { 0 });
        }
    }

    fn scatter(&self, verts: &mut [ClothVertex]) {
        for (i, v) in verts.iter_mut().enumerate() {
            v.pos = Vec3::new(self.sx[i], self.sy[i], self.sz[i]);
            v.prev = Vec3::new(self.px[i], self.py[i], self.pz[i]);
        }
    }
}

/// Deterministic greedy coloring: a constraint goes into the first batch
/// not yet using either of its vertices. `level[v]` is the next batch with
/// `v` still free, so batch = max(level[a], level[b]).
fn color_batches(constraints: &[LengthConstraint], n_verts: usize) -> Vec<Vec<u32>> {
    let mut level = vec![0u32; n_verts];
    let mut batches: Vec<Vec<u32>> = Vec::new();
    for (ci, c) in constraints.iter().enumerate() {
        let b = level[c.a as usize].max(level[c.b as usize]);
        if b as usize == batches.len() {
            batches.push(Vec::new());
        }
        batches[b as usize].push(ci as u32);
        level[c.a as usize] = b + 1;
        level[c.b as usize] = b + 1;
    }
    batches
}

impl Cloth {
    /// Builds a rectangular cloth in the XZ plane at `origin`, `w × h`
    /// metres, with `nx × nz` vertices. Indices in `pinned` are fixed in
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if `nx < 2` or `nz < 2`.
    pub fn rectangle(origin: Vec3, w: f32, h: f32, nx: usize, nz: usize, pinned: &[usize]) -> Self {
        assert!(nx >= 2 && nz >= 2, "cloth needs at least 2x2 vertices");
        let mut verts = Vec::with_capacity(nx * nz);
        for iz in 0..nz {
            for ix in 0..nx {
                let p = origin
                    + Vec3::new(
                        w * ix as f32 / (nx - 1) as f32,
                        0.0,
                        h * iz as f32 / (nz - 1) as f32,
                    );
                verts.push(ClothVertex {
                    pos: p,
                    prev: p,
                    pinned: false,
                });
            }
        }
        for &p in pinned {
            if p < verts.len() {
                verts[p].pinned = true;
            }
        }

        let idx = |ix: usize, iz: usize| (iz * nx + ix) as u32;
        let mut constraints = Vec::new();
        let mut triangles = Vec::new();
        for iz in 0..nz {
            for ix in 0..nx {
                let a = idx(ix, iz);
                if ix + 1 < nx {
                    constraints.push((a, idx(ix + 1, iz)));
                }
                if iz + 1 < nz {
                    constraints.push((a, idx(ix, iz + 1)));
                }
                // Shear constraints along the triangulation diagonal.
                if ix + 1 < nx && iz + 1 < nz {
                    constraints.push((a, idx(ix + 1, iz + 1)));
                    triangles.push([a, idx(ix + 1, iz), idx(ix + 1, iz + 1)]);
                    triangles.push([a, idx(ix + 1, iz + 1), idx(ix, iz + 1)]);
                }
            }
        }
        let constraints: Vec<LengthConstraint> = constraints
            .into_iter()
            .map(|(a, b)| LengthConstraint {
                a,
                b,
                rest: (verts[a as usize].pos - verts[b as usize].pos).length(),
            })
            .collect();

        // The relaxation schedule depends only on topology (pins are
        // handled by lane masks), so `pin` after construction never
        // invalidates it.
        let batches = color_batches(&constraints, verts.len());

        Cloth {
            verts,
            constraints,
            triangles,
            config: ClothConfig::default(),
            batches,
            scratch: ClothScratch::default(),
            contact_bodies: Vec::new(),
            contact_static_geoms: Vec::new(),
        }
    }

    /// Overrides the default configuration.
    pub fn with_config(mut self, config: ClothConfig) -> Self {
        self.config = config;
        self
    }

    /// The vertices.
    #[inline]
    pub fn vertices(&self) -> &[ClothVertex] {
        &self.verts
    }

    /// Mutable Verlet state, for snapshot restore (same crate only; the
    /// vertex count is topology and must not change).
    pub(crate) fn verts_mut(&mut self) -> &mut [ClothVertex] {
        &mut self.verts
    }

    /// The length constraints.
    #[inline]
    pub fn constraints(&self) -> &[LengthConstraint] {
        &self.constraints
    }

    /// The triangles (for rendering / collision volumes).
    #[inline]
    pub fn triangles(&self) -> &[[u32; 3]] {
        &self.triangles
    }

    /// Bodies currently on the contact list.
    #[inline]
    pub fn contact_bodies(&self) -> &[u32] {
        &self.contact_bodies
    }

    /// World-static geoms currently on the contact list.
    #[inline]
    pub fn contact_static_geoms(&self) -> &[u32] {
        &self.contact_static_geoms
    }

    /// Pins vertex `i` at its current position.
    pub fn pin(&mut self, i: usize) {
        self.verts[i].pinned = true;
    }

    /// Moves a pinned vertex (attachment follows a body).
    pub fn move_pinned(&mut self, i: usize, pos: Vec3) {
        let v = &mut self.verts[i];
        v.pos = pos;
        v.prev = pos;
    }

    /// World-space AABB of the cloth, expanded by `margin`.
    pub fn aabb(&self, margin: f32) -> Aabb {
        let mut bb = Aabb::EMPTY;
        for v in &self.verts {
            bb = bb.union(&Aabb::new(v.pos, v.pos));
        }
        bb.expanded(margin)
    }

    /// Mean squared violation of the length constraints (m²) — a
    /// convergence metric used by tests and benches.
    pub fn constraint_error(&self) -> f32 {
        if self.constraints.is_empty() {
            return 0.0;
        }
        let sum: f32 = self
            .constraints
            .iter()
            .map(|c| {
                let d =
                    (self.verts[c.a as usize].pos - self.verts[c.b as usize].pos).length() - c.rest;
                d * d
            })
            .sum();
        sum / self.constraints.len() as f32
    }

    /// Advances the cloth one step: Verlet integration, constraint
    /// relaxation, then collision projection against `colliders`.
    ///
    /// Integration and relaxation run on gathered SoA lanes at the width
    /// `mode` selects; every mode walks the same batch schedule, so the
    /// resulting vertices are bit-identical across modes (see module docs).
    ///
    /// Every entry of `colliders` is a posed shape from the contact list.
    pub fn step(
        &mut self,
        gravity: Vec3,
        dt: f32,
        colliders: &[(Shape, Transform)],
        mode: SimdMode,
    ) -> ClothStats {
        let mut stats = ClothStats {
            vertices: self.verts.len(),
            ..Default::default()
        };

        // Gather AoS vertices into the scratch lanes, run Verlet +
        // relaxation at the selected width, scatter back.
        self.scratch.gather(&self.verts);
        let mode = mode.clamp_to_supported();
        #[cfg(target_arch = "x86_64")]
        match mode {
            SimdMode::Scalar => solve_soa::<f32>(
                &mut self.scratch,
                &self.constraints,
                &self.batches,
                &self.config,
                gravity,
                dt,
            ),
            SimdMode::Sse2 => solve_soa::<F32x4>(
                &mut self.scratch,
                &self.constraints,
                &self.batches,
                &self.config,
                gravity,
                dt,
            ),
            // SAFETY: `clamp_to_supported` above verified AVX2 via
            // `is_x86_feature_detected!`, so executing AVX2 code is sound.
            SimdMode::Avx2 => unsafe {
                solve_soa_avx2(
                    &mut self.scratch,
                    &self.constraints,
                    &self.batches,
                    &self.config,
                    gravity,
                    dt,
                )
            },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = mode;
            solve_soa::<f32>(
                &mut self.scratch,
                &self.constraints,
                &self.batches,
                &self.config,
                gravity,
                dt,
            );
        }
        self.scratch.scatter(&mut self.verts);
        stats.projections = self.constraints.len() * self.config.iterations;

        // Collision: continuous (ray-cast, paper: cloth CD "is based on a
        // combination of ray casting and AABB hierarchies") plus discrete
        // vertex projection.
        for v in &mut self.verts {
            if v.pinned {
                continue;
            }
            // CCD: a vertex that moved more than its thickness this step
            // may have tunnelled; clamp it at the first surface its path
            // crossed.
            let travel = v.pos - v.prev;
            if travel.length() > self.config.thickness * 2.0 {
                let ray = crate::ray::Ray::between(v.prev, v.pos);
                for (shape, t) in colliders {
                    stats.collision_tests += 1;
                    if let Some(hit) = crate::ray::cast_shape(&ray, shape, t) {
                        v.pos = hit.point + hit.normal * self.config.thickness;
                        v.prev = v.prev.lerp(v.pos, 0.5);
                        stats.collisions_resolved += 1;
                        break;
                    }
                }
            }
            for (shape, t) in colliders {
                stats.collision_tests += 1;
                if let Some(pushed) = project_out(v.pos, shape, t, self.config.thickness) {
                    v.pos = pushed;
                    // Kill the velocity component into the surface by
                    // moving prev with the vertex (inelastic).
                    v.prev = v.prev.lerp(v.pos, 0.5);
                    stats.collisions_resolved += 1;
                }
            }
        }
        stats
    }
}

// --- width-generic kernels -----------------------------------------------

/// Verlet sweep + batched constraint relaxation over the SoA scratch.
///
/// `W`-wide chunks cover the bulk; the remainder (`len % LANES`) re-uses
/// the one-lane `f32` instantiation of the *same* chunk kernels, so
/// remainder elements take the identical data path and every width is
/// bit-identical.
#[inline(always)]
fn solve_soa<W: WideF32>(
    s: &mut ClothScratch,
    constraints: &[LengthConstraint],
    batches: &[Vec<u32>],
    config: &ClothConfig,
    gravity: Vec3,
    dt: f32,
) {
    let n = s.sx.len();
    let main = n - n % W::LANES;
    let mut i = 0;
    while i < main {
        verlet_chunk::<W>(s, i, config.damping, gravity, dt);
        i += W::LANES;
    }
    while i < n {
        verlet_chunk::<f32>(s, i, config.damping, gravity, dt);
        i += 1;
    }

    for _ in 0..config.iterations {
        for batch in batches {
            let m = batch.len();
            let bulk = m - m % W::LANES;
            let mut j = 0;
            while j < bulk {
                relax_chunk::<W>(s, constraints, &batch[j..j + W::LANES]);
                j += W::LANES;
            }
            while j < m {
                relax_chunk::<f32>(s, constraints, &batch[j..j + 1]);
                j += 1;
            }
        }
    }
}

/// `#[target_feature(enable = "avx2")]` recompiles the inlined generic
/// solve as AVX2 code; `unsafe` because calling it on a CPU without AVX2
/// would be undefined behaviour. The call site sits behind
/// [`SimdMode::clamp_to_supported`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn solve_soa_avx2(
    s: &mut ClothScratch,
    constraints: &[LengthConstraint],
    batches: &[Vec<u32>],
    config: &ClothConfig,
    gravity: Vec3,
    dt: f32,
) {
    solve_soa::<F32x8>(s, constraints, batches, config, gravity, dt);
}

/// Verlet-integrates `LANES` vertices starting at `i`. Pinned lanes keep
/// both `pos` and `prev` via the mask blend — no branches, identical at
/// every width.
#[inline(always)]
fn verlet_chunk<W: WideF32>(s: &mut ClothScratch, i: usize, damping: f32, gravity: Vec3, dt: f32) {
    let pin = W::load(&s.pin, i);
    let damp = W::splat(damping);
    let gdt2 = gravity * (dt * dt);

    // Scalar reference per axis: vel = (pos - prev) * damping;
    //                            next = (pos + vel) + gravity_axis * dt².
    let pos = W::load(&s.sx, i);
    let prev = W::load(&s.px, i);
    let next = pos + (pos - prev) * damp + W::splat(gdt2.x);
    W::select(pin, prev, pos).store(&mut s.px, i);
    W::select(pin, pos, next).store(&mut s.sx, i);

    let pos = W::load(&s.sy, i);
    let prev = W::load(&s.py, i);
    let next = pos + (pos - prev) * damp + W::splat(gdt2.y);
    W::select(pin, prev, pos).store(&mut s.py, i);
    W::select(pin, pos, next).store(&mut s.sy, i);

    let pos = W::load(&s.sz, i);
    let prev = W::load(&s.pz, i);
    let next = pos + (pos - prev) * damp + W::splat(gdt2.z);
    W::select(pin, prev, pos).store(&mut s.pz, i);
    W::select(pin, pos, next).store(&mut s.sz, i);
}

/// Projects `idx.len() == LANES` constraints from one conflict-free batch.
///
/// Endpoints are gathered into small stack buffers (the indices are not
/// contiguous), projected in packed lanes, and scattered back. Because no
/// two constraints in a batch share a vertex, the packed
/// read-all/compute/write-all is equal to processing them one at a time.
///
/// Scalar reference per lane (matching the pre-SoA loop):
/// `delta = b - a; len = |delta|; if len > 1e-12:
///  corr = delta/len * ((len - rest) * 0.5);
///  a += corr·(pinned_b ? 2 : 1) unless pinned_a;
///  b -= corr·(pinned_a ? 2 : 1) unless pinned_b`.
/// Multiplying by 1.0 is exact, so the blend of scale factors reproduces
/// both scalar branches bit-for-bit; lanes with `len <= 1e-12` may divide
/// by ~0 but their results are discarded by the bitwise `select`.
#[inline(always)]
fn relax_chunk<W: WideF32>(s: &mut ClothScratch, constraints: &[LengthConstraint], idx: &[u32]) {
    debug_assert_eq!(idx.len(), W::LANES);
    debug_assert!(W::LANES <= 8);

    let mut ax = [0.0f32; 8];
    let mut ay = [0.0f32; 8];
    let mut az = [0.0f32; 8];
    let mut bx = [0.0f32; 8];
    let mut by = [0.0f32; 8];
    let mut bz = [0.0f32; 8];
    let mut pa = [0.0f32; 8];
    let mut pb = [0.0f32; 8];
    let mut rest = [0.0f32; 8];
    for (j, &ci) in idx.iter().enumerate() {
        let c = &constraints[ci as usize];
        let (ia, ib) = (c.a as usize, c.b as usize);
        ax[j] = s.sx[ia];
        ay[j] = s.sy[ia];
        az[j] = s.sz[ia];
        bx[j] = s.sx[ib];
        by[j] = s.sy[ib];
        bz[j] = s.sz[ib];
        pa[j] = s.pin[ia];
        pb[j] = s.pin[ib];
        rest[j] = c.rest;
    }

    let (ax_v, ay_v, az_v) = (W::load(&ax, 0), W::load(&ay, 0), W::load(&az, 0));
    let (bx_v, by_v, bz_v) = (W::load(&bx, 0), W::load(&by, 0), W::load(&bz, 0));
    let (pa_v, pb_v) = (W::load(&pa, 0), W::load(&pb, 0));

    let dx = bx_v - ax_v;
    let dy = by_v - ay_v;
    let dz = bz_v - az_v;
    // Same association as Vec3::dot / length: (x² + y²) + z².
    let len = (dx * dx + dy * dy + dz * dz).sqrt();
    let ok = len.gt(W::splat(1e-12));
    let e = (len - W::load(&rest, 0)) * W::splat(0.5);
    let cx = (dx / len) * e;
    let cy = (dy / len) * e;
    let cz = (dz / len) * e;

    let one = W::splat(1.0);
    let two = W::splat(2.0);
    let sa = W::select(pb_v, two, one);
    let sb = W::select(pa_v, two, one);
    let nax = W::select(ok, W::select(pa_v, ax_v, ax_v + cx * sa), ax_v);
    let nay = W::select(ok, W::select(pa_v, ay_v, ay_v + cy * sa), ay_v);
    let naz = W::select(ok, W::select(pa_v, az_v, az_v + cz * sa), az_v);
    let nbx = W::select(ok, W::select(pb_v, bx_v, bx_v - cx * sb), bx_v);
    let nby = W::select(ok, W::select(pb_v, by_v, by_v - cy * sb), by_v);
    let nbz = W::select(ok, W::select(pb_v, bz_v, bz_v - cz * sb), bz_v);

    nax.store(&mut ax, 0);
    nay.store(&mut ay, 0);
    naz.store(&mut az, 0);
    nbx.store(&mut bx, 0);
    nby.store(&mut by, 0);
    nbz.store(&mut bz, 0);
    for (j, &ci) in idx.iter().enumerate() {
        let c = &constraints[ci as usize];
        let (ia, ib) = (c.a as usize, c.b as usize);
        s.sx[ia] = ax[j];
        s.sy[ia] = ay[j];
        s.sz[ia] = az[j];
        s.sx[ib] = bx[j];
        s.sy[ib] = by[j];
        s.sz[ib] = bz[j];
    }
}

/// Projects a point out of a shape if inside (plus `thickness`), returning
/// the corrected position.
fn project_out(p: Vec3, shape: &Shape, t: &Transform, thickness: f32) -> Option<Vec3> {
    match shape {
        Shape::Sphere { radius } => {
            let d = p - t.position;
            let r = radius + thickness;
            let (dir, len) = d.normalized_with_length().unwrap_or((Vec3::UNIT_Y, 0.0));
            (len < r).then(|| t.position + dir * r)
        }
        Shape::Cuboid { half } => {
            let local = t.apply_inverse(p);
            let grown = *half + Vec3::splat(thickness);
            let inside =
                local.abs().x < grown.x && local.abs().y < grown.y && local.abs().z < grown.z;
            if !inside {
                return None;
            }
            // Push out through the nearest face.
            let d = grown - local.abs();
            let mut out = local;
            if d.x <= d.y && d.x <= d.z {
                out.x = grown.x * local.x.signum();
            } else if d.y <= d.z {
                out.y = grown.y * local.y.signum();
            } else {
                out.z = grown.z * local.z.signum();
            }
            Some(t.apply(out))
        }
        Shape::Capsule { radius, half_len } => {
            let axis = t.apply_vector(Vec3::UNIT_Y);
            let closest = crate::narrowphase::closest_point_on_segment(
                t.position - axis * *half_len,
                t.position + axis * *half_len,
                p,
            );
            let d = p - closest;
            let r = radius + thickness;
            let (dir, len) = d.normalized_with_length().unwrap_or((Vec3::UNIT_Y, 0.0));
            (len < r).then(|| closest + dir * r)
        }
        Shape::Plane { normal, offset } => {
            let dist = p.dot(*normal) - offset - thickness;
            (dist < 0.0).then(|| p - *normal * dist)
        }
        Shape::Heightfield(hf) => {
            let local = t.apply_inverse(p);
            let h = hf.height_at(local.x, local.z) + thickness;
            (local.y < h).then(|| t.apply(Vec3::new(local.x, h, local.z)))
        }
        Shape::TriMesh(_) => None, // Cloth-trimesh collision not supported.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle_builds_expected_topology() {
        let c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 3, 3, &[]);
        assert_eq!(c.vertices().len(), 9);
        // Edges: 6 horizontal + 6 vertical + 4 diagonal.
        assert_eq!(c.constraints().len(), 16);
        assert_eq!(c.triangles().len(), 8);
    }

    #[test]
    fn pinned_vertices_do_not_fall() {
        let mut c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 5, 5, &[0]);
        let start = c.vertices()[0].pos;
        for _ in 0..50 {
            c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &[], SimdMode::Scalar);
        }
        assert_eq!(c.vertices()[0].pos, start);
        // Unpinned vertices fell.
        assert!(c.vertices()[24].pos.y < -0.05);
    }

    #[test]
    fn hanging_cloth_stays_connected() {
        // Pin the whole top edge; after settling, constraint error stays
        // small (relaxation converges).
        let mut c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 5, 5, &[0, 1, 2, 3, 4]);
        for _ in 0..200 {
            c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &[], SimdMode::Scalar);
        }
        assert!(
            c.constraint_error() < 1e-3,
            "constraint error {}",
            c.constraint_error()
        );
    }

    #[test]
    fn cloth_rests_on_sphere() {
        let mut c = Cloth::rectangle(Vec3::new(-0.5, 1.0, -0.5), 1.0, 1.0, 7, 7, &[]);
        let colliders = [(Shape::sphere(0.5), Transform::from_position(Vec3::ZERO))];
        let mut stats = ClothStats::default();
        for _ in 0..100 {
            stats = c.step(
                Vec3::new(0.0, -10.0, 0.0),
                0.01,
                &colliders,
                SimdMode::Scalar,
            );
        }
        assert!(stats.collisions_resolved > 0, "cloth should touch sphere");
        // Centre vertex should sit on top of the sphere, not inside it.
        let centre = c.vertices()[24].pos;
        assert!(centre.length() >= 0.49, "vertex inside sphere: {centre:?}");
    }

    #[test]
    fn cloth_does_not_sink_through_plane() {
        let mut c = Cloth::rectangle(Vec3::new(-0.5, 0.5, -0.5), 1.0, 1.0, 5, 5, &[]);
        let colliders = [(Shape::plane(Vec3::UNIT_Y, 0.0), Transform::IDENTITY)];
        for _ in 0..200 {
            c.step(
                Vec3::new(0.0, -10.0, 0.0),
                0.01,
                &colliders,
                SimdMode::Scalar,
            );
        }
        for v in c.vertices() {
            assert!(v.pos.y > -1e-3, "vertex below plane: {:?}", v.pos);
        }
    }

    #[test]
    fn fast_vertices_do_not_tunnel_through_thin_box() {
        // A cloth slammed downward at high speed over a thin plate: without
        // CCD the vertices would skip straight through in one step.
        let mut c = Cloth::rectangle(Vec3::new(-0.4, 1.0, -0.4), 0.8, 0.8, 5, 5, &[]);
        // Give every vertex a large downward velocity via Verlet state.
        for i in 0..c.verts.len() {
            let p = c.verts[i].pos;
            c.verts[i].prev = p + Vec3::new(0.0, 1.2, 0.0); // 120 m/s at dt=0.01
        }
        let plate = (
            Shape::cuboid(Vec3::new(2.0, 0.02, 2.0)),
            Transform::from_position(Vec3::new(0.0, 0.5, 0.0)),
        );
        for _ in 0..3 {
            c.step(
                Vec3::new(0.0, -10.0, 0.0),
                0.01,
                std::slice::from_ref(&plate),
                SimdMode::Scalar,
            );
        }
        for v in c.vertices() {
            assert!(
                v.pos.y > 0.4,
                "vertex tunnelled through the plate: {:?}",
                v.pos
            );
        }
    }

    #[test]
    fn aabb_covers_vertices() {
        let c = Cloth::rectangle(Vec3::new(1.0, 2.0, 3.0), 2.0, 1.0, 4, 4, &[]);
        let bb = c.aabb(0.1);
        for v in c.vertices() {
            assert!(bb.contains_point(v.pos));
        }
    }

    #[test]
    fn simd_modes_are_bit_identical() {
        // Odd vertex/constraint counts exercise the remainder lanes; a
        // pinned corner and a collider exercise masking and the scalar
        // collision phase. 6x7 = 42 vertices (42 % 8 = 2, 42 % 4 = 2).
        let build = || Cloth::rectangle(Vec3::new(-0.5, 0.8, -0.5), 1.0, 1.2, 6, 7, &[0, 5]);
        let colliders = [(Shape::sphere(0.4), Transform::from_position(Vec3::ZERO))];
        let run = |mode: SimdMode| {
            let mut c = build();
            for _ in 0..60 {
                c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &colliders, mode);
            }
            c.vertices()
                .iter()
                .flat_map(|v| {
                    [
                        v.pos.x.to_bits(),
                        v.pos.y.to_bits(),
                        v.pos.z.to_bits(),
                        v.prev.x.to_bits(),
                        v.prev.y.to_bits(),
                        v.prev.z.to_bits(),
                    ]
                })
                .collect::<Vec<u32>>()
        };
        let reference = run(SimdMode::Scalar);
        for mode in [SimdMode::Sse2, SimdMode::Avx2] {
            if mode.clamp_to_supported() != mode {
                continue;
            }
            assert_eq!(run(mode), reference, "{} diverged from scalar", mode.name());
        }
    }

    #[test]
    fn relaxation_batches_are_conflict_free() {
        let c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 9, 5, &[]);
        let mut total = 0;
        for batch in &c.batches {
            let mut used = std::collections::HashSet::new();
            for &ci in batch {
                let con = &c.constraints[ci as usize];
                assert!(used.insert(con.a), "vertex {} reused in batch", con.a);
                assert!(used.insert(con.b), "vertex {} reused in batch", con.b);
            }
            total += batch.len();
        }
        assert_eq!(
            total,
            c.constraints.len(),
            "schedule must cover every constraint"
        );
    }

    #[test]
    fn stats_report_work() {
        let mut c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 4, 4, &[]);
        let stats = c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &[], SimdMode::Scalar);
        assert_eq!(stats.vertices, 16);
        assert_eq!(stats.projections, c.constraints().len() * 8);
    }
}
