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
//! same structure with SIMD: each step integrates the vertices into
//! scratch records (position and pin mask, 16 bytes each) and relaxes the
//! constraints in precomputed conflict-free batches (no two constraints
//! in a batch share a vertex), so a whole batch can be projected in
//! packed registers, `LANES` records transposed into coordinate lanes at
//! a time. The batches cover every iteration at once (see `Schedule`) and
//! keep each projection after every earlier one it shares a vertex with,
//! so they reproduce sequential Gauss–Seidel in index order bit for bit;
//! the scalar path walks the *same* schedule one lane at a time, so every
//! [`SimdMode`] produces bit-identical vertices.
//!
//! The collision pass tests every unpinned vertex against every collider,
//! but skips the exact routine where a bound proves it would miss (see
//! `ColliderBounds`); skipped tests still count as tests.

use parallax_math::simd::WideF32;
#[cfg(target_arch = "x86_64")]
use parallax_math::simd::{F32x4, F32x8};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use parallax_math::{Aabb, Quat, SimdMode, Transform, Vec3};
use serde::{Deserialize, Serialize};

use crate::ray::{self, Ray, ROUNDING_SLACK};
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

/// How the last step's collision pass spent its vertex-collider tests:
/// ray casts run, and ray casts and projections skipped because a bound
/// proved the exact routine would miss. Every skipped test still counts
/// in [`ClothStats::collision_tests`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CollisionCulls {
    /// Continuous-collision ray casts run.
    pub ccd_casts: usize,
    /// Continuous-collision ray casts skipped.
    pub ccd_culled: usize,
    /// Discrete projections (`project_out`) skipped.
    pub project_out_culled: usize,
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
    constraints: Arc<[LengthConstraint]>,
    triangles: Vec<[u32; 3]>,
    config: ClothConfig,
    /// Conflict-free relaxation schedule of every iteration, shared by the
    /// cloths of one topology and iteration count.
    schedule: Arc<Schedule>,
    /// The step's vertex records and collider bounds.
    scratch: ClothScratch,
    /// The last step's collision culling counts.
    culls: CollisionCulls,
    /// Bodies to collide against this step (world maintains this from
    /// broad-phase overlaps with the cloth's AABB).
    pub(crate) contact_bodies: Vec<u32>,
    /// World-static geoms (ground plane, terrain) on the contact list.
    pub(crate) contact_static_geoms: Vec<u32>,
}

/// The bits of a pinned vertex's pin mask (see `ClothScratch::rows`).
const PINNED: f32 = f32::from_bits(u32::MAX);

/// Scratch for one cloth step (persists for allocation reuse).
#[derive(Debug, Default, Clone)]
struct ClothScratch {
    /// Per vertex: position x, y, z and the pin mask (all-ones bits for
    /// pinned vertices, zero otherwise) — one 16-byte record that
    /// relaxation loads and stores whole.
    rows: Vec<[f32; 4]>,
    /// Per collider of the current step: where it cannot act.
    bounds: Vec<ColliderBounds>,
}

/// The relaxation schedule of one constraint set at one iteration count:
/// every projection of a step, `iterations × constraints` of them, in
/// conflict-free batches.
///
/// The batches colour the unrolled sequence — iteration 0's constraints in
/// index order, then iteration 1's, and so on — greedily: a projection
/// goes into the first batch after every earlier projection that shares a
/// vertex with it (`level[v]` is the batch after the last one using `v`).
/// So no vertex appears twice in a batch, two projections of one
/// constraint (which share both vertices) are never batched together, and
/// every projection reads exactly the positions sequential Gauss–Seidel
/// in index order gives it: packed batches are bit-identical to the
/// one-constraint-at-a-time loop. Colouring across iterations lets the
/// next iteration start where the last one has moved on, so a step runs
/// far fewer, wider batches than colouring each iteration alone (a 25×25
/// cloth at 8 iterations: 192 batches, not 1 144).
///
/// An entry is a constraint index (4 bytes): a step reads the endpoints
/// and rest length from the cloth's own constraints. Cloths of one
/// topology and iteration count share one schedule (see
/// [`Schedule::shared`]).
#[derive(Debug)]
struct Schedule {
    /// The constraints of the cloth this was built for (shared with it):
    /// their endpoints and the iteration count are the key cloths share
    /// schedules by.
    constraints: Arc<[LengthConstraint]>,
    iterations: usize,
    /// The projections, batch after batch, as constraint indices.
    order: Vec<u32>,
    /// Exclusive end of each batch in `order`.
    ends: Vec<u32>,
}

impl Schedule {
    fn build(constraints: Arc<[LengthConstraint]>, iterations: usize) -> Schedule {
        let n_verts = constraints
            .iter()
            .map(|c| c.a.max(c.b) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut level = vec![0u32; n_verts];
        let mut batch_of = Vec::with_capacity(constraints.len() * iterations);
        let mut sizes: Vec<u32> = Vec::new();
        for _ in 0..iterations {
            for &LengthConstraint { a, b, .. } in constraints.iter() {
                let k = level[a as usize].max(level[b as usize]);
                if k as usize == sizes.len() {
                    sizes.push(0);
                }
                sizes[k as usize] += 1;
                batch_of.push(k);
                level[a as usize] = k + 1;
                level[b as usize] = k + 1;
            }
        }
        // Counting sort by batch, stable, so a batch lists its projections
        // in sequence order.
        let mut ends = Vec::with_capacity(sizes.len());
        let mut total = 0;
        for &n in &sizes {
            total += n;
            ends.push(total);
        }
        let mut cursor: Vec<u32> = ends.iter().zip(&sizes).map(|(&e, &n)| e - n).collect();
        let mut order = vec![0; batch_of.len()];
        for (i, &k) in batch_of.iter().enumerate() {
            order[cursor[k as usize] as usize] = (i % constraints.len()) as u32;
            cursor[k as usize] += 1;
        }
        Schedule {
            constraints,
            iterations,
            order,
            ends,
        }
    }

    /// The schedule for `constraints` at `iterations`, shared with every
    /// live cloth of the same topology and iteration count (Mix's 30
    /// uniforms hold one between them, the 3 drapes another).
    fn shared(constraints: &Arc<[LengthConstraint]>, iterations: usize) -> Arc<Schedule> {
        static LIVE: Mutex<Vec<Weak<Schedule>>> = Mutex::new(Vec::new());
        // Every update (a retain, a push) leaves the list valid, so a
        // panic elsewhere while it was held leaves nothing to repair.
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        live.retain(|w| w.strong_count() > 0);
        let fits = |s: &Schedule| {
            s.iterations == iterations
                && s.constraints.len() == constraints.len()
                && s.constraints
                    .iter()
                    .zip(constraints.iter())
                    .all(|(s, c)| (s.a, s.b) == (c.a, c.b))
        };
        if let Some(s) = live.iter().filter_map(Weak::upgrade).find(|s| fits(s)) {
            return s;
        }
        let s = Arc::new(Schedule::build(Arc::clone(constraints), iterations));
        live.push(Arc::downgrade(&s));
        s
    }

    /// The batches, in execution order.
    fn batches(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.order[start as usize..end as usize])
    }
}

/// The slack for coordinates up to the magnitude of `bb`'s corners.
fn slack_of(bb: &Aabb) -> f32 {
    ROUNDING_SLACK * (1.0 + bb.min.abs().max(bb.max.abs()).max_element())
}

/// All of space: a bound that never proves a miss.
fn everywhere() -> Aabb {
    Aabb::new(Vec3::splat(f32::NEG_INFINITY), Vec3::splat(f32::INFINITY))
}

/// Where one posed collider can act on a vertex this step: a finite point
/// outside `touch` gets `None` from `project_out`, and a finite segment
/// wholly beyond one face of `cast` gets `None` from `ray::cast_shape`.
///
/// * Sphere, capsule: the world AABB grown by the thickness (`touch`); a
///   sphere's ray cast is a few flops and is never skipped, and a capsule's
///   64-sample march misses a segment outside its AABB (`cast`).
/// * Cuboid: grown by twice the thickness — a rotated box grown by `t`
///   reaches up to `√3·t` past the box's AABB; the slab test misses a
///   segment outside the AABB.
/// * Heightfield at identity rotation with tame samples (finite, under
///   1e30): only the half-space above its highest sample (plus the
///   thickness for `touch`) — heights clamp to the border, so a point
///   beside or below the field can still be pushed out. Rotated or untamed
///   fields get no cloth-side bound (the ray march has its own).
/// * Plane: none; trimesh: `project_out` never acts, and its ray cast is
///   not bounded.
///
/// Every bound is grown by [`ROUNDING_SLACK`] of its magnitude.
#[derive(Debug, Clone, Copy)]
struct ColliderBounds {
    touch: Aabb,
    cast: Aabb,
}

impl ColliderBounds {
    fn of(shape: &Shape, pose: &Transform, thickness: f32) -> ColliderBounds {
        let grown = |by: f32| {
            let bb = shape.aabb(pose);
            bb.expanded(by + slack_of(&bb))
        };
        match shape {
            Shape::Sphere { .. } => ColliderBounds {
                touch: grown(thickness),
                cast: everywhere(),
            },
            Shape::Capsule { .. } => ColliderBounds {
                touch: grown(thickness),
                cast: grown(0.0),
            },
            Shape::Cuboid { .. } => ColliderBounds {
                touch: grown(2.0 * thickness),
                cast: grown(0.0),
            },
            Shape::Heightfield(hf) if pose.rotation == Quat::IDENTITY && hf.is_tame() => {
                let bb = shape.aabb(pose);
                let top = bb.max.y + slack_of(&bb);
                let (mut touch, mut cast) = (everywhere(), everywhere());
                touch.max.y = top + thickness;
                cast.max.y = top;
                ColliderBounds { touch, cast }
            }
            Shape::TriMesh(_) => ColliderBounds {
                touch: Aabb::EMPTY,
                cast: everywhere(),
            },
            Shape::Heightfield(_) | Shape::Plane { .. } => ColliderBounds {
                touch: everywhere(),
                cast: everywhere(),
            },
        }
    }
}

/// Whether `p` is finite and outside `bb` (a NaN or infinite position is
/// never culled: the exact routines give it answers of their own).
#[inline]
fn point_misses(bb: &Aabb, p: Vec3) -> bool {
    let outside = p.x < bb.min.x
        || p.x > bb.max.x
        || p.y < bb.min.y
        || p.y > bb.max.y
        || p.z < bb.min.z
        || p.z > bb.max.z;
    outside && p.x.is_finite() && p.y.is_finite() && p.z.is_finite()
}

/// Whether the box `lo..hi` lies wholly beyond one face of `bb`.
#[inline]
fn box_misses(bb: &Aabb, lo: Vec3, hi: Vec3) -> bool {
    hi.x < bb.min.x
        || lo.x > bb.max.x
        || hi.y < bb.min.y
        || lo.y > bb.max.y
        || hi.z < bb.min.z
        || lo.z > bb.max.z
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
        let constraints: Arc<[LengthConstraint]> = constraints
            .into_iter()
            .map(|(a, b)| LengthConstraint {
                a,
                b,
                rest: (verts[a as usize].pos - verts[b as usize].pos).length(),
            })
            .collect();

        // The relaxation schedule depends only on topology and iteration
        // count (pins are handled by lane masks), so `pin` after
        // construction never invalidates it.
        let config = ClothConfig::default();
        let schedule = Schedule::shared(&constraints, config.iterations);

        Cloth {
            verts,
            constraints,
            triangles,
            config,
            schedule,
            scratch: ClothScratch::default(),
            culls: CollisionCulls::default(),
            contact_bodies: Vec::new(),
            contact_static_geoms: Vec::new(),
        }
    }

    /// Overrides the default configuration.
    pub fn with_config(mut self, config: ClothConfig) -> Self {
        if config.iterations != self.schedule.iterations {
            self.schedule = Schedule::shared(&self.constraints, config.iterations);
        }
        self.config = config;
        self
    }

    /// Heap bytes of the vertices, topology, schedule (shared ones
    /// charged in full), step buffers and contact lists.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        use std::mem::size_of_val;
        let schedule = &self.schedule;
        vec_bytes(&self.verts)
            + size_of_val(&*self.constraints)
            + vec_bytes(&self.triangles)
            + size_of_val(&**schedule)
            + vec_bytes(&schedule.order)
            + vec_bytes(&schedule.ends)
            + vec_bytes(&self.scratch.rows)
            + vec_bytes(&self.scratch.bounds)
            + vec_bytes(&self.contact_bodies)
            + vec_bytes(&self.contact_static_geoms)
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

    /// The last step's collision culling counts.
    #[inline]
    pub fn last_culls(&self) -> CollisionCulls {
        self.culls
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
    /// Relaxation runs at the width `mode` selects; every mode walks the
    /// same batch schedule, so the resulting vertices are bit-identical
    /// across modes (see module docs).
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

        // Verlet, one vertex at a time (the same IEEE operations as at
        // any width), into the rows relaxation works on.
        let gdt2 = gravity * (dt * dt);
        let damp = self.config.damping;
        let rows = &mut self.scratch.rows;
        rows.clear();
        rows.extend(self.verts.iter_mut().map(|v| {
            if v.pinned {
                return [v.pos.x, v.pos.y, v.pos.z, PINNED];
            }
            let (p, q) = (v.pos, v.prev);
            v.prev = p;
            [
                p.x + (p.x - q.x) * damp + gdt2.x,
                p.y + (p.y - q.y) * damp + gdt2.y,
                p.z + (p.z - q.z) * damp + gdt2.z,
                0.0,
            ]
        }));
        let mode = mode.clamp_to_supported();
        #[cfg(target_arch = "x86_64")]
        match mode {
            SimdMode::Scalar => relax::<f32>(rows, &self.constraints, &self.schedule),
            SimdMode::Sse2 => relax::<F32x4>(rows, &self.constraints, &self.schedule),
            // SAFETY: `clamp_to_supported` above verified AVX2 via
            // `is_x86_feature_detected!`, so executing AVX2 code is sound.
            SimdMode::Avx2 => unsafe { relax_avx2(rows, &self.constraints, &self.schedule) },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = mode;
            relax::<f32>(rows, &self.constraints, &self.schedule);
        }
        for (v, r) in self.verts.iter_mut().zip(rows.iter()) {
            v.pos = Vec3::new(r[0], r[1], r[2]);
        }
        stats.projections = self.constraints.len() * self.config.iterations;

        // Collision: continuous (ray-cast, paper: cloth CD "is based on a
        // combination of ray casting and AABB hierarchies") plus discrete
        // vertex projection.
        let thickness = self.config.thickness;
        let bounds = &mut self.scratch.bounds;
        bounds.clear();
        bounds.extend(
            colliders
                .iter()
                .map(|(shape, t)| ColliderBounds::of(shape, t, thickness)),
        );
        let mut culls = CollisionCulls::default();
        for v in &mut self.verts {
            if v.pinned {
                continue;
            }
            // CCD: a vertex that moved more than its thickness this step
            // may have tunnelled; clamp it at the first surface its path
            // crossed.
            let travel = (v.pos - v.prev).length();
            if travel > thickness * 2.0 {
                // Built at the first cast a bound does not skip.
                let mut ray = None;
                // A finite travel means finite endpoints; the segment's box
                // is grown by the slack of its own magnitude.
                let segment = (travel <= f32::MAX).then(|| {
                    let (lo, hi) = (v.prev.min(v.pos), v.prev.max(v.pos));
                    let s = ROUNDING_SLACK * lo.abs().max(hi.abs()).max_element();
                    (lo - Vec3::splat(s), hi + Vec3::splat(s))
                });
                for ((shape, t), b) in colliders.iter().zip(bounds.iter()) {
                    stats.collision_tests += 1;
                    if segment.is_some_and(|(lo, hi)| box_misses(&b.cast, lo, hi)) {
                        culls.ccd_culled += 1;
                        continue;
                    }
                    culls.ccd_casts += 1;
                    let ray = ray.get_or_insert_with(|| Ray::between(v.prev, v.pos));
                    if let Some(hit) = ray::cast_shape(ray, shape, t) {
                        v.pos = hit.point + hit.normal * thickness;
                        v.prev = v.prev.lerp(v.pos, 0.5);
                        stats.collisions_resolved += 1;
                        break;
                    }
                }
            }
            for ((shape, t), b) in colliders.iter().zip(bounds.iter()) {
                stats.collision_tests += 1;
                if point_misses(&b.touch, v.pos) {
                    culls.project_out_culled += 1;
                    continue;
                }
                if let Some(pushed) = project_out(v.pos, shape, t, thickness) {
                    v.pos = pushed;
                    // Kill the velocity component into the surface by
                    // moving prev with the vertex (inelastic).
                    v.prev = v.prev.lerp(v.pos, 0.5);
                    stats.collisions_resolved += 1;
                }
            }
        }
        self.culls = culls;
        stats
    }
}

// --- width-generic kernels -----------------------------------------------

/// Batched constraint relaxation over the vertex rows.
///
/// `W`-wide chunks cover each batch; its remainder (`len % LANES`) re-uses
/// the one-lane `f32` instantiation of the *same* chunk kernel, so every
/// projection takes the identical data path and every width is
/// bit-identical.
#[inline(always)]
fn relax<W: WideF32>(rows: &mut [[f32; 4]], constraints: &[LengthConstraint], schedule: &Schedule) {
    for batch in schedule.batches() {
        let m = batch.len();
        let bulk = m - m % W::LANES;
        let mut j = 0;
        while j < bulk {
            relax_chunk::<W>(rows, constraints, &batch[j..j + W::LANES]);
            j += W::LANES;
        }
        while j < m {
            relax_chunk::<f32>(rows, constraints, &batch[j..j + 1]);
            j += 1;
        }
    }
}

/// `#[target_feature(enable = "avx2")]` recompiles the inlined generic
/// relaxation as AVX2 code; `unsafe` because calling it on a CPU without
/// AVX2 would be undefined behaviour. The call site sits behind
/// [`SimdMode::clamp_to_supported`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn relax_avx2(rows: &mut [[f32; 4]], constraints: &[LengthConstraint], schedule: &Schedule) {
    relax::<F32x8>(rows, constraints, schedule);
}

/// Runs the first `LANES` projections of `batch`, from one conflict-free
/// batch.
///
/// Each lane's two vertex rows are loaded whole and transposed into
/// coordinate lanes, projected in packed lanes, and transposed back.
/// Because no two projections in a batch share a vertex, the packed
/// read-all/compute/write-all is equal to running them one at a time.
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
fn relax_chunk<W: WideF32>(rows: &mut [[f32; 4]], constraints: &[LengthConstraint], batch: &[u32]) {
    let batch = &batch[..W::LANES];
    let con = |j: usize| &constraints[batch[j] as usize];
    let a = |j: usize| con(j).a as usize;
    let b = |j: usize| con(j).b as usize;
    let [ax_v, ay_v, az_v, pa_v] = W::load_rows(rows, a);
    let [bx_v, by_v, bz_v, pb_v] = W::load_rows(rows, b);
    let rest = W::from_fn(|j| con(j).rest);

    let dx = bx_v - ax_v;
    let dy = by_v - ay_v;
    let dz = bz_v - az_v;
    // Same association as Vec3::dot / length: (x² + y²) + z².
    let len = (dx * dx + dy * dy + dz * dz).sqrt();
    let ok = len.gt(W::splat(1e-12));
    let e = (len - rest) * W::splat(0.5);
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

    W::store_rows([nax, nay, naz, pa_v], rows, a);
    W::store_rows([nbx, nby, nbz, pb_v], rows, b);
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

    /// The unrolled schedule against sequential Gauss–Seidel: within a
    /// batch no vertex appears twice, every constraint appears once per
    /// iteration, and each projection runs in a later batch than every
    /// earlier projection (in iteration-then-index order) it shares a
    /// vertex with.
    #[test]
    fn relaxation_batches_are_conflict_free() {
        for (nx, nz, iterations) in [(9, 5, 8), (5, 5, 8), (25, 25, 8), (2, 2, 3), (4, 7, 12)] {
            let c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, nx, nz, &[]).with_config(ClothConfig {
                iterations,
                ..ClothConfig::default()
            });
            // batch_of[ci][k]: the batch running iteration k of constraint
            // ci (its k-th appearance in batch order).
            let mut batch_of = vec![Vec::new(); c.constraints.len()];
            for (bi, batch) in c.schedule.batches().enumerate() {
                let mut used = std::collections::HashSet::new();
                for &ci in batch {
                    let ci = ci as usize;
                    let con = &c.constraints[ci];
                    assert!(used.insert(con.a), "vertex {} reused in batch {bi}", con.a);
                    assert!(used.insert(con.b), "vertex {} reused in batch {bi}", con.b);
                    batch_of[ci].push(bi);
                }
            }
            let mut last = vec![None::<usize>; c.verts.len()];
            for k in 0..iterations {
                for (ci, con) in c.constraints.iter().enumerate() {
                    assert_eq!(batch_of[ci].len(), iterations, "constraint {ci} count");
                    let b = batch_of[ci][k];
                    for v in [con.a as usize, con.b as usize] {
                        if let Some(prev) = last[v] {
                            assert!(
                                b > prev,
                                "{nx}x{nz}: iteration {k} of {ci} not after vertex {v}'s last use"
                            );
                        }
                        last[v] = Some(b);
                    }
                }
            }
        }
    }

    /// A cloth that shares another's schedule relaxes to its own rest
    /// lengths: every mode against sequential Gauss–Seidel in index order
    /// over its own constraints.
    #[test]
    fn a_shared_schedule_relaxes_each_cloth_to_its_own_rest_lengths() {
        let owner = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 6, 6, &[0]);
        let fresh = || Cloth::rectangle(Vec3::new(3.0, 0.5, 0.0), 2.0, 0.7, 6, 6, &[0, 5]);
        assert!(Arc::ptr_eq(&owner.schedule, &fresh().schedule));
        let (gravity, dt) = (Vec3::new(0.0, -10.0, 0.0), 0.01);
        let mut reference = fresh();
        let mut expected = Vec::new();
        for _ in 0..20 {
            let c = &mut reference;
            let gdt2 = gravity * (dt * dt);
            for v in c.verts.iter_mut().filter(|v| !v.pinned) {
                let (p, q) = (v.pos, v.prev);
                v.prev = p;
                v.pos = Vec3::new(
                    p.x + (p.x - q.x) * c.config.damping + gdt2.x,
                    p.y + (p.y - q.y) * c.config.damping + gdt2.y,
                    p.z + (p.z - q.z) * c.config.damping + gdt2.z,
                );
            }
            for _ in 0..c.config.iterations {
                for con in c.constraints.iter() {
                    let (a, b) = (con.a as usize, con.b as usize);
                    let (pa, pb) = (c.verts[a].pinned, c.verts[b].pinned);
                    let d = c.verts[b].pos - c.verts[a].pos;
                    let len = ((d.x * d.x + d.y * d.y) + d.z * d.z).sqrt();
                    if len <= 1e-12 {
                        continue;
                    }
                    let e = (len - con.rest) * 0.5;
                    let corr = Vec3::new((d.x / len) * e, (d.y / len) * e, (d.z / len) * e);
                    let (sa, sb) = (if pb { 2.0 } else { 1.0 }, if pa { 2.0 } else { 1.0 });
                    if !pa {
                        let p = &mut c.verts[a].pos;
                        *p = Vec3::new(p.x + corr.x * sa, p.y + corr.y * sa, p.z + corr.z * sa);
                    }
                    if !pb {
                        let p = &mut c.verts[b].pos;
                        *p = Vec3::new(p.x - corr.x * sb, p.y - corr.y * sb, p.z - corr.z * sb);
                    }
                }
            }
            expected.push(bits(c));
        }
        for mode in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
            let mut c = fresh();
            for (i, want) in expected.iter().enumerate() {
                c.step(gravity, dt, &[], mode);
                assert_eq!(&bits(&c), want, "{} step {i}", mode.name());
            }
        }

        fn bits(c: &Cloth) -> Vec<u32> {
            c.verts
                .iter()
                .flat_map(|v| [v.pos.x, v.pos.y, v.pos.z, v.prev.x, v.prev.y, v.prev.z])
                .map(f32::to_bits)
                .collect()
        }
    }

    #[test]
    fn schedule_is_shared_and_rekeyed_by_iterations() {
        let a = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 6, 6, &[0]);
        let b = Cloth::rectangle(Vec3::new(3.0, 0.0, 0.0), 2.0, 1.0, 6, 6, &[]);
        assert!(
            Arc::ptr_eq(&a.schedule, &b.schedule),
            "one topology, one schedule"
        );
        let c = b.with_config(ClothConfig {
            iterations: 3,
            ..ClothConfig::default()
        });
        assert_eq!(c.schedule.iterations, 3);
        assert_eq!(c.schedule.order.len(), c.constraints.len() * 3);
        assert!(!Arc::ptr_eq(&a.schedule, &c.schedule));
        let d = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 6, 7, &[]);
        assert!(!Arc::ptr_eq(&a.schedule, &d.schedule), "another topology");
        // The Mix and Deformable shapes at the default 8 iterations.
        let drape = Cloth::rectangle(Vec3::ZERO, 3.0, 3.0, 25, 25, &[]);
        let uniform = Cloth::rectangle(Vec3::ZERO, 0.4, 0.4, 5, 5, &[0, 4]);
        assert_eq!(drape.schedule.ends.len(), 192);
        assert_eq!(uniform.schedule.ends.len(), 72);
    }

    #[test]
    fn stats_report_work() {
        let mut c = Cloth::rectangle(Vec3::ZERO, 1.0, 1.0, 4, 4, &[]);
        let stats = c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &[], SimdMode::Scalar);
        assert_eq!(stats.vertices, 16);
        assert_eq!(stats.projections, c.constraints().len() * 8);
    }
}
