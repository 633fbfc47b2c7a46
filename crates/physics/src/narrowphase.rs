//! Narrow-phase contact generation.
//!
//! Determines contact points between each pair of colliding geoms. This
//! phase exhibits the massive fine-grain parallelism the paper exploits:
//! every pair is independent. The per-pair entry point is
//! [`collide_shapes`]; the step pipeline hands whole slices of classified
//! pairs to `collide_batch`, which runs one kernel loop per shape-kind
//! bucket. Both go through the same dispatcher and the same kernels,
//! covering sphere, box, capsule, plane, heightfield and triangle-mesh
//! combinations, and no kernel allocates: a manifold's points are inline
//! and box–box clips a polygon on the stack.
//!
//! Every routine stamps [`ContactPoint::feature`] with a stable id for the
//! surface feature that generated the point — box corner index against
//! planes/terrain, capsule cap index, mesh triangle index, clipped
//! reference/incident face ids for box-box, `0` for spheres (a sphere has a
//! single featureless surface). Feature ids only need to be stable for a
//! pair across *consecutive* steps; the contact cache uses them to carry
//! accumulated solver impulses forward.

#[cfg(target_arch = "x86_64")]
use parallax_math::simd::{F32x4, F32x8};
use parallax_math::simd::{SimdMode, WideF32};
use parallax_math::{Transform, Vec3};

use crate::contact::{ContactManifold, ContactPoint};
use crate::shape::{Geom, GeomId, Heightfield, Shape, ShapeKind, TriMesh};

/// Computes the contact manifold between two posed shapes.
///
/// Returns `None` when the shapes do not touch. The manifold normal points
/// from shape B towards shape A (pushing A out of B).
///
/// # Examples
///
/// ```
/// use parallax_physics::narrowphase::collide_shapes;
/// use parallax_physics::Shape;
/// use parallax_math::{Transform, Vec3};
///
/// let a = Shape::sphere(1.0);
/// let b = Shape::sphere(1.0);
/// let ta = Transform::from_position(Vec3::new(0.0, 1.5, 0.0));
/// let tb = Transform::IDENTITY;
/// let m = collide_shapes(&a, &ta, &b, &tb).expect("overlapping spheres");
/// assert_eq!(m.points.len(), 1);
/// assert!((m.points[0].depth - 0.5).abs() < 1e-5);
/// ```
pub fn collide_shapes(
    shape_a: &Shape,
    ta: &Transform,
    shape_b: &Shape,
    tb: &Transform,
) -> Option<ContactManifold> {
    collide_with_ids(GeomId(0), shape_a, ta, GeomId(0), shape_b, tb)
}

/// Like [`collide_shapes`] but records the geom ids in the manifold.
pub fn collide_with_ids(
    ga: GeomId,
    shape_a: &Shape,
    ta: &Transform,
    gb: GeomId,
    shape_b: &Shape,
    tb: &Transform,
) -> Option<ContactManifold> {
    let mut m = ContactManifold::new(ga, gb);
    collide_pair::<f32>(shape_a, ta, shape_b, tb, &mut m);
    (!m.is_empty()).then_some(m)
}

/// One pair the step's classifier found worth colliding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActivePair {
    pub a: GeomId,
    pub b: GeomId,
    /// The shape-kind pair, see [`bucket_of`].
    pub bucket: u8,
    /// Index of the pair's record in the step's `PairWork` list.
    pub record: u32,
}

/// Number of shape-kind pair buckets.
pub(crate) const BUCKETS: usize = ShapeKind::COUNT * ShapeKind::COUNT;

/// The bucket of an ordered shape-kind pair.
#[inline]
pub(crate) fn bucket_of(a: ShapeKind, b: ShapeKind) -> u8 {
    a as u8 * ShapeKind::COUNT as u8 + b as u8
}

/// Collides `pairs` — sorted by bucket, so that consecutive pairs take
/// the same arm of the dispatcher and run the same kernel — into the
/// matching slots of `out`: slot `i` ends up holding pair `i`'s manifold,
/// empty when the shapes do not touch. `xf` is the per-geom world
/// transform table; `mode` (already clamped to what the CPU supports)
/// picks the lane width of the kernels that have lanes to fill.
pub(crate) fn collide_batch(
    mode: SimdMode,
    pairs: &[ActivePair],
    geoms: &[Geom],
    xf: &[Transform],
    out: &mut [ContactManifold],
) {
    #[cfg(target_arch = "x86_64")]
    match mode {
        SimdMode::Scalar => collide_slice::<f32>(pairs, geoms, xf, out),
        SimdMode::Sse2 => collide_slice::<F32x4>(pairs, geoms, xf, out),
        // SAFETY: the caller clamped `mode` to the CPU's features.
        SimdMode::Avx2 => unsafe { collide_slice_avx2(pairs, geoms, xf, out) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = mode;
        collide_slice::<f32>(pairs, geoms, xf, out);
    }
}

#[inline(always)]
fn collide_slice<W: WideF32>(
    pairs: &[ActivePair],
    geoms: &[Geom],
    xf: &[Transform],
    out: &mut [ContactManifold],
) {
    for (p, m) in pairs.iter().zip(out) {
        let (a, b) = (p.a.index(), p.b.index());
        m.reset(p.a, p.b);
        collide_pair::<W>(&geoms[a].shape, &xf[a], &geoms[b].shape, &xf[b], m);
    }
}

/// `#[target_feature]` recompiles the inlined generic loop, dispatcher
/// and lane kernels as AVX2 code.
///
/// # Safety
///
/// The CPU must support AVX2 (`SimdMode::clamp_to_supported`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn collide_slice_avx2(
    pairs: &[ActivePair],
    geoms: &[Geom],
    xf: &[Transform],
    out: &mut [ContactManifold],
) {
    collide_slice::<F32x8>(pairs, geoms, xf, out);
}

/// The per-pair dispatcher: appends the pair's contact points to `m`.
/// `W` is the lane type of the one kernel written width-generically, the
/// box–box separating-axis test; `f32` is its one-lane instantiation, and
/// every width produces the same bits.
#[inline(always)]
fn collide_pair<W: WideF32>(
    shape_a: &Shape,
    ta: &Transform,
    shape_b: &Shape,
    tb: &Transform,
    m: &mut ContactManifold,
) {
    use Shape::*;
    // Every kernel also returns whether it pushed a point; `m` says the
    // same, so the flag ends here.
    match (shape_a, shape_b) {
        (Sphere { radius: ra }, Sphere { radius: rb }) => {
            sphere_sphere(ta.position, *ra, tb.position, *rb, m)
        }
        (Sphere { radius }, Cuboid { half }) => {
            sphere_box(ta.position, *radius, tb, *half, 0, m, false)
        }
        (Cuboid { half }, Sphere { radius }) => {
            sphere_box(tb.position, *radius, ta, *half, 0, m, true)
        }
        (Sphere { radius }, Plane { normal, offset }) => {
            sphere_plane(ta.position, *radius, *normal, *offset, m, false)
        }
        (Plane { normal, offset }, Sphere { radius }) => {
            sphere_plane(tb.position, *radius, *normal, *offset, m, true)
        }
        (Cuboid { half: ha }, Cuboid { half: hb }) => box_box::<W>(ta, *ha, tb, *hb, m),
        (Cuboid { half }, Plane { normal, offset }) => {
            box_plane(ta, *half, *normal, *offset, m, false)
        }
        (Plane { normal, offset }, Cuboid { half }) => {
            box_plane(tb, *half, *normal, *offset, m, true)
        }
        (Capsule { radius, half_len }, Plane { normal, offset }) => {
            capsule_plane(ta, *radius, *half_len, *normal, *offset, m, false)
        }
        (Plane { normal, offset }, Capsule { radius, half_len }) => {
            capsule_plane(tb, *radius, *half_len, *normal, *offset, m, true)
        }
        (
            Capsule {
                radius: ra,
                half_len: la,
            },
            Capsule {
                radius: rb,
                half_len: lb,
            },
        ) => capsule_capsule(ta, *ra, *la, tb, *rb, *lb, m),
        (
            Sphere { radius },
            Capsule {
                radius: rc,
                half_len,
            },
        ) => sphere_capsule(ta.position, *radius, tb, *rc, *half_len, m, false),
        (
            Capsule {
                radius: rc,
                half_len,
            },
            Sphere { radius },
        ) => sphere_capsule(tb.position, *radius, ta, *rc, *half_len, m, true),
        (Capsule { radius, half_len }, Cuboid { half }) => {
            capsule_box(ta, *radius, *half_len, tb, *half, m, false)
        }
        (Cuboid { half }, Capsule { radius, half_len }) => {
            capsule_box(tb, *radius, *half_len, ta, *half, m, true)
        }
        (Sphere { radius }, Heightfield(hf)) => {
            sphere_heightfield(ta.position, *radius, hf, tb, 0, m, false)
        }
        (Heightfield(hf), Sphere { radius }) => {
            sphere_heightfield(tb.position, *radius, hf, ta, 0, m, true)
        }
        (Cuboid { half }, Heightfield(hf)) => box_heightfield(ta, *half, hf, tb, m, false),
        (Heightfield(hf), Cuboid { half }) => box_heightfield(tb, *half, hf, ta, m, true),
        (Capsule { radius, half_len }, Heightfield(hf)) => {
            capsule_heightfield(ta, *radius, *half_len, hf, tb, m, false)
        }
        (Heightfield(hf), Capsule { radius, half_len }) => {
            capsule_heightfield(tb, *radius, *half_len, hf, ta, m, true)
        }
        (Sphere { radius }, TriMesh(mesh)) => {
            sphere_trimesh(ta.position, *radius, mesh, tb, 0, m, false)
        }
        (TriMesh(mesh), Sphere { radius }) => {
            sphere_trimesh(tb.position, *radius, mesh, ta, 0, m, true)
        }
        (Cuboid { half }, TriMesh(mesh)) => box_trimesh(ta, *half, mesh, tb, m, false),
        (TriMesh(mesh), Cuboid { half }) => box_trimesh(tb, *half, mesh, ta, m, true),
        (Capsule { radius, half_len }, TriMesh(mesh)) => {
            capsule_trimesh(ta, *radius, *half_len, mesh, tb, m, false)
        }
        (TriMesh(mesh), Capsule { radius, half_len }) => {
            capsule_trimesh(tb, *radius, *half_len, mesh, ta, m, true)
        }
        // Static-static combinations never collide meaningfully.
        _ => false,
    };
}

fn push_maybe_flipped(m: &mut ContactManifold, p: ContactPoint, flipped: bool) {
    let mut p = p;
    if flipped {
        p.normal = -p.normal;
    }
    m.push(p);
}

// --- sphere ---------------------------------------------------------------

fn sphere_sphere(ca: Vec3, ra: f32, cb: Vec3, rb: f32, m: &mut ContactManifold) -> bool {
    let d = ca - cb;
    let dist2 = d.length_squared();
    let rsum = ra + rb;
    if dist2 > rsum * rsum {
        return false;
    }
    let (normal, dist) = d.normalized_with_length().unwrap_or((Vec3::UNIT_Y, 0.0));
    m.push(ContactPoint {
        position: cb + normal * (rb - (rsum - dist) * 0.5),
        normal,
        depth: rsum - dist,
        feature: 0,
    });
    true
}

fn sphere_plane(
    c: Vec3,
    r: f32,
    n: Vec3,
    offset: f32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let dist = c.dot(n) - offset;
    if dist > r {
        return false;
    }
    push_maybe_flipped(
        m,
        ContactPoint {
            position: c - n * dist,
            normal: n,
            depth: r - dist,
            feature: 0,
        },
        flipped,
    );
    true
}

fn sphere_box(
    c: Vec3,
    r: f32,
    tb: &Transform,
    half: Vec3,
    feature: u32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    // Work in box-local space.
    let local = tb.apply_inverse(c);
    let clamped = local.min(half).max(-half);
    let delta = local - clamped;
    let dist2 = delta.length_squared();
    if dist2 > r * r {
        return false;
    }
    let (normal_local, depth) = if dist2 > 1e-12 {
        let d = dist2.sqrt();
        (delta / d, r - d)
    } else {
        // Centre inside the box: push out along the face of least
        // penetration.
        let dists = half - local.abs();
        let (axis, pen) = if dists.x <= dists.y && dists.x <= dists.z {
            (Vec3::new(local.x.signum(), 0.0, 0.0), dists.x)
        } else if dists.y <= dists.z {
            (Vec3::new(0.0, local.y.signum(), 0.0), dists.y)
        } else {
            (Vec3::new(0.0, 0.0, local.z.signum()), dists.z)
        };
        (axis, pen + r)
    };
    let normal = tb.apply_vector(normal_local);
    push_maybe_flipped(
        m,
        ContactPoint {
            position: tb.apply(clamped),
            normal,
            depth,
            feature,
        },
        flipped,
    );
    true
}

fn sphere_capsule(
    c: Vec3,
    r: f32,
    tc: &Transform,
    rc: f32,
    half_len: f32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let axis = tc.apply_vector(Vec3::UNIT_Y);
    let p = closest_point_on_segment(
        tc.position - axis * half_len,
        tc.position + axis * half_len,
        c,
    );
    // Equivalent to sphere-sphere against the core point. Normal points
    // from capsule (B in the flipped=false case) to sphere (A).
    let before = m.points.len();
    let hit = sphere_sphere(c, r, p, rc, m);
    if hit && flipped {
        for pt in &mut m.points[before..] {
            pt.normal = -pt.normal;
        }
    }
    hit
}

// --- capsule ----------------------------------------------------------------

fn capsule_segment(t: &Transform, half_len: f32) -> (Vec3, Vec3) {
    let axis = t.apply_vector(Vec3::UNIT_Y) * half_len;
    (t.position - axis, t.position + axis)
}

fn capsule_plane(
    t: &Transform,
    r: f32,
    half_len: f32,
    n: Vec3,
    offset: f32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let (p0, p1) = capsule_segment(t, half_len);
    let mut hit = false;
    for (cap, p) in [p0, p1].into_iter().enumerate() {
        let dist = p.dot(n) - offset;
        if dist <= r {
            push_maybe_flipped(
                m,
                ContactPoint {
                    position: p - n * dist,
                    normal: n,
                    depth: r - dist,
                    feature: cap as u32,
                },
                flipped,
            );
            hit = true;
        }
    }
    hit
}

fn capsule_capsule(
    ta: &Transform,
    ra: f32,
    la: f32,
    tb: &Transform,
    rb: f32,
    lb: f32,
    m: &mut ContactManifold,
) -> bool {
    let (a0, a1) = capsule_segment(ta, la);
    let (b0, b1) = capsule_segment(tb, lb);
    let (pa, pb) = closest_points_segments(a0, a1, b0, b1);
    sphere_sphere(pa, ra, pb, rb, m)
}

fn capsule_box(
    tc: &Transform,
    r: f32,
    half_len: f32,
    tb: &Transform,
    half: Vec3,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    // Sample the capsule core segment at both caps and the midpoint and run
    // sphere-box tests; adequate for game-style stacking. The sample index
    // is the feature id: cap 0, midpoint, cap 1.
    let (p0, p1) = capsule_segment(tc, half_len);
    let mid = (p0 + p1) * 0.5;
    let mut hit = false;
    for (sample, p) in [p0, mid, p1].into_iter().enumerate() {
        hit |= sphere_box(p, r, tb, half, sample as u32, m, flipped);
    }
    hit
}

// --- box --------------------------------------------------------------------

fn box_plane(
    t: &Transform,
    half: Vec3,
    n: Vec3,
    offset: f32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let rot = t.rotation.to_mat3();
    let mut hit = false;
    let mut corner_id = 0u32;
    for sx in [-1.0f32, 1.0] {
        for sy in [-1.0f32, 1.0] {
            for sz in [-1.0f32, 1.0] {
                let corner_local = Vec3::new(sx * half.x, sy * half.y, sz * half.z);
                let corner = rot * corner_local + t.position;
                let dist = corner.dot(n) - offset;
                if dist < 0.0 {
                    push_maybe_flipped(
                        m,
                        ContactPoint {
                            position: corner,
                            normal: n,
                            depth: -dist,
                            feature: corner_id,
                        },
                        flipped,
                    );
                    hit = true;
                }
                corner_id += 1;
            }
        }
    }
    hit
}

/// Oriented box for SAT tests: centre, axis matrix (columns), half-extents.
struct Obb {
    c: Vec3,
    /// Column i = world direction of local axis i.
    axes: [Vec3; 3],
    h: Vec3,
}

impl Obb {
    fn new(t: &Transform, half: Vec3) -> Self {
        let m = t.rotation.to_mat3();
        Obb {
            c: t.position,
            axes: [m.col(0), m.col(1), m.col(2)],
            h: half,
        }
    }

    fn support(&self, dir: Vec3) -> Vec3 {
        self.c
            + self.axes[0] * self.h.x * self.axes[0].dot(dir).signum()
            + self.axes[1] * self.h.y * self.axes[1].dot(dir).signum()
            + self.axes[2] * self.h.z * self.axes[2].dot(dir).signum()
    }

    /// The 4 corners of the face whose outward normal is local axis
    /// `axis` * `sign`.
    fn face(&self, axis: usize, sign: f32) -> [Vec3; 4] {
        let n = self.axes[axis] * sign;
        let u = self.axes[(axis + 1) % 3];
        let v = self.axes[(axis + 2) % 3];
        let hu = self.h[(axis + 1) % 3];
        let hv = self.h[(axis + 2) % 3];
        let center = self.c + n * self.h[axis];
        [
            center + u * hu + v * hv,
            center - u * hu + v * hv,
            center - u * hu - v * hv,
            center + u * hu - v * hv,
        ]
    }
}

/// The winner of a box pair's separating-axis test.
struct SatBest {
    /// Overlap along `axis`.
    depth: f32,
    /// Unit axis of least (edge-penalised) overlap.
    axis: Vec3,
    /// The crossed edge directions `(i of A, j of B)` when an edge axis won.
    edge: Option<(usize, usize)>,
}

/// SAT over 6 face axes + 9 edge cross products: `None` when some axis
/// separates the boxes, otherwise the axis of minimum overlap.
///
/// The fifteen candidate axes are laid out one per lane and evaluated `W`
/// at a time — normalisation, the two projection radii, the overlap —
/// each lane running the scalar expression tree (`Vec3::dot`'s
/// `(x + y) + z`, one division per component, no FMA), so every width
/// yields the same bits. The separating-axis exit and the strict-`<`
/// best-axis scan then walk the chunk's lanes in axis order; a wide chunk
/// only computes a few axes the one-lane instantiation would not have
/// reached.
#[inline(always)]
fn sat<W: WideF32>(a: &Obb, b: &Obb, d: Vec3) -> Option<SatBest> {
    const LANES: usize = 16;
    let (mut ax, mut ay, mut az) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
    let mut set = |k: usize, v: Vec3| (ax[k], ay[k], az[k]) = (v.x, v.y, v.z);
    for i in 0..3 {
        set(i, a.axes[i]);
        set(3 + i, b.axes[i]);
        for j in 0..3 {
            set(6 + i * 3 + j, a.axes[i].cross(b.axes[j]));
        }
    }

    let mut best_score = f32::INFINITY;
    let mut best = SatBest {
        depth: f32::INFINITY,
        axis: Vec3::UNIT_Y,
        edge: None,
    };
    let (mut len2s, mut overlaps) = ([0.0f32; LANES], [0.0f32; LANES]);
    let (mut nxs, mut nys, mut nzs) = ([0.0f32; LANES], [0.0f32; LANES], [0.0f32; LANES]);
    for chunk in (0..LANES).step_by(W::LANES) {
        let (x, y, z) = (
            W::load(&ax, chunk),
            W::load(&ay, chunk),
            W::load(&az, chunk),
        );
        let len2 = x * x + y * y + z * z;
        let len = len2.sqrt();
        let (nx, ny, nz) = (x / len, y / len, z / len);
        let n = (nx, ny, nz);
        let overlap = radius(a, n) + radius(b, n) - along(d, n).abs();
        len2.store(&mut len2s, chunk);
        overlap.store(&mut overlaps, chunk);
        nx.store(&mut nxs, chunk);
        ny.store(&mut nys, chunk);
        nz.store(&mut nzs, chunk);

        for k in chunk..(chunk + W::LANES).min(15) {
            if len2s[k] < 1e-10 {
                continue; // Degenerate axis (parallel edges): skip.
            }
            let overlap = overlaps[k];
            if overlap < 0.0 {
                return None; // Separating axis found.
            }
            // Penalize edge axes slightly: for near-parallel boxes the cross
            // product of two almost-aligned edges normalizes to (almost) the
            // face normal, with the same overlap. An edge axis must beat the
            // best face axis by a clear margin to be chosen, otherwise stacked
            // boxes degenerate to a single rocking edge contact instead of a
            // stable clipped-face manifold.
            let is_edge = k >= 6;
            let score = if is_edge { overlap * 1.05 } else { overlap };
            if score < best_score {
                best_score = score;
                best = SatBest {
                    depth: overlap,
                    axis: Vec3::new(nxs[k], nys[k], nzs[k]),
                    edge: is_edge.then(|| ((k - 6) / 3, (k - 6) % 3)),
                };
            }
        }
    }
    Some(best)
}

/// `v · n` in every lane, in `Vec3::dot`'s association.
#[inline(always)]
fn along<W: WideF32>(v: Vec3, (nx, ny, nz): (W, W, W)) -> W {
    W::splat(v.x) * nx + W::splat(v.y) * ny + W::splat(v.z) * nz
}

/// Projection radius of a box onto the unit axis in every lane.
#[inline(always)]
fn radius<W: WideF32>(o: &Obb, n: (W, W, W)) -> W {
    W::splat(o.h.x) * along(o.axes[0], n).abs()
        + W::splat(o.h.y) * along(o.axes[1], n).abs()
        + W::splat(o.h.z) * along(o.axes[2], n).abs()
}

#[inline(always)]
fn box_box<W: WideF32>(
    ta: &Transform,
    ha: Vec3,
    tb: &Transform,
    hb: Vec3,
    m: &mut ContactManifold,
) -> bool {
    let a = Obb::new(ta, ha);
    let b = Obb::new(tb, hb);
    let d = a.c - b.c;
    let Some(SatBest {
        depth: best_depth,
        axis: best_axis,
        edge: best_edge,
    }) = sat::<W>(&a, &b, d)
    else {
        return false;
    };

    // Orient the normal from B to A.
    let mut normal = best_axis;
    if normal.dot(d) < 0.0 {
        normal = -normal;
    }

    if let Some((i, j)) = best_edge {
        // Single contact at the closest points of the two edges.
        let pa = a.support(-normal);
        let pb = b.support(normal);
        let (qa, qb) = closest_points_lines(pa, a.axes[i], pb, b.axes[j]);
        m.push(ContactPoint {
            position: (qa + qb) * 0.5,
            normal,
            depth: best_depth,
            // Edge-edge contact keyed by the crossed axis pair; the high bit
            // keeps it disjoint from face-clip features.
            feature: 0x4000_0000 | (i * 3 + j) as u32,
        });
        return true;
    }

    // Face contact: choose reference box (owner of the separating axis).
    let (reference, incident, ref_normal) = {
        // Which box's face axis matched best? Determine by alignment.
        let align_a = (0..3)
            .map(|i| a.axes[i].dot(normal).abs())
            .fold(0.0f32, f32::max);
        let align_b = (0..3)
            .map(|i| b.axes[i].dot(normal).abs())
            .fold(0.0f32, f32::max);
        if align_a >= align_b {
            (&a, &b, normal)
        } else {
            (&b, &a, -normal)
        }
    };

    // Reference face: the face of `reference` most aligned with +ref_normal
    // ... for box A the outward normal towards B is -normal (normal points
    // B->A), so the contact face of A faces -normal.
    let ref_face_dir = -ref_normal;
    let (ref_axis, ref_sign) = most_aligned_axis(reference, ref_face_dir);
    let ref_face = reference.face(ref_axis, ref_sign);
    let ref_face_n = reference.axes[ref_axis] * ref_sign;

    // Incident face: the face of `incident` most anti-aligned with the
    // reference face normal.
    let (inc_axis, inc_sign) = most_aligned_axis(incident, -ref_face_n);
    let mut bufs = (
        ClipPoly::from_face(incident.face(inc_axis, inc_sign)),
        ClipPoly::EMPTY,
    );
    let (mut poly, mut clipped) = (&mut bufs.0, &mut bufs.1);

    // Clip the incident polygon against the 4 side planes of the reference
    // face.
    let ref_center = (ref_face[0] + ref_face[1] + ref_face[2] + ref_face[3]) * 0.25;
    for k in 0..4 {
        let edge_from = ref_face[k];
        let edge_to = ref_face[(k + 1) % 4];
        let edge = edge_to - edge_from;
        // Side-plane normal, flipped if needed so it points at the face
        // interior.
        let mut plane_n = ref_face_n.cross(edge).normalized();
        if plane_n.dot(ref_center - edge_from) < 0.0 {
            plane_n = -plane_n;
        }
        clip_polygon(poly, plane_n, plane_n.dot(edge_from), clipped);
        std::mem::swap(&mut poly, &mut clipped);
        if poly.len == 0 {
            break;
        }
    }

    // Face-clip feature id: which reference/incident faces met, plus the
    // clipped-polygon vertex index. The vertex index can shift when the clip
    // output changes shape; the contact cache's distance fallback absorbs
    // that.
    let face_id = |axis: usize, sign: f32| (axis as u32) << 1 | (sign > 0.0) as u32;
    let face_key = (1 << 16) | face_id(ref_axis, ref_sign) << 8 | face_id(inc_axis, inc_sign) << 4;

    let plane_d = ref_face_n.dot(ref_face[0]);
    let mut hit = false;
    for (idx, &p) in poly.verts[..poly.len].iter().enumerate() {
        let sep = ref_face_n.dot(p) - plane_d;
        if sep <= 0.0 {
            m.push(ContactPoint {
                position: p,
                normal,
                depth: -sep,
                feature: face_key | idx as u32,
            });
            hit = true;
        }
    }
    if !hit {
        // Fall back to a single support-point contact (shallow grazing).
        let p = incident.support(-ref_face_n);
        m.push(ContactPoint {
            position: p,
            normal,
            depth: best_depth,
            feature: 2 << 16,
        });
        hit = true;
    }
    hit
}

fn most_aligned_axis(o: &Obb, dir: Vec3) -> (usize, f32) {
    let mut best = 0;
    let mut best_dot = f32::NEG_INFINITY;
    let mut best_sign = 1.0;
    for i in 0..3 {
        let d = o.axes[i].dot(dir);
        if d.abs() > best_dot {
            best_dot = d.abs();
            best = i;
            best_sign = d.signum();
        }
    }
    (best, best_sign)
}

/// The polygon box–box clips, on the stack.
///
/// A face quad clipped by four half-planes has at most 8 vertices when
/// every intermediate polygon is convex, but in/out is decided per vertex
/// in `f32`, and a face lying in a side plane can alternate. Without
/// assuming convexity one clip emits every inside vertex plus one point
/// per in/out crossing — at most `inside + 2·min(inside, outside)` — so
/// the count goes 4 → 6 → 9 → 13 → 19 at worst.
struct ClipPoly {
    len: usize,
    verts: [Vec3; ClipPoly::CAPACITY],
}

impl ClipPoly {
    const CAPACITY: usize = 20;
    const EMPTY: ClipPoly = ClipPoly {
        len: 0,
        verts: [Vec3::ZERO; ClipPoly::CAPACITY],
    };

    fn from_face(face: [Vec3; 4]) -> ClipPoly {
        let mut poly = ClipPoly::EMPTY;
        poly.verts[..4].copy_from_slice(&face);
        poly.len = 4;
        poly
    }

    #[inline]
    fn push(&mut self, v: Vec3) {
        self.verts[self.len] = v;
        self.len += 1;
    }
}

/// Sutherland–Hodgman clip of `poly` against half-space `n·x >= d`,
/// written over `out`.
fn clip_polygon(poly: &ClipPoly, n: Vec3, d: f32, out: &mut ClipPoly) {
    out.len = 0;
    for i in 0..poly.len {
        let cur = poly.verts[i];
        let next = poly.verts[(i + 1) % poly.len];
        let cur_in = n.dot(cur) >= d;
        let next_in = n.dot(next) >= d;
        if cur_in {
            out.push(cur);
        }
        if cur_in != next_in {
            let t = (d - n.dot(cur)) / n.dot(next - cur);
            out.push(cur + (next - cur) * t.clamp(0.0, 1.0));
        }
    }
}

// --- terrain ------------------------------------------------------------------

fn sphere_heightfield(
    c: Vec3,
    r: f32,
    hf: &Heightfield,
    t: &Transform,
    feature: u32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let local = t.apply_inverse(c);
    let h = hf.height_at(local.x, local.z);
    let dist = local.y - h;
    if dist > r {
        return false;
    }
    let n_local = hf.normal_at(local.x, local.z);
    let n = t.apply_vector(n_local);
    push_maybe_flipped(
        m,
        ContactPoint {
            position: t.apply(Vec3::new(local.x, h, local.z)),
            normal: n,
            depth: (r - dist).max(0.0),
            feature,
        },
        flipped,
    );
    true
}

fn box_heightfield(
    tb: &Transform,
    half: Vec3,
    hf: &Heightfield,
    t: &Transform,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let rot = tb.rotation.to_mat3();
    let mut hit = false;
    let mut corner_id = 0u32;
    for sx in [-1.0f32, 1.0] {
        for sy in [-1.0f32, 1.0] {
            for sz in [-1.0f32, 1.0] {
                let corner = rot * Vec3::new(sx * half.x, sy * half.y, sz * half.z) + tb.position;
                let local = t.apply_inverse(corner);
                let h = hf.height_at(local.x, local.z);
                if local.y < h {
                    let n = t.apply_vector(hf.normal_at(local.x, local.z));
                    push_maybe_flipped(
                        m,
                        ContactPoint {
                            position: corner,
                            normal: n,
                            depth: h - local.y,
                            feature: corner_id,
                        },
                        flipped,
                    );
                    hit = true;
                }
                corner_id += 1;
            }
        }
    }
    hit
}

fn capsule_heightfield(
    tc: &Transform,
    r: f32,
    half_len: f32,
    hf: &Heightfield,
    t: &Transform,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let (p0, p1) = capsule_segment(tc, half_len);
    let mut hit = false;
    for (cap, p) in [p0, p1].into_iter().enumerate() {
        hit |= sphere_heightfield(p, r, hf, t, cap as u32, m, flipped);
    }
    hit
}

// --- trimesh ------------------------------------------------------------------

fn sphere_trimesh(
    c: Vec3,
    r: f32,
    mesh: &TriMesh,
    t: &Transform,
    feature_base: u32,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let local = t.apply_inverse(c);
    let mut hit = false;
    for i in 0..mesh.triangles().len() {
        let tri = mesh.triangle(i);
        let p = closest_point_on_triangle(local, tri[0], tri[1], tri[2]);
        let delta = local - p;
        let dist2 = delta.length_squared();
        if dist2 <= r * r {
            let (n_local, dist) = delta
                .normalized_with_length()
                .unwrap_or((triangle_normal(&tri), 0.0));
            push_maybe_flipped(
                m,
                ContactPoint {
                    position: t.apply(p),
                    normal: t.apply_vector(n_local),
                    depth: r - dist,
                    // Triangle index in the low bits; callers with several
                    // probe points (capsule caps) tag the high bits.
                    feature: feature_base | i as u32,
                },
                flipped,
            );
            hit = true;
        }
    }
    hit
}

fn box_trimesh(
    tb: &Transform,
    half: Vec3,
    mesh: &TriMesh,
    t: &Transform,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    // Test the 8 box corners against the mesh surface (vertex-face
    // contacts); adequate for boxes resting on terrain meshes.
    let rot = tb.rotation.to_mat3();
    let mut hit = false;
    let mut corner_id = 0u32;
    for sx in [-1.0f32, 1.0] {
        for sy in [-1.0f32, 1.0] {
            for sz in [-1.0f32, 1.0] {
                let corner = rot * Vec3::new(sx * half.x, sy * half.y, sz * half.z) + tb.position;
                let local = t.apply_inverse(corner);
                for i in 0..mesh.triangles().len() {
                    let tri = mesh.triangle(i);
                    let n = triangle_normal(&tri);
                    let dist = (local - tri[0]).dot(n);
                    // Below the triangle plane and projecting inside it.
                    if (-0.5..=0.0).contains(&dist) {
                        let proj = local - n * dist;
                        if point_in_triangle(proj, tri[0], tri[1], tri[2]) {
                            push_maybe_flipped(
                                m,
                                ContactPoint {
                                    position: corner,
                                    normal: t.apply_vector(n),
                                    depth: -dist,
                                    feature: corner_id << 16 | i as u32,
                                },
                                flipped,
                            );
                            hit = true;
                            break;
                        }
                    }
                }
                corner_id += 1;
            }
        }
    }
    hit
}

fn capsule_trimesh(
    tc: &Transform,
    r: f32,
    half_len: f32,
    mesh: &TriMesh,
    t: &Transform,
    m: &mut ContactManifold,
    flipped: bool,
) -> bool {
    let (p0, p1) = capsule_segment(tc, half_len);
    let mut hit = false;
    for (cap, p) in [p0, p1].into_iter().enumerate() {
        hit |= sphere_trimesh(p, r, mesh, t, (cap as u32) << 16, m, flipped);
    }
    hit
}

// --- geometric helpers ----------------------------------------------------------

/// Closest point on segment [a, b] to point `p`.
pub fn closest_point_on_segment(a: Vec3, b: Vec3, p: Vec3) -> Vec3 {
    let ab = b - a;
    let len2 = ab.length_squared();
    if len2 < 1e-12 {
        return a;
    }
    let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
    a + ab * t
}

/// Closest points between two segments.
pub fn closest_points_segments(p1: Vec3, q1: Vec3, p2: Vec3, q2: Vec3) -> (Vec3, Vec3) {
    let d1 = q1 - p1;
    let d2 = q2 - p2;
    let r = p1 - p2;
    let a = d1.length_squared();
    let e = d2.length_squared();
    let f = d2.dot(r);
    let (mut s, mut t);
    if a <= 1e-12 && e <= 1e-12 {
        return (p1, p2);
    }
    if a <= 1e-12 {
        s = 0.0;
        t = (f / e).clamp(0.0, 1.0);
    } else {
        let c = d1.dot(r);
        if e <= 1e-12 {
            t = 0.0;
            s = (-c / a).clamp(0.0, 1.0);
        } else {
            let b = d1.dot(d2);
            let denom = a * e - b * b;
            s = if denom > 1e-12 {
                ((b * f - c * e) / denom).clamp(0.0, 1.0)
            } else {
                0.0
            };
            t = (b * s + f) / e;
            if t < 0.0 {
                t = 0.0;
                s = (-c / a).clamp(0.0, 1.0);
            } else if t > 1.0 {
                t = 1.0;
                s = ((b - c) / a).clamp(0.0, 1.0);
            }
        }
    }
    (p1 + d1 * s, p2 + d2 * t)
}

/// Closest points between two infinite lines `p + t·u` and `q + s·v`.
fn closest_points_lines(p: Vec3, u: Vec3, q: Vec3, v: Vec3) -> (Vec3, Vec3) {
    let w = p - q;
    let a = u.dot(u);
    let b = u.dot(v);
    let c = v.dot(v);
    let d = u.dot(w);
    let e = v.dot(w);
    let denom = a * c - b * b;
    if denom.abs() < 1e-10 {
        return (p, q + v * (e / c.max(1e-12)));
    }
    let s = (b * e - c * d) / denom;
    let t = (a * e - b * d) / denom;
    (p + u * s, q + v * t)
}

/// Closest point on a triangle to point `p` (Ericson, RTCD §5.1.5).
pub fn closest_point_on_triangle(p: Vec3, a: Vec3, b: Vec3, c: Vec3) -> Vec3 {
    let ab = b - a;
    let ac = c - a;
    let ap = p - a;
    let d1 = ab.dot(ap);
    let d2 = ac.dot(ap);
    if d1 <= 0.0 && d2 <= 0.0 {
        return a;
    }
    let bp = p - b;
    let d3 = ab.dot(bp);
    let d4 = ac.dot(bp);
    if d3 >= 0.0 && d4 <= d3 {
        return b;
    }
    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let v = d1 / (d1 - d3);
        return a + ab * v;
    }
    let cp = p - c;
    let d5 = ab.dot(cp);
    let d6 = ac.dot(cp);
    if d6 >= 0.0 && d5 <= d6 {
        return c;
    }
    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let w = d2 / (d2 - d6);
        return a + ac * w;
    }
    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
        return b + (c - b) * w;
    }
    let denom = 1.0 / (va + vb + vc);
    let v = vb * denom;
    let w = vc * denom;
    a + ab * v + ac * w
}

fn triangle_normal(tri: &[Vec3; 3]) -> Vec3 {
    (tri[1] - tri[0]).cross(tri[2] - tri[0]).normalized()
}

fn point_in_triangle(p: Vec3, a: Vec3, b: Vec3, c: Vec3) -> bool {
    let n = (b - a).cross(c - a);
    let s1 = (b - a).cross(p - a).dot(n);
    let s2 = (c - b).cross(p - b).dot(n);
    let s3 = (a - c).cross(p - c).dot(n);
    (s1 >= 0.0 && s2 >= 0.0 && s3 >= 0.0) || (s1 <= 0.0 && s2 <= 0.0 && s3 <= 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_math::Quat;

    fn t(p: Vec3) -> Transform {
        Transform::from_position(p)
    }

    #[test]
    fn sphere_sphere_overlap_and_separation() {
        let a = Shape::sphere(1.0);
        let b = Shape::sphere(1.0);
        assert!(collide_shapes(&a, &t(Vec3::new(0.0, 1.9, 0.0)), &b, &t(Vec3::ZERO)).is_some());
        assert!(collide_shapes(&a, &t(Vec3::new(0.0, 2.1, 0.0)), &b, &t(Vec3::ZERO)).is_none());
    }

    #[test]
    fn sphere_sphere_normal_points_b_to_a() {
        let a = Shape::sphere(1.0);
        let b = Shape::sphere(1.0);
        let m = collide_shapes(&a, &t(Vec3::new(0.0, 1.5, 0.0)), &b, &t(Vec3::ZERO)).unwrap();
        assert!(m.points[0].normal.y > 0.99);
    }

    #[test]
    fn sphere_plane_contact() {
        let s = Shape::sphere(0.5);
        let p = Shape::plane(Vec3::UNIT_Y, 0.0);
        let m = collide_shapes(&s, &t(Vec3::new(0.0, 0.3, 0.0)), &p, &t(Vec3::ZERO)).unwrap();
        assert!((m.points[0].depth - 0.2).abs() < 1e-5);
        assert!(m.points[0].normal.y > 0.99);
        // Flipped order must flip the normal.
        let m2 = collide_shapes(&p, &t(Vec3::ZERO), &s, &t(Vec3::new(0.0, 0.3, 0.0))).unwrap();
        assert!(m2.points[0].normal.y < -0.99);
    }

    #[test]
    fn sphere_box_face_contact() {
        let s = Shape::sphere(0.5);
        let b = Shape::cuboid(Vec3::splat(1.0));
        let m = collide_shapes(&s, &t(Vec3::new(0.0, 1.4, 0.0)), &b, &t(Vec3::ZERO)).unwrap();
        assert!(m.points[0].normal.y > 0.99);
        assert!((m.points[0].depth - 0.1).abs() < 1e-5);
    }

    #[test]
    fn sphere_deep_inside_box_pushes_out_nearest_face() {
        let s = Shape::sphere(0.1);
        let b = Shape::cuboid(Vec3::splat(1.0));
        let m = collide_shapes(&s, &t(Vec3::new(0.0, 0.8, 0.0)), &b, &t(Vec3::ZERO)).unwrap();
        assert!(m.points[0].normal.y > 0.99);
        assert!(m.points[0].depth > 0.2);
    }

    #[test]
    fn box_plane_produces_corner_contacts() {
        let b = Shape::cuboid(Vec3::splat(0.5));
        let p = Shape::plane(Vec3::UNIT_Y, 0.0);
        let m = collide_shapes(&b, &t(Vec3::new(0.0, 0.4, 0.0)), &p, &t(Vec3::ZERO)).unwrap();
        assert_eq!(m.points.len(), 4);
        for pt in &m.points {
            assert!((pt.depth - 0.1).abs() < 1e-5);
        }
    }

    #[test]
    fn box_box_stacked_face_contact() {
        let b = Shape::cuboid(Vec3::splat(0.5));
        let m = collide_shapes(&b, &t(Vec3::new(0.0, 0.9, 0.0)), &b, &t(Vec3::ZERO)).unwrap();
        assert!(!m.is_empty());
        // Normal should be roughly +Y (pushing the upper box up).
        let avg: Vec3 = m.points.iter().map(|p| p.normal).sum::<Vec3>() * (1.0 / m.len() as f32);
        assert!(avg.y > 0.9, "normal {avg:?}");
        for p in &m.points {
            assert!((p.depth - 0.1).abs() < 0.02, "depth {}", p.depth);
        }
    }

    #[test]
    fn box_box_separated() {
        let b = Shape::cuboid(Vec3::splat(0.5));
        assert!(collide_shapes(&b, &t(Vec3::new(0.0, 1.1, 0.0)), &b, &t(Vec3::ZERO)).is_none());
        assert!(collide_shapes(&b, &t(Vec3::new(2.0, 0.0, 0.0)), &b, &t(Vec3::ZERO)).is_none());
    }

    #[test]
    fn box_box_rotated_45_edge_contact() {
        let b = Shape::cuboid(Vec3::splat(0.5));
        let ta = Transform::new(
            Vec3::new(0.0, 1.15, 0.0),
            Quat::from_axis_angle(Vec3::UNIT_X, std::f32::consts::FRAC_PI_4),
        );
        // Rotated cube's lowest edge dips to y ≈ 1.15 − 0.707 ≈ 0.44 < 0.5.
        let m = collide_shapes(&b, &ta, &b, &t(Vec3::ZERO)).unwrap();
        assert!(!m.is_empty());
        let avg: Vec3 = m.points.iter().map(|p| p.normal).sum::<Vec3>() * (1.0 / m.len() as f32);
        assert!(avg.y > 0.5, "normal {avg:?}");
    }

    #[test]
    fn capsule_plane_two_contacts_when_lying_down() {
        let c = Shape::capsule(0.5, 1.0);
        let p = Shape::plane(Vec3::UNIT_Y, 0.0);
        let tc = Transform::new(
            Vec3::new(0.0, 0.4, 0.0),
            Quat::from_axis_angle(Vec3::UNIT_Z, std::f32::consts::FRAC_PI_2),
        );
        let m = collide_shapes(&c, &tc, &p, &t(Vec3::ZERO)).unwrap();
        assert_eq!(m.points.len(), 2);
    }

    #[test]
    fn capsule_capsule_parallel_overlap() {
        let c = Shape::capsule(0.5, 1.0);
        let m = collide_shapes(&c, &t(Vec3::new(0.9, 0.0, 0.0)), &c, &t(Vec3::ZERO)).unwrap();
        assert!((m.points[0].depth - 0.1).abs() < 1e-4);
        assert!(m.points[0].normal.x > 0.99);
    }

    #[test]
    fn sphere_capsule_cap_contact() {
        let s = Shape::sphere(0.5);
        let c = Shape::capsule(0.5, 1.0);
        // Sphere above the top cap (cap centre at y=1, surface y=1.5).
        let m = collide_shapes(&s, &t(Vec3::new(0.0, 1.8, 0.0)), &c, &t(Vec3::ZERO)).unwrap();
        assert!(m.points[0].normal.y > 0.99);
        assert!((m.points[0].depth - 0.2).abs() < 1e-4);
    }

    #[test]
    fn sphere_heightfield_contact() {
        let hf = Heightfield::new(3, 3, 1.0, vec![0.0; 9]);
        let s = Shape::sphere(0.5);
        let shape_hf = Shape::heightfield(hf);
        let m =
            collide_shapes(&s, &t(Vec3::new(0.0, 0.4, 0.0)), &shape_hf, &t(Vec3::ZERO)).unwrap();
        assert!(m.points[0].normal.y > 0.99);
        assert!((m.points[0].depth - 0.1).abs() < 1e-4);
    }

    #[test]
    fn box_heightfield_corner_contacts() {
        let hf = Heightfield::new(3, 3, 2.0, vec![0.0; 9]);
        let b = Shape::cuboid(Vec3::splat(0.5));
        let shape_hf = Shape::heightfield(hf);
        let m =
            collide_shapes(&b, &t(Vec3::new(0.0, 0.4, 0.0)), &shape_hf, &t(Vec3::ZERO)).unwrap();
        assert_eq!(m.points.len(), 4);
    }

    #[test]
    fn sphere_trimesh_face_contact() {
        let mesh = TriMesh::new(
            vec![
                Vec3::new(-2.0, 0.0, -2.0),
                Vec3::new(2.0, 0.0, -2.0),
                Vec3::new(0.0, 0.0, 2.0),
            ],
            vec![[0, 1, 2]],
        );
        let s = Shape::sphere(0.5);
        let shape_m = Shape::trimesh(mesh);
        let m = collide_shapes(&s, &t(Vec3::new(0.0, 0.3, 0.0)), &shape_m, &t(Vec3::ZERO)).unwrap();
        assert!((m.points[0].depth - 0.2).abs() < 1e-4);
        assert!(m.points[0].normal.y.abs() > 0.99);
    }

    #[test]
    fn closest_point_triangle_regions() {
        let a = Vec3::ZERO;
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        // Interior projection.
        let p = closest_point_on_triangle(Vec3::new(0.25, 0.25, 1.0), a, b, c);
        assert!((p - Vec3::new(0.25, 0.25, 0.0)).length() < 1e-6);
        // Vertex region.
        let p = closest_point_on_triangle(Vec3::new(-1.0, -1.0, 0.0), a, b, c);
        assert!((p - a).length() < 1e-6);
        // Edge region.
        let p = closest_point_on_triangle(Vec3::new(0.5, -1.0, 0.0), a, b, c);
        assert!((p - Vec3::new(0.5, 0.0, 0.0)).length() < 1e-6);
    }

    #[test]
    fn segment_segment_closest_points() {
        let (p, q) = closest_points_segments(
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, -1.0),
            Vec3::new(0.0, 1.0, 1.0),
        );
        assert!((p - Vec3::ZERO).length() < 1e-6);
        assert!((q - Vec3::new(0.0, 1.0, 0.0)).length() < 1e-6);
    }
}
