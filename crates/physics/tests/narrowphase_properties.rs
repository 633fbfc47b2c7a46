//! Property-based tests of the narrow-phase collision functions, and the
//! differential oracles of the narrow-phase data path: the allocation-free
//! box–box kernel and the inline manifold against the `Vec`-based code
//! they replaced (kept here, in [`reference`], the way
//! `tests/simd_equivalence.rs` keeps `reference_solve`), and the
//! classify → bucket → collide → emit stage against one
//! `collide_with_ids` call per pair — bit for bit.

use parallax_math::{Quat, SimdMode, Transform, Vec3};
use parallax_physics::narrowphase::{collide_shapes, collide_with_ids};
use parallax_physics::probe::PairWork;
use parallax_physics::{
    BodyDesc, BodyId, ContactManifold, ContactPoint, GeomId, Heightfield, Joint, JointKind, Shape,
    ShapeKind, TriMesh, World, WorldConfig,
};
use proptest::prelude::*;
use proptest::test_runner::{sample_or_reject, TestRng};

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0.2f32..1.0).prop_map(Shape::sphere),
        (0.2f32..0.8, 0.2f32..0.8, 0.2f32..0.8)
            .prop_map(|(x, y, z)| Shape::cuboid(Vec3::new(x, y, z))),
        (0.15f32..0.5, 0.1f32..0.8).prop_map(|(r, h)| Shape::capsule(r, h)),
    ]
}

fn pose_strategy() -> impl Strategy<Value = Transform> {
    (
        -2.0f32..2.0,
        -2.0f32..2.0,
        -2.0f32..2.0,
        -3.1f32..3.1,
        (0.1f32..1.0, 0.1f32..1.0, 0.1f32..1.0),
    )
        .prop_map(|(x, y, z, angle, (ax, ay, az))| {
            Transform::new(
                Vec3::new(x, y, z),
                Quat::from_axis_angle(Vec3::new(ax, ay, az), angle),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn contacts_have_unit_normals_and_nonnegative_depth(
        a in shape_strategy(),
        b in shape_strategy(),
        ta in pose_strategy(),
        tb in pose_strategy(),
    ) {
        if let Some(m) = collide_shapes(&a, &ta, &b, &tb) {
            prop_assert!(!m.is_empty(), "Some(manifold) must carry points");
            for p in &m.points {
                prop_assert!(p.position.is_finite(), "position {:?}", p.position);
                prop_assert!(p.normal.is_finite(), "normal {:?}", p.normal);
                prop_assert!(
                    (p.normal.length() - 1.0).abs() < 1e-3,
                    "normal not unit: {:?}",
                    p.normal
                );
                prop_assert!(p.depth >= -1e-4, "negative depth {}", p.depth);
                prop_assert!(p.depth < 10.0, "absurd depth {}", p.depth);
            }
        }
    }

    #[test]
    fn swapping_arguments_flips_the_normal(
        a in shape_strategy(),
        b in shape_strategy(),
        ta in pose_strategy(),
        tb in pose_strategy(),
    ) {
        let ab = collide_shapes(&a, &ta, &b, &tb);
        let ba = collide_shapes(&b, &tb, &a, &ta);
        // Hit/miss must agree.
        prop_assert_eq!(ab.is_some(), ba.is_some(), "swap changed hit/miss");
        if let (Some(m1), Some(m2)) = (ab, ba) {
            // Average normals must be opposite (per-point ordering may
            // differ between directions).
            let n1: Vec3 = m1.points.iter().map(|p| p.normal).sum::<Vec3>().normalized();
            let n2: Vec3 = m2.points.iter().map(|p| p.normal).sum::<Vec3>().normalized();
            if n1.length() > 0.5 && n2.length() > 0.5 {
                prop_assert!(
                    n1.dot(n2) < 0.3,
                    "normals should roughly oppose: {n1:?} vs {n2:?}"
                );
            }
        }
    }

    #[test]
    fn far_apart_shapes_never_collide(
        a in shape_strategy(),
        b in shape_strategy(),
        dir in (0.0f32..std::f32::consts::TAU),
    ) {
        // Any two shapes from the strategy fit in a radius-2 ball; at 10 m
        // separation they cannot touch.
        let ta = Transform::IDENTITY;
        let tb = Transform::from_position(Vec3::new(dir.cos() * 10.0, 0.0, dir.sin() * 10.0));
        prop_assert!(collide_shapes(&a, &ta, &b, &tb).is_none());
    }

    #[test]
    fn coincident_shapes_always_collide(
        a in shape_strategy(),
        b in shape_strategy(),
        pose in pose_strategy(),
    ) {
        // Two shapes at the same origin must overlap (all strategy shapes
        // contain their origin).
        let m = collide_shapes(&a, &pose, &b, &pose);
        prop_assert!(m.is_some(), "coincident {a:?} and {b:?} reported separate");
    }

    #[test]
    fn plane_contacts_point_along_plane_normal(
        a in shape_strategy(),
        x in -3.0f32..3.0,
        z in -3.0f32..3.0,
        h in -0.5f32..0.5,
    ) {
        let plane = Shape::plane(Vec3::UNIT_Y, 0.0);
        let ta = Transform::from_position(Vec3::new(x, h, z));
        if let Some(m) = collide_shapes(&a, &ta, &plane, &Transform::IDENTITY) {
            for p in &m.points {
                prop_assert!(
                    p.normal.dot(Vec3::UNIT_Y) > 0.99,
                    "contact normal {:?} should be the plane normal",
                    p.normal
                );
            }
        }
    }
}

// --- differential oracles --------------------------------------------------

/// The box–box kernel and the manifold `push` as they were before the
/// narrow phase stopped allocating: a `Vec` of points, `face().to_vec()`
/// and one fresh `Vec` per clip plane. Same arithmetic, kept as the
/// oracle the in-place versions are held to.
mod reference {
    use super::{ContactManifold, ContactPoint, Transform, Vec3};

    pub fn push(points: &mut Vec<ContactPoint>, p: ContactPoint) {
        if points.len() < ContactManifold::MAX_POINTS {
            points.push(p);
            return;
        }
        let (idx, shallowest) = points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.depth.total_cmp(&b.1.depth))
            .map(|(i, c)| (i, c.depth))
            .expect("non-empty");
        if p.depth > shallowest {
            points[idx] = p;
        }
    }

    /// Box against plane, corner by corner; `flipped` when the plane is
    /// shape A. Returns the points and how many corners were offered to
    /// `push`.
    pub fn box_plane(
        t: &Transform,
        half: Vec3,
        n: Vec3,
        offset: f32,
        flipped: bool,
    ) -> (Vec<ContactPoint>, usize) {
        let rot = t.rotation.to_mat3();
        let mut m = Vec::new();
        let mut offered = 0;
        let mut corner_id = 0u32;
        for sx in [-1.0f32, 1.0] {
            for sy in [-1.0f32, 1.0] {
                for sz in [-1.0f32, 1.0] {
                    let corner_local = Vec3::new(sx * half.x, sy * half.y, sz * half.z);
                    let corner = rot * corner_local + t.position;
                    let dist = corner.dot(n) - offset;
                    if dist < 0.0 {
                        push(
                            &mut m,
                            ContactPoint {
                                position: corner,
                                normal: if flipped { -n } else { n },
                                depth: -dist,
                                feature: corner_id,
                            },
                        );
                        offered += 1;
                    }
                    corner_id += 1;
                }
            }
        }
        (m, offered)
    }

    struct Obb {
        c: Vec3,
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

        fn radius(&self, n: Vec3) -> f32 {
            self.h.x * self.axes[0].dot(n).abs()
                + self.h.y * self.axes[1].dot(n).abs()
                + self.h.z * self.axes[2].dot(n).abs()
        }

        fn support(&self, dir: Vec3) -> Vec3 {
            self.c
                + self.axes[0] * self.h.x * self.axes[0].dot(dir).signum()
                + self.axes[1] * self.h.y * self.axes[1].dot(dir).signum()
                + self.axes[2] * self.h.z * self.axes[2].dot(dir).signum()
        }

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

    /// Returns the manifold's points and how many points the face clip
    /// offered to `push` (more than four exercises the replacement path).
    pub fn box_box(
        ta: &Transform,
        ha: Vec3,
        tb: &Transform,
        hb: Vec3,
    ) -> (Vec<ContactPoint>, usize) {
        let mut m = Vec::new();
        let a = Obb::new(ta, ha);
        let b = Obb::new(tb, hb);
        let d = a.c - b.c;

        let mut best_score = f32::INFINITY;
        let mut best_depth = f32::INFINITY;
        let mut best_axis = Vec3::UNIT_Y;
        let mut best_is_edge = false;
        let mut best_edge = (0usize, 0usize);

        let mut test_axis = |axis: Vec3, is_edge: bool, edge: (usize, usize)| -> bool {
            let len2 = axis.length_squared();
            if len2 < 1e-10 {
                return true;
            }
            let n = axis / len2.sqrt();
            let overlap = a.radius(n) + b.radius(n) - d.dot(n).abs();
            if overlap < 0.0 {
                return false;
            }
            let score = if is_edge { overlap * 1.05 } else { overlap };
            if score < best_score {
                best_score = score;
                best_depth = overlap;
                best_axis = n;
                best_is_edge = is_edge;
                best_edge = edge;
            }
            true
        };

        for i in 0..3 {
            if !test_axis(a.axes[i], false, (i, 0)) {
                return (m, 0);
            }
        }
        for j in 0..3 {
            if !test_axis(b.axes[j], false, (3 + j, 0)) {
                return (m, 0);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                if !test_axis(a.axes[i].cross(b.axes[j]), true, (i, j)) {
                    return (m, 0);
                }
            }
        }

        let mut normal = best_axis;
        if normal.dot(d) < 0.0 {
            normal = -normal;
        }

        if best_is_edge {
            let (i, j) = best_edge;
            let pa = a.support(-normal);
            let pb = b.support(normal);
            let (qa, qb) = closest_points_lines(pa, a.axes[i], pb, b.axes[j]);
            push(
                &mut m,
                ContactPoint {
                    position: (qa + qb) * 0.5,
                    normal,
                    depth: best_depth,
                    feature: 0x4000_0000 | (i * 3 + j) as u32,
                },
            );
            return (m, 0);
        }

        let (reference, incident, ref_normal) = {
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

        let ref_face_dir = -ref_normal;
        let (ref_axis, ref_sign) = most_aligned_axis(reference, ref_face_dir);
        let ref_face = reference.face(ref_axis, ref_sign);
        let ref_face_n = reference.axes[ref_axis] * ref_sign;

        let (inc_axis, inc_sign) = most_aligned_axis(incident, -ref_face_n);
        let mut poly: Vec<Vec3> = incident.face(inc_axis, inc_sign).to_vec();

        let ref_center = (ref_face[0] + ref_face[1] + ref_face[2] + ref_face[3]) * 0.25;
        for k in 0..4 {
            let edge_from = ref_face[k];
            let edge_to = ref_face[(k + 1) % 4];
            let edge = edge_to - edge_from;
            let mut plane_n = ref_face_n.cross(edge).normalized();
            if plane_n.dot(ref_center - edge_from) < 0.0 {
                plane_n = -plane_n;
            }
            poly = clip_polygon(&poly, plane_n, plane_n.dot(edge_from));
            if poly.is_empty() {
                break;
            }
        }

        let face_id = |axis: usize, sign: f32| (axis as u32) << 1 | (sign > 0.0) as u32;
        let face_key =
            (1 << 16) | face_id(ref_axis, ref_sign) << 8 | face_id(inc_axis, inc_sign) << 4;

        let plane_d = ref_face_n.dot(ref_face[0]);
        let mut offered = 0;
        for (idx, p) in poly.into_iter().enumerate() {
            let sep = ref_face_n.dot(p) - plane_d;
            if sep <= 0.0 {
                push(
                    &mut m,
                    ContactPoint {
                        position: p,
                        normal,
                        depth: -sep,
                        feature: face_key | idx as u32,
                    },
                );
                offered += 1;
            }
        }
        if offered == 0 {
            let p = incident.support(-ref_face_n);
            push(
                &mut m,
                ContactPoint {
                    position: p,
                    normal,
                    depth: best_depth,
                    feature: 2 << 16,
                },
            );
        }
        (m, offered)
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

    fn clip_polygon(poly: &[Vec3], n: Vec3, d: f32) -> Vec<Vec3> {
        let mut out = Vec::with_capacity(poly.len() + 2);
        for i in 0..poly.len() {
            let cur = poly[i];
            let next = poly[(i + 1) % poly.len()];
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
        out
    }

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
}

/// A contact point as comparable bits.
fn point_bits(p: &ContactPoint) -> [u32; 8] {
    [
        p.position.x.to_bits(),
        p.position.y.to_bits(),
        p.position.z.to_bits(),
        p.normal.x.to_bits(),
        p.normal.y.to_bits(),
        p.normal.z.to_bits(),
        p.depth.to_bits(),
        p.feature,
    ]
}

fn points_bits(points: &[ContactPoint]) -> Vec<[u32; 8]> {
    points.iter().map(point_bits).collect()
}

fn half_strategy() -> impl Strategy<Value = Vec3> {
    prop_oneof![
        (0.2f32..0.8, 0.2f32..0.8, 0.2f32..0.8).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        // The scenes' brick.
        (0.0f32..1.0).prop_map(|_| Vec3::new(0.4, 0.2, 0.2)),
    ]
}

/// Poses of box A against box B at the origin, weighted towards the
/// configurations scenes produce: resting face contacts (aligned or
/// slightly askew, at every offset), tilted edge contacts, touching-only
/// grazes, clear misses and fully random poses.
fn box_pose_strategy() -> impl Strategy<Value = Transform> {
    let jitter = || (-0.02f32..0.02, -0.02f32..0.02, -0.02f32..0.02);
    prop_oneof![
        // Stacked / side by side, axis-aligned up to a small wobble.
        (
            (-0.9f32..0.9, -0.9f32..0.9, -0.9f32..0.9),
            jitter(),
            0usize..4,
        )
            .prop_map(|((x, y, z), (jx, jy, jz), quarter)| {
                Transform::new(
                    Vec3::new(x, y, z),
                    Quat::from_axis_angle(
                        Vec3::UNIT_Y,
                        quarter as f32 * std::f32::consts::FRAC_PI_2,
                    ) * Quat::from_axis_angle(Vec3::new(1.0, 0.3, 0.2), jx)
                        * Quat::from_axis_angle(Vec3::new(0.1, 0.2, 1.0), jy + jz),
                )
            }),
        // Exactly aligned, exactly touching or barely overlapping: the
        // clip planes pass through incident vertices, the grazing
        // fallback and the separated branch are one ulp apart.
        ((-2i32..3, -2i32..3, -2i32..3), 0.0f32..0.004).prop_map(|((x, y, z), sink)| {
            Transform::from_position(Vec3::new(
                x as f32 * 0.4,
                y as f32 * (0.4 - sink),
                z as f32 * 0.4,
            ))
        }),
        // Tilted about two axes: edge against edge or corner into face.
        (
            (-0.8f32..0.8, -0.8f32..0.8, -0.8f32..0.8),
            (0.3f32..1.2, 0.3f32..1.2),
        )
            .prop_map(|((x, y, z), (rx, ry))| {
                Transform::new(
                    Vec3::new(x, y, z),
                    Quat::from_axis_angle(Vec3::UNIT_X, rx)
                        * Quat::from_axis_angle(Vec3::UNIT_Y, ry),
                )
            }),
        pose_strategy(),
    ]
}

/// Box pairs `(half A, pose A, half B, pose B)` covering every branch of
/// the box–box kernel, in both argument orders.
fn box_box_cases() -> Vec<(Vec3, Transform, Vec3, Transform)> {
    let mut cases = Vec::new();
    for case in 0..6000 {
        let mut rng = TestRng::for_case("box_box_reference", case);
        let (Ok(ha), Ok(hb), Ok(ta)) = (
            sample_or_reject(&half_strategy(), &mut rng),
            sample_or_reject(&half_strategy(), &mut rng),
            sample_or_reject(&box_pose_strategy(), &mut rng),
        ) else {
            continue;
        };
        let tb = Transform::IDENTITY;
        // Every fourth case is slid along Y to where the boxes just stop
        // touching and kept there and one ulp to either side: the
        // grazing fallback lives on that boundary and nowhere else.
        let mut poses = vec![ta];
        if case % 4 == 0 {
            let at =
                |y: f32| Transform::new(Vec3::new(ta.position.x, y, ta.position.z), ta.rotation);
            let touching = |y: f32| {
                let (a, b) = (Shape::cuboid(ha), Shape::cuboid(hb));
                collide_shapes(&a, &at(y), &b, &tb).is_some()
            };
            let (mut lo, mut hi) = (0.25f32, 4.0f32);
            if touching(lo) && !touching(hi) {
                loop {
                    let mid = 0.5 * (lo + hi);
                    if mid == lo || mid == hi {
                        break;
                    }
                    if touching(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                poses = vec![at(f32::from_bits(lo.to_bits() - 1)), at(lo), at(hi)];
            }
        }
        for ta in poses {
            // The kernel is not symmetric in A and B.
            cases.push((ha, ta, hb, tb));
            cases.push((hb, tb, ha, ta));
        }
    }
    cases
}

#[test]
fn box_box_matches_the_vec_reference_bit_for_bit() {
    let (mut face, mut edge, mut graze, mut apart, mut replaced) = (0, 0, 0, 0, 0);
    for (case, (ha, ta, hb, tb)) in box_box_cases().into_iter().enumerate() {
        let (want, offered) = reference::box_box(&ta, ha, &tb, hb);
        let got = collide_with_ids(
            GeomId(7),
            &Shape::cuboid(ha),
            &ta,
            GeomId(9),
            &Shape::cuboid(hb),
            &tb,
        );
        let got_points = got.as_ref().map_or(&[][..], |m| &m.points[..]);
        assert_eq!(
            points_bits(got_points),
            points_bits(&want),
            "case {case}: {ha:?} at {ta:?} against {hb:?} at {tb:?}"
        );
        if let Some(m) = &got {
            assert_eq!((m.geom_a, m.geom_b), (GeomId(7), GeomId(9)));
        }
        match want.first().map(|p| p.feature) {
            None => apart += 1,
            Some(f) if f & 0x4000_0000 != 0 => edge += 1,
            Some(f) if f == 2 << 16 => graze += 1,
            Some(_) => face += 1,
        }
        replaced += usize::from(offered > ContactManifold::MAX_POINTS);
    }
    // The generator must actually reach every branch of the kernel.
    assert!(face > 1000, "face contacts: {face}");
    assert!(edge > 200, "edge contacts: {edge}");
    assert!(graze > 50, "grazing fallbacks: {graze}");
    assert!(apart > 1000, "separated: {apart}");
    assert!(
        replaced > 100,
        "clips offering more than four points: {replaced}"
    );
}

/// The same cases through the stage at every lane width the CPU has: the
/// separating-axis test evaluates its fifteen axes `W` at a time, and each
/// width must land on the reference's bits.
#[test]
fn box_box_lanes_match_the_vec_reference_at_every_width() {
    let cases = box_box_cases();
    for simd in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
        if simd.clamp_to_supported() != simd {
            continue;
        }
        let mut world = World::new(WorldConfig {
            simd,
            ..Default::default()
        });
        // One body per box; which boxes meet is the candidate list's
        // business, so every case keeps its exact pose.
        for (ha, ta, hb, tb) in &cases {
            for (half, t) in [(ha, ta), (hb, tb)] {
                world.add_body(
                    BodyDesc::dynamic(t.position)
                        .with_rotation(t.rotation)
                        .with_shape(Shape::cuboid(*half), 1.0),
                );
            }
        }
        let candidates: Vec<_> = (0..cases.len() as u32)
            .map(|i| (GeomId(2 * i), GeomId(2 * i + 1)))
            .collect();
        let (mut pairs, mut got) = (Vec::new(), Vec::new());
        world.collide_candidates(&candidates, &mut pairs, &mut got);
        assert_eq!(pairs.len(), cases.len());
        let mut got = got.iter().peekable();
        for (i, (ha, _, hb, _)) in cases.iter().enumerate() {
            let (a, b) = (BodyId(2 * i as u32), BodyId(2 * i as u32 + 1));
            let (want, _) = reference::box_box(
                &world.body(a).transform(),
                *ha,
                &world.body(b).transform(),
                *hb,
            );
            let hit = got.next_if(|m| m.geom_a == GeomId(a.0));
            let got_points = hit.map_or(&[][..], |m| &m.points[..]);
            assert_eq!(
                points_bits(got_points),
                points_bits(&want),
                "{simd:?}, case {i}"
            );
            assert_eq!(pairs[i].contacts as usize, want.len());
        }
        assert!(got.next().is_none());
    }
}

/// Box–plane offers up to eight corners to a four-point manifold: both
/// argument orders, through `collide_with_ids` and through the stage at
/// every SIMD mode, against the corner-by-corner reference and its
/// `Vec`-backed capped insert.
#[test]
fn box_plane_matches_the_reference_through_the_stage() {
    use rand::Rng;
    let cases: Vec<(Vec3, Transform, Vec3, f32)> = (0..2000)
        .map(|case| {
            let mut rng = TestRng::for_case("box_plane_reference", case);
            let half = sample_or_reject(&half_strategy(), &mut rng).expect("unfiltered");
            let pose = sample_or_reject(&pose_strategy(), &mut rng).expect("unfiltered");
            let normal = Vec3::new(
                rng.gen_range(-0.4f32..0.4),
                1.0,
                rng.gen_range(-0.4f32..0.4),
            );
            (half, pose, normal, rng.gen_range(-1.5f32..1.5))
        })
        .collect();
    let (mut hits, mut replaced) = (0, 0);
    for simd in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
        if simd.clamp_to_supported() != simd {
            continue;
        }
        let mut world = World::new(WorldConfig {
            simd,
            ..Default::default()
        });
        let mut candidates = Vec::new();
        for (i, (half, pose, normal, offset)) in cases.iter().enumerate() {
            // Even cases put the plane first: the flipped order.
            let plane = Shape::plane(*normal, *offset);
            let solid = BodyDesc::dynamic(pose.position)
                .with_rotation(pose.rotation)
                .with_shape(Shape::cuboid(*half), 1.0);
            if i % 2 == 0 {
                world.add_static_geom(plane);
                world.add_body(solid);
            } else {
                world.add_body(solid);
                world.add_static_geom(plane);
            }
            candidates.push((GeomId(2 * i as u32), GeomId(2 * i as u32 + 1)));
        }
        let (mut pairs, mut got) = (Vec::new(), Vec::new());
        world.collide_candidates(&candidates, &mut pairs, &mut got);
        let mut got = got.iter().peekable();
        for (i, (half, _, _, offset)) in cases.iter().enumerate() {
            let flipped = i % 2 == 0;
            let (ga, gb) = candidates[i];
            let Shape::Plane { normal, .. } =
                *world.geoms()[if flipped { ga } else { gb }.index()].shape()
            else {
                panic!("case {i}: plane expected");
            };
            let pose = world.body(BodyId(i as u32)).transform();
            let (want, offered) = reference::box_plane(&pose, *half, normal, *offset, flipped);
            let hit = got.next_if(|m| m.geom_a == ga);
            assert_eq!(
                points_bits(hit.map_or(&[][..], |m| &m.points[..])),
                points_bits(&want),
                "{simd:?}, case {i}"
            );
            let (sa, sb) = (
                world.geoms()[ga.index()].shape(),
                world.geoms()[gb.index()].shape(),
            );
            let (ta, tb) = if flipped {
                (Transform::IDENTITY, pose)
            } else {
                (pose, Transform::IDENTITY)
            };
            let scalar = collide_with_ids(ga, sa, &ta, gb, sb, &tb);
            assert_eq!(
                points_bits(scalar.as_ref().map_or(&[][..], |m| &m.points[..])),
                points_bits(&want),
                "collide_with_ids, case {i}"
            );
            hits += usize::from(!want.is_empty());
            replaced += usize::from(offered > ContactManifold::MAX_POINTS);
        }
        assert!(got.next().is_none());
    }
    assert!(
        hits > 1000 && replaced > 50,
        "{hits} hits, {replaced} replaced"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn inline_manifold_push_matches_the_vec_reference(
        depths in prop::collection::vec(-0.1f32..0.5, 0..14),
        ties in prop::collection::vec(0usize..3, 14..15),
    ) {
        let mut inline = ContactManifold::new(GeomId(1), GeomId(2));
        let mut vec = Vec::new();
        for (i, depth) in depths.iter().enumerate() {
            let p = ContactPoint {
                position: Vec3::new(i as f32, 0.0, 0.0),
                normal: Vec3::UNIT_Y,
                // Repeated depths exercise the first-minimum tie rule.
                depth: if ties[i] == 0 { 0.25 } else { *depth },
                feature: i as u32,
            };
            inline.push(p);
            reference::push(&mut vec, p);
            prop_assert_eq!(points_bits(&inline.points), points_bits(&vec));
            prop_assert_eq!(inline.len(), vec.len());
        }
    }
}

/// A generated world for the stage-level oracles: every shape kind the
/// dispatcher covers, created in random order so both argument orders of
/// every kind pair occur, packed densely enough that most near pairs
/// touch, with static bodies, multi-geom bodies, disabled bodies, dormant
/// debris, jointed and explicitly excluded pairs mixed in.
struct Generated {
    world: World,
    /// Body pairs excluded from collision (sorted ids).
    excluded: Vec<(u32, u32)>,
}

fn generated_world(seed: u32, threads: usize, simd: SimdMode) -> Generated {
    use rand::Rng;
    let mut rng = TestRng::for_case("generated_world", seed);
    let mut world = World::new(WorldConfig {
        threads,
        simd,
        ..Default::default()
    });
    let mut excluded = Vec::new();
    let mut bodies: Vec<BodyId> = Vec::new();
    let hills = Heightfield::new(
        9,
        9,
        1.0,
        (0..81)
            .map(|i| 0.2 * ((i % 9) as f32 * 0.9).sin())
            .collect(),
    );
    let slab = TriMesh::new(
        vec![
            Vec3::new(-4.0, 0.1, -4.0),
            Vec3::new(4.0, 0.1, -4.0),
            Vec3::new(4.0, 0.3, 4.0),
            Vec3::new(-4.0, 0.2, 4.0),
        ],
        vec![[0, 2, 1], [0, 3, 2]],
    );
    let mut statics = vec![
        Shape::plane(Vec3::UNIT_Y, 0.0),
        Shape::heightfield(hills),
        Shape::trimesh(slab),
    ];
    let pose = |rng: &mut TestRng| {
        Transform::new(
            Vec3::new(
                rng.gen_range(-2.5f32..2.5),
                rng.gen_range(0.0f32..1.6),
                rng.gen_range(-2.5f32..2.5),
            ),
            Quat::from_axis_angle(
                Vec3::new(
                    rng.gen_range(0.1f32..1.0),
                    rng.gen_range(0.1f32..1.0),
                    rng.gen_range(0.1f32..1.0),
                ),
                rng.gen_range(-3.1f32..3.1),
            ),
        )
    };
    let shape = |rng: &mut TestRng| match rng.gen_range(0..3) {
        0 => Shape::sphere(rng.gen_range(0.2f32..0.6)),
        1 => Shape::cuboid(Vec3::new(
            rng.gen_range(0.2f32..0.6),
            rng.gen_range(0.2f32..0.6),
            rng.gen_range(0.2f32..0.6),
        )),
        _ => Shape::capsule(rng.gen_range(0.15f32..0.4), rng.gen_range(0.1f32..0.6)),
    };
    for i in 0..70 {
        // Terrain goes in at random points of the creation order, so it
        // takes both the A and the B side of its pairs.
        if !statics.is_empty() && (i % 20 == 3 || rng.gen_range(0..25) == 0) {
            world.add_static_geom(statics.pop().expect("non-empty"));
        }
        let at = pose(&mut rng);
        let mut desc = match rng.gen_range(0..10) {
            0 => BodyDesc::fixed(at.position),
            _ => BodyDesc::dynamic(at.position),
        }
        .with_rotation(at.rotation)
        .with_shape(shape(&mut rng), 1.0);
        if rng.gen_range(0..6) == 0 {
            // A second geom on the same body: same-body pairs are dropped.
            desc = desc.with_shape_at(
                shape(&mut rng),
                Transform::from_position(Vec3::new(0.3, 0.0, 0.0)),
            );
        }
        let id = world.add_body(desc);
        match rng.gen_range(0..12) {
            0 => world.set_body_enabled(id, false),
            1 if !bodies.is_empty() => {
                let other = bodies[rng.gen_range(0..bodies.len())];
                world.add_joint(Joint::new(
                    JointKind::Ball {
                        anchor_a: Vec3::ZERO,
                        anchor_b: Vec3::ZERO,
                    },
                    other,
                    id,
                ));
                excluded.push((other.0.min(id.0), other.0.max(id.0)));
            }
            2 if !bodies.is_empty() => {
                let other = bodies[rng.gen_range(0..bodies.len())];
                world.exclude_collision(id, other);
                excluded.push((other.0.min(id.0), other.0.max(id.0)));
            }
            _ => {}
        }
        bodies.push(id);
    }
    for s in statics {
        world.add_static_geom(s);
    }
    // Dormant debris: enabled geoms on disabled bodies.
    world.add_prefractured(
        Vec3::new(0.0, 0.6, 0.0),
        Quat::IDENTITY,
        Vec3::new(0.5, 0.5, 0.5),
        8.0,
        Default::default(),
    );
    Generated { world, excluded }
}

/// Every geom pair, in the broad phase's canonical order.
fn all_pairs(world: &World) -> Vec<(GeomId, GeomId)> {
    let n = world.geoms().len() as u32;
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (GeomId(a), GeomId(b))))
        .collect()
}

/// What the stage must produce, from first principles: the classification
/// rules of the step spelled out per pair over the public world view, and
/// one `collide_with_ids` call per active pair on freshly composed
/// transforms.
fn stage_oracle(
    world: &World,
    excluded: &[(u32, u32)],
    candidates: &[(GeomId, GeomId)],
) -> (Vec<PairWork>, Vec<ContactManifold>) {
    let mut pairs = Vec::new();
    let mut manifolds = Vec::new();
    let geoms = world.geoms();
    let pose = |g: GeomId| {
        let geom = &geoms[g.index()];
        match geom.body() {
            Some(b) => world.body(b).transform().compose(&geom.local_transform()),
            None => geom.local_transform(),
        }
    };
    for &(a, b) in candidates {
        let (ga, gb) = (&geoms[a.index()], &geoms[b.index()]);
        if !ga.is_enabled() || !gb.is_enabled() {
            continue;
        }
        if let (Some(ba), Some(bb)) = (ga.body(), gb.body()) {
            if ba == bb || excluded.contains(&(ba.0.min(bb.0), ba.0.max(bb.0))) {
                continue;
            }
        }
        let awake_dynamic = |body: Option<BodyId>| {
            body.is_some_and(|id| !world.body(id).is_static() && !world.body(id).is_sleeping())
        };
        let disabled = |body: Option<BodyId>| body.is_some_and(|id| world.body(id).is_disabled());
        let active = (awake_dynamic(ga.body()) || awake_dynamic(gb.body()))
            && !disabled(ga.body())
            && !disabled(gb.body());
        let manifold = if active {
            collide_with_ids(a, ga.shape(), &pose(a), b, gb.shape(), &pose(b))
        } else {
            None
        };
        pairs.push(PairWork {
            geom_a: a.0,
            geom_b: b.0,
            body_a: ga.body().map_or(u32::MAX, |x| x.0),
            body_b: gb.body().map_or(u32::MAX, |x| x.0),
            shape_a: ga.shape().kind(),
            shape_b: gb.shape().kind(),
            contacts: manifold.as_ref().map_or(0, |m| m.len() as u8),
            active,
        });
        manifolds.extend(manifold);
    }
    (pairs, manifolds)
}

fn manifold_bits(m: &ContactManifold) -> (u32, u32, [u32; 2], Vec<[u32; 8]>) {
    (
        m.geom_a.0,
        m.geom_b.0,
        [m.friction.to_bits(), m.restitution.to_bits()],
        points_bits(&m.points),
    )
}

fn assert_stage_matches_oracle(world: &mut World, excluded: &[(u32, u32)], what: &str) {
    let candidates = all_pairs(world);
    let (want_pairs, want) = stage_oracle(world, excluded, &candidates);
    let (mut pairs, mut got) = (Vec::new(), Vec::new());
    world.collide_candidates(&candidates, &mut pairs, &mut got);
    assert_eq!(pairs, want_pairs, "{what}: pair records");
    assert_eq!(
        got.iter().map(manifold_bits).collect::<Vec<_>>(),
        want.iter().map(manifold_bits).collect::<Vec<_>>(),
        "{what}: manifold arena"
    );
}

#[test]
fn bucketed_stage_matches_one_collide_call_per_pair() {
    // Which ordered kind pairs were collided, and which of them hit.
    let mut collided = std::collections::BTreeSet::new();
    let mut hit = std::collections::BTreeSet::new();
    let (mut dropped, mut inactive, mut active) = (0, 0, 0);
    for seed in 0..24 {
        let Generated {
            mut world,
            excluded,
        } = generated_world(seed, 1, SimdMode::resolve());
        assert_stage_matches_oracle(&mut world, &excluded, &format!("seed {seed}"));
        let candidates = all_pairs(&world);
        let mut pairs = Vec::new();
        world.collide_candidates(&candidates, &mut pairs, &mut Vec::new());
        dropped += candidates.len() - pairs.len();
        for p in &pairs {
            if p.active {
                active += 1;
                collided.insert((p.shape_a, p.shape_b));
                if p.contacts > 0 {
                    hit.insert((p.shape_a, p.shape_b));
                }
            } else {
                inactive += 1;
            }
        }
    }
    assert!(dropped > 100 && inactive > 1000 && active > 10_000);
    // Every kind pair the dispatcher covers, in both argument orders.
    use ShapeKind::*;
    for a in [Sphere, Cuboid, Capsule] {
        for b in [Sphere, Cuboid, Capsule, Plane, Heightfield, TriMesh] {
            for pair in [(a, b), (b, a)] {
                assert!(collided.contains(&pair), "{pair:?} never collided");
                assert!(hit.contains(&pair), "{pair:?} never hit");
            }
        }
    }
}

#[test]
fn stage_output_is_identical_across_threads_and_simd_modes() {
    for seed in [3, 11] {
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            for simd in [SimdMode::Scalar, SimdMode::resolve()] {
                let Generated { mut world, .. } = generated_world(seed, threads, simd);
                let candidates = all_pairs(&world);
                let (mut pairs, mut manifolds) = (Vec::new(), Vec::new());
                world.collide_candidates(&candidates, &mut pairs, &mut manifolds);
                let arena: Vec<_> = manifolds.iter().map(manifold_bits).collect();
                assert!(pairs.iter().any(|p| !p.active) && arena.len() > 100);
                outputs.push((threads, simd, pairs, arena));
            }
        }
        let (_, _, first_pairs, first_arena) = &outputs[0];
        for (threads, simd, pairs, arena) in &outputs[1..] {
            assert_eq!(pairs, first_pairs, "pairs, threads={threads} simd={simd:?}");
            assert_eq!(arena, first_arena, "arena, threads={threads} simd={simd:?}");
        }
    }
}

/// The per-geom class table and transforms the narrow phase reads are
/// rebuilt by the pass that refreshes the AABBs; whatever changed a body
/// since — sleep, a contact wake, an enable toggle, a restore — the stage
/// must classify on the flags and collide on the pose the world has
/// *now*. (Debug builds also assert the cached transform equals
/// `body ∘ local` inside the stage, for every geom of an active pair, on
/// every step of every test; `pipeline`'s unit tests add a teleport.)
#[test]
fn stage_follows_sleep_wake_enable_toggles_and_restore() {
    let mut world = World::new(WorldConfig {
        sleeping: true,
        ..Default::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(
            world.add_body(
                BodyDesc::dynamic(Vec3::new(0.0, 0.5 + i as f32 * 1.001, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0)
                    .with_shape_at(
                        Shape::sphere(0.3),
                        Transform::from_position(Vec3::new(0.6, 0.0, 0.0)),
                    ),
            ),
        );
    }
    assert_stage_matches_oracle(&mut world, &[], "fresh");
    for _ in 0..400 {
        world.step();
        if world.sleeping_body_count() == 4 {
            break;
        }
    }
    assert_eq!(world.sleeping_body_count(), 4, "the stack must fall asleep");
    assert_stage_matches_oracle(&mut world, &[], "asleep");

    // An awake body dropped onto the sleeping stack.
    world.add_body(BodyDesc::dynamic(Vec3::new(0.2, 4.6, 0.0)).with_shape(Shape::sphere(0.5), 1.0));
    assert_stage_matches_oracle(&mut world, &[], "awake against sleeping");
    for _ in 0..40 {
        world.step();
    }
    assert_eq!(
        world.sleeping_body_count(),
        0,
        "contact must wake the stack"
    );
    assert_stage_matches_oracle(&mut world, &[], "woken");

    world.set_body_enabled(ids[1], false);
    assert_stage_matches_oracle(&mut world, &[], "disabled");
    world.step();
    world.set_body_enabled(ids[1], true);
    assert_stage_matches_oracle(&mut world, &[], "re-enabled");
    world.step();

    let snap = world.snapshot();
    for _ in 0..30 {
        world.step();
    }
    world.restore(&snap).expect("own snapshot");
    assert_stage_matches_oracle(&mut world, &[], "restored");
    world.step();
    assert_stage_matches_oracle(&mut world, &[], "restored + 1");
}
