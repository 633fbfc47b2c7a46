//! Property tests for the engine's bit-identity contract: every SIMD
//! kernel instantiation (SSE2, AVX2) must produce exactly the same bits
//! as the scalar fallback on arbitrary inputs.
//!
//! The kernels are written once, generic over the lane width, and the
//! remainder (`len % LANES`) re-uses the one-lane instantiation — so the
//! interesting cases are element counts straddling the lane boundaries
//! (1..=7 remainders), mixed static/dynamic populations, and zero
//! inverse masses. The strategies below generate exactly those.
//!
//! The island solve is additionally held to a reference written here:
//! the solve as it stood before its data path was packed — rows addressed
//! by index in row order, the level schedule walked through a permutation,
//! `I⁻¹·j_ang` re-multiplied at every impulse application — the role
//! `BruteForce` (`crates/physics/tests/support/brute_force.rs`) plays
//! for the broad phase.
//!
//! The cloth step is held the same way to `cloth_reference`: the scalar
//! step as it stood before its relaxation schedule spanned iterations and
//! its collision pass skipped tests.

use parallax_math::simd::{ScalarX4, Wide4};
use parallax_math::{Mat3, Quat, SimdMode, Transform, Vec3};
use parallax_physics::cloth::{Cloth, ClothConfig, ClothStats};
use parallax_physics::contact::{ContactManifold, ContactPoint};
use parallax_physics::integrator;
use parallax_physics::joint::{Joint, JointKind};
use parallax_physics::shape::GeomId;
use parallax_physics::solver::{self, Row, RowLimit, RowParams, RowSet, VelState, STATIC_BODY};
use parallax_physics::{BodyDesc, BodyId, BodyStore, Shape};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The wide modes this host can actually execute.
fn wide_modes() -> Vec<SimdMode> {
    [SimdMode::Sse2, SimdMode::Avx2]
        .into_iter()
        .filter(|m| m.clamp_to_supported() == *m)
        .collect()
}

/// Every mode this host can execute, scalar first.
fn all_modes() -> Vec<SimdMode> {
    let mut modes = vec![SimdMode::Scalar];
    modes.extend(wide_modes());
    modes
}

fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

/// One generated body: position, velocities, and whether it is static
/// (zero inverse mass) — the masking case the pinned/movable lanes must
/// get right.
type BodySpec = ((f32, f32, f32), (f32, f32, f32), (f32, f32, f32), bool, f32);

fn body_spec() -> impl Strategy<Value = BodySpec> {
    (
        (-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0),
        (-5.0f32..5.0, -5.0f32..5.0, -5.0f32..5.0),
        (-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0),
        any::<bool>(),
        0.1f32..10.0,
    )
}

fn build_store(specs: &[BodySpec]) -> BodyStore {
    let mut s = BodyStore::default();
    for &((px, py, pz), (vx, vy, vz), (ax, ay, az), is_static, mass) in specs {
        let pos = Vec3::new(px, py, pz);
        let desc = if is_static {
            BodyDesc::fixed(pos).with_shape(Shape::cuboid(Vec3::splat(0.5)), mass)
        } else {
            BodyDesc::dynamic(pos).with_shape(Shape::sphere(0.4), mass)
        };
        let i = s.push(&desc);
        if !is_static {
            s.set_linear_velocity(i, Vec3::new(vx, vy, vz));
            s.set_angular_velocity(i, Vec3::new(ax, ay, az));
            s.add_force(i, Vec3::new(az * 3.0, ax * 3.0, ay * 3.0));
            s.add_torque(i, Vec3::new(vy, vz, vx));
        }
    }
    s
}

fn store_bits(s: &BodyStore) -> Vec<u32> {
    let mut out = Vec::with_capacity(s.len() * 13);
    for i in 0..s.len() {
        out.extend(bits(s.position(i)));
        let q = s.rotation(i);
        out.extend([q.w.to_bits(), q.x.to_bits(), q.y.to_bits(), q.z.to_bits()]);
        out.extend(bits(s.linear_velocity(i)));
        out.extend(bits(s.angular_velocity(i)));
    }
    out
}

/// The reference island solve: sequential `project_row` over the rows in
/// schedule order, every quantity read from row-order storage by index.
/// Returns the solved impulses (row order) and `total_delta`.
fn reference_solve(set: &RowSet, vel: &mut [VelState], iterations: usize) -> (Vec<f32>, f32) {
    type V = ScalarX4;
    let rows = set.rows();
    let mut lambda = set.lambda.clone();

    let inertia_mul = |m: &Mat3, j: V| {
        Vec3::new(
            V::from_vec3(m.rows[0]).dot3(j),
            V::from_vec3(m.rows[1]).dot3(j),
            V::from_vec3(m.rows[2]).dot3(j),
        )
    };
    let apply = |r: &Row, vel: &mut [VelState], dlambda: f32| {
        for (body, jl, ja) in [
            (r.body_a, r.j_lin_a, r.j_ang_a),
            (r.body_b, r.j_lin_b, r.j_ang_b),
        ] {
            if body != STATIC_BODY {
                let v = &mut vel[body as usize];
                let jl = V::from_array(jl);
                v.lin = (V::from_vec3(v.lin) + jl * V::splat(v.inv_mass * dlambda)).to_vec3();
                let d = inertia_mul(&v.inv_inertia, V::from_array(ja));
                v.ang = (V::from_vec3(v.ang) + V::from_vec3(d) * V::splat(dlambda)).to_vec3();
            }
        }
    };

    // Level colouring, then a stable sort by batch: index order survives
    // within a batch.
    let mut level = vec![0u32; vel.len()];
    let batch_of: Vec<u32> = rows
        .iter()
        .map(|r| {
            let dynamic = [r.body_a, r.body_b]
                .into_iter()
                .filter(|&b| b != STATIC_BODY);
            let batch = dynamic
                .clone()
                .map(|b| level[b as usize])
                .max()
                .unwrap_or(0);
            for b in dynamic {
                level[b as usize] = batch + 1;
            }
            batch
        })
        .collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| batch_of[i]);

    let inv_k: Vec<f32> = rows
        .iter()
        .map(|r| {
            let mut k = 0.0;
            for (body, jl, ja) in [
                (r.body_a, r.j_lin_a, r.j_ang_a),
                (r.body_b, r.j_lin_b, r.j_ang_b),
            ] {
                if body != STATIC_BODY {
                    let v = &vel[body as usize];
                    let (jl, ja) = (V::from_array(jl), V::from_array(ja));
                    k += v.inv_mass * jl.dot3(jl);
                    k += ja.dot3(V::from_vec3(inertia_mul(&v.inv_inertia, ja)));
                }
            }
            let k = k + r.cfm;
            if k > 1e-10 {
                1.0 / k
            } else {
                0.0
            }
        })
        .collect();

    for (r, &l) in rows.iter().zip(&lambda) {
        if l != 0.0 {
            apply(r, vel, l);
        }
    }

    let mut total_delta = 0.0f32;
    for _ in 0..iterations {
        for &i in &order {
            let r = &rows[i];
            let side = |body: u32, jl: [f32; 4], ja: [f32; 4]| {
                if body == STATIC_BODY {
                    0.0
                } else {
                    let v = &vel[body as usize];
                    V::dot3_pair(
                        V::from_array(jl),
                        V::from_vec3(v.lin),
                        V::from_array(ja),
                        V::from_vec3(v.ang),
                    )
                }
            };
            let jv = side(r.body_a, r.j_lin_a, r.j_ang_a) + side(r.body_b, r.j_lin_b, r.j_ang_b);
            let lambda_old = lambda[i];
            let unclamped = lambda_old + (r.rhs - jv - r.cfm * lambda_old) * inv_k[i];
            let clamped = match r.limit() {
                RowLimit::Bilateral => unclamped,
                RowLimit::Unilateral => {
                    if unclamped > 0.0 {
                        unclamped
                    } else {
                        0.0
                    }
                }
                RowLimit::Friction { normal_row, mu } => {
                    let ln = lambda[normal_row as usize];
                    let bound = mu * if ln > 0.0 { ln } else { 0.0 };
                    let hi = if unclamped > bound { bound } else { unclamped };
                    if hi < -bound {
                        -bound
                    } else {
                        hi
                    }
                }
            };
            let dlambda = clamped - lambda_old;
            if dlambda != 0.0 {
                lambda[i] = clamped;
                apply(r, vel, dlambda);
                total_delta += dlambda.abs();
            }
        }
    }
    (lambda, total_delta)
}

/// A random island: up to 12 bodies (some with zero inverse mass), joints
/// of every kind and contact manifolds between random pairs — either side
/// possibly the static environment, both included — cold, or warm with
/// seeds that are zero, in the cone, or stale enough for the builder to
/// clamp. The first `n_ground` bodies each rest on the static environment
/// first, which makes batches `n_ground` rows wide (every remainder of
/// the four-row packing, friction rows a batch behind their normal row);
/// few bodies under many random manifolds make deep schedules of short
/// batches.
fn random_island(
    seed: u64,
    n_bodies: usize,
    n_ground: usize,
    n_joints: usize,
    n_contacts: usize,
) -> (RowSet, Vec<VelState>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vec3 = |rng: &mut SmallRng, r: f32| {
        Vec3::new(
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
            rng.gen_range(-r..r),
        )
    };
    let positions: Vec<Vec3> = (0..n_bodies).map(|_| vec3(&mut rng, 3.0)).collect();
    let vel: Vec<VelState> = (0..n_bodies)
        .map(|_| {
            let inv_mass = if rng.gen_bool(0.15) {
                0.0
            } else {
                rng.gen_range(0.1f32..4.0)
            };
            let d = vec3(&mut rng, 1.0);
            let o = vec3(&mut rng, 0.2);
            VelState {
                lin: vec3(&mut rng, 5.0),
                ang: vec3(&mut rng, 2.0),
                inv_mass,
                inv_inertia: Mat3::from_rows(
                    Vec3::new(inv_mass * (1.5 + d.x), o.x, o.y),
                    Vec3::new(o.x, inv_mass * (1.5 + d.y), o.z),
                    Vec3::new(o.y, o.z, inv_mass * (1.5 + d.z)),
                ),
            }
        })
        .collect();
    // A body index, or the static environment one time in four.
    let pick = |rng: &mut SmallRng| {
        if rng.gen_bool(0.25) {
            STATIC_BODY
        } else {
            rng.gen_range(0..n_bodies) as u32
        }
    };
    let pose = |b: u32| {
        positions
            .get(b as usize)
            .map_or(Transform::IDENTITY, |&p| Transform::from_position(p))
    };
    let params = RowParams::default();
    let mut rows = RowSet::new();
    for _ in 0..n_joints {
        let (la, lb) = (pick(&mut rng), pick(&mut rng));
        let (anchor_a, anchor_b) = (vec3(&mut rng, 0.5), vec3(&mut rng, 0.5));
        let kind = match rng.gen_range(0..4) {
            0 => JointKind::Ball { anchor_a, anchor_b },
            1 => JointKind::Hinge {
                anchor_a,
                anchor_b,
                axis_a: Vec3::UNIT_Y,
                axis_b: Vec3::new(0.6, 0.8, 0.0),
            },
            2 => JointKind::Slider {
                axis_a: Vec3::UNIT_X,
                anchor_a,
            },
            _ => JointKind::Fixed { anchor_a, anchor_b },
        };
        let mut tb = pose(lb);
        tb.rotation = Quat::from_axis_angle(Vec3::UNIT_Z, rng.gen_range(-0.5f32..0.5));
        let joint = Joint::new(kind, BodyId(0), BodyId(0));
        solver::build_joint_rows(&joint, la, lb, pose(la), tb, &params, &mut rows);
    }
    for c in 0..n_ground.min(n_bodies) + n_contacts {
        let (la, lb) = if c < n_ground.min(n_bodies) {
            (c as u32, STATIC_BODY)
        } else {
            (pick(&mut rng), pick(&mut rng))
        };
        let mut m = ContactManifold::new(GeomId(2 * c as u32), GeomId(2 * c as u32 + 1));
        m.friction = rng.gen_range(0.0f32..1.5);
        m.restitution = rng.gen_range(0.0f32..0.6);
        let normal = vec3(&mut rng, 1.0).normalized();
        let n_points = rng.gen_range(1..ContactManifold::MAX_POINTS + 1);
        for p in 0..n_points {
            m.push(ContactPoint {
                position: vec3(&mut rng, 3.0),
                normal,
                depth: rng.gen_range(0.0f32..0.2),
                feature: p as u32,
            });
        }
        let seeds: Option<Vec<[f32; 3]>> = rng.gen_bool(0.6).then(|| {
            (0..n_points)
                .map(|_| match rng.gen_range(0..3) {
                    0 => [0.0; 3],
                    1 => [rng.gen_range(0.0f32..2.0), rng.gen_range(-0.1f32..0.1), 0.0],
                    _ => [rng.gen_range(-1.0f32..1.0), 9.0, -9.0],
                })
                .collect()
        });
        let centre = |b: u32| positions.get(b as usize).copied().unwrap_or(Vec3::ZERO);
        solver::build_contact_rows(
            &m,
            la,
            lb,
            centre(la),
            centre(lb),
            &vel,
            &params,
            seeds.as_deref(),
            &mut rows,
        );
    }
    (rows, vel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Production solve against the reference, in every SIMD mode:
    /// velocities, impulses and `total_delta` bit for bit, over random
    /// islands and 0, 1 and many iterations.
    #[test]
    fn island_solve_matches_the_reference(
        seed in any::<u64>(),
        n_bodies in 1usize..13,
        n_ground in 0usize..13,
        n_joints in 0usize..4,
        n_contacts in 0usize..15,
        iterations in prop_oneof![0usize..2, 2usize..24],
    ) {
        let (rows, vel) = random_island(seed, n_bodies, n_ground, n_joints, n_contacts);
        let vel_bits = |vel: &[VelState]| -> Vec<u32> {
            vel.iter().flat_map(|v| bits(v.lin).into_iter().chain(bits(v.ang))).collect()
        };
        let f32_bits = |l: &[f32]| -> Vec<u32> { l.iter().map(|x| x.to_bits()).collect() };

        let mut ref_vel = vel.clone();
        let (ref_lambda, ref_delta) = reference_solve(&rows, &mut ref_vel, iterations);
        for mode in [SimdMode::Scalar].into_iter().chain(wide_modes()) {
            let (mut r, mut v) = (rows.clone(), vel.clone());
            let stats = solver::solve(&mut r, &mut v, iterations, mode);
            prop_assert_eq!(vel_bits(&v), vel_bits(&ref_vel), "{} velocities", mode.name());
            prop_assert_eq!(f32_bits(&r.lambda), f32_bits(&ref_lambda), "{} lambda", mode.name());
            prop_assert_eq!(stats.total_delta.to_bits(), ref_delta.to_bits(), "{} total_delta", mode.name());
            prop_assert_eq!(stats.rows, rows.len());
        }
    }

    /// The three integrator sweeps (apply-forces, clamp, integrate) at
    /// every width, over body counts 1..=19 so every remainder 1..=7
    /// against both 4- and 8-lane chunks occurs.
    #[test]
    fn integrator_sweeps_are_bit_identical(
        specs in prop::collection::vec(body_spec(), 1..20),
        dt in 0.001f32..0.05,
        gy in -20.0f32..0.0,
    ) {
        let run = |mode: SimdMode| {
            let mut s = build_store(&specs);
            integrator::apply_forces(&mut s, Vec3::new(0.0, gy, 0.0), dt, mode);
            integrator::clamp_velocities(&mut s, 4.0, 2.5, mode);
            integrator::integrate(&mut s, dt, mode);
            store_bits(&s)
        };
        let reference = run(SimdMode::Scalar);
        for mode in wide_modes() {
            prop_assert_eq!(run(mode), reference.clone(), "{} diverged", mode.name());
        }
    }

    /// The PGS row projection over random contact manifolds (normal +
    /// friction rows, static and dynamic counterparts, zero-inv-mass
    /// bodies included).
    #[test]
    fn solver_projection_is_bit_identical(
        va in (-6.0f32..6.0, -6.0f32..6.0, -6.0f32..6.0),
        vb in (-6.0f32..6.0, -6.0f32..6.0, -6.0f32..6.0),
        depth in 0.0f32..0.3,
        friction in 0.0f32..1.5,
        n_points in 1usize..5,
        b_static in any::<bool>(),
        iters in 1usize..40,
    ) {
        let mk_vel = |v: (f32, f32, f32), inv_mass: f32| solver::VelState {
            lin: Vec3::new(v.0, v.1, v.2),
            ang: Vec3::new(v.2 * 0.3, v.0 * 0.3, v.1 * 0.3),
            inv_mass,
            inv_inertia: parallax_math::Mat3::from_diagonal(Vec3::splat(inv_mass * 2.5)),
        };
        let build = || {
            let mut vel = vec![mk_vel(va, 1.0)];
            let lb = if b_static {
                STATIC_BODY
            } else {
                vel.push(mk_vel(vb, 0.5));
                1
            };
            let mut m = ContactManifold::new(GeomId(0), GeomId(1));
            m.friction = friction;
            m.restitution = 0.0;
            for p in 0..n_points {
                m.push(ContactPoint {
                    position: Vec3::new(p as f32 * 0.2, 0.0, 0.0),
                    normal: Vec3::UNIT_Y,
                    depth,
                    feature: p as u32,
                });
            }
            let mut rows = RowSet::new();
            solver::build_contact_rows(
                &m,
                0,
                lb,
                Vec3::new(0.0, 0.5, 0.0),
                Vec3::new(0.0, -0.5, 0.0),
                &vel,
                &RowParams::default(),
                None,
                &mut rows,
            );
            (rows, vel)
        };
        let run = |mode: SimdMode| {
            let (mut rows, mut vel) = build();
            solver::solve(&mut rows, &mut vel, iters, mode);
            let mut out: Vec<u32> = Vec::new();
            for v in &vel {
                out.extend(bits(v.lin));
                out.extend(bits(v.ang));
            }
            out.extend(rows.lambda.iter().map(|l| l.to_bits()));
            out
        };
        let reference = run(SimdMode::Scalar);
        for mode in wide_modes() {
            prop_assert_eq!(run(mode), reference.clone(), "{} diverged", mode.name());
        }
    }

    /// `Cloth::step` in every SIMD mode against the reference step below,
    /// vertices and `ClothStats` bit for bit: every side length from 2 to
    /// 26 (every lane remainder, and the Mix drape), random pins, 0 to 12
    /// relaxation iterations through `with_config`, and a random subset,
    /// in random order, of colliders of every shape kind under a gravity
    /// strong enough to trigger the ray-cast pass.
    #[test]
    fn cloth_step_is_bit_identical(
        nx in 2usize..27,
        nz in 2usize..27,
        pin_mask in any::<u32>(),
        steps in 1usize..5,
        iterations in 0usize..13,
        collider_mask in any::<u8>(),
        order_seed in any::<u64>(),
        gravity in -600.0f32..0.0,
    ) {
        let config = ClothConfig { iterations, ..ClothConfig::default() };
        let colliders = cloth_reference::colliders(collider_mask, order_seed);
        let gravity = Vec3::new(0.0, gravity, 0.0);
        let pins: Vec<usize> = (0..nx * nz).filter(|i| pin_mask & (1 << (i % 32)) != 0).collect();
        let build = || {
            Cloth::rectangle(Vec3::new(-0.5, 0.4, -0.5), 1.0, 1.0, nx, nz, &pins).with_config(config)
        };
        let mut reference = cloth_reference::RefCloth::of(&build(), config);
        let expected: Vec<ClothStats> =
            (0..steps).map(|_| reference.step(gravity, 0.01, &colliders)).collect();
        for mode in all_modes() {
            let mut c = build();
            let stats: Vec<ClothStats> =
                (0..steps).map(|_| c.step(gravity, 0.01, &colliders, mode)).collect();
            prop_assert_eq!(&stats, &expected, "{} stats diverged", mode.name());
            prop_assert_eq!(
                cloth_reference::vertex_bits(c.vertices()),
                reference.vertex_bits(),
                "{} diverged",
                mode.name()
            );
        }
    }
}

/// `with_config` re-keys the relaxation schedule: a cloth configured
/// twice runs the second configuration's iteration count, and every count
/// from 0 to 12 equals the reference with that count.
#[test]
fn cloth_with_config_matches_the_reference_at_every_iteration_count() {
    let colliders = cloth_reference::colliders(u8::MAX, 7);
    let gravity = Vec3::new(0.0, -300.0, 0.0);
    for iterations in 0..=12 {
        let config = ClothConfig {
            iterations,
            ..ClothConfig::default()
        };
        let build = || {
            Cloth::rectangle(Vec3::new(-0.5, 0.4, -0.5), 1.0, 1.0, 9, 7, &[0, 8])
                .with_config(ClothConfig {
                    iterations: 12 - iterations,
                    ..config
                })
                .with_config(config)
        };
        let reference = cloth_reference::RefCloth::of(&build(), config);
        for mode in all_modes() {
            let mut c = build();
            let mut r = reference.clone();
            for step in 0..6 {
                let expected = r.step(gravity, 0.01, &colliders);
                let stats = c.step(gravity, 0.01, &colliders, mode);
                assert_eq!(
                    stats,
                    expected,
                    "{iterations} iterations, {} step {step}",
                    mode.name()
                );
                assert_eq!(expected.projections, c.constraints().len() * iterations);
            }
            assert_eq!(
                cloth_reference::vertex_bits(c.vertices()),
                r.vertex_bits(),
                "{iterations} iterations, {}",
                mode.name()
            );
        }
    }
}

/// Collision decisions at the edges of the bounds the step uses to skip
/// tests: vertices placed exactly on each collider's AABB faces, on those
/// faces grown by one and two thicknesses, one ULP either side of each,
/// on a heightfield's `max_height` (plus a thickness, plus and minus one
/// ULP; one field with a NaN sample), and at NaN.
/// Gravity is zero and relaxation off, so
/// every vertex sits exactly where it was placed when the collision pass
/// runs; two more passes move every vertex 0.1 m down, and along a
/// slant, so that its ray-cast segment ends exactly on those planes.
#[test]
fn cloth_collision_boundaries_match_the_reference() {
    let mut all = cloth_reference::colliders(u8::MAX, 0);
    // A field with a NaN sample: its heights bound nothing, so neither
    // may a cull.
    let mut wild = vec![0.05f32; 16];
    wild[0] = f32::NAN;
    let wild_pose = Transform::from_position(Vec3::new(0.1, 0.1, 0.0));
    all.push((
        Shape::heightfield(parallax_physics::Heightfield::new(4, 4, 0.3, wild)),
        wild_pose,
    ));
    let config = ClothConfig {
        iterations: 0,
        ..ClothConfig::default()
    };
    let t = config.thickness;
    let mut sets: Vec<Vec<(Shape, Transform)>> = all.iter().map(|c| vec![c.clone()]).collect();
    sets.push(all.clone());
    for set in &sets {
        let mut targets: Vec<Vec3> = Vec::new();
        for (shape, pose) in set {
            let bb = shape.aabb(pose);
            let mid = (bb.min + bb.max) * 0.5;
            for axis in 0..3 {
                for (face, outward) in [(bb.min[axis], -1.0f32), (bb.max[axis], 1.0)] {
                    for grow in [0.0, t, 2.0 * t] {
                        let plane = face + outward * grow;
                        for v in [plane.next_down(), plane, plane.next_up()] {
                            let mut p: [f32; 3] = mid.into();
                            p[axis] = v;
                            targets.push(p.into());
                        }
                    }
                }
            }
            if let Shape::Heightfield(hf) = shape {
                let top = hf.local_aabb().max.y;
                for y in [top, top + t] {
                    for y in [y.next_down(), y, y.next_up()] {
                        for (x, z) in [(0.0, 0.0), (0.13, -0.27), (5.0, 5.0)] {
                            targets.push(pose.apply(Vec3::new(x, y, z)));
                        }
                    }
                }
            }
        }
        // Over the wild field's NaN corner cell, where the slanted drop
        // below arrives from a cell of finite samples.
        for y in [0.1, 0.15, 0.3] {
            targets.push(wild_pose.apply(Vec3::new(-0.4, y, -0.4)));
        }
        targets.push(Vec3::new(f32::NAN, 0.0, 0.0));
        targets.push(Vec3::splat(f32::NAN));
        for drop in [
            Vec3::ZERO,
            Vec3::new(0.0, -0.1, 0.0),
            Vec3::new(-0.3, -0.05, -0.3),
        ] {
            let gravity = drop / (0.01 * 0.01);
            let step = gravity * (0.01 * 0.01);
            let side = (targets.len() as f32).sqrt().ceil().max(2.0) as usize;
            let build = || {
                let mut c =
                    Cloth::rectangle(Vec3::new(40.0, 40.0, 40.0), 1.0, 1.0, side, side, &[])
                        .with_config(config);
                for (i, &p) in targets.iter().enumerate() {
                    c.move_pinned(i, cloth_reference::start_to_land(p, step));
                }
                c
            };
            let mut reference = cloth_reference::RefCloth::of(&build(), config);
            let expected = reference.step(gravity, 0.01, set);
            assert!(expected.collision_tests > 0);
            for mode in all_modes() {
                let mut c = build();
                assert_eq!(
                    c.step(gravity, 0.01, set, mode),
                    expected,
                    "{}",
                    mode.name()
                );
                assert_eq!(
                    cloth_reference::vertex_bits(c.vertices()),
                    reference.vertex_bits(),
                    "{} drop {drop:?}",
                    mode.name()
                );
            }
        }
    }
}

/// The cloth step as it stood before its relaxation schedule spanned
/// iterations and before its collision pass skipped tests: a scalar
/// Verlet sweep; per iteration, every constraint in index order; then,
/// for every unpinned vertex, a ray cast against the colliders in order up
/// to the first hit when the vertex moved more than twice its thickness,
/// and a projection out of every collider. The collision routines for
/// the shapes whose code the step now bounds (the capsule and heightfield
/// ray marches, every projection) are the pre-change copies below.
mod cloth_reference {
    use parallax_math::{Quat, Transform, Vec3};
    use parallax_physics::cloth::{Cloth, ClothConfig, ClothStats, ClothVertex};
    use parallax_physics::narrowphase::closest_point_on_segment;
    use parallax_physics::ray::{self, Ray, RayHit};
    use parallax_physics::{Heightfield, Shape, TriMesh};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone)]
    pub struct RefCloth {
        verts: Vec<ClothVertex>,
        constraints: Vec<(usize, usize, f32)>,
        iterations: usize,
        damping: f32,
        thickness: f32,
    }

    /// Vertex bits (position, then previous position), every NaN folded
    /// to one pattern: NaN payloads are not part of the contract.
    pub fn vertex_bits(verts: &[ClothVertex]) -> Vec<u32> {
        let b = |x: f32| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        verts
            .iter()
            .flat_map(|v| [v.pos.x, v.pos.y, v.pos.z, v.prev.x, v.prev.y, v.prev.z].map(b))
            .collect()
    }

    impl RefCloth {
        pub fn of(c: &Cloth, config: ClothConfig) -> RefCloth {
            RefCloth {
                verts: c.vertices().to_vec(),
                constraints: c
                    .constraints()
                    .iter()
                    .map(|k| (k.a as usize, k.b as usize, k.rest))
                    .collect(),
                iterations: config.iterations,
                damping: config.damping,
                thickness: config.thickness,
            }
        }

        pub fn vertex_bits(&self) -> Vec<u32> {
            vertex_bits(&self.verts)
        }

        pub fn step(
            &mut self,
            gravity: Vec3,
            dt: f32,
            colliders: &[(Shape, Transform)],
        ) -> ClothStats {
            let mut stats = ClothStats {
                vertices: self.verts.len(),
                projections: self.constraints.len() * self.iterations,
                ..ClothStats::default()
            };
            let g = gravity * (dt * dt);
            for v in &mut self.verts {
                if v.pinned {
                    continue;
                }
                let next = Vec3::new(
                    v.pos.x + (v.pos.x - v.prev.x) * self.damping + g.x,
                    v.pos.y + (v.pos.y - v.prev.y) * self.damping + g.y,
                    v.pos.z + (v.pos.z - v.prev.z) * self.damping + g.z,
                );
                v.prev = v.pos;
                v.pos = next;
            }
            for _ in 0..self.iterations {
                for &(a, b, rest) in &self.constraints {
                    let (pa, pb) = (self.verts[a].pinned, self.verts[b].pinned);
                    let (va, vb) = (self.verts[a].pos, self.verts[b].pos);
                    let (dx, dy, dz) = (vb.x - va.x, vb.y - va.y, vb.z - va.z);
                    let len = (dx * dx + dy * dy + dz * dz).sqrt();
                    if len <= 1e-12 {
                        continue;
                    }
                    let e = (len - rest) * 0.5;
                    let c = Vec3::new((dx / len) * e, (dy / len) * e, (dz / len) * e);
                    if !pa {
                        let s = if pb { 2.0 } else { 1.0 };
                        self.verts[a].pos =
                            Vec3::new(va.x + c.x * s, va.y + c.y * s, va.z + c.z * s);
                    }
                    if !pb {
                        let s = if pa { 2.0 } else { 1.0 };
                        self.verts[b].pos =
                            Vec3::new(vb.x - c.x * s, vb.y - c.y * s, vb.z - c.z * s);
                    }
                }
            }
            for v in &mut self.verts {
                if v.pinned {
                    continue;
                }
                let travel = v.pos - v.prev;
                if travel.length() > self.thickness * 2.0 {
                    let ray = Ray::between(v.prev, v.pos);
                    for (shape, t) in colliders {
                        stats.collision_tests += 1;
                        if let Some(hit) = cast_shape(&ray, shape, t) {
                            v.pos = hit.point + hit.normal * self.thickness;
                            v.prev = v.prev.lerp(v.pos, 0.5);
                            stats.collisions_resolved += 1;
                            break;
                        }
                    }
                }
                for (shape, t) in colliders {
                    stats.collision_tests += 1;
                    if let Some(pushed) = project_out(v.pos, shape, t, self.thickness) {
                        v.pos = pushed;
                        v.prev = v.prev.lerp(v.pos, 0.5);
                        stats.collisions_resolved += 1;
                    }
                }
            }
            stats
        }
    }

    /// A start point whose Verlet step by `step` (from rest, no damping
    /// term) lands exactly on `target`, when one within a few ULPs exists.
    pub fn start_to_land(target: Vec3, step: Vec3) -> Vec3 {
        let (target, step): ([f32; 3], [f32; 3]) = (target.into(), step.into());
        let mut p = target;
        for axis in 0..3 {
            if step[axis] == 0.0 || !target[axis].is_finite() {
                continue;
            }
            let mut x = target[axis] - step[axis];
            for _ in 0..8 {
                // Verlet from rest: `prev` is the start itself.
                let prev = x;
                let landed = x + (x - prev) * 0.995 + step[axis];
                if landed == target[axis] {
                    break;
                }
                x = if landed < target[axis] {
                    x.next_up()
                } else {
                    x.next_down()
                };
            }
            p[axis] = x;
        }
        p.into()
    }

    /// One collider of every shape kind around the unit cloth at
    /// (-0.5..0.5, 0.4, -0.5..0.5), the kinds picked by `mask` (a sphere
    /// always) and shuffled by `seed`.
    pub fn colliders(mask: u8, seed: u64) -> Vec<(Shape, Transform)> {
        let tilt =
            |x: f32, z: f32, a: f32| Quat::from_axis_angle(Vec3::new(x, 0.0, z).normalized(), a);
        let mut rng = SmallRng::seed_from_u64(seed);
        let heights: Vec<f32> = (0..64).map(|_| rng.gen_range(-0.08f32..0.08)).collect();
        let all = vec![
            (
                Shape::sphere(0.3),
                Transform::from_position(Vec3::new(0.2, 0.05, 0.1)),
            ),
            (
                Shape::cuboid(Vec3::new(0.3, 0.05, 0.2)),
                Transform::new(Vec3::new(-0.2, 0.2, 0.0), tilt(1.0, 0.3, 0.4)),
            ),
            (
                Shape::capsule(0.1, 0.3),
                Transform::new(Vec3::new(0.0, 0.3, 0.3), tilt(0.2, 1.0, 1.4)),
            ),
            (Shape::plane(Vec3::UNIT_Y, -0.3), Transform::IDENTITY),
            (
                Shape::heightfield(Heightfield::new(8, 8, 0.2, heights)),
                Transform::from_position(Vec3::new(0.1, 0.12, -0.1)),
            ),
            (
                Shape::heightfield(Heightfield::new(4, 4, 0.3, vec![0.0; 16])),
                Transform::new(Vec3::new(-0.3, 0.0, 0.2), tilt(1.0, 1.0, 0.3)),
            ),
            (
                Shape::trimesh(TriMesh::new(
                    vec![
                        Vec3::new(-0.4, 0.0, -0.4),
                        Vec3::new(0.4, 0.0, -0.4),
                        Vec3::new(0.0, 0.1, 0.4),
                    ],
                    vec![[0, 1, 2]],
                )),
                Transform::from_position(Vec3::new(0.0, 0.25, 0.0)),
            ),
            (
                Shape::capsule(0.05, 0.2),
                Transform::from_position(Vec3::new(-0.3, 0.1, -0.3)),
            ),
        ];
        let mut picked: Vec<_> = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.gen_range(0..i + 1));
        }
        picked
    }

    fn cast_shape(ray: &Ray, shape: &Shape, pose: &Transform) -> Option<RayHit> {
        match shape {
            Shape::Capsule { radius, half_len } => {
                let axis = pose.apply_vector(Vec3::UNIT_Y) * *half_len;
                ray_capsule(ray, pose.position - axis, pose.position + axis, *radius)
            }
            Shape::Heightfield(hf) => ray_heightfield(ray, hf, pose),
            _ => ray::cast_shape(ray, shape, pose),
        }
    }

    fn ray_heightfield(ray: &Ray, hf: &Heightfield, pose: &Transform) -> Option<RayHit> {
        let local_o = pose.apply_inverse(ray.origin);
        let local_d = pose.rotation.rotate_inverse(ray.dir);
        let steps = 128;
        let dt = ray.max_t / steps as f32;
        let mut prev_above = local_o.y >= hf.height_at(local_o.x, local_o.z);
        for i in 1..=steps {
            let t = dt * i as f32;
            let p = local_o + local_d * t;
            let above = p.y >= hf.height_at(p.x, p.z);
            if above != prev_above {
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

    fn ray_capsule(ray: &Ray, a: Vec3, b: Vec3, radius: f32) -> Option<RayHit> {
        let steps = 64;
        let dt = ray.max_t / steps as f32;
        let dist = |p: Vec3| {
            let c = closest_point_on_segment(a, b, p);
            (p - c).length() - radius
        };
        if dist(ray.origin) <= 0.0 {
            return Some(RayHit {
                t: 0.0,
                point: ray.origin,
                normal: -ray.dir,
            });
        }
        for i in 1..=steps {
            let t = dt * i as f32;
            if dist(ray.at(t)) <= 0.0 {
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
                let c = closest_point_on_segment(a, b, point);
                return Some(RayHit {
                    t: hi,
                    point,
                    normal: (point - c).normalized(),
                });
            }
        }
        None
    }

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
                let closest = closest_point_on_segment(
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
            Shape::TriMesh(_) => None,
        }
    }
}
