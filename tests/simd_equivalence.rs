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
//! `BruteForce` plays for the broad phase.

use parallax_math::simd::{ScalarX4, Wide4};
use parallax_math::{Mat3, Quat, SimdMode, Transform, Vec3};
use parallax_physics::cloth::Cloth;
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

    /// The cloth Verlet + relaxation kernels over random mesh sizes and
    /// pin sets (vertex counts 4..=63 cover every remainder), including
    /// the scalar collision phase on top.
    #[test]
    fn cloth_step_is_bit_identical(
        nx in 2usize..9,
        nz in 2usize..8,
        pin_mask in any::<u32>(),
        steps in 1usize..5,
        with_collider in any::<bool>(),
    ) {
        let colliders = if with_collider {
            vec![(Shape::sphere(0.45), Transform::from_position(Vec3::new(0.2, -0.3, 0.1)))]
        } else {
            Vec::new()
        };
        let run = |mode: SimdMode| {
            let pins: Vec<usize> = (0..nx * nz).filter(|i| pin_mask & (1 << (i % 32)) != 0).collect();
            let mut c = Cloth::rectangle(Vec3::new(-0.5, 0.4, -0.5), 1.0, 1.0, nx, nz, &pins);
            for _ in 0..steps {
                c.step(Vec3::new(0.0, -10.0, 0.0), 0.01, &colliders, mode);
            }
            c.vertices()
                .iter()
                .flat_map(|v| {
                    let p = bits(v.pos);
                    let q = bits(v.prev);
                    [p[0], p[1], p[2], q[0], q[1], q[2]]
                })
                .collect::<Vec<u32>>()
        };
        let reference = run(SimdMode::Scalar);
        for mode in wide_modes() {
            prop_assert_eq!(run(mode), reference.clone(), "{} diverged", mode.name());
        }
    }
}
