//! Property-based tests of the constraint solver.

use parallax_math::{Mat3, SimdMode, Vec3};
use parallax_physics::contact::{ContactManifold, ContactPoint};
use parallax_physics::shape::GeomId;
use parallax_physics::solver::{
    build_contact_rows, solve, RowLimit, RowParams, RowSet, VelState, STATIC_BODY,
};
use proptest::prelude::*;

fn body(vel: Vec3, inv_mass: f32) -> VelState {
    VelState {
        lin: vel,
        ang: Vec3::ZERO,
        inv_mass,
        inv_inertia: Mat3::from_diagonal(Vec3::splat(inv_mass * 2.5)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normal_impulses_are_never_negative(
        vy in -10.0f32..10.0,
        vx in -5.0f32..5.0,
        depth in 0.0f32..0.2,
        friction in 0.0f32..1.5,
    ) {
        let mut vel = vec![body(Vec3::new(vx, vy, 0.0), 1.0)];
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.friction = friction;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(&m, 0, STATIC_BODY, Vec3::ZERO, Vec3::ZERO, &vel, &RowParams::default(), None, &mut rows);
        solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        for i in 0..rows.len() {
            if matches!(rows.rows()[i].limit(), RowLimit::Unilateral) {
                prop_assert!(rows.lambda[i] >= 0.0, "contact pulled: λ = {}", rows.lambda[i]);
            }
        }
        prop_assert!(vel[0].lin.is_finite());
    }

    #[test]
    fn friction_is_bounded_by_coulomb_cone(
        vx in -10.0f32..10.0,
        vz in -10.0f32..10.0,
        mu in 0.0f32..1.2,
    ) {
        let mut vel = vec![body(Vec3::new(vx, -2.0, vz), 1.0)];
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.friction = mu;
        m.restitution = 0.0;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(&m, 0, STATIC_BODY, Vec3::ZERO, Vec3::ZERO, &vel, &RowParams::default(), None, &mut rows);
        solve(&mut rows, &mut vel, 40, SimdMode::Scalar);
        let normal_lambda = (0..rows.len())
            .find(|&i| matches!(rows.rows()[i].limit(), RowLimit::Unilateral))
            .map(|i| rows.lambda[i])
            .unwrap_or(0.0);
        let friction_mag: f32 = (0..rows.len())
            .filter(|&i| matches!(rows.rows()[i].limit(), RowLimit::Friction { .. }))
            .map(|i| rows.lambda[i] * rows.lambda[i])
            .sum::<f32>()
            .sqrt();
        // Box-cone approximation: each friction row bounded by μλn, so the
        // 2-row magnitude is bounded by √2·μλn.
        prop_assert!(
            friction_mag <= mu * normal_lambda * 1.4143 + 1e-4,
            "friction {friction_mag} exceeds cone μλ = {}",
            mu * normal_lambda
        );
    }

    #[test]
    fn solve_is_stable_for_random_equal_mass_pairs(
        va in -5.0f32..5.0,
        vb in -5.0f32..5.0,
        depth in 0.0f32..0.1,
    ) {
        // Two equal bodies colliding along Y: momentum along the normal is
        // conserved by the internal impulse pair.
        let mut vel = vec![
            body(Vec3::new(0.0, va, 0.0), 1.0),
            body(Vec3::new(0.0, vb, 0.0), 1.0),
        ];
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.restitution = 0.0;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth,
            feature: 0,
        });
        let before = vel[0].lin.y + vel[1].lin.y;
        let mut rows = RowSet::new();
        build_contact_rows(&m, 0, 1, Vec3::new(0.0, 0.5, 0.0), Vec3::new(0.0, -0.5, 0.0), &vel, &RowParams { erp: 0.0, ..Default::default() }, None, &mut rows);
        solve(&mut rows, &mut vel, 30, SimdMode::Scalar);
        let after = vel[0].lin.y + vel[1].lin.y;
        prop_assert!(
            (before - after).abs() < 1e-2 * (1.0 + before.abs()),
            "momentum changed: {before} -> {after}"
        );
        // Approach resolved: bodies no longer move toward each other.
        let rel = vel[0].lin.y - vel[1].lin.y;
        prop_assert!(rel > -1e-2, "still approaching at {rel}");
    }

    #[test]
    fn more_iterations_never_diverge(
        vy in -10.0f32..0.0,
        iters in 1usize..60,
    ) {
        let mut vel = vec![body(Vec3::new(0.0, vy, 0.0), 1.0)];
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.restitution = 0.0;
        m.push(ContactPoint { position: Vec3::ZERO, normal: Vec3::UNIT_Y, depth: 0.0, feature: 0 });
        let mut rows = RowSet::new();
        build_contact_rows(&m, 0, STATIC_BODY, Vec3::ZERO, Vec3::ZERO, &vel, &RowParams::default(), None, &mut rows);
        solve(&mut rows, &mut vel, iters, SimdMode::Scalar);
        prop_assert!(vel[0].lin.y.abs() <= vy.abs() + 1e-3, "solver added energy");
        prop_assert!(vel[0].lin.is_finite());
    }
}
