//! Semi-implicit Euler integration of rigid-body state as SIMD sweeps.
//!
//! Each integration pass is written **once** as a width-generic kernel
//! over [`WideF32`] and instantiated at `f32` (the scalar fallback and the
//! remainder loop), [`F32x4`] (SSE2) and [`F32x8`] (AVX2, behind a
//! `#[target_feature]` wrapper on a runtime-detected dispatch path). The
//! kernels replicate the scalar expression trees of the old per-body
//! integrator exactly — same association, no FMA, conditionals as
//! bitwise `select` — so every instantiation produces bit-identical state
//! (see DESIGN.md §10).

use parallax_math::simd::{SimdMode, WideF32};
use parallax_math::Vec3;

#[cfg(target_arch = "x86_64")]
use parallax_math::simd::{F32x4, F32x8};

use crate::store::BodyStore;

/// Applies accumulated forces to velocities (the "apply forces" step).
///
/// `gravity` is added as an acceleration; accumulated force/torque are
/// consumed and cleared for every body (movable or not), matching the old
/// per-body code.
pub fn apply_forces(store: &mut BodyStore, gravity: Vec3, dt: f32, mode: SimdMode) {
    store.refresh_movable_mask();
    let mode = mode.clamp_to_supported();
    #[cfg(target_arch = "x86_64")]
    match mode {
        SimdMode::Scalar => apply_forces_sweep::<f32>(store, gravity, dt),
        SimdMode::Sse2 => apply_forces_sweep::<F32x4>(store, gravity, dt),
        // SAFETY: `clamp_to_supported` above verified AVX2 via
        // `is_x86_feature_detected!`, so executing AVX2 code is sound.
        SimdMode::Avx2 => unsafe { apply_forces_avx2(store, gravity, dt) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = mode;
        apply_forces_sweep::<f32>(store, gravity, dt);
    }
}

/// Integrates position/orientation from velocity, applies damping and
/// refreshes the world-space inverse inertia.
pub fn integrate(store: &mut BodyStore, dt: f32, mode: SimdMode) {
    store.refresh_movable_mask();
    let mode = mode.clamp_to_supported();
    #[cfg(target_arch = "x86_64")]
    match mode {
        SimdMode::Scalar => integrate_sweep::<f32>(store, dt),
        SimdMode::Sse2 => integrate_sweep::<F32x4>(store, dt),
        // SAFETY: `clamp_to_supported` above verified AVX2 via
        // `is_x86_feature_detected!`, so executing AVX2 code is sound.
        SimdMode::Avx2 => unsafe { integrate_avx2(store, dt) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = mode;
        integrate_sweep::<f32>(store, dt);
    }
}

/// Caps runaway velocities to keep explosions numerically stable.
///
/// Like the old per-body code this has no static/disabled guard — static
/// bodies carry zero velocity, so the clamp is a no-op for them.
pub fn clamp_velocities(store: &mut BodyStore, max_lin: f32, max_ang: f32, mode: SimdMode) {
    let mode = mode.clamp_to_supported();
    #[cfg(target_arch = "x86_64")]
    match mode {
        SimdMode::Scalar => clamp_sweep::<f32>(store, max_lin, max_ang),
        SimdMode::Sse2 => clamp_sweep::<F32x4>(store, max_lin, max_ang),
        // SAFETY: `clamp_to_supported` above verified AVX2 via
        // `is_x86_feature_detected!`, so executing AVX2 code is sound.
        SimdMode::Avx2 => unsafe { clamp_avx2(store, max_lin, max_ang) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = mode;
        clamp_sweep::<f32>(store, max_lin, max_ang);
    }
}

// --- AVX2 wrappers -------------------------------------------------------
//
// `#[target_feature(enable = "avx2")]` recompiles the inlined generic
// sweep as AVX2 code; the functions are `unsafe` because calling them on a
// CPU without AVX2 would be undefined behaviour. All call sites sit behind
// `SimdMode::clamp_to_supported`.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_forces_avx2(store: &mut BodyStore, gravity: Vec3, dt: f32) {
    apply_forces_sweep::<F32x8>(store, gravity, dt);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn integrate_avx2(store: &mut BodyStore, dt: f32) {
    integrate_sweep::<F32x8>(store, dt);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn clamp_avx2(store: &mut BodyStore, max_lin: f32, max_ang: f32) {
    clamp_sweep::<F32x8>(store, max_lin, max_ang);
}

// --- width-generic sweeps ------------------------------------------------

/// Runs `W`-wide chunks over the full body range, finishing the remainder
/// (`len % LANES` bodies) with the one-lane `f32` instantiation of the
/// *same* chunk kernel, so remainder lanes take the identical data path.
macro_rules! sweep {
    ($store:expr, $chunk:ident::<$w:ty>($($arg:expr),*)) => {{
        let n = $store.len();
        let main = n - n % <$w as WideF32>::LANES;
        let mut i = 0;
        while i < main {
            $chunk::<$w>($store, i, $($arg),*);
            i += <$w as WideF32>::LANES;
        }
        while i < n {
            $chunk::<f32>($store, i, $($arg),*);
            i += 1;
        }
    }};
}

#[inline(always)]
fn apply_forces_sweep<W: WideF32>(store: &mut BodyStore, gravity: Vec3, dt: f32) {
    sweep!(store, apply_forces_chunk::<W>(gravity, dt));
}

#[inline(always)]
fn integrate_sweep<W: WideF32>(store: &mut BodyStore, dt: f32) {
    sweep!(store, integrate_chunk::<W>(dt));
}

#[inline(always)]
fn clamp_sweep<W: WideF32>(store: &mut BodyStore, max_lin: f32, max_ang: f32) {
    sweep!(store, clamp_chunk::<W>(max_lin, max_ang));
}

/// One `W`-wide chunk of the apply-forces pass, starting at body `i`.
///
/// Scalar reference (old `RigidBody` path):
/// ```text
/// if static/disabled { force = torque = 0; return }
/// lin_vel += (gravity + force * inv_mass) * dt
/// ang_vel += inv_inertia_world * torque * dt
/// force = torque = 0
/// ```
#[inline(always)]
fn apply_forces_chunk<W: WideF32>(s: &mut BodyStore, i: usize, gravity: Vec3, dt: f32) {
    let m = W::load(&s.movable_mask, i);
    let dtv = W::splat(dt);
    let im = W::load(&s.inv_mass, i);

    let lx = W::load(&s.lin_vel.x, i);
    let ly = W::load(&s.lin_vel.y, i);
    let lz = W::load(&s.lin_vel.z, i);
    let nlx = lx + (W::splat(gravity.x) + W::load(&s.force.x, i) * im) * dtv;
    let nly = ly + (W::splat(gravity.y) + W::load(&s.force.y, i) * im) * dtv;
    let nlz = lz + (W::splat(gravity.z) + W::load(&s.force.z, i) * im) * dtv;
    W::select(m, nlx, lx).store(&mut s.lin_vel.x, i);
    W::select(m, nly, ly).store(&mut s.lin_vel.y, i);
    W::select(m, nlz, lz).store(&mut s.lin_vel.z, i);

    let tx = W::load(&s.torque.x, i);
    let ty = W::load(&s.torque.y, i);
    let tz = W::load(&s.torque.z, i);
    let w = &s.inv_inertia_world.e;
    // (inv_inertia_world * torque) * dt, row dot with Vec3::dot association.
    let dx = ((W::load(&w[0], i) * tx + W::load(&w[1], i) * ty) + W::load(&w[2], i) * tz) * dtv;
    let dy = ((W::load(&w[3], i) * tx + W::load(&w[4], i) * ty) + W::load(&w[5], i) * tz) * dtv;
    let dz = ((W::load(&w[6], i) * tx + W::load(&w[7], i) * ty) + W::load(&w[8], i) * tz) * dtv;
    let ax = W::load(&s.ang_vel.x, i);
    let ay = W::load(&s.ang_vel.y, i);
    let az = W::load(&s.ang_vel.z, i);
    W::select(m, ax + dx, ax).store(&mut s.ang_vel.x, i);
    W::select(m, ay + dy, ay).store(&mut s.ang_vel.y, i);
    W::select(m, az + dz, az).store(&mut s.ang_vel.z, i);

    // Accumulators are consumed unconditionally (also for static bodies).
    let zero = W::splat(0.0);
    zero.store(&mut s.force.x, i);
    zero.store(&mut s.force.y, i);
    zero.store(&mut s.force.z, i);
    zero.store(&mut s.torque.x, i);
    zero.store(&mut s.torque.y, i);
    zero.store(&mut s.torque.z, i);
}

/// One `W`-wide chunk of the damping + position/orientation integration
/// pass, including the world-inertia refresh.
///
/// Scalar reference:
/// ```text
/// if static/disabled { return }
/// lin_vel *= exp(-linear_damping * dt); ang_vel *= exp(-angular_damping * dt)
/// pos += lin_vel * dt
/// rot = rot.integrate(ang_vel, dt)   // q' = normalize(q + dt/2 (0,ω)⊗q)
/// inv_inertia_world = r * inv_inertia_local * rᵀ
/// ```
#[inline(always)]
fn integrate_chunk<W: WideF32>(s: &mut BodyStore, i: usize, dt: f32) {
    let m = W::load(&s.movable_mask, i);
    let dtv = W::splat(dt);

    // Damping as exponential decay; exp is the scalar libm call per lane
    // at every width (see WideF32::exp).
    let lin_scale = (-(W::load(&s.linear_damping, i)) * dtv).exp();
    let ang_scale = (-(W::load(&s.angular_damping, i)) * dtv).exp();

    let lx = W::load(&s.lin_vel.x, i);
    let ly = W::load(&s.lin_vel.y, i);
    let lz = W::load(&s.lin_vel.z, i);
    let vlx = W::select(m, lx * lin_scale, lx);
    let vly = W::select(m, ly * lin_scale, ly);
    let vlz = W::select(m, lz * lin_scale, lz);
    vlx.store(&mut s.lin_vel.x, i);
    vly.store(&mut s.lin_vel.y, i);
    vlz.store(&mut s.lin_vel.z, i);

    let ax = W::load(&s.ang_vel.x, i);
    let ay = W::load(&s.ang_vel.y, i);
    let az = W::load(&s.ang_vel.z, i);
    let vax = W::select(m, ax * ang_scale, ax);
    let vay = W::select(m, ay * ang_scale, ay);
    let vaz = W::select(m, az * ang_scale, az);
    vax.store(&mut s.ang_vel.x, i);
    vay.store(&mut s.ang_vel.y, i);
    vaz.store(&mut s.ang_vel.z, i);

    // pos += lin_vel * dt (with the damped velocity, as in the scalar path;
    // non-movable lanes are select-discarded).
    let px = W::load(&s.pos.x, i);
    let py = W::load(&s.pos.y, i);
    let pz = W::load(&s.pos.z, i);
    W::select(m, px + vlx * dtv, px).store(&mut s.pos.x, i);
    W::select(m, py + vly * dtv, py).store(&mut s.pos.y, i);
    W::select(m, pz + vlz * dtv, pz).store(&mut s.pos.z, i);

    // rot = rot.integrate(ang_vel, dt): dq = (0, ω) ⊗ q with the Hamilton
    // expansion of Quat::mul, keeping the literal 0·q terms so signed
    // zeros match the scalar path bit-for-bit.
    let qw = W::load(&s.rot.w, i);
    let qx = W::load(&s.rot.x, i);
    let qy = W::load(&s.rot.y, i);
    let qz = W::load(&s.rot.z, i);
    let zero = W::splat(0.0);
    let dqw = ((zero * qw - vax * qx) - vay * qy) - vaz * qz;
    let dqx = ((zero * qx + vax * qw) + vay * qz) - vaz * qy;
    let dqy = ((zero * qy - vax * qz) + vay * qw) + vaz * qx;
    let dqz = ((zero * qz + vax * qy) - vay * qx) + vaz * qw;
    let half_dt = W::splat(0.5 * dt);
    let uw = qw + dqw * half_dt;
    let ux = qx + dqx * half_dt;
    let uy = qy + dqy * half_dt;
    let uz = qz + dqz * half_dt;
    // normalized(): n = sqrt(w² + x² + y² + z²); fall back to identity
    // when n ≤ 1e-12 (Quat::normalized's guard).
    let n = (((uw * uw + ux * ux) + uy * uy) + uz * uz).sqrt();
    let ok = n.gt(W::splat(1e-12));
    let nw = W::select(ok, uw / n, W::splat(1.0));
    let nx = W::select(ok, ux / n, zero);
    let ny = W::select(ok, uy / n, zero);
    let nz = W::select(ok, uz / n, zero);
    let ow = W::select(m, nw, qw);
    let ox = W::select(m, nx, qx);
    let oy = W::select(m, ny, qy);
    let oz = W::select(m, nz, qz);
    ow.store(&mut s.rot.w, i);
    ox.store(&mut s.rot.x, i);
    oy.store(&mut s.rot.y, i);
    oz.store(&mut s.rot.z, i);

    // refresh_inertia(): world = r * local * rᵀ with r = rot.to_mat3(),
    // replicating Quat::to_mat3 and the two Mat3 products element-wise.
    let two = W::splat(2.0);
    let one = W::splat(1.0);
    let r = [
        one - two * (oy * oy + oz * oz),
        two * (ox * oy - ow * oz),
        two * (ox * oz + ow * oy),
        two * (ox * oy + ow * oz),
        one - two * (ox * ox + oz * oz),
        two * (oy * oz - ow * ox),
        two * (ox * oz - ow * oy),
        two * (oy * oz + ow * ox),
        one - two * (ox * ox + oy * oy),
    ];
    let l: [W; 9] = std::array::from_fn(|k| W::load(&s.inv_inertia_local.e[k], i));
    // m1 = r * local
    let mut m1 = [zero; 9];
    for row in 0..3 {
        for col in 0..3 {
            m1[3 * row + col] =
                (r[3 * row] * l[col] + r[3 * row + 1] * l[3 + col]) + r[3 * row + 2] * l[6 + col];
        }
    }
    // world = m1 * rᵀ: world[row][col] = m1.rows[row] · r.rows[col]
    for row in 0..3 {
        for col in 0..3 {
            let w = (m1[3 * row] * r[3 * col] + m1[3 * row + 1] * r[3 * col + 1])
                + m1[3 * row + 2] * r[3 * col + 2];
            let old = W::load(&s.inv_inertia_world.e[3 * row + col], i);
            W::select(m, w, old).store(&mut s.inv_inertia_world.e[3 * row + col], i);
        }
    }
}

/// One `W`-wide chunk of the velocity clamp.
///
/// Scalar reference: `if |v| > max { v *= max / |v| }`, separately for
/// linear and angular velocity. The division in masked-off lanes produces
/// garbage (`inf`/NaN for zero velocities) that `select` discards
/// bitwise without inspecting it.
#[inline(always)]
fn clamp_chunk<W: WideF32>(s: &mut BodyStore, i: usize, max_lin: f32, max_ang: f32) {
    let lx = W::load(&s.lin_vel.x, i);
    let ly = W::load(&s.lin_vel.y, i);
    let lz = W::load(&s.lin_vel.z, i);
    let ll = ((lx * lx + ly * ly) + lz * lz).sqrt();
    let lmax = W::splat(max_lin);
    let lover = ll.gt(lmax);
    let lscale = lmax / ll;
    W::select(lover, lx * lscale, lx).store(&mut s.lin_vel.x, i);
    W::select(lover, ly * lscale, ly).store(&mut s.lin_vel.y, i);
    W::select(lover, lz * lscale, lz).store(&mut s.lin_vel.z, i);

    let ax = W::load(&s.ang_vel.x, i);
    let ay = W::load(&s.ang_vel.y, i);
    let az = W::load(&s.ang_vel.z, i);
    let al = ((ax * ax + ay * ay) + az * az).sqrt();
    let amax = W::splat(max_ang);
    let aover = al.gt(amax);
    let ascale = amax / al;
    W::select(aover, ax * ascale, ax).store(&mut s.ang_vel.x, i);
    W::select(aover, ay * ascale, ay).store(&mut s.ang_vel.y, i);
    W::select(aover, az * ascale, az).store(&mut s.ang_vel.z, i);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyDesc;
    use crate::shape::Shape;

    fn unit_ball(pos: Vec3) -> BodyStore {
        let mut s = BodyStore::default();
        s.push(
            &BodyDesc::dynamic(pos)
                .with_shape(Shape::sphere(0.5), 1.0)
                .with_damping(0.0, 0.0),
        );
        s
    }

    #[test]
    fn gravity_accelerates() {
        let mut s = unit_ball(Vec3::ZERO);
        apply_forces(&mut s, Vec3::new(0.0, -10.0, 0.0), 0.1, SimdMode::Scalar);
        assert!((s.linear_velocity(0).y + 1.0).abs() < 1e-6);
    }

    #[test]
    fn forces_are_consumed() {
        let mut s = unit_ball(Vec3::ZERO);
        s.add_force(0, Vec3::new(10.0, 0.0, 0.0));
        apply_forces(&mut s, Vec3::ZERO, 0.1, SimdMode::Scalar);
        assert!((s.linear_velocity(0).x - 1.0).abs() < 1e-6);
        // Second step without new force: no further acceleration.
        apply_forces(&mut s, Vec3::ZERO, 0.1, SimdMode::Scalar);
        assert!((s.linear_velocity(0).x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn static_bodies_ignore_forces() {
        let mut s = BodyStore::default();
        s.push(&BodyDesc::fixed(Vec3::ZERO).with_shape(Shape::sphere(0.5), 1.0));
        s.add_force(0, Vec3::new(10.0, 0.0, 0.0));
        apply_forces(&mut s, Vec3::new(0.0, -10.0, 0.0), 0.1, SimdMode::Scalar);
        integrate(&mut s, 0.1, SimdMode::Scalar);
        assert_eq!(s.position(0), Vec3::ZERO);
        assert_eq!(s.linear_velocity(0), Vec3::ZERO);
        // Accumulated force was still consumed.
        assert_eq!(s.force.get(0), Vec3::ZERO);
    }

    #[test]
    fn ballistic_trajectory() {
        // x(t) = v0 t, y(t) ≈ -g t²/2 under semi-implicit Euler.
        let mut s = unit_ball(Vec3::ZERO);
        s.set_linear_velocity(0, Vec3::new(1.0, 0.0, 0.0));
        let dt = 0.001;
        for _ in 0..1000 {
            apply_forces(&mut s, Vec3::new(0.0, -10.0, 0.0), dt, SimdMode::Scalar);
            integrate(&mut s, dt, SimdMode::Scalar);
        }
        let p = s.position(0);
        assert!((p.x - 1.0).abs() < 1e-2, "x = {}", p.x);
        assert!((p.y + 5.0).abs() < 0.05, "y = {}", p.y);
    }

    #[test]
    fn velocity_clamp() {
        let mut s = unit_ball(Vec3::ZERO);
        s.set_linear_velocity(0, Vec3::new(1000.0, 0.0, 0.0));
        s.set_angular_velocity(0, Vec3::new(0.0, 500.0, 0.0));
        clamp_velocities(&mut s, 50.0, 20.0, SimdMode::Scalar);
        assert!((s.linear_velocity(0).length() - 50.0).abs() < 1e-3);
        assert!((s.angular_velocity(0).length() - 20.0).abs() < 1e-3);
    }

    #[test]
    fn heavy_damping_decays_smoothly_not_to_zero() {
        // With damping·dt ≥ 1 the old (1 − c·dt) clamp froze the body in
        // one step; exponential decay must leave e^(−c·dt) of the
        // velocity instead.
        let mut s = unit_ball(Vec3::ZERO);
        s.linear_damping[0] = 150.0;
        s.set_linear_velocity(0, Vec3::new(8.0, 0.0, 0.0));
        integrate(&mut s, 0.01, SimdMode::Scalar); // damping·dt = 1.5
        let v = s.linear_velocity(0).x;
        let expected = 8.0 * (-1.5f32).exp();
        assert!(v > 0.0, "velocity must not hit a hard zero");
        assert!((v - expected).abs() < 1e-4, "v = {v}, expected {expected}");
        // Halving the step twice must match one full step (semigroup
        // property of exponential decay) — the linear form fails this.
        let mut two = unit_ball(Vec3::ZERO);
        two.linear_damping[0] = 150.0;
        two.set_linear_velocity(0, Vec3::new(8.0, 0.0, 0.0));
        integrate(&mut two, 0.005, SimdMode::Scalar);
        integrate(&mut two, 0.005, SimdMode::Scalar);
        let v2 = two.linear_velocity(0).x;
        assert!(
            (v2 - expected).abs() < 1e-4,
            "v2 = {v2}, expected {expected}"
        );
    }

    #[test]
    fn angular_damping_slows_spin() {
        let mut s = unit_ball(Vec3::ZERO);
        s.angular_damping[0] = 0.5;
        s.set_angular_velocity(0, Vec3::new(0.0, 10.0, 0.0));
        for _ in 0..100 {
            integrate(&mut s, 0.01, SimdMode::Scalar);
        }
        assert!(s.angular_velocity(0).length() < 10.0 * 0.7);
    }

    /// Mixed static/dynamic population with remainder lanes: every SIMD
    /// mode must produce bit-identical state to the scalar sweep.
    #[test]
    fn simd_sweeps_match_scalar_bitwise() {
        for n in [1usize, 3, 5, 8, 11, 17] {
            let build = |mode: SimdMode| {
                let mut s = BodyStore::default();
                for k in 0..n {
                    let pos = Vec3::new(k as f32 * 0.37, 1.0 + k as f32, -(k as f32) * 0.11);
                    if k % 4 == 3 {
                        s.push(&BodyDesc::fixed(pos).with_shape(Shape::sphere(0.5), 1.0));
                    } else {
                        let mut desc = BodyDesc::dynamic(pos)
                            .with_shape(Shape::cuboid(Vec3::splat(0.3)), 0.5 + k as f32)
                            .with_velocity(Vec3::new(0.1 * k as f32, -0.2, 0.3))
                            .with_damping(0.1, 0.02);
                        desc.ang_vel = Vec3::new(0.5, -0.25 * k as f32, 1.0);
                        s.push(&desc);
                    }
                }
                for _ in 0..5 {
                    apply_forces(&mut s, Vec3::new(0.0, -9.81, 0.0), 1.0 / 60.0, mode);
                    clamp_velocities(&mut s, 50.0, 20.0, mode);
                    integrate(&mut s, 1.0 / 60.0, mode);
                }
                s
            };
            let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            let reference = build(SimdMode::Scalar);
            for mode in [SimdMode::Sse2, SimdMode::Avx2] {
                let got = build(mode);
                for i in 0..n {
                    assert_eq!(
                        bits(reference.position(i)),
                        bits(got.position(i)),
                        "pos mismatch at body {i}/{n} in {mode:?}"
                    );
                    assert_eq!(
                        bits(reference.linear_velocity(i)),
                        bits(got.linear_velocity(i)),
                        "lin_vel mismatch at body {i}/{n} in {mode:?}"
                    );
                    assert_eq!(
                        bits(reference.angular_velocity(i)),
                        bits(got.angular_velocity(i)),
                        "ang_vel mismatch at body {i}/{n} in {mode:?}"
                    );
                    let (a, b) = (reference.rotation(i), got.rotation(i));
                    assert_eq!(
                        [a.w.to_bits(), a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                        [b.w.to_bits(), b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                        "rotation mismatch at body {i}/{n} in {mode:?}"
                    );
                }
            }
        }
    }
}
