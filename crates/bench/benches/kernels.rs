//! Microbenchmarks of the three vectorized hot kernels — integrator
//! sweep, PGS row projection, cloth relaxation — at every SIMD width the
//! host supports, so the per-kernel speedup over the scalar fallback is
//! directly visible.
//!
//! The PGS group also prints the cost of one row projection (`ns per
//! row-iteration`: a whole solve divided by rows × iterations) on the
//! island shapes the scenes are made of.
//!
//! `cargo bench … -- --quick` shrinks the problem sizes and sample counts
//! to a smoke-test shape (used by `scripts/verify.sh`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use parallax_math::{Mat3, SimdMode, Transform, Vec3};
use parallax_physics::cloth::Cloth;
use parallax_physics::contact::{ContactManifold, ContactPoint};
use parallax_physics::integrator;
use parallax_physics::narrowphase;
use parallax_physics::shape::GeomId;
use parallax_physics::solver::{self, RowParams, RowSet, VelState, STATIC_BODY};
use parallax_physics::{BodyDesc, BodyStore, Shape};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Scalar plus every wide mode this CPU can execute.
fn modes() -> Vec<SimdMode> {
    [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2]
        .into_iter()
        .filter(|m| m.clamp_to_supported() == *m)
        .collect()
}

fn build_store(n: usize) -> BodyStore {
    let mut s = BodyStore::default();
    for i in 0..n {
        let pos = Vec3::new(
            (i % 64) as f32 * 1.2,
            1.0 + (i / 64) as f32 * 1.2,
            (i % 7) as f32 * 0.9,
        );
        let idx = s.push(&BodyDesc::dynamic(pos).with_shape(Shape::sphere(0.5), 1.0));
        s.set_linear_velocity(idx, Vec3::new(0.1, -(i as f32 % 3.0), 0.05));
        s.set_angular_velocity(idx, Vec3::new(0.0, 0.3, 0.1));
    }
    s
}

fn bench_integrator(c: &mut Criterion) {
    let n = if quick() { 512 } else { 4096 };
    let mut group = c.benchmark_group("integrator_sweep");
    if quick() {
        group.sample_size(3);
    }
    for mode in modes() {
        group.bench_with_input(CritId::new(mode.name(), n), &n, |b, &n| {
            let mut s = build_store(n);
            b.iter(|| {
                integrator::apply_forces(&mut s, Vec3::new(0.0, -9.81, 0.0), 0.01, mode);
                integrator::clamp_velocities(&mut s, 50.0, 20.0, mode);
                integrator::integrate(&mut s, 0.01, mode);
            });
        });
    }
    group.finish();
}

/// A contact chain: body i touches body i+1, two friction rows per
/// contact — the shape the per-island solver actually sees.
fn build_rows(n_bodies: usize) -> (RowSet, Vec<VelState>) {
    let store = build_store(n_bodies);
    let vel: Vec<VelState> = (0..n_bodies).map(|i| store.vel_state(i)).collect();
    let mut rows = RowSet::new();
    for i in 0..n_bodies - 1 {
        let mut m = ContactManifold::new(GeomId(i as u32), GeomId(i as u32 + 1));
        m.friction = 0.6;
        m.push(ContactPoint {
            position: store.position(i) + Vec3::new(0.6, 0.0, 0.0),
            normal: Vec3::UNIT_X,
            depth: 0.01,
            feature: 0,
        });
        solver::build_contact_rows(
            &m,
            i as u32,
            i as u32 + 1,
            store.position(i),
            store.position(i + 1),
            &vel,
            &RowParams::default(),
            None,
            &mut rows,
        );
    }
    (rows, vel)
}

/// A heap of unit boxes on the ground as one island: brick-laid layers
/// (an upper box rests on the four lower ones it straddles), every
/// touching pair collided by the real narrow phase. `layers` lists each
/// layer's grid; the pyramid `[(4, 4), (3, 3), (2, 2), (1, 1)]` has the
/// rows and the schedule depth of a mean Explosions island (864 rows in
/// 228 batches, against 860 in 245; 30 bodies against 45): many rows per
/// body, so the level schedule is deep and its batches are short.
/// `[(1, 1)]` is one body resting on the ground.
fn build_pile(layers: &[(usize, usize)]) -> (RowSet, Vec<VelState>) {
    let half = Vec3::splat(0.5);
    // Layers sink 1 cm into each other; boxes of one layer stand apart.
    let (rise, pitch) = (0.99, 1.04);
    let mut centres = Vec::new();
    for (layer, &(nx, nz)) in layers.iter().enumerate() {
        for ix in 0..nx {
            for iz in 0..nz {
                centres.push(Vec3::new(
                    (ix as f32 - (nx - 1) as f32 * 0.5) * pitch,
                    0.49 + layer as f32 * rise,
                    (iz as f32 - (nz - 1) as f32 * 0.5) * pitch,
                ));
            }
        }
    }
    let vel: Vec<VelState> = (0..centres.len())
        .map(|i| VelState {
            lin: Vec3::new(0.02 * (i % 5) as f32 - 0.04, -0.0981, 0.01 * (i % 3) as f32),
            ang: Vec3::new(0.01 * (i % 4) as f32, 0.0, -0.01 * (i % 7) as f32),
            inv_mass: 1.0,
            inv_inertia: Mat3::from_diagonal(Vec3::splat(6.0)),
        })
        .collect();
    let cube = Shape::cuboid(half);
    let ground = Shape::plane(Vec3::UNIT_Y, 0.0);
    let params = RowParams::default();
    let mut rows = RowSet::new();
    for (i, &ci) in centres.iter().enumerate() {
        let ti = Transform::from_position(ci);
        let gi = GeomId(i as u32 + 1);
        if let Some(m) =
            narrowphase::collide_with_ids(gi, &cube, &ti, GeomId(0), &ground, &Transform::IDENTITY)
        {
            solver::build_contact_rows(
                &m,
                i as u32,
                STATIC_BODY,
                ci,
                Vec3::ZERO,
                &vel,
                &params,
                None,
                &mut rows,
            );
        }
        for (j, &cj) in centres.iter().enumerate().skip(i + 1) {
            let tj = Transform::from_position(cj);
            let gj = GeomId(j as u32 + 1);
            if let Some(m) = narrowphase::collide_with_ids(gi, &cube, &ti, gj, &cube, &tj) {
                solver::build_contact_rows(
                    &m, i as u32, j as u32, ci, cj, &vel, &params, None, &mut rows,
                );
            }
        }
    }
    (rows, vel)
}

/// Times whole 20-iteration solves of one island and prints the cost per
/// row-iteration — the number the island-processing budget is made of.
fn report_row_iteration(label: &str, rows: &RowSet, vel: &[VelState], mode: SimdMode) {
    const ITERATIONS: usize = 20;
    let reps = if quick() { 20 } else { 2000 };
    let mut batches = 0;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..reps {
            let mut r = rows.clone();
            let mut v = vel.to_vec();
            batches = black_box(solver::solve(&mut r, &mut v, ITERATIONS, mode)).batches;
        }
        best = best.min(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    println!(
        "bench: solver_projection/{label}/{} ({} bodies, {} rows, {batches} batches) \
         {:6.2} ns per row-iteration",
        mode.name(),
        vel.len(),
        rows.len(),
        best / (rows.len() * ITERATIONS) as f64,
    );
}

fn bench_solver(c: &mut Criterion) {
    let n = if quick() { 64 } else { 512 };
    let mut group = c.benchmark_group("solver_projection");
    if quick() {
        group.sample_size(3);
    }
    let (rows, vel) = build_rows(n);
    for mode in modes() {
        // Avx2 dispatches to the same packed 4-row batch kernel as Sse2
        // (the row packing is 4-wide; there is no 8-lane shape here).
        // Note the chain topology here is the batcher's worst case —
        // every row conflicts with its neighbours — so this measures
        // the packed path's overhead floor, not its win.
        if mode == SimdMode::Avx2 {
            continue;
        }
        group.bench_with_input(CritId::new(mode.name(), rows.len()), &rows, |b, rows| {
            b.iter(|| {
                let mut r = rows.clone();
                let mut v = vel.clone();
                solver::solve(&mut r, &mut v, 10, mode)
            });
        });
    }
    group.finish();

    let pile = build_pile(&[(4, 4), (3, 3), (2, 2), (1, 1)]);
    let resting = build_pile(&[(1, 1)]);
    for mode in [SimdMode::Scalar, SimdMode::Sse2] {
        report_row_iteration("pile", &pile.0, &pile.1, mode);
        report_row_iteration("resting_box", &resting.0, &resting.1, mode);
    }
}

fn bench_cloth(c: &mut Criterion) {
    let side = if quick() { 16 } else { 40 };
    let mut group = c.benchmark_group("cloth_step");
    if quick() {
        group.sample_size(3);
    }
    for mode in modes() {
        group.bench_with_input(CritId::new(mode.name(), side * side), &side, |b, &side| {
            let mut cloth = Cloth::rectangle(
                Vec3::new(-1.0, 2.0, -1.0),
                2.0,
                2.0,
                side,
                side,
                &[0, side - 1],
            );
            b.iter(|| cloth.step(Vec3::new(0.0, -9.81, 0.0), 0.01, &[], mode));
        });
    }
    group.finish();
}

criterion_group!(kernels, bench_integrator, bench_solver, bench_cloth);
criterion_main!(kernels);
