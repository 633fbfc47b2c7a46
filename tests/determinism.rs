//! Cross-thread determinism: the pipeline's parallel stages must produce
//! bit-identical simulations for any executor width.
//!
//! The executor writes every result by item index and the island
//! work-queue partition is derived from island order, not thread timing,
//! so a scene stepped with 1, 2 or 8 threads must agree exactly — both in
//! the simulated state (body positions, velocities) and in the derived
//! step-trace instruction counts the architecture model consumes.
//!
//! The contact cache used for solver warm starting is itself updated in
//! island order on the caller thread, so the guarantee holds with warm
//! starting on (the default) or off. The same contract extends to the
//! SIMD kernels — every `SimdMode` must produce bit-identical runs, at
//! every thread count — and to island sleeping: all sleep/wake decisions
//! run on the serial phases in body-index order, so a sleeping-enabled
//! run must also be bit-identical across thread counts and SIMD modes.
//!
//! Every test therefore runs under each point of [`MATRIX`] — the
//! default, the cold solver, the scalar kernels, the sleeping fast path —
//! and the two grid tests pin the SIMD × threads cross-product explicitly
//! on top of each point (and that bodies actually sleep).

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, PhaseKind, Shape, SimdMode, World};
use parallax_trace::StepTrace;
use parallax_workloads::{BenchmarkId, RunConfig, Scene};

const STEPS: usize = 100;

/// The configurations every test runs under, as `RunConfig` specs on top
/// of the default: the default itself, warm starting off (the cold solver
/// path), the scalar kernels (the default is the widest SIMD the host
/// executes) and island sleeping on.
const MATRIX: [&str; 4] = ["", "warm=off", "simd=scalar", "sleep=on"];

/// The points of [`MATRIX`], digests on, with `fix` applied to each and
/// duplicates dropped: a test that sweeps an axis itself pins it here, and
/// a point that differed only in that axis would repeat another.
fn matrix(fix: impl Fn(&mut RunConfig)) -> Vec<RunConfig> {
    let mut points: Vec<RunConfig> = Vec::new();
    for spec in MATRIX {
        let mut run = RunConfig::parse(spec).expect("spec");
        run.digest = true;
        fix(&mut run);
        if !points.contains(&run) {
            points.push(run);
        }
    }
    points
}

/// First step whose per-phase digests differ, with the first divergent
/// phase's display name — so a determinism failure reads "step 37,
/// Island Parallel", not "some array differed".
fn first_digest_divergence(a: &[[u64; 5]], b: &[[u64; 5]]) -> Option<(usize, &'static str)> {
    a.iter().zip(b).enumerate().find_map(|(step, (da, db))| {
        PhaseKind::ALL
            .iter()
            .zip(da.iter().zip(db.iter()))
            .find(|(_, (x, y))| x != y)
            .map(|(p, _)| (step, p.name()))
    })
}

/// Asserts two runs match bit-for-bit, naming the first divergent step
/// and phase when they do not.
#[track_caller]
fn assert_identical(baseline: &RunRecord, run: &RunRecord, label: &str) {
    if let Some((step, phase)) = first_digest_divergence(&baseline.digests, &run.digests) {
        panic!("{label}: first divergence at step {step}, phase {phase}");
    }
    assert!(
        run == baseline,
        "{label}: end state diverged with identical per-step digests"
    );
}

/// Bit-exact snapshot of the dynamic state plus per-step trace counts.
#[derive(PartialEq, Debug)]
struct RunRecord {
    /// Per-step per-phase state digests (the flight recorder's
    /// fingerprints) — compared first, so a failure names the exact step
    /// and phase where two runs part ways.
    digests: Vec<[u64; 5]>,
    /// (position, linear velocity) bit patterns for every body at the end.
    body_state: Vec<[u32; 6]>,
    /// Cloth vertex position bit patterns at the end.
    cloth_state: Vec<[u32; 3]>,
    /// Per-step total step-trace instructions.
    instructions: Vec<u64>,
    /// Per-step entity counts (pairs, islands, contacts).
    work: Vec<(usize, usize, usize)>,
}

fn bits(v: Vec3) -> [u32; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

fn record(world: &mut World, steps: usize) -> RunRecord {
    record_driven(world, steps, |_, _| {})
}

/// Records `steps` steps, calling `drive(world, step)` before each one (a
/// scene's scripted actors).
fn record_driven(
    world: &mut World,
    steps: usize,
    mut drive: impl FnMut(&mut World, u64),
) -> RunRecord {
    let mut digests = Vec::with_capacity(steps);
    let mut instructions = Vec::with_capacity(steps);
    let mut work = Vec::with_capacity(steps);
    for _ in 0..steps {
        drive(world, world.step_count());
        let p = world.step();
        digests.push(p.digests.expect("digests enabled in test worlds"));
        instructions.push(StepTrace::from_profile(&p).total_instructions());
        work.push((p.pairs.len(), p.islands.len(), p.total_contacts()));
    }
    let body_state = world
        .bodies()
        .iter()
        .map(|b| {
            let [px, py, pz] = bits(b.position());
            let [vx, vy, vz] = bits(b.linear_velocity());
            [px, py, pz, vx, vy, vz]
        })
        .collect();
    let cloth_state = world
        .cloths()
        .iter()
        .flat_map(|c| c.vertices().iter().map(|v| bits(v.pos)))
        .collect();
    RunRecord {
        digests,
        body_state,
        cloth_state,
        instructions,
        work,
    }
}

/// A dense hand-built scene touching every parallel phase: stacked boxes
/// (islands above the queue threshold), loose spheres (small islands) and
/// a cloth sheet.
fn build_dense_world(run: RunConfig) -> World {
    let mut w = World::new(run.scene_params(1.0, 0).world_config());
    w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for s in 0..4 {
        for i in 0..4 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(s as f32 * 2.0 - 3.0, 0.5 + i as f32 * 1.001, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
    }
    for i in 0..6 {
        w.add_body(
            BodyDesc::dynamic(Vec3::new(i as f32 * 1.5 - 4.0, 0.5, 4.0))
                .with_shape(Shape::sphere(0.5), 1.0),
        );
    }
    w.add_cloth(parallax_physics::Cloth::rectangle(
        Vec3::new(-1.0, 3.0, -1.0),
        2.0,
        2.0,
        8,
        8,
        &[],
    ));
    w
}

#[test]
fn dense_world_is_bit_identical_across_thread_counts() {
    for run in matrix(|_| {}) {
        let baseline = record(&mut build_dense_world(run), STEPS);
        assert!(baseline.instructions.iter().all(|&i| i > 0));
        for threads in [2, 8] {
            let r = record(&mut build_dense_world(RunConfig { threads, ..run }), STEPS);
            assert_identical(&baseline, &r, &format!("{run}, threads = {threads}"));
        }
    }
}

#[test]
fn mix_scene_is_bit_identical_across_thread_counts() {
    // The Mix scene exercises explosions, fracture, breakables and cloth
    // on top of plain stacks — the full pipeline.
    let record_mix = |run: RunConfig| {
        let Scene {
            mut world,
            mut actors,
            ..
        } = run.build(BenchmarkId::Mix, 0.1);
        record_driven(&mut world, STEPS, |w, step| actors.update(w, step))
    };
    for run in matrix(|_| {}) {
        let baseline = record_mix(run);
        for threads in [2, 8] {
            let r = record_mix(RunConfig { threads, ..run });
            assert_identical(&baseline, &r, &format!("{run}, threads = {threads}"));
        }
    }
}

/// Every SIMD mode this CPU executes × {1, 2, 8} threads on top of `base`.
fn simd_threads_grid(base: RunConfig) -> impl Iterator<Item = RunConfig> {
    [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2]
        .into_iter()
        .filter(|simd| simd.clamp_to_supported() == *simd)
        .flat_map(move |simd| {
            [1, 2, 8].map(|threads| RunConfig {
                threads,
                simd,
                ..base
            })
        })
}

#[test]
fn simulation_is_bit_identical_across_simd_modes_and_threads() {
    // The full {scalar, sse2, avx2} × {1, 2, 8} grid must agree with the
    // serial scalar run bit-for-bit — SIMD lanes and the executor width
    // are both pure implementation details of the same trajectory.
    for base in matrix(|run| run.simd = SimdMode::Scalar) {
        let baseline = record(&mut build_dense_world(base), STEPS);
        for run in simd_threads_grid(base) {
            let r = record(&mut build_dense_world(run), STEPS);
            assert_identical(&baseline, &r, &run.to_string());
        }
    }
}

#[test]
fn sleeping_runs_are_bit_identical_across_simd_modes_and_threads() {
    // Sleeping on, long enough for the stacks to deactivate: the sleep
    // timers, island parking and wake passes all run serially in body
    // order, so the grid must still agree bit-for-bit — and bodies must
    // actually fall asleep, or the test proves nothing.
    const SLEEP_STEPS: usize = 200;
    let run_one = |run: RunConfig| {
        let mut w = build_dense_world(run);
        let rec = record(&mut w, SLEEP_STEPS);
        (rec, w.sleeping_body_count())
    };
    let sleeping_scalar = |run: &mut RunConfig| {
        run.simd = SimdMode::Scalar;
        run.sleep = true;
    };
    for base in matrix(sleeping_scalar) {
        let (baseline, slept) = run_one(base);
        assert!(
            slept > 0,
            "{base}: no body fell asleep in {SLEEP_STEPS} steps; the sleeping grid is vacuous"
        );
        for run in simd_threads_grid(base) {
            let (r, r_slept) = run_one(run);
            assert_identical(&baseline, &r, &run.to_string());
            assert_eq!(r_slept, slept, "{run}: sleeping-body count diverged");
        }
    }
}

#[test]
fn thread_count_change_mid_run_stays_deterministic() {
    // Switching the executor width mid-simulation (config_mut) must not
    // perturb the trajectory either.
    for run in matrix(|_| {}) {
        let steady = record(&mut build_dense_world(run), STEPS);
        let switching = record_driven(&mut build_dense_world(run), STEPS, |w, step| match step {
            25 => w.config_mut().threads = 4,
            75 => w.config_mut().threads = 2,
            _ => {}
        });
        assert_identical(&steady, &switching, &format!("{run}, threads 1 -> 4 -> 2"));
    }
}
