//! Snapshot round-trip and divergence-bisector integration tests.
//!
//! The flight recorder's correctness rests on two promises:
//!
//! 1. `World::snapshot()` → `World::restore()` is a *bit-identical*
//!    round trip: the restored world has the same state digest and — the
//!    stronger claim — continues along the exact same trajectory, even
//!    when restored into a world running a different executor width or
//!    SIMD mode (those axes are already covered by the determinism
//!    guarantee, so a snapshot must be portable across them).
//! 2. The bisector turns "these two runs differ after N steps" into an
//!    exact step + phase + body range in `O(log N)` re-runs. The test
//!    injects a known single-ULP fault ([`DigestFault`]) and checks the
//!    report names exactly that step and phase.

use parallax_bench::bisect::{bisect, BisectConfig, BisectOutcome};
use parallax_math::Vec3;
use parallax_physics::{
    self as physics, BodyDesc, DigestFault, PhaseKind, Shape, SimdMode, World, WorldConfig,
};
use parallax_workloads::{BenchmarkId, RunConfig};
use proptest::prelude::*;

/// Drops `n` random mixed-shape bodies above a plane, digests enabled.
fn drop_world(seed: u64, n: usize, threads: usize, simd: SimdMode) -> World {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut world = World::new(WorldConfig {
        threads,
        simd,
        digests: true,
        ..WorldConfig::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for _ in 0..n {
        let pos = Vec3::new(
            rng.gen_range(-3.0f32..3.0),
            rng.gen_range(1.0f32..6.0),
            rng.gen_range(-3.0f32..3.0),
        );
        let shape = match rng.gen_range(0u8..3) {
            0 => Shape::sphere(rng.gen_range(0.2f32..0.5)),
            1 => Shape::cuboid(Vec3::splat(rng.gen_range(0.2f32..0.5))),
            _ => Shape::capsule(rng.gen_range(0.15f32..0.3), rng.gen_range(0.1f32..0.4)),
        };
        world.add_body(
            BodyDesc::dynamic(pos)
                .with_shape(shape, rng.gen_range(0.5f32..5.0))
                .with_velocity(Vec3::new(
                    rng.gen_range(-2.0f32..2.0),
                    0.0,
                    rng.gen_range(-2.0f32..2.0),
                )),
        );
    }
    world
}

/// Steps `a` and `b` in lockstep, asserting per-phase digests agree at
/// every step (so a failure names the step and phase, not just "end
/// states differ").
fn step_lockstep(a: &mut World, b: &mut World, steps: usize, label: &str) {
    for step in 0..steps {
        let pa = a.step();
        let pb = b.step();
        let da = pa.digests.expect("digests enabled");
        let db = pb.digests.expect("digests enabled");
        for (phase, (x, y)) in PhaseKind::ALL.iter().zip(da.iter().zip(db.iter())) {
            assert_eq!(
                x,
                y,
                "{label}: divergence {step} steps after restore, phase {}",
                phase.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mid-run snapshot → restore into a freshly built identical world
    /// is bit-identical, and the restored world continues along the
    /// exact same trajectory.
    #[test]
    fn snapshot_roundtrip_is_bit_identical(seed in 0u64..500, warm in 5usize..40) {
        let mut original = drop_world(seed, 10, 1, SimdMode::Scalar);
        for _ in 0..warm {
            original.step();
        }
        let bytes = original.snapshot();
        let mut restored = drop_world(seed, 10, 1, SimdMode::Scalar);
        restored.restore(&bytes).expect("restore");
        prop_assert_eq!(
            physics::world_digest(&original),
            physics::world_digest(&restored),
            "restored world digest differs immediately after restore"
        );
        prop_assert_eq!(original.step_count(), restored.step_count());
        step_lockstep(&mut original, &mut restored, 12, "roundtrip");
        prop_assert_eq!(
            physics::world_digest(&original),
            physics::world_digest(&restored)
        );
    }
}

/// A snapshot taken on a serial scalar world restores into worlds
/// running any executor width and SIMD mode, and every one continues
/// bit-identically — snapshots are portable across the determinism axes.
#[test]
fn snapshot_is_portable_across_threads_and_simd() {
    let mut source = drop_world(7, 12, 1, SimdMode::Scalar);
    for _ in 0..20 {
        source.step();
    }
    let bytes = source.snapshot();
    for simd in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
        if simd.clamp_to_supported() != simd {
            continue; // CPU cannot execute this width.
        }
        for threads in [1, 2, 8] {
            let mut reference = drop_world(7, 12, 1, SimdMode::Scalar);
            reference.restore(&bytes).expect("restore reference");
            let mut target = drop_world(7, 12, threads, simd);
            target.restore(&bytes).expect("restore target");
            assert_eq!(
                physics::world_digest(&reference),
                physics::world_digest(&target),
                "digest differs after restore (threads = {threads}, simd = {})",
                simd.name()
            );
            step_lockstep(
                &mut reference,
                &mut target,
                15,
                &format!("threads = {threads}, simd = {}", simd.name()),
            );
        }
    }
}

/// The acceptance test for the bisector: inject a single-ULP fault into
/// side B at a known step and phase, and require the report to localize
/// it to exactly that step and phase (with a body range covering the
/// perturbed body) in `O(log steps)` run segments.
#[test]
fn bisect_localizes_injected_fault_to_exact_step_and_phase() {
    let fault = DigestFault {
        step: 23,
        phase: PhaseKind::Narrowphase,
    };
    let cfg = BisectConfig {
        scene: BenchmarkId::Mix,
        steps: 64,
        scale: 0.1,
        a: RunConfig::parse("threads=1,simd=scalar").expect("spec"),
        b: RunConfig::parse("threads=2,simd=scalar").expect("spec"),
        fault: Some(fault),
        chunk: 32,
    };
    match bisect(&cfg, &mut |_| {}) {
        BisectOutcome::Clean { .. } => panic!("injected fault was not detected"),
        BisectOutcome::Diverged(report) => {
            assert_eq!(report.step, fault.step, "wrong step: {}", report.summary());
            assert_eq!(
                report.phase,
                Some(fault.phase),
                "wrong phase: {}",
                report.summary()
            );
            let (lo, hi) = report
                .body_range
                .expect("fault perturbs body 0, so a divergent chunk must exist");
            assert!(
                lo == 0 && hi > 0,
                "body range {lo}..{hi} does not cover perturbed body 0"
            );
            let lane = report.lane.expect("a first divergent lane must exist");
            assert_eq!(
                lane.a_bits ^ lane.b_bits,
                1,
                "fault flips exactly one ULP, lane {} differs by more",
                lane.location
            );
            // 1 full run + ceil(log2(64)) = 6 probes, plus slack for the
            // re-checkpoint pattern.
            assert!(
                report.runs <= 8,
                "bisection took {} run segments for a 64-step horizon",
                report.runs
            );
        }
    }
}
