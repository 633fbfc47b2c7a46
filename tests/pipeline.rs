//! End-to-end pipeline tests: physics engine → work profiles → traces →
//! architecture simulator → ParallAX system model.

use parallax::arch::ParallaxSystem;
use parallax::fgcore::FgCoreType;
use parallax_archsim::config::MachineConfig;
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_math::Vec3;
use parallax_physics::pipeline::thread_scratch_bytes;
use parallax_physics::{BodyDesc, PhaseKind, Shape, World, WorldConfig};
use parallax_trace::StepTrace;
use parallax_workloads::{BenchmarkId, RunConfig, SceneParams, SessionWorld};

fn small_params() -> SceneParams {
    SceneParams {
        scale: 0.1,
        ..Default::default()
    }
}

#[test]
fn every_benchmark_builds_and_steps_at_reduced_scale() {
    for id in BenchmarkId::ALL {
        let mut scene = id.build(&small_params());
        let profiles = scene.step_frame();
        assert_eq!(profiles.len(), 3, "{id:?}: a frame is 3 steps");
        for p in &profiles {
            assert!(p.body_count > 0, "{id:?}: bodies exist");
        }
    }
}

#[test]
fn profiles_convert_to_consistent_traces() {
    let mut scene = BenchmarkId::Periodic.build(&small_params());
    let profiles = scene.run_measured(1, 1);
    for p in &profiles {
        let t = StepTrace::from_profile(p);
        // Task counts per phase must match the profile.
        assert_eq!(t.phase(PhaseKind::Narrowphase).tasks.len(), p.pairs.len());
        assert_eq!(
            t.phase(PhaseKind::IslandProcessing).tasks.len(),
            p.islands.len()
        );
        assert_eq!(t.phase(PhaseKind::Cloth).tasks.len(), p.cloths.len());
        // Serial phases are single tasks.
        assert_eq!(t.phase(PhaseKind::Broadphase).tasks.len(), 1);
        assert_eq!(t.phase(PhaseKind::IslandCreation).tasks.len(), 1);
        assert!(t.total_instructions() > 0);
    }
}

#[test]
fn same_seed_reproduces_the_same_workload() {
    let run = || {
        let mut scene = BenchmarkId::Ragdoll.build(&small_params());
        let profiles = scene.run_measured(1, 1);
        profiles
            .iter()
            .map(|p| (p.pairs.len(), p.islands.len(), p.total_contacts()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "scene construction and stepping are deterministic"
    );
}

#[test]
fn simulator_times_a_real_scene_plausibly() {
    let mut world = World::new(WorldConfig::default());
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for i in 0..30 {
        world.add_body(
            BodyDesc::dynamic(Vec3::new((i % 6) as f32, 0.5 + (i / 6) as f32 * 1.05, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
        );
    }
    let mut sim = MulticoreSim::new(MachineConfig::baseline(1, 4), SimOptions::default());
    let mut cycles = 0;
    for _ in 0..10 {
        let p = world.step();
        cycles += sim.run_step(&StepTrace::from_profile(&p)).total();
    }
    let secs = cycles as f64 / 2.0e9;
    // 30 boxes for 10 steps should land between 10 µs and 0.1 s of
    // simulated 2 GHz core time.
    assert!(
        (1e-5..0.1).contains(&secs),
        "implausible simulated time: {secs}"
    );
}

#[test]
fn parallax_system_beats_the_cg_only_baseline() {
    let mut scene = BenchmarkId::Explosions.build(&small_params());
    let profiles = scene.run_measured(2, 1);

    // CG-only: 4 cores, 12 MB.
    let mut cg = MulticoreSim::new(MachineConfig::baseline(4, 12), SimOptions::default());
    for p in &profiles {
        cg.run_step(&StepTrace::from_profile(p));
    }
    cg.reset_stats();
    let mut cg_cycles = 0;
    for p in &profiles {
        cg_cycles += cg.run_step(&StepTrace::from_profile(p)).total();
    }

    // ParallAX: same CG plus 150 shader FG cores.
    let mut sys = ParallaxSystem::new(4, FgCoreType::Shader, 150, Link::OnChipMesh);
    let _ = sys.simulate_steps(&profiles);
    let px_cycles = sys.simulate_steps(&profiles).total_cycles();

    assert!(
        px_cycles < cg_cycles,
        "ParallAX ({px_cycles}) must beat CG-only ({cg_cycles})"
    );
}

#[test]
fn fg_pool_scales_until_serial_bound() {
    let mut scene = BenchmarkId::Highspeed.build(&small_params());
    let profiles = scene.run_measured(2, 1);
    let time = |fg: usize| {
        let mut sys = ParallaxSystem::new(4, FgCoreType::Shader, fg, Link::OnChipMesh);
        let _ = sys.simulate_steps(&profiles);
        sys.simulate_steps(&profiles).total_cycles()
    };
    let t10 = time(10);
    let t150 = time(150);
    assert!(
        t150 <= t10,
        "more FG cores cannot be slower: {t150} vs {t10}"
    );
    // Serial phases are untouched by FG scaling.
    let serial = |fg: usize| {
        let mut sys = ParallaxSystem::new(4, FgCoreType::Shader, fg, Link::OnChipMesh);
        let _ = sys.simulate_steps(&profiles);
        sys.simulate_steps(&profiles).serial_cycles
    };
    let s10 = serial(10);
    let s150 = serial(150);
    let drift = (s10 as f64 - s150 as f64).abs() / s10.max(1) as f64;
    assert!(
        drift < 0.05,
        "serial time should not depend on FG pool: {s10} vs {s150}"
    );
}

#[test]
fn multithreaded_engine_produces_equivalent_workload() {
    // The engine's parallel phases must produce the same amount of work
    // regardless of thread count (execution differs; work does not).
    let run = |threads: usize| {
        let params = SceneParams {
            scale: 0.1,
            threads,
            ..Default::default()
        };
        let mut scene = BenchmarkId::Periodic.build(&params);
        let profiles = scene.step_frame();
        profiles
            .iter()
            .map(|p| (p.pairs.len(), p.islands.len()))
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    let parallel = run(4);
    // First step is fully deterministic (identical initial state).
    assert_eq!(serial[0], parallel[0]);
}

/// Steps a settling 100-body stack session `steps` times, every step a
/// full one, on the calling thread.
fn step_stacks(world: &mut World, steps: u32) {
    for _ in 0..steps {
        let profile = world.step();
        assert!(
            profile.wall.iter().any(|w| !w.is_zero()),
            "a settling stack steps in full"
        );
    }
}

/// DESIGN.md §21's retention rule. A thread keeps the scratch a larger
/// world grew for as long as it steps smaller ones: after Mix 0.2, 80
/// stack steps still find Mix's scratch, and dropping Mix then, when it
/// no longer steps last, gives none of it back. Dropping, on the
/// thread, the world that last full-stepped there gives back the step
/// scratch and keeps the island scratch, which is sized by the largest
/// island solved; the stacks then regrow only their own step scratch.
#[test]
fn a_thread_gives_back_the_scratch_of_a_larger_world() {
    const STEPS: u32 = 80;
    let stacks = || SessionWorld::default().build();
    // What the stacks alone grow on a fresh thread.
    let alone = std::thread::spawn(move || {
        let mut world = stacks();
        step_stacks(&mut world, STEPS);
        thread_scratch_bytes()
    })
    .join()
    .expect("stacks alone");
    for drop_mix in [false, true] {
        std::thread::spawn(move || {
            assert_eq!(thread_scratch_bytes(), 0, "a fresh thread holds no scratch");
            let mut mix = RunConfig::default().build(BenchmarkId::Mix, 0.2);
            for _ in 0..30 {
                mix.step();
            }
            let mix_bytes = thread_scratch_bytes();
            assert!(
                mix_bytes > 4 * alone,
                "Mix 0.2 grows {mix_bytes} bytes of scratch, the stacks {alone}"
            );
            let mut world = stacks();
            if drop_mix {
                // Mix stepped last here: its step scratch goes with it.
                drop(mix);
                let island = thread_scratch_bytes();
                assert!(
                    island > 0 && island < mix_bytes,
                    "{island} of {mix_bytes} bytes kept once Mix is gone"
                );
                step_stacks(&mut world, STEPS);
                let regrown = thread_scratch_bytes();
                assert!(
                    island <= regrown && regrown <= island + alone,
                    "regrown to {regrown} bytes over Mix's island scratch of {island}, \
                     the stacks alone grow {alone}"
                );
            } else {
                step_stacks(&mut world, STEPS);
                // (An island arena shorter than Mix's frees the tail it drops.)
                let kept = thread_scratch_bytes();
                assert!(
                    kept > 4 * alone,
                    "kept {kept} of {mix_bytes} bytes over {STEPS} stack steps"
                );
                // Mix did not step last: dropping it gives nothing back.
                drop(mix);
                assert_eq!(thread_scratch_bytes(), kept, "kept once Mix is gone");
                // The stacks did: dropping them gives the step scratch back.
                drop(world);
                let island = thread_scratch_bytes();
                assert!(
                    island > 0 && island < kept,
                    "{island} of {kept} bytes kept once the stacks are gone"
                );
            }
        })
        .join()
        .expect("Mix, then stacks");
    }
}
