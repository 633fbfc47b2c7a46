//! The persistent grid against the history-free reference, on real scenes.
//!
//! For the same AABBs the grid and `SweepAndPrune` (rebuilt from them
//! every call) emit the same canonical candidate list, and the candidates
//! are the only input of a step on which two broad phases can differ: a
//! world whose candidates equal the sweep's on every step has, step for
//! step, the phase digests a world run on the sweep would have. So one
//! world steps on its grid and, after every step, the candidates it
//! emitted must equal what a sweep-and-prune emits for the AABB list that
//! step refreshed (`StepPipeline::broadphase_aabbs`) — through shatters, a
//! snapshot restored into a world whose grid is warm with a later state,
//! and a body leaving and re-entering the simulation. The grid's
//! correctness is geometric, so none of these needs to tell it anything.

use parallax_math::Vec3;
use parallax_physics::broadphase::{Broadphase, SweepAndPrune};
use parallax_physics::{BodyDesc, BodyId, Shape, World, WorldConfig};
use parallax_workloads::{BenchmarkId, RunConfig};

const CHECKPOINT_AT: u64 = 40;
const RESTORE_AT: u64 = 70;
const DISABLE_AT: u64 = 85;
const ENABLE_AT: u64 = 100;

/// Steps `id` at scale 0.2 to `steps`, checking the grid after every step.
/// Each horizon passes the scene's first detonation: Mix at scale 0.2
/// detonates at step 216 and shatters at 217, Breakable at 24 and 25,
/// Explosions detonates at 187.
fn assert_grid_matches_sweep_and_prune(id: BenchmarkId, sleeping: bool, steps: u64) {
    let sleep = if sleeping { "on" } else { "off" };
    let mut scene = RunConfig::parse(&format!("sleep={sleep}"))
        .expect("spec")
        .build(id, 0.2);
    let toggled = BodyId(scene.world.bodies().len() as u32 / 2);
    let mut sap = SweepAndPrune::new();
    let mut reference = Vec::new();
    let mut checkpoint = None;
    let mut restored = false;
    let (mut explosions, mut shattered) = (0, 0);
    while scene.world.step_count() < steps {
        let step = scene.world.step_count();
        if step == CHECKPOINT_AT && checkpoint.is_none() {
            checkpoint = Some(scene.checkpoint());
        }
        if step == RESTORE_AT && !restored {
            // Back to step 40, into a grid that holds step 70's proxies.
            let at_40 = checkpoint.as_ref().expect("taken at step 40");
            scene.restore(at_40).expect("restore");
            restored = true;
            continue;
        }
        if step == DISABLE_AT || step == ENABLE_AT {
            scene.world.set_body_enabled(toggled, step == ENABLE_AT);
        }
        let events = scene.step().events;
        explosions += events.explosions;
        shattered += events.shattered;
        let pipeline = scene.world.pipeline();
        let candidates = pipeline.broadphase_candidates();
        sap.pairs_into(pipeline.broadphase_aabbs(), &mut reference);
        if candidates != reference.as_slice() {
            let first = candidates
                .iter()
                .zip(&reference)
                .position(|(g, s)| g != s)
                .unwrap_or(candidates.len().min(reference.len()));
            panic!(
                "{} (sleeping {sleeping}) step {step}: the grid emitted {} candidates, \
                 sweep-and-prune {}; first difference at index {first}",
                id.name(),
                candidates.len(),
                reference.len()
            );
        }
    }
    assert!(restored);
    assert!(explosions > 0, "{}: nothing detonated", id.name());
    // Explosions holds no pre-fractured object.
    if id != BenchmarkId::Explosions {
        assert!(shattered > 0, "{}: nothing shattered", id.name());
    }
}

#[test]
fn mix_digests_match_sweep_and_prune() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Mix, false, 250);
}

#[test]
fn mix_digests_match_sweep_and_prune_with_sleeping() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Mix, true, 250);
}

#[test]
fn breakable_digests_match_sweep_and_prune() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Breakable, false, 120);
}

#[test]
fn breakable_digests_match_sweep_and_prune_with_sleeping() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Breakable, true, 120);
}

#[test]
fn explosions_digests_match_sweep_and_prune() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Explosions, false, 200);
}

#[test]
fn explosions_digests_match_sweep_and_prune_with_sleeping() {
    assert_grid_matches_sweep_and_prune(BenchmarkId::Explosions, true, 200);
}

/// Settled stacks with sleeping off: the bodies keep jittering under the
/// solver, but inside their margins, so the grid tests its pairs and does
/// no cell work at all.
#[test]
fn a_step_in_which_nothing_escapes_does_no_cell_work() {
    let mut world = World::new(WorldConfig {
        sleeping: false,
        ..WorldConfig::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for stack in 0..3 {
        for level in 0..3 {
            world.add_body(
                BodyDesc::dynamic(Vec3::new(
                    stack as f32 * 4.0 - 4.0,
                    0.4 + level as f32 * 0.8,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.4)), 2.0),
            );
        }
    }
    for _ in 0..100 {
        world.step();
    }
    for _ in 0..20 {
        let stats = world.step().broadphase;
        assert_eq!(stats.reinserts, 0, "a settled stack escaped its margin");
        assert_eq!(stats.sort_ops, 0);
        assert!(stats.overlap_tests >= stats.fat_pairs && stats.fat_pairs >= stats.pairs);
        assert!(stats.pairs > 0);
    }
}
