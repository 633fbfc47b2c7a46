//! The persistent grid against the history-free reference, on real scenes.
//!
//! Every broad phase emits the same canonical candidate list, so a world
//! on `BroadphaseKind::Grid` and one on `BroadphaseKind::SweepAndPrune`
//! (rebuilt from the AABBs every step) must agree on every per-phase
//! digest of every step — through fracture, a snapshot restored into a
//! world whose grid is warm with a later state, and a body leaving and
//! re-entering the simulation. The grid's correctness is geometric, so
//! none of these needs to tell it anything.

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, BodyId, BroadphaseKind, Shape, World, WorldConfig};
use parallax_workloads::{BenchmarkId, RunConfig};

const STEPS: u64 = 120;
const CHECKPOINT_AT: u64 = 40;
const RESTORE_AT: u64 = 70;
const DISABLE_AT: u64 = 85;
const ENABLE_AT: u64 = 100;

fn assert_equivalent(id: BenchmarkId, sleeping: bool) {
    let build = |broadphase: &str| {
        let sleep = if sleeping { "on" } else { "off" };
        RunConfig::parse(&format!("sleep={sleep},digest=on,broadphase={broadphase}"))
            .expect("spec")
            .build(id, 0.2)
    };
    let (mut grid, mut sap) = (build("grid"), build("sap"));
    assert!(matches!(
        grid.world.config().broadphase,
        BroadphaseKind::Grid { .. }
    ));
    let toggled = BodyId(grid.world.bodies().len() as u32 / 2);
    let mut checkpoints = None;
    let mut restored = false;
    while grid.world.step_count() < STEPS {
        let step = grid.world.step_count();
        if step == CHECKPOINT_AT && checkpoints.is_none() {
            checkpoints = Some((grid.checkpoint(), sap.checkpoint()));
        }
        if step == RESTORE_AT && !restored {
            // Back to step 40, into a grid that holds step 70's proxies.
            let (cp_grid, cp_sap) = checkpoints.as_ref().expect("taken at step 40");
            grid.restore(cp_grid).expect("restore grid side");
            sap.restore(cp_sap).expect("restore sap side");
            restored = true;
            continue;
        }
        if step == DISABLE_AT || step == ENABLE_AT {
            for scene in [&mut grid, &mut sap] {
                scene.world.set_body_enabled(toggled, step == ENABLE_AT);
            }
        }
        let a = grid.step();
        let b = sap.step();
        assert_eq!(
            a.digests.expect("digests on"),
            b.digests.expect("digests on"),
            "{} (sleeping {sleeping}): phase digests differ at step {step}",
            id.name()
        );
        assert_eq!(a.broadphase.pairs, b.broadphase.pairs);
    }
    assert!(restored);
}

#[test]
fn mix_digests_match_sweep_and_prune() {
    assert_equivalent(BenchmarkId::Mix, false);
}

#[test]
fn mix_digests_match_sweep_and_prune_with_sleeping() {
    assert_equivalent(BenchmarkId::Mix, true);
}

#[test]
fn breakable_digests_match_sweep_and_prune() {
    assert_equivalent(BenchmarkId::Breakable, false);
}

#[test]
fn breakable_digests_match_sweep_and_prune_with_sleeping() {
    assert_equivalent(BenchmarkId::Breakable, true);
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
