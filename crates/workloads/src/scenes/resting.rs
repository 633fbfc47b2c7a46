//! **Resting** — temporal-coherence stress: a warehouse floor of box
//! stacks placed at exact rest height, plus one slow cannon lobbing a
//! ball into a corner every few seconds.
//!
//! Not one of the paper's eight scenes; it models the part of a game
//! level the paper's activity-dense benchmarks deliberately exclude —
//! the 95% of objects that just sit there. With island sleeping enabled
//! the settled stacks deactivate after `sleep_steps` quiet steps and
//! the per-step cost collapses to the few islands the cannon keeps
//! disturbing; with sleeping disabled every stack re-solves its resting
//! contacts every step. The `bench_gate compare --config sleep=on` A/B
//! runs on exactly this contrast.

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, Shape, World};

use crate::entities::Cannon;
use crate::scenes::{finish, grid, ground};
use crate::{Actors, BenchmarkId, Scene, SceneParams};

/// Box half-extent: stacks are columns of 0.8 m cubes.
const HALF: f32 = 0.4;
/// Boxes per stack.
const STACK: usize = 5;

/// Builds the Resting scene.
pub fn build(params: &SceneParams) -> Scene {
    let mut world = World::new(params.world_config());
    ground(&mut world);

    // A floor of stacks, spaced far enough apart that each stack is its
    // own island. Placed at exact rest height so they settle within a
    // few dozen steps instead of slamming down.
    let stacks = params.count(49, 4);
    for base in grid(Vec3::ZERO, 3.0, 0.0, stacks) {
        for level in 0..STACK {
            let y = HALF + level as f32 * 2.0 * HALF;
            world.add_body(
                BodyDesc::dynamic(Vec3::new(base.x, y, base.z))
                    .with_shape(Shape::cuboid(Vec3::splat(HALF)), 4.0),
            );
        }
    }

    // One cannon at a corner, lobbing a heavy ball into the nearest
    // stacks every 45 steps: most of the floor stays asleep while the
    // impact corner keeps waking and re-settling.
    let extent = (stacks as f32).sqrt().ceil() * 1.5 + 3.0;
    let mut actors = Actors::default();
    actors.cannons.push(Cannon::new(
        Vec3::new(-extent - 4.0, 2.5, -extent - 4.0),
        Vec3::new(1.0, 0.1, 1.0),
        30.0,
        45,
        usize::MAX,
        None,
    ));
    finish(world, BenchmarkId::Resting, actors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_composition() {
        let scene = build(&SceneParams::default());
        assert_eq!(scene.meta.dynamic_objs, 49 * STACK);
        assert_eq!(scene.meta.static_joints, 0);
        assert_eq!(scene.actors.cannons.len(), 1);
    }

    #[test]
    fn stacks_fall_asleep_and_projectiles_wake_them() {
        let mut scene = build(&SceneParams {
            scale: 0.1,
            sleeping: true,
            ..Default::default()
        });
        let mut slept = 0usize;
        for _ in 0..200 {
            let p = scene.step();
            slept = slept.max(p.sleeping_bodies);
        }
        assert!(
            slept >= STACK,
            "at least one stack must fall asleep in 200 steps, peak was {slept}"
        );
        assert!(
            !scene.actors.cannons[0].fired().is_empty(),
            "cannon must have fired"
        );
    }
}
