//! Cloth contact lists against the all-geoms walk they replaced.
//!
//! A step builds each cloth's contact lists after the narrow phase's
//! contact events, from the AABBs cached when the step began. The walk
//! kept here is the original definition: for every geom in index order,
//! skip it unless it is enabled and its cached AABB overlaps the cloth's
//! box grown by 0.2 m; a body geom adds its body once (first-seen order)
//! unless the body is disabled or a blast volume; a world-static geom adds
//! itself. It reads the enabled bit and the body flags as they are when
//! the lists are built, which is also how they are when the step returns
//! (nothing after the narrow phase toggles either), and the cached AABBs
//! are not rewritten until the next step begins. Only the cloth's box must
//! be taken before the step, after the actors have moved the pinned
//! vertices.

use parallax_math::Aabb;
use parallax_physics::{BodyFlags, World};
use parallax_workloads::{BenchmarkId, SceneParams};

fn walk(world: &World, bb: &Aabb) -> (Vec<u32>, Vec<u32>) {
    let mut bodies = Vec::new();
    let mut statics = Vec::new();
    for (gi, g) in world.geoms().iter().enumerate() {
        if !g.is_enabled() || !bb.overlaps(&g.aabb()) {
            continue;
        }
        match g.body() {
            Some(b) => {
                let body = world.body(b);
                if body.is_disabled() || body.flags().contains(BodyFlags::BLAST_VOLUME) {
                    continue;
                }
                if !bodies.contains(&b.0) {
                    bodies.push(b.0);
                }
            }
            None => statics.push(gi as u32),
        }
    }
    (bodies, statics)
}

/// Steps `id` for `steps` steps and holds every cloth's lists to the walk
/// after each one. Returns how many steps shattered something.
fn lists_match_the_walk(id: BenchmarkId, scale: f32, steps: usize) -> usize {
    let mut scene = id.build(&SceneParams {
        scale,
        ..SceneParams::default()
    });
    assert!(!scene.world.cloths().is_empty());
    let mut shatter_steps = 0;
    let mut listed = 0;
    for step in 0..steps {
        let n = scene.world.step_count();
        scene.actors.update(&mut scene.world, n);
        let boxes: Vec<Aabb> = scene.world.cloths().iter().map(|c| c.aabb(0.2)).collect();
        let profile = scene.world.step();
        if profile.events.shattered > 0 {
            shatter_steps += 1;
        }
        for (ci, (cloth, bb)) in scene.world.cloths().iter().zip(&boxes).enumerate() {
            let (bodies, statics) = walk(&scene.world, bb);
            assert_eq!(
                cloth.contact_bodies(),
                bodies.as_slice(),
                "{} step {step} cloth {ci}: contact bodies",
                id.name()
            );
            assert_eq!(
                cloth.contact_static_geoms(),
                statics.as_slice(),
                "{} step {step} cloth {ci}: contact static geoms",
                id.name()
            );
            listed += bodies.len() + statics.len();
        }
    }
    assert!(listed > 0, "{}: no cloth touched anything", id.name());
    shatter_steps
}

#[test]
fn deformable_lists_match_the_walk() {
    lists_match_the_walk(BenchmarkId::Deformable, 0.1, 60);
}

/// At scale 0.2 Mix's first shell explodes at step 216 and shatters 57
/// bodies the step after; running to step 250 covers bodies disabled,
/// enabled, re-posed and added between the AABB refresh and the list
/// build.
#[test]
fn mix_lists_match_the_walk_through_shatters() {
    let shatter_steps = lists_match_the_walk(BenchmarkId::Mix, 0.2, 250);
    assert!(shatter_steps > 0, "Mix shattered nothing in 250 steps");
}
