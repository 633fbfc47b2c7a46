//! Demolition: a pre-fractured wall, a bridge and an explosive cannonball
//! — the Breakable-benchmark features driven through the public API.
//!
//! ```text
//! cargo run --release -p parallax-bench --example demolition
//! ```

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, BodyFlags, ExplosionConfig, Shape, World, WorldConfig};
use parallax_workloads::entities::{spawn_bridge, spawn_wall, WallSpec};

fn main() {
    let mut world = World::new(WorldConfig::default());
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));

    // A pre-fractured brick wall: each brick shatters into 8 pieces when
    // caught in a blast.
    let spec = WallSpec {
        bricks_x: 6,
        courses: 4,
        debris_per_brick: 8,
        ..Default::default()
    };
    let bricks = spawn_wall(&mut world, Vec3::ZERO, 0.0, &spec);
    println!(
        "wall: {} bricks ({} debris pieces standing by)",
        bricks.len(),
        bricks.len() * 8
    );

    // A plank bridge behind the wall with breakable joints.
    let (_planks, joints) = spawn_bridge(
        &mut world,
        Vec3::new(-3.0, 2.0, 3.0),
        Vec3::new(3.0, 2.0, 3.0),
        6,
        18.0,
    );
    println!("bridge: {} breakable joints", joints.len());

    // A heavy explosive cannonball lobbed at the wall.
    let shell = world.add_body(
        BodyDesc::dynamic(Vec3::new(-14.0, 1.2, 0.0))
            .with_shape(Shape::sphere(0.3), 12.0)
            .with_velocity(Vec3::new(24.0, 2.0, 0.0)),
    );
    world.make_explosive(
        shell,
        ExplosionConfig {
            blast_radius: 5.0,
            duration_steps: 10,
            impulse: 90.0,
        },
    );

    // Run two simulated seconds, narrating events.
    for step in 0..200 {
        let p = world.step();
        if p.events.explosions > 0 {
            println!("t={:.2}s  BOOM — the shell detonates", world.time());
        }
        if p.events.shattered > 0 {
            println!(
                "t={:.2}s  {} brick(s) shatter into debris",
                world.time(),
                p.events.shattered
            );
        }
        if p.events.joints_broken > 0 {
            println!(
                "t={:.2}s  {} bridge joint(s) snap",
                world.time(),
                p.events.joints_broken
            );
        }
        if p.events.blasts_expired > 0 {
            println!("t={:.2}s  the blast dissipates", world.time());
        }
        let _ = step;
    }

    let flying_debris = world
        .bodies()
        .iter()
        .filter(|b| {
            b.flags().contains(BodyFlags::DEBRIS)
                && !b.is_disabled()
                && b.linear_velocity().length() > 0.5
        })
        .count();
    let intact = world
        .bodies()
        .iter()
        .filter(|b| b.flags().contains(BodyFlags::PREFRACTURED) && !b.is_disabled())
        .count();
    println!("\naftermath: {intact} bricks intact, {flying_debris} debris pieces still moving");
}
