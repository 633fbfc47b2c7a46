//! Generated per-session worlds for the multi-world simulation service.
//!
//! The server's unit of scale is "thousands of concurrent ~100-body
//! worlds at 60 Hz" — a fleet of small game levels, not one huge scene.
//! [`SessionWorld`] builds such a level deterministically from a body
//! count and a seed: a ground plane and a floor of box stacks placed at
//! exact rest height (the same shape as the Resting benchmark, scaled
//! down), so that with island sleeping enabled the world settles within
//! a few dozen steps and its steady-state step cost collapses to the
//! broad-phase walk — which is what lets one process sustain thousands
//! of them. The seed jitters stack placement so distinct sessions have
//! distinct trajectories (and distinct digests, which the determinism
//! suite relies on).

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, Shape, World, WorldConfig};

use crate::scenes::{grid, ground};

/// Boxes per stack (stacks shorter than this appear for the remainder).
const STACK: usize = 5;
/// Box half-extent (m).
const HALF: f32 = 0.4;

/// Parameters for a generated session world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionWorld {
    /// Dynamic bodies in the world (exact).
    pub bodies: usize,
    /// Placement-jitter seed: distinct seeds give distinct trajectories.
    pub seed: u64,
    /// Island sleeping. On by default — a session world is mostly at
    /// rest, which is exactly what the server's throughput story needs.
    pub sleeping: bool,
}

impl Default for SessionWorld {
    fn default() -> Self {
        SessionWorld {
            bodies: 100,
            seed: 0,
            sleeping: true,
        }
    }
}

/// SplitMix64 — the workspace's stock deterministic scrambler.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1) from a SplitMix64 draw.
fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
}

impl SessionWorld {
    /// Builds the world: `bodies` boxes in stacks of `STACK` on a
    /// ground plane, each stack's base jittered from `seed`. Worlds are
    /// single-threaded (`threads: 1`) — the server parallelizes *across*
    /// sessions, not within one.
    pub fn build(&self) -> World {
        let mut world = World::new(WorldConfig {
            threads: 1,
            sleeping: self.sleeping,
            ..WorldConfig::default()
        });
        ground(&mut world);
        let stacks = self.bodies.div_ceil(STACK);
        let mut rng = self.seed ^ 0x5E55_10F1; // session-world domain tag
        let mut remaining = self.bodies;
        for base in grid(Vec3::ZERO, 3.0, 0.0, stacks) {
            let jx = unit(&mut rng) * 0.25;
            let jz = unit(&mut rng) * 0.25;
            for level in 0..STACK.min(remaining) {
                let y = HALF + level as f32 * 2.0 * HALF;
                world.add_body(
                    BodyDesc::dynamic(Vec3::new(base.x + jx, y, base.z + jz))
                        .with_shape(Shape::cuboid(Vec3::splat(HALF)), 4.0),
                );
            }
            remaining = remaining.saturating_sub(STACK);
        }
        world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_exact_body_count() {
        for bodies in [1, 5, 27, 100, 101] {
            let w = SessionWorld {
                bodies,
                ..Default::default()
            }
            .build();
            assert_eq!(w.enabled_dynamic_bodies(), bodies, "bodies = {bodies}");
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_trajectories() {
        let mut a = SessionWorld {
            seed: 1,
            bodies: 25,
            ..Default::default()
        }
        .build();
        let mut b = SessionWorld {
            seed: 2,
            bodies: 25,
            ..Default::default()
        }
        .build();
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_ne!(
            parallax_physics::world_digest(&a),
            parallax_physics::world_digest(&b)
        );
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = SessionWorld {
            seed: 9,
            bodies: 30,
            ..Default::default()
        };
        let (mut a, mut b) = (cfg.build(), cfg.build());
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(
            parallax_physics::world_digest(&a),
            parallax_physics::world_digest(&b)
        );
    }

    #[test]
    fn settles_to_sleep_with_sleeping_on() {
        let mut w = SessionWorld {
            bodies: 50,
            seed: 3,
            sleeping: true,
        }
        .build();
        let mut asleep = 0;
        for _ in 0..300 {
            w.step();
            asleep = asleep.max(w.sleeping_body_count());
        }
        assert!(
            asleep >= 40,
            "session world must mostly fall asleep, peak {asleep}/50"
        );
    }
}
