//! The ParallAX forward-looking physics benchmark suite (paper §4).
//!
//! Eight parameterized scenes cover the high-level physical actions of
//! future interactive-entertainment workloads: continuous contact, periodic
//! contact, high-velocity impulses, explosions and deformations — each
//! matched to a representative game genre (paper Tables 1–3).
//!
//! | Benchmark | Genre | Features |
//! |---|---|---|
//! | [`BenchmarkId::Periodic`] | RPG | humanoid melee combat |
//! | [`BenchmarkId::Ragdoll`] | FPS | falling ragdolls |
//! | [`BenchmarkId::Continuous`] | racing | cars on terrain |
//! | [`BenchmarkId::Breakable`] | FPS | walls, bridges, explosions, debris |
//! | [`BenchmarkId::Deformable`] | sports | cloth uniforms + drapery |
//! | [`BenchmarkId::Explosions`] | RTS | urban battlefield, cannons |
//! | [`BenchmarkId::Highspeed`] | action | high-speed impacts, no blasts |
//! | [`BenchmarkId::Mix`] | — | everything combined |
//! | [`BenchmarkId::Resting`] | — | settled stacks + rare projectiles (sleeping stress) |
//!
//! # Examples
//!
//! ```
//! use parallax_workloads::{BenchmarkId, SceneParams};
//!
//! // Build a 10%-scale Ragdoll scene and run one frame.
//! let params = SceneParams { scale: 0.1, ..SceneParams::default() };
//! let mut scene = BenchmarkId::Ragdoll.build(&params);
//! let profiles = scene.world.step_frame();
//! assert_eq!(profiles.len(), 3);
//! ```

pub mod entities;
pub mod run_config;
pub mod scenes;
pub mod session;
pub mod stats;

use parallax_physics::world::STEPS_PER_FRAME;
use parallax_physics::{SimdMode, World, WorldConfig};
use serde::{Deserialize, Serialize};

pub use run_config::RunConfig;
pub use session::SessionWorld;
pub use stats::{measure, BenchStats};

/// The eight benchmarks of the suite (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchmarkId {
    /// Role-playing genre: groups of humanoids in hand-to-hand combat.
    Periodic,
    /// FPS genre: ragdolls falling from projectile impacts.
    Ragdoll,
    /// Racing genre: rally cars over heightfield/trimesh terrain.
    Continuous,
    /// FPS genre: walls and bridges fractured by cannon fire.
    Breakable,
    /// Sports/action genre: cloth uniforms and large drapery.
    Deformable,
    /// RTS genre: an army with exploding projectiles in an urban area.
    Explosions,
    /// Action genre: high-speed projectiles and crashes, no blasts.
    Highspeed,
    /// Combination of all features.
    Mix,
    /// Temporal-coherence stress: large pre-settled box stacks with a
    /// slow cannon waking one corner — the island-sleeping showcase
    /// (not in the paper's table; most of a game level is at rest most
    /// of the time, which is exactly what sleeping exploits).
    Resting,
}

impl BenchmarkId {
    /// All benchmarks in paper order (plus the post-paper Resting scene).
    pub const ALL: [BenchmarkId; 9] = [
        BenchmarkId::Periodic,
        BenchmarkId::Ragdoll,
        BenchmarkId::Continuous,
        BenchmarkId::Breakable,
        BenchmarkId::Deformable,
        BenchmarkId::Explosions,
        BenchmarkId::Highspeed,
        BenchmarkId::Mix,
        BenchmarkId::Resting,
    ];

    /// The paper's eight benchmarks in paper order — [`Self::ALL`] without
    /// the post-paper Resting scene. Every paper table and figure iterates
    /// this, and sizes its paper-constant arrays from it.
    pub const PAPER: [BenchmarkId; 8] = [
        BenchmarkId::Periodic,
        BenchmarkId::Ragdoll,
        BenchmarkId::Continuous,
        BenchmarkId::Breakable,
        BenchmarkId::Deformable,
        BenchmarkId::Explosions,
        BenchmarkId::Highspeed,
        BenchmarkId::Mix,
    ];

    /// Full name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Periodic => "Periodic",
            BenchmarkId::Ragdoll => "Ragdoll",
            BenchmarkId::Continuous => "Continuous",
            BenchmarkId::Breakable => "Breakable",
            BenchmarkId::Deformable => "Deformable",
            BenchmarkId::Explosions => "Explosions",
            BenchmarkId::Highspeed => "Highspeed",
            BenchmarkId::Mix => "Mix",
            BenchmarkId::Resting => "Resting",
        }
    }

    /// Three-letter abbreviation used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            BenchmarkId::Periodic => "Per",
            BenchmarkId::Ragdoll => "Rag",
            BenchmarkId::Continuous => "Con",
            BenchmarkId::Breakable => "Bre",
            BenchmarkId::Deformable => "Def",
            BenchmarkId::Explosions => "Exp",
            BenchmarkId::Highspeed => "Hig",
            BenchmarkId::Mix => "Mix",
            BenchmarkId::Resting => "Res",
        }
    }

    /// Looks a benchmark up by its full name (case-insensitive), the
    /// inverse of [`BenchmarkId::name`]. Used by every CLI and API
    /// surface that accepts a scene by name.
    pub fn by_name(name: &str) -> Option<BenchmarkId> {
        BenchmarkId::ALL
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Builds the scene at the given parameters.
    pub fn build(self, params: &SceneParams) -> Scene {
        match self {
            BenchmarkId::Periodic => scenes::periodic::build(params),
            BenchmarkId::Ragdoll => scenes::ragdoll::build(params),
            BenchmarkId::Continuous => scenes::continuous::build(params),
            BenchmarkId::Breakable => scenes::breakable::build(params),
            BenchmarkId::Deformable => scenes::deformable::build(params),
            BenchmarkId::Explosions => scenes::explosions::build(params),
            BenchmarkId::Highspeed => scenes::highspeed::build(params),
            BenchmarkId::Mix => scenes::mix::build(params),
            BenchmarkId::Resting => scenes::resting::build(params),
        }
    }
}

/// Parameters scaling a scene's computational load (paper: "all benchmarks
/// have a set of parameters that scale its computational load").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SceneParams {
    /// Entity-count multiplier (1.0 = the paper's scale).
    pub scale: f32,
    /// RNG seed for deterministic placement jitter.
    pub seed: u64,
    /// Worker threads for the engine's parallel phases.
    pub threads: usize,
    /// Warm-start the solver from the previous step's contact impulses.
    pub warm_starting: bool,
    /// SIMD kernel width for the engine's vectorized sweeps.
    pub simd: SimdMode,
    /// Compute per-phase state digests each step (flight recorder /
    /// divergence bisection).
    pub digests: bool,
    /// Island sleeping: settled islands stop simulating until disturbed.
    pub sleeping: bool,
}

impl Default for SceneParams {
    /// Paper scale and the default seed under [`RunConfig::default`].
    fn default() -> Self {
        RunConfig::default().scene_params(1.0, SceneParams::DEFAULT_SEED)
    }
}

impl SceneParams {
    /// The placement-jitter seed every scene is built with unless one is
    /// chosen.
    pub const DEFAULT_SEED: u64 = 0x7A11AC5;

    /// Scales an entity count, keeping at least `min`.
    pub fn count(&self, base: usize, min: usize) -> usize {
        ((base as f32 * self.scale).round() as usize).max(min)
    }

    /// Standard world configuration for the suite (∆t = 0.01 s, 20 solver
    /// iterations, 3 steps per frame).
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            threads: self.threads,
            warm_starting: self.warm_starting,
            simd: self.simd,
            digests: self.digests,
            sleeping: self.sleeping,
            ..WorldConfig::default()
        }
    }
}

/// Static composition of a scene, recorded at build time (Table 4 columns
/// that do not vary per step).
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct SceneMeta {
    /// Immobile collision-only objects.
    pub static_objs: usize,
    /// Dynamic rigid bodies (enabled at start).
    pub dynamic_objs: usize,
    /// Debris bodies created for pre-fractured objects.
    pub prefractured_objs: usize,
    /// Permanent joints.
    pub static_joints: usize,
    /// Cloth objects.
    pub cloth_objs: usize,
    /// Total cloth vertices.
    pub cloth_vertices: usize,
}

/// A cloth vertex pinned to a rigid body (e.g. a uniform on a player's
/// shoulders): the world position of `vertex` follows `body`'s frame.
#[derive(Debug, Clone, Copy)]
pub struct ClothAttachment {
    /// Which cloth.
    pub cloth: parallax_physics::ClothId,
    /// Pinned vertex index.
    pub vertex: usize,
    /// Body the vertex follows.
    pub body: parallax_physics::BodyId,
    /// Attachment point in the body's local frame.
    pub local: parallax_math::Vec3,
}

/// Scripted actors that keep a scene active: cannons fire, cars drive,
/// combat groups shove each other, attached cloths follow their wearers.
#[derive(Debug, Default)]
pub struct Actors {
    /// Projectile launchers, updated every step.
    pub cannons: Vec<entities::Cannon>,
    /// Cars with a drive torque applied every step.
    pub cars: Vec<(entities::Car, f32)>,
    /// Combat groups: members periodically shove the next member.
    pub combat_groups: Vec<Vec<entities::Humanoid>>,
    /// Cloth vertices pinned to bodies.
    pub cloth_attachments: Vec<ClothAttachment>,
}

impl Actors {
    /// Whether there are no actors at all, so [`Actors::update`] never
    /// touches the world.
    pub fn is_inert(&self) -> bool {
        self.cannons.is_empty()
            && self.cars.is_empty()
            && self.combat_groups.is_empty()
            && self.cloth_attachments.is_empty()
    }

    /// Runs one tick of actor logic before a physics step.
    pub fn update(&mut self, world: &mut World, step: u64) {
        for c in &mut self.cannons {
            c.update(world);
        }
        // Attached cloth vertices ride their bodies.
        for a in &self.cloth_attachments {
            let pos = world.body(a.body).transform().apply(a.local);
            world.cloth_mut(a.cloth).move_pinned(a.vertex, pos);
        }
        for (car, torque) in &self.cars {
            car.drive(world, *torque);
        }
        // Combat: every 15 steps each member lunges at the next.
        if step.is_multiple_of(15) {
            for group in &self.combat_groups {
                for (i, h) in group.iter().enumerate() {
                    let target = &group[(i + 1) % group.len()];
                    let from = world.body(h.segments[0]).position();
                    let to = world.body(target.segments[0]).position();
                    let dir = (to - from).normalized();
                    h.shove(world, dir * 40.0);
                }
            }
        }
    }
}

/// A built benchmark scene.
pub struct Scene {
    /// The populated world.
    pub world: World,
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// Static composition counts.
    pub meta: SceneMeta,
    /// Scripted actors driving the scenario.
    pub actors: Actors,
}

impl std::fmt::Debug for Scene {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scene")
            .field("id", &self.id)
            .field("meta", &self.meta)
            .finish()
    }
}

/// A resumable checkpoint of a running [`Scene`]: the world snapshot plus
/// the mutable actor state (only cannons mutate as a scene runs — cars,
/// combat groups and cloth attachments are static body-id lists).
///
/// Restoring into a scene built from the *same* `BenchmarkId` and
/// [`SceneParams`] resumes the run bit-identically; restoring into a
/// structurally different scene is rejected by the snapshot layer.
#[derive(Debug, Clone)]
pub struct SceneCheckpoint {
    /// Serialized world (see `parallax_physics::snapshot`).
    pub world: Vec<u8>,
    /// Cannon firing state (countdowns, shots left, fired projectiles).
    pub cannons: Vec<entities::Cannon>,
}

impl Scene {
    /// Captures a resumable checkpoint of the scene.
    pub fn checkpoint(&self) -> SceneCheckpoint {
        SceneCheckpoint {
            world: self.world.snapshot(),
            cannons: self.actors.cannons.clone(),
        }
    }

    /// Restores a checkpoint taken from a scene built with the same
    /// benchmark and parameters (thread count / SIMD mode may differ —
    /// those live in the config, which a restore never touches).
    pub fn restore(&mut self, cp: &SceneCheckpoint) -> Result<(), parallax_physics::SnapshotError> {
        self.world.restore(&cp.world)?;
        self.actors.cannons = cp.cannons.clone();
        Ok(())
    }

    /// Advances one step, running actor logic first.
    pub fn step(&mut self) -> parallax_physics::StepProfile {
        let step = self.world.step_count();
        self.actors.update(&mut self.world, step);
        self.world.step()
    }

    /// Runs one displayed frame (3 steps) and returns the profiles.
    pub fn step_frame(&mut self) -> Vec<parallax_physics::StepProfile> {
        (0..STEPS_PER_FRAME).map(|_| self.step()).collect()
    }

    /// Warms the scene up and returns profiles for the paper's measured
    /// window: warm-up for `warm_frames`, then profile `measure_frames`
    /// (paper: activity in the first 10 frames, frames 5–7 measured).
    pub fn run_measured(
        &mut self,
        warm_frames: usize,
        measure_frames: usize,
    ) -> Vec<parallax_physics::StepProfile> {
        for _ in 0..warm_frames {
            self.step_frame();
        }
        let mut out = Vec::new();
        for _ in 0..measure_frames {
            out.extend(self.step_frame());
        }
        out
    }
}

#[cfg(test)]
mod actor_tests {
    use super::*;

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let params = SceneParams {
            scale: 0.1,
            digests: true,
            ..Default::default()
        };
        let mut a = BenchmarkId::Mix.build(&params);
        for _ in 0..20 {
            a.step();
        }
        let cp = a.checkpoint();
        let mut b = BenchmarkId::Mix.build(&params);
        b.restore(&cp).expect("same-scene restore");
        assert_eq!(
            parallax_physics::world_digest(&a.world),
            parallax_physics::world_digest(&b.world),
            "restored scene must match the checkpoint source"
        );
        // Both continue in lockstep: cannons keep the same schedule,
        // physics stays bit-identical.
        for step in 0..15 {
            let pa = a.step();
            let pb = b.step();
            assert_eq!(pa.digests, pb.digests, "phase digests diverged at {step}");
            assert_eq!(
                parallax_physics::world_digest(&a.world),
                parallax_physics::world_digest(&b.world),
                "world diverged at {step}"
            );
        }
    }

    #[test]
    fn attached_cloth_follows_its_body() {
        // Regression: uniform pins must track the wearer, not stay at
        // their spawn coordinates.
        let mut scene = BenchmarkId::Deformable.build(&SceneParams {
            scale: 0.1,
            ..Default::default()
        });
        assert!(
            !scene.actors.cloth_attachments.is_empty(),
            "deformable must attach uniforms"
        );
        let a = scene.actors.cloth_attachments[0];
        // Launch the wearer sideways: the pinned vertex must move with it.
        let before = scene.world.cloth(a.cloth).vertices()[a.vertex].pos;
        scene
            .world
            .body_mut(a.body)
            .set_linear_velocity(parallax_math::Vec3::new(50.0, 0.0, 0.0));
        for _ in 0..5 {
            scene.step();
        }
        let after = scene.world.cloth(a.cloth).vertices()[a.vertex].pos;
        assert!(
            (after - before).x > 0.5,
            "pinned vertex did not follow the body: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn paper_suite_is_all_minus_resting_in_paper_order() {
        let expected: Vec<_> = BenchmarkId::ALL
            .into_iter()
            .filter(|b| *b != BenchmarkId::Resting)
            .collect();
        assert_eq!(BenchmarkId::PAPER.to_vec(), expected);
    }
}
