//! The persistent grid against two references, on real scenes.
//!
//! For the same AABBs the grid and `SweepAndPrune` (rebuilt from them
//! every call) emit the same canonical candidate list, and the candidates
//! are the only input of a step on which two broad phases can differ: a
//! world whose candidates equal the sweep's on every step has, step for
//! step, the phase digests a world run on the sweep would have. So one
//! world steps on its grid and, after every step, three things are held
//! to a reference:
//!
//! * the AABB list that step refreshed (`StepPipeline::broadphase_aabbs`)
//!   equals a from-scratch recomputation from the world as it stood
//!   before the step, bit for bit: `shape.aabb(body ∘ local)` for every
//!   enabled geom whose body is awake, the box it already had for a
//!   sleeping one;
//! * the candidates equal what a sweep-and-prune emits for that list;
//! * the candidates and every count of `BroadphaseStats` equal those of
//!   `ReferenceGrid` — the grid's algorithm on its original data path —
//!   fed the same lists.
//!
//! All three hold through shatters, a snapshot restored into a world
//! whose grid is warm with a later state, a body leaving and re-entering
//! the simulation, and a dormant debris body teleported while disabled
//! and then switched on. The grid's correctness is geometric, and the
//! refresh's is read off the poses, so none of these needs to tell either
//! of them anything.

#[path = "../crates/physics/tests/support/reference_grid.rs"]
mod reference_grid;

use parallax_math::{Aabb, Vec3};
use parallax_physics::broadphase::SweepAndPrune;
use parallax_physics::{BodyDesc, BodyFlags, BodyId, GeomId, Shape, World, WorldConfig};
use parallax_workloads::{BenchmarkId, RunConfig};
use reference_grid::{counts, ReferenceGrid};

const CHECKPOINT_AT: u64 = 40;
const RESTORE_AT: u64 = 70;
const DISABLE_AT: u64 = 85;
const ENABLE_AT: u64 = 100;
const TELEPORT_AT: u64 = 105;
const DEBRIS_ENABLE_AT: u64 = 110;

/// The refresh's expected output, read from `world` just before its step.
fn expected_aabbs(world: &World, out: &mut Vec<(GeomId, Aabb)>) {
    out.clear();
    let bodies = world.bodies();
    for (i, g) in world.geoms().iter().enumerate() {
        if !g.is_enabled() {
            continue;
        }
        let aabb = match g.body().map(|b| bodies.get(b.index())) {
            Some(body) if body.is_sleeping() => g.aabb(),
            Some(body) => g
                .shape()
                .aabb(&body.transform().compose(&g.local_transform())),
            None => g.shape().aabb(&g.local_transform()),
        };
        out.push((GeomId(i as u32), aabb));
    }
}

fn bits(list: &[(GeomId, Aabb)]) -> Vec<(u32, [u32; 6])> {
    list.iter()
        .map(|(g, b)| {
            let [x0, y0, z0, x1, y1, z1] = [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z];
            (g.0, [x0, y0, z0, x1, y1, z1].map(f32::to_bits))
        })
        .collect()
}

fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

/// The three references of the module documentation, with their buffers.
struct Oracle {
    sap: SweepAndPrune,
    grid: ReferenceGrid,
    expected: Vec<(GeomId, Aabb)>,
    pairs: Vec<(GeomId, GeomId)>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            sap: SweepAndPrune::new(),
            grid: ReferenceGrid::new(parallax_physics::broadphase::GRID_CELL),
            expected: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Records what the refresh of the coming step must produce.
    fn before_step(&mut self, world: &World) {
        expected_aabbs(world, &mut self.expected);
    }

    /// Checks the step just taken; `what` names it in a failure.
    fn after_step(&mut self, world: &World, profile: &parallax_physics::StepProfile, what: &str) {
        if profile.wall.iter().all(|w| w.is_zero()) {
            // A coast runs no phase; the grid is as the last step left it.
            return;
        }
        let pipeline = world.pipeline();
        let aabbs = pipeline.broadphase_aabbs();
        let (got, want) = (bits(aabbs), bits(&self.expected));
        assert!(
            got == want,
            "{what}: the refresh wrote {} boxes, a recomputation {}; first difference at index {}",
            got.len(),
            want.len(),
            first_difference(&got, &want)
        );

        let candidates = pipeline.broadphase_candidates();
        self.sap.pairs_into(aabbs, &mut self.pairs);
        assert!(
            candidates == self.pairs.as_slice(),
            "{what}: the grid emitted {} candidates, sweep-and-prune {}; first difference at \
             index {}",
            candidates.len(),
            self.pairs.len(),
            first_difference(candidates, &self.pairs)
        );

        let reference = self.grid.pairs_into(aabbs, &mut self.pairs);
        assert!(
            candidates == self.pairs.as_slice(),
            "{what}: the grid emitted {} candidates, the reference grid {}",
            candidates.len(),
            self.pairs.len()
        );
        assert_eq!(
            counts(&profile.broadphase),
            counts(&reference),
            "{what}: broad-phase counts (geoms, sort_ops, overlap_tests, pairs, reinserts, \
             fat_pairs) differ from the reference grid's"
        );
    }
}

/// Steps `id` at scale 0.2 to `steps`, checking the broad phase after
/// every step. Each horizon passes the scene's first detonation: Mix at
/// scale 0.2 detonates at step 216 and shatters at 217, Breakable at 24
/// and 25, Explosions detonates at 187.
fn assert_grid_matches_sweep_and_prune(id: BenchmarkId, sleeping: bool, steps: u64) {
    let sleep = if sleeping { "on" } else { "off" };
    let mut scene = RunConfig::parse(&format!("sleep={sleep}"))
        .expect("spec")
        .build(id, 0.2);
    let toggled = BodyId(scene.world.bodies().len() as u32 / 2);
    let mut oracle = Oracle::new();
    let mut checkpoint = None;
    let mut restored = false;
    let mut teleported = None;
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
        if step == TELEPORT_AT {
            // A dormant debris body keeps its geoms in the broad phase;
            // moved while disabled, its boxes must follow it.
            let bodies = scene.world.bodies();
            teleported = (0..bodies.len())
                .find(|&i| {
                    let b = bodies.get(i);
                    b.is_disabled() && b.flags().contains(BodyFlags::DEBRIS)
                })
                .map(|i| BodyId(i as u32));
            if let Some(debris) = teleported {
                let mut body = scene.world.body_mut(debris);
                let at = body.position() + Vec3::new(0.0, 4.0, 0.0);
                body.set_position(at);
            }
        }
        if step == DEBRIS_ENABLE_AT {
            if let Some(debris) = teleported {
                scene.world.set_body_enabled(debris, true);
            }
        }
        scene.actors.update(&mut scene.world, step);
        oracle.before_step(&scene.world);
        let profile = scene.world.step();
        explosions += profile.events.explosions;
        shattered += profile.events.shattered;
        let what = format!("{} (sleeping {sleeping}) step {step}", id.name());
        oracle.after_step(&scene.world, &profile, &what);
    }
    assert!(restored);
    assert!(explosions > 0, "{}: nothing detonated", id.name());
    // Explosions holds no pre-fractured object.
    if id != BenchmarkId::Explosions {
        assert!(shattered > 0, "{}: nothing shattered", id.name());
        assert!(teleported.is_some(), "{}: no dormant debris", id.name());
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

/// The `scene_static` trajectory: Mix at full scale, untouched, through
/// its first 212 steps. Minutes in the debug profile, so it runs in the
/// release one: `cargo test --release -p parallax-bench --test
/// broadphase_equivalence -- --include-ignored`.
#[test]
#[ignore = "full-scale Mix; run in the release profile"]
fn mix_full_scale_matches_the_references() {
    let mut scene = RunConfig::default().build(BenchmarkId::Mix, 1.0);
    let mut oracle = Oracle::new();
    while scene.world.step_count() < 212 {
        let step = scene.world.step_count();
        scene.actors.update(&mut scene.world, step);
        oracle.before_step(&scene.world);
        let profile = scene.world.step();
        oracle.after_step(&scene.world, &profile, &format!("Mix 1.0 step {step}"));
    }
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
