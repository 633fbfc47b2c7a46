//! Island sleeping end to end: the temporal-coherence fast path must be
//! invisible until the first sleep transition, reversible on wake, and
//! clean under the invariant monitor.
//!
//! Three contracts pin it down:
//!
//! 1. **Prefix equivalence** — a sleeping-enabled run is bit-identical
//!    to a sleeping-disabled run of the same world up to (and including)
//!    the step of the first sleep transition. Sleep timers update either
//!    way; only deactivation may change the trajectory, and only from
//!    the moment it first happens.
//! 2. **Wake reconvergence** — `wake_all` on a settled world hands every
//!    island back to the full pipeline; the bodies must re-settle and
//!    re-sleep without drifting (positions stay put to a tight epsilon),
//!    and the whole arc stays bit-identical across thread counts.
//! 3. **Monitor cleanliness** — a monitored sleeping run produces zero
//!    violations: nothing moves a sleeping body, energy stays bounded,
//!    and the `sleeping_moved` invariant never fires.
//! 4. **Coast ≡ recompute** — a world at rest coasts (its step returns a
//!    cached profile and runs no phase), and a twin forced down the full
//!    pipeline every step agrees with it on snapshot bytes, world digest
//!    and every profile field but the walls, through any wake; every
//!    public mutator of `World` ends the coast.

use parallax_math::{SimdMode, Vec3};
use parallax_physics::{
    world_digest, BodyDesc, BodyId, Cloth, ExplosionConfig, FractureConfig, GeomId,
    InvariantMonitor, Joint, JointKind, Shape, StepProfile, World, WorldConfig,
};
use parallax_telemetry::stats::SplitMix64;
use parallax_workloads::{entities, BenchmarkId, SceneParams, SessionWorld};

/// A world that settles quickly: a ground plane and a few short box
/// stacks placed at exact rest height, far enough apart to be separate
/// islands.
fn settling_world(threads: usize, sleeping: bool) -> World {
    let mut w = World::new(WorldConfig {
        threads,
        sleeping,
        digests: true,
        ..WorldConfig::default()
    });
    w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for s in 0..3 {
        for level in 0..3 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(
                    s as f32 * 4.0 - 4.0,
                    0.4 + level as f32 * 0.8,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.4)), 2.0),
            );
        }
    }
    w
}

fn positions_bits(w: &World) -> Vec<[u32; 3]> {
    w.bodies()
        .iter()
        .map(|b| {
            let p = b.position();
            [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
        })
        .collect()
}

fn positions(w: &World) -> Vec<Vec3> {
    w.bodies().iter().map(|b| b.position()).collect()
}

#[test]
fn sleeping_run_matches_non_sleeping_run_until_first_sleep_event() {
    let mut on = settling_world(1, true);
    let mut off = settling_world(1, false);
    let mut first_sleep = None;
    for step in 0..300 {
        // Compare *before* stepping: state at step N is the product of
        // steps 0..N, and the transition at step N may only affect N+1.
        assert_eq!(
            world_digest(&on),
            world_digest(&off),
            "diverged at step {step} before any body slept"
        );
        on.step();
        off.step();
        if on.sleeping_body_count() > 0 {
            first_sleep = Some(step);
            break;
        }
    }
    let first = first_sleep.expect("no body slept within 300 steps");
    assert!(first > 0, "bodies cannot sleep on the very first step");
    // From the transition on, the runs are *allowed* to differ (sleeping
    // zeroes residual velocities) — but the resting positions must still
    // agree to within the residual-velocity drift the threshold admits.
    for _ in 0..60 {
        on.step();
        off.step();
    }
    for (i, (a, b)) in positions(&on).iter().zip(positions(&off)).enumerate() {
        assert!(
            (*a - b).length() < 1e-2,
            "body {i} rest position drifted: sleeping {a:?} vs awake {b:?}"
        );
    }
}

#[test]
fn wake_all_reconverges_and_stays_deterministic_across_threads() {
    let run = |threads: usize| {
        let mut w = settling_world(threads, true);
        for _ in 0..160 {
            w.step();
        }
        let slept = w.sleeping_body_count();
        let rest = positions(&w);
        w.wake_all();
        assert_eq!(w.sleeping_body_count(), 0, "wake_all left sleepers");
        for _ in 0..160 {
            w.step();
        }
        assert!(
            w.sleeping_body_count() > 0,
            "threads = {threads}: never slept again"
        );
        (
            slept,
            rest,
            positions(&w),
            positions_bits(&w),
            world_digest(&w),
        )
    };
    let (slept, rest, resettled, bits, digest) = run(1);
    assert!(slept > 0, "world never slept; reconvergence is vacuous");
    // Re-settling after a mass wake must not walk the stacks anywhere.
    for (i, (a, b)) in rest.iter().zip(&resettled).enumerate() {
        assert!(
            (*a - *b).length() < 1e-3,
            "body {i} drifted across wake_all: {a:?} -> {b:?}"
        );
    }
    // And the entire sleep → wake → re-sleep arc is deterministic.
    for threads in [2, 8] {
        let (s, _, _, b, d) = run(threads);
        assert_eq!(s, slept, "threads = {threads}: sleep count diverged");
        assert_eq!(b, bits, "threads = {threads}: positions diverged");
        assert_eq!(d, digest, "threads = {threads}: world digest diverged");
    }
}

#[test]
fn monitored_sleeping_scene_has_zero_violations() {
    // The Resting workload under the full default monitor: islands fall
    // asleep, cannon impacts wake them, and no invariant — including the
    // sleeping-body-moved check — may fire.
    let mut scene = BenchmarkId::Resting.build(&SceneParams {
        scale: 0.15,
        sleeping: true,
        digests: true,
        ..SceneParams::default()
    });
    let mut monitor = InvariantMonitor::default();
    let mut peak = 0usize;
    for step in 0..250 {
        let profile = scene.step();
        peak = peak.max(profile.sleeping_bodies);
        let violations = monitor.check_step(&scene.world, &profile);
        assert!(violations.is_empty(), "step {step}: {violations:?}");
    }
    assert!(peak > 0, "nothing slept; the monitored run is vacuous");
    assert_eq!(monitor.violations_total(), 0);
}

/// A coast runs no phase: every wall of its profile is zero, and every
/// wall of a full step is not.
fn coasted(p: &StepProfile) -> bool {
    p.wall.iter().all(|w| w.is_zero())
}

/// Every profile field but the walls, bit for bit (`Debug` spells each
/// float so that distinct bits print distinctly).
fn without_walls(p: &StepProfile) -> String {
    format!(
        "{:?}",
        StepProfile {
            wall: Default::default(),
            ..p.clone()
        }
    )
}

/// One world stepped twice over: `worlds[0]` the normal way, `worlds[1]`
/// with its mutation epoch moved before every step, so that it never
/// coasts. Each step compares the two on everything a coast must
/// reproduce.
struct Twins {
    worlds: [World; 2],
}

impl Twins {
    fn new(build: impl Fn() -> World) -> Twins {
        Twins {
            worlds: [build(), build()],
        }
    }

    /// Applies `f` to both worlds.
    fn both(&mut self, mut f: impl FnMut(&mut World)) {
        self.worlds.iter_mut().for_each(&mut f);
    }

    /// Steps both; returns whether the coasting twin coasted.
    fn step(&mut self, what: &str) -> bool {
        let _ = self.worlds[1].config_mut();
        let [a, b] = self.worlds.each_mut().map(World::step);
        let [wa, wb] = &self.worlds;
        assert!(!coasted(&b), "{what}: the forced twin coasted");
        assert_eq!(without_walls(&a), without_walls(&b), "{what}: profiles");
        assert_eq!(world_digest(wa), world_digest(wb), "{what}: world digests");
        assert!(wa.snapshot() == wb.snapshot(), "{what}: snapshot bytes");
        coasted(&a)
    }

    /// Steps until the coasting twin coasts; panics after `limit` steps.
    fn until_coasting(&mut self, limit: usize, what: &str) {
        for step in 0..limit {
            if self.step(&format!("{what}, step {step}")) {
                return;
            }
        }
        panic!("{what}: no coast within {limit} steps");
    }
}

/// The worlds the coast must reproduce: a server session's generated
/// stacks, a named scene's world (its cannon, which fires faster than a
/// ball settles, left idle) and a car on slider springs.
#[derive(Debug, Clone, Copy)]
enum Rested {
    Stacks,
    Resting,
    Slider,
}

impl Rested {
    fn build(self) -> World {
        match self {
            Rested::Stacks => SessionWorld::default().build(),
            Rested::Resting => {
                BenchmarkId::Resting
                    .build(&SceneParams {
                        scale: 0.1,
                        sleeping: true,
                        ..SceneParams::default()
                    })
                    .world
            }
            Rested::Slider => {
                let mut w = World::new(WorldConfig {
                    sleeping: true,
                    ..WorldConfig::default()
                });
                w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
                entities::spawn_car(&mut w, Vec3::new(0.0, 0.66, 0.0), 0.0, None);
                w
            }
        }
    }
}

#[test]
fn coasting_matches_the_full_recomputation_through_a_wake() {
    let mut rng = SplitMix64::new(21);
    for kind in [Rested::Stacks, Rested::Resting, Rested::Slider] {
        // Settle once; every configuration below restores these states.
        let mut base = kind.build();
        let mut early = Vec::new();
        for step in 0..150 {
            if step == 5 {
                early = base.snapshot();
            }
            base.step();
        }
        let settled = base.snapshot();
        for threads in [1, 2] {
            for simd in [SimdMode::Scalar, SimdMode::Avx2] {
                for digests in [false, true] {
                    for source in ["impulse", "wake_body", "restore"] {
                        let what = format!("{kind:?} threads={threads} {simd:?} digests={digests}");
                        let mut twins = Twins::new(|| {
                            let mut w = kind.build();
                            let c = w.config_mut();
                            (c.threads, c.simd, c.digests) = (threads, simd, digests);
                            w.restore(&settled).expect("own snapshot");
                            w
                        });
                        let wake_at = 30 + rng.index(120);
                        let mut coasts = [0; 2];
                        for step in 0..300 {
                            if step == wake_at {
                                let sleeper = (0..twins.worlds[0].bodies().len())
                                    .map(|i| BodyId(i as u32))
                                    .find(|&id| twins.worlds[0].body(id).is_sleeping());
                                twins.both(|w| match (source, sleeper) {
                                    ("impulse", Some(id)) => {
                                        let p = w.body(id).position();
                                        w.body_mut(id)
                                            .apply_impulse_at(Vec3::new(3.0, 1.0, 0.0), p);
                                    }
                                    ("wake_body", Some(id)) => w.wake_body(id),
                                    ("restore", _) => w.restore(&early).expect("own snapshot"),
                                    _ => {}
                                });
                            }
                            let coast =
                                twins.step(&format!("{what} {source}@{wake_at}, step {step}"));
                            coasts[usize::from(step > wake_at)] += usize::from(coast);
                        }
                        assert!(
                            coasts[0] > 0 && coasts[1] > 0,
                            "{what} {source}@{wake_at}: coasts before/after the wake {coasts:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_world_mutator_ends_the_coast() {
    let mut twins = Twins::new(|| {
        SessionWorld {
            bodies: 20,
            ..SessionWorld::default()
        }
        .build()
    });
    let own = twins.worlds[0].snapshot();
    let resting = |x: f32| BodyDesc::dynamic(Vec3::new(x, 0.4, 30.0));
    let box_shape = || Shape::cuboid(Vec3::splat(0.4));
    type Mutator = Box<dyn Fn(&mut World)>;
    let mutators: Vec<(&str, Mutator)> = vec![
        (
            "config_mut",
            Box::new(|w: &mut World| {
                let _ = w.config_mut();
            }),
        ),
        (
            "add_body",
            Box::new(move |w: &mut World| {
                w.add_body(resting(0.0).with_shape(box_shape(), 2.0));
            }),
        ),
        (
            "add_static_geom",
            Box::new(|w: &mut World| {
                w.add_static_geom(Shape::sphere(0.5));
            }),
        ),
        (
            "add_static_geom_at",
            Box::new(|w: &mut World| {
                let at = parallax_math::Transform::from_position(Vec3::new(-30.0, 0.5, 0.0));
                w.add_static_geom_at(Shape::sphere(0.5), at);
            }),
        ),
        (
            "add_joint",
            Box::new(|w: &mut World| {
                let ball = JointKind::Ball {
                    anchor_a: Vec3::new(0.0, 0.4, 0.0),
                    anchor_b: Vec3::new(0.0, -0.4, 0.0),
                };
                w.add_joint(Joint::new(ball, BodyId(0), BodyId(1)));
            }),
        ),
        (
            "exclude_collision",
            Box::new(|w: &mut World| w.exclude_collision(BodyId(2), BodyId(3))),
        ),
        (
            "body_mut",
            Box::new(|w: &mut World| {
                let _ = w.body_mut(BodyId(4));
            }),
        ),
        (
            "set_body_enabled",
            Box::new(|w: &mut World| w.set_body_enabled(BodyId(4), true)),
        ),
        (
            "wake_body",
            Box::new(|w: &mut World| w.wake_body(BodyId(5))),
        ),
        ("wake_all", Box::new(|w: &mut World| w.wake_all())),
        (
            "restore",
            Box::new(move |w: &mut World| w.restore(&own).expect("own snapshot")),
        ),
        (
            "collide_candidates",
            Box::new(|w: &mut World| {
                w.collide_candidates(&[(GeomId(0), GeomId(1))], &mut Vec::new(), &mut Vec::new());
            }),
        ),
        (
            "make_explosive",
            Box::new(|w: &mut World| w.make_explosive(BodyId(6), ExplosionConfig::default())),
        ),
        (
            "add_prefractured",
            Box::new(|w: &mut World| {
                w.add_prefractured(
                    Vec3::new(30.0, 1.0, 30.0),
                    parallax_math::Quat::IDENTITY,
                    Vec3::new(0.5, 1.0, 0.5),
                    8.0,
                    FractureConfig::default(),
                );
            }),
        ),
        (
            "add_cloth",
            Box::new(|w: &mut World| {
                let cloth = Cloth::rectangle(Vec3::new(-30.0, 3.0, -30.0), 1.0, 1.0, 3, 3, &[]);
                w.add_cloth(cloth);
            }),
        ),
    ];
    for (name, mutate) in &mutators {
        twins.until_coasting(400, &format!("before {name}"));
        twins.both(|w| mutate(w));
        assert!(
            !twins.step(&format!("after {name}")),
            "{name}: the step after the mutation coasted"
        );
    }
    // With a cloth in the world nothing coasts again; `cloth_mut` is the
    // one mutator that needs one.
    twins.both(|w| {
        let _ = w.cloth_mut(parallax_physics::ClothId(0));
    });
    for step in 0..5 {
        assert!(!twins.step(&format!("after cloth_mut, step {step}")));
    }
}
