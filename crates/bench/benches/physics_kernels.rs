//! Criterion benchmarks for the physics engine's five phase kernels.
//!
//! `cargo bench … -- --quick` shrinks the sample counts to a smoke-test
//! shape (used by `scripts/verify.sh`).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use parallax_math::{Quat, SimdMode, Transform, Vec3};
use parallax_physics::broadphase::{GridScratch, SweepAndPrune, UniformGrid, GRID_CELL};
use parallax_physics::narrowphase::collide_shapes;
use parallax_physics::{
    BodyDesc, Cloth, GeomId, Heightfield, Shape, ShapeKind, World, WorldConfig,
};
use parallax_workloads::{BenchmarkId, RunConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Whether the label filter (the first argument that is not a flag)
/// selects `label`, as the harness decides it.
fn selected(label: &str) -> bool {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .is_none_or(|f| label.contains(&f))
}

fn bench_broadphase(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadphase");
    for n in [100usize, 1000, 4000] {
        let aabbs: Vec<_> = (0..n)
            .map(|i| {
                let p = Vec3::new(
                    (i % 64) as f32 * 1.1,
                    ((i / 64) % 8) as f32 * 1.1,
                    (i / 512) as f32 * 1.1,
                );
                (
                    GeomId(i as u32),
                    parallax_math::Aabb::from_center_half_extents(p, Vec3::splat(0.6)),
                )
            })
            .collect();
        // The harness calls each closure once per sample; the structures
        // live outside so that every sample continues one history.
        let mut sap = SweepAndPrune::new();
        let (mut grid, mut scratch) = (UniformGrid::new(2.0), GridScratch::default());
        let mut out = Vec::new();
        group.bench_with_input(CritId::new("sweep_and_prune", n), &aabbs, |b, aabbs| {
            b.iter(|| sap.pairs_into(aabbs, &mut out));
        });
        // On a frozen cloud the persistent grid runs its zero-churn path.
        group.bench_with_input(CritId::new("uniform_grid", n), &aabbs, |b, aabbs| {
            b.iter(|| grid.pairs_into(aabbs, &mut out, &mut scratch));
        });

        // A coherent sequence gives churn a number: every frame each box
        // jitters by up to 2 cm and about one in twenty is displaced by up
        // to 0.5 m, which takes it out of its fat box.
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let mut unit = move || rng.gen_range(-1.0f32..1.0);
        let mut boxes = aabbs.clone();
        let frames: Vec<Vec<_>> = (0..32)
            .map(|_| {
                for (_, bb) in &mut boxes {
                    let reach = if unit() > 0.9 { 0.5 } else { 0.02 };
                    let d = Vec3::new(unit(), unit(), unit()) * reach;
                    *bb = parallax_math::Aabb::new(bb.min + d, bb.max + d);
                }
                boxes.clone()
            })
            .collect();
        let mut sap_frame = frames.iter().cycle();
        group.bench_function(CritId::new("sweep_and_prune_coherent", n), |b| {
            b.iter(|| sap.pairs_into(sap_frame.next().unwrap(), &mut out));
        });
        let mut grid_frame = frames.iter().cycle();
        group.bench_function(CritId::new("uniform_grid_coherent", n), |b| {
            b.iter(|| grid.pairs_into(grid_frame.next().unwrap(), &mut out, &mut scratch));
        });
    }

    // The engine's own input: Mix at full scale, the AABB lists its
    // refresh wrote for steps 12–60. Each run warms a fresh grid with step
    // 12 and replays steps 13–60 through it, as `scene_static` steps them;
    // only the replay is timed, and printed per step.
    let label = "broadphase/mix_steps_13_to_60";
    if !selected(label) {
        group.finish();
        return;
    }
    let mut scene = RunConfig::default().build(BenchmarkId::Mix, 1.0);
    let lists: Vec<_> = (0..=60)
        .map(|_| {
            scene.step();
            scene.world.pipeline().broadphase_aabbs().to_vec()
        })
        .collect();
    let (warm, replay) = (&lists[12], &lists[13..]);
    let (mut spent, mut runs, mut candidates) = (Duration::ZERO, 0u32, 0);
    let (mut out, mut scratch) = (Vec::new(), GridScratch::default());
    group.bench_function("mix_steps_13_to_60", |b| {
        b.iter(|| {
            let mut grid = UniformGrid::new(GRID_CELL);
            grid.pairs_into(warm, &mut out, &mut scratch);
            let start = Instant::now();
            for list in replay {
                candidates += grid.pairs_into(list, &mut out, &mut scratch).pairs;
            }
            spent += start.elapsed();
            runs += 1;
        });
    });
    let steps = runs * replay.len() as u32;
    println!(
        "  {label}: {:.0} ns per step ({} candidates a step)",
        spent.as_nanos() as f64 / steps.max(1) as f64,
        candidates / steps.max(1) as usize
    );
    group.finish();
}

/// Per-pair kernels through the public dispatcher, on the poses the
/// scenes are made of: brick-shaped boxes stacked in running bond, side
/// by side, just apart and edge to edge, and the terrain pairs.
fn bench_narrowphase(c: &mut Criterion) {
    let mut group = c.benchmark_group("narrowphase");
    if quick() {
        group.sample_size(3);
    }
    let at = |x: f32, y: f32, z: f32| Transform::from_position(Vec3::new(x, y, z));
    let unit_box = Shape::cuboid(Vec3::splat(0.5));
    let brick = Shape::cuboid(Vec3::new(0.4, 0.2, 0.2));
    let tilted = Transform::new(
        Vec3::new(0.0, 0.47, 0.0),
        Quat::from_axis_angle(Vec3::UNIT_X, std::f32::consts::FRAC_PI_4)
            * Quat::from_axis_angle(Vec3::UNIT_Y, 0.6),
    );
    let hills = Heightfield::new(
        17,
        17,
        1.0,
        (0..17 * 17)
            .map(|i| 0.3 * ((i % 17) as f32 * 0.7).sin() * ((i / 17) as f32 * 0.5).cos())
            .collect(),
    );
    let lying = Transform::new(
        Vec3::new(0.3, 0.35, -0.2),
        Quat::from_axis_angle(Vec3::UNIT_Z, 1.3),
    );
    let cases: [(&str, Shape, Transform, Shape, Transform); 10] = [
        (
            "sphere_sphere",
            Shape::sphere(0.5),
            at(0.0, 0.8, 0.0),
            Shape::sphere(0.5),
            at(0.0, 0.0, 0.0),
        ),
        (
            "sphere_box",
            Shape::sphere(0.5),
            at(0.0, 0.8, 0.0),
            unit_box.clone(),
            at(0.0, 0.0, 0.0),
        ),
        (
            "box_box",
            unit_box.clone(),
            at(0.0, 0.8, 0.0),
            unit_box.clone(),
            at(0.0, 0.0, 0.0),
        ),
        (
            "capsule_capsule",
            Shape::capsule(0.3, 0.5),
            at(0.0, 0.8, 0.0),
            Shape::capsule(0.3, 0.5),
            at(0.0, 0.0, 0.0),
        ),
        // Running bond: the upper brick sits half a brick along.
        (
            "brick_stacked_half_offset",
            brick.clone(),
            at(0.4, 0.395, 0.0),
            brick.clone(),
            at(0.0, 0.0, 0.0),
        ),
        (
            "brick_side_by_side",
            brick.clone(),
            at(0.795, 0.0, 0.0),
            brick.clone(),
            at(0.0, 0.0, 0.0),
        ),
        // Fat boxes overlap, shapes do not: the SAT finds a separating
        // axis.
        (
            "brick_near_miss",
            brick.clone(),
            at(0.4, 0.43, 0.0),
            brick.clone(),
            at(0.0, 0.0, 0.0),
        ),
        (
            "brick_edge_edge",
            brick.clone(),
            tilted,
            brick.clone(),
            at(0.0, 0.0, 0.0),
        ),
        (
            "box_plane",
            brick.clone(),
            at(0.0, 0.19, 0.0),
            Shape::plane(Vec3::UNIT_Y, 0.0),
            at(0.0, 0.0, 0.0),
        ),
        (
            "capsule_heightfield",
            Shape::capsule(0.25, 0.5),
            lying,
            Shape::heightfield(hills),
            at(0.0, 0.0, 0.0),
        ),
    ];
    for (name, a, ta, b, tb) in &cases {
        group.bench_function(*name, |bench| {
            bench.iter(|| collide_shapes(black_box(a), black_box(ta), b, tb))
        });
    }
    group.finish();
}

/// The whole narrow-phase stage — classify, collide, emit — over the
/// candidate list a real broad phase produces for a scene-shaped world.
/// The label carries what the list is made of: candidates, the share the
/// classifier keeps active, box–box among those, and the share that hits.
fn bench_narrowphase_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("narrowphase_stage");
    if quick() {
        group.sample_size(3);
    }
    type Build = fn(SimdMode) -> World;
    for (name, build) in [
        ("mix_shaped", mix_shaped_world as Build),
        ("explosions_shaped", explosions_shaped_world),
    ] {
        for mode in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
            if mode.clamp_to_supported() != mode {
                continue;
            }
            let mut world = build(mode);
            let aabbs: Vec<_> = world
                .geoms()
                .iter()
                .enumerate()
                .filter(|(_, g)| g.is_enabled())
                .map(|(i, g)| (GeomId(i as u32), g.aabb()))
                .collect();
            let mut candidates = Vec::new();
            UniformGrid::new(GRID_CELL).pairs_into(
                &aabbs,
                &mut candidates,
                &mut GridScratch::default(),
            );
            let (mut pairs, mut manifolds) = (Vec::new(), Vec::new());
            world.collide_candidates(&candidates, &mut pairs, &mut manifolds);
            let hits = manifolds.len();
            let active: Vec<_> = pairs.iter().filter(|p| p.active).collect();
            let box_box = active
                .iter()
                .filter(|p| p.shape_a == ShapeKind::Cuboid && p.shape_b == ShapeKind::Cuboid)
                .count();
            let pct = |part: usize, whole: usize| 100 * part / whole.max(1);
            let label = format!(
                "{name}_{}/{}cand_{}%active_{}%boxbox_{}%hit",
                mode.name(),
                candidates.len(),
                pct(active.len(), candidates.len()),
                pct(box_box, active.len()),
                pct(hits, active.len()),
            );
            group.bench_function(label, |b| {
                b.iter(|| {
                    world.collide_candidates(&candidates, &mut pairs, &mut manifolds);
                    manifolds.len()
                })
            });
        }
    }
    group.finish();
}

/// Mix-shaped: a dense block of static boxes whose mutual pairs the
/// classifier keeps but never collides (about nine candidates in ten),
/// around a plane with a brick wall, spheres and capsules resting on it.
fn mix_shaped_world(simd: SimdMode) -> World {
    let mut world = World::new(WorldConfig {
        simd,
        ..Default::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for i in 0..12 * 12 * 11 {
        let (x, y, z) = (i % 12, (i / 12) % 12, i / 144);
        world.add_body(
            BodyDesc::fixed(Vec3::new(40.0 + x as f32, 0.6 + y as f32, 40.0 + z as f32))
                .with_shape(Shape::cuboid(Vec3::splat(0.6)), 1.0),
        );
    }
    add_brick_walls(&mut world, 2, 24, 6);
    for i in 0..240 {
        let p = Vec3::new(
            -20.0 + (i % 20) as f32 * 0.98,
            0.49,
            10.0 + (i / 20) as f32 * 0.98,
        );
        let shape = if i % 3 == 0 {
            Shape::capsule(0.3, 0.19)
        } else {
            Shape::sphere(0.5)
        };
        world.add_body(BodyDesc::dynamic(p).with_shape(shape, 1.0));
    }
    world
}

/// Explosions-shaped: nothing but dynamic bricks on one plane, settled
/// walls in running bond, so nearly every candidate is active, about two
/// in three are box–box and most of them touch.
fn explosions_shaped_world(simd: SimdMode) -> World {
    let mut world = World::new(WorldConfig {
        simd,
        ..Default::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    add_brick_walls(&mut world, 40, 30, 3);
    world
}

/// `walls` walls of `columns` × `courses` bricks in running bond, each
/// brick sunk half a centimetre into its neighbours, as a settled pile is.
fn add_brick_walls(world: &mut World, walls: usize, columns: usize, courses: usize) {
    let half = Vec3::new(0.4, 0.2, 0.2);
    for wall in 0..walls {
        for course in 0..courses {
            let shift = if course % 2 == 0 { 0.0 } else { half.x };
            for col in 0..columns {
                let p = Vec3::new(
                    shift + col as f32 * (2.0 * half.x - 0.005),
                    half.y - 0.005 + course as f32 * (2.0 * half.y - 0.005),
                    wall as f32 * 1.5,
                );
                world.add_body(BodyDesc::dynamic(p).with_shape(Shape::cuboid(half), 6.0));
            }
        }
    }
}

fn bench_island_processing(c: &mut Criterion) {
    // A 5-box stack: one island with contacts solved per step.
    let mut world = World::new(WorldConfig::default());
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for i in 0..5 {
        world.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 0.5 + i as f32, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
        );
    }
    for _ in 0..50 {
        world.step();
    }
    c.bench_function("island_processing/stack5_step", |b| b.iter(|| world.step()));
}

/// One cloth step at the widest SIMD mode this host runs, for Mix's two
/// cloth shapes: a 25×25 drape pinned along one edge and a 5×5 uniform
/// pinned at two corners. Each runs bare (Verlet + relaxation; printed as
/// ns per constraint projection) and against a Mix-shaped collider set —
/// terrain heightfield, capsule limbs, a box — printed as the extra ns per
/// vertex-collider test, with the share the collision bounds skipped.
fn bench_cloth(c: &mut Criterion) {
    let mut group = c.benchmark_group("cloth");
    if quick() {
        group.sample_size(3);
    }
    let mode = SimdMode::resolve().clamp_to_supported();
    let gravity = Vec3::new(0.0, -9.81, 0.0);
    for (name, n, side, pins) in [
        ("drape_25x25", 25usize, 3.0f32, (0..25).collect::<Vec<_>>()),
        ("uniform_5x5", 5, 0.4, vec![0, 4]),
    ] {
        let origin = Vec3::new(-0.5 * side, 1.6, -0.5 * side);
        let colliders = mix_shaped_colliders(side);
        let mut bare_ns = 0.0;
        for with_colliders in [false, true] {
            let set: &[(Shape, Transform)] = if with_colliders { &colliders } else { &[] };
            let mut cloth = Cloth::rectangle(origin, side, side, n, n, &pins);
            // Settle onto the colliders so that every sample steps the same
            // resting configuration.
            for _ in 0..100 {
                cloth.step(gravity, 0.01, set, mode);
            }
            let stats = cloth.step(gravity, 0.01, set, mode);
            let culls = cloth.last_culls();
            let label = format!(
                "{name}_{}{}",
                mode.name(),
                if with_colliders { "_colliders" } else { "" }
            );
            let (mut spent, mut steps) = (Duration::ZERO, 0u64);
            group.bench_function(label.as_str(), |b| {
                let start = Instant::now();
                b.iter(|| {
                    steps += 1;
                    cloth.step(gravity, 0.01, set, mode)
                });
                spent += start.elapsed();
            });
            if steps == 0 {
                continue;
            }
            let step_ns = spent.as_nanos() as f64 / steps as f64;
            if with_colliders {
                let skipped = culls.ccd_culled + culls.project_out_culled;
                println!(
                    "  cloth/{label}: {:.1} ns per collision test ({} tests per step, \
                     {:.0}% skipped by bounds)",
                    (step_ns - bare_ns) / stats.collision_tests.max(1) as f64,
                    stats.collision_tests,
                    100.0 * skipped as f64 / stats.collision_tests.max(1) as f64
                );
            } else {
                bare_ns = step_ns;
                println!(
                    "  cloth/{label}: {:.2} ns per projection ({} projections per step)",
                    step_ns / stats.projections.max(1) as f64,
                    stats.projections
                );
            }
        }
    }
    group.finish();
}

/// Colliders around a `side`-wide cloth hanging at y = 1.6 as Mix places
/// them: rolling terrain below, a building wall behind, and a humanoid's
/// torso and limbs (capsules) under its middle.
fn mix_shaped_colliders(side: f32) -> Vec<(Shape, Transform)> {
    let heights = (0..64 * 64)
        .map(|i| 0.2 * ((i % 64) as f32 * 0.3).sin() * ((i / 64) as f32 * 0.2).cos())
        .collect();
    let upright = |x: f32, y: f32, z: f32| Transform::from_position(Vec3::new(x, y, z));
    let lying = |x: f32, y: f32, z: f32| {
        Transform::new(
            Vec3::new(x, y, z),
            Quat::from_axis_angle(Vec3::UNIT_Z, std::f32::consts::FRAC_PI_2),
        )
    };
    vec![
        (
            Shape::heightfield(Heightfield::new(64, 64, 2.5, heights)),
            Transform::IDENTITY,
        ),
        (
            Shape::cuboid(Vec3::new(side, 2.0, 0.2)),
            upright(0.0, 2.0, -0.5 * side - 0.3),
        ),
        (Shape::capsule(0.15, 0.25), upright(0.0, 1.05, 0.0)),
        (Shape::capsule(0.06, 0.2), lying(0.3, 1.25, 0.0)),
        (Shape::capsule(0.06, 0.2), lying(-0.3, 1.25, 0.0)),
        (Shape::capsule(0.08, 0.3), upright(0.12, 0.45, 0.0)),
        (Shape::capsule(0.08, 0.3), upright(-0.12, 0.45, 0.0)),
    ]
}

fn bench_full_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_step");
    group.sample_size(20);
    for threads in [1usize, 4] {
        let cfg = WorldConfig {
            threads,
            ..Default::default()
        };
        let mut world = World::new(cfg);
        world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        for i in 0..100 {
            world.add_body(
                BodyDesc::dynamic(Vec3::new(
                    (i % 10) as f32 * 1.05,
                    0.5 + (i / 10) as f32 * 1.05,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
        for _ in 0..30 {
            world.step();
        }
        group.bench_function(format!("100boxes_{threads}T"), |b| b.iter(|| world.step()));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_broadphase,
    bench_narrowphase,
    bench_narrowphase_stage,
    bench_island_processing,
    bench_cloth,
    bench_full_step
);
criterion_main!(benches);
