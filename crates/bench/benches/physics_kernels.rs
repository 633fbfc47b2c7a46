//! Criterion benchmarks for the physics engine's five phase kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use parallax_math::{SimdMode, Transform, Vec3};
use parallax_physics::broadphase::{Broadphase, SweepAndPrune, UniformGrid};
use parallax_physics::narrowphase::collide_shapes;
use parallax_physics::{BodyDesc, Cloth, Shape, World, WorldConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
                    parallax_physics::GeomId(i as u32),
                    parallax_math::Aabb::from_center_half_extents(p, Vec3::splat(0.6)),
                )
            })
            .collect();
        // The harness calls each closure once per sample; the structures
        // live outside so that every sample continues one history.
        let mut sap = SweepAndPrune::new();
        let mut grid = UniformGrid::new(2.0);
        let mut out = Vec::new();
        group.bench_with_input(CritId::new("sweep_and_prune", n), &aabbs, |b, aabbs| {
            b.iter(|| sap.pairs_into(aabbs, &mut out));
        });
        // On a frozen cloud the persistent grid runs its zero-churn path.
        group.bench_with_input(CritId::new("uniform_grid", n), &aabbs, |b, aabbs| {
            b.iter(|| grid.pairs_into(aabbs, &mut out));
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
            b.iter(|| grid.pairs_into(grid_frame.next().unwrap(), &mut out));
        });
    }
    group.finish();
}

fn bench_narrowphase(c: &mut Criterion) {
    let mut group = c.benchmark_group("narrowphase");
    let pairs: [(&str, Shape, Shape); 4] = [
        ("sphere_sphere", Shape::sphere(0.5), Shape::sphere(0.5)),
        (
            "sphere_box",
            Shape::sphere(0.5),
            Shape::cuboid(Vec3::splat(0.5)),
        ),
        (
            "box_box",
            Shape::cuboid(Vec3::splat(0.5)),
            Shape::cuboid(Vec3::splat(0.5)),
        ),
        (
            "capsule_capsule",
            Shape::capsule(0.3, 0.5),
            Shape::capsule(0.3, 0.5),
        ),
    ];
    for (name, a, b) in pairs {
        let ta = Transform::from_position(Vec3::new(0.0, 0.8, 0.0));
        let tb = Transform::IDENTITY;
        group.bench_function(name, |bench| {
            bench.iter(|| collide_shapes(std::hint::black_box(&a), &ta, &b, &tb))
        });
    }
    group.finish();
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

fn bench_cloth(c: &mut Criterion) {
    let mut group = c.benchmark_group("cloth");
    for (name, n) in [("small_25v", 5usize), ("large_625v", 25)] {
        let mut cloth = Cloth::rectangle(Vec3::new(0.0, 2.0, 0.0), 1.0, 1.0, n, n, &[0]);
        group.bench_function(name, |b| {
            b.iter(|| cloth.step(Vec3::new(0.0, -9.81, 0.0), 0.01, &[], SimdMode::Scalar))
        });
    }
    group.finish();
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
    bench_island_processing,
    bench_cloth,
    bench_full_step
);
criterion_main!(benches);
