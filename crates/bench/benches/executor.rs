//! Criterion benchmarks for the persistent executor: raw map throughput
//! and whole-pipeline steps/sec versus executor width on the Mix scene.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use parallax_physics::parallel::Executor;
use parallax_workloads::{BenchmarkId, SceneParams};

/// Raw `map_into` throughput over a compute-heavy closure, per width.
fn bench_executor_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_map");
    group.sample_size(20);
    let items: Vec<u64> = (0..4096).collect();
    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(threads);
        let mut out = Vec::new();
        group.bench_with_input(CritId::new("spin4096", threads), &threads, |b, _| {
            b.iter(|| {
                exec.map_into(&items, &mut out, |&x| {
                    let mut acc = x;
                    for _ in 0..64 {
                        acc = acc
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                    }
                    acc
                });
                out[0]
            })
        });
    }
    group.finish();
}

/// Whole-pipeline steps/sec on the Mix scene per executor width. On a
/// host that cannot scale, `telemetry_report --critical-path` attributes
/// the parallel fraction instead.
fn bench_mix_step_by_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("mix_step");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let mut scene = BenchmarkId::Mix.build(&SceneParams {
            scale: 0.15,
            threads,
            ..SceneParams::default()
        });
        for _ in 0..10 {
            scene.step();
        }
        group.bench_with_input(CritId::new("threads", threads), &threads, |b, _| {
            b.iter(|| scene.step())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_executor_map, bench_mix_step_by_threads);
criterion_main!(benches);
