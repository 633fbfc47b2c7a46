//! Criterion benchmarks for the architecture simulator's components, plus
//! four host-speed entries that follow the `arch_sweep` workload: captured
//! scene steps replayed through a warmed hierarchy (ns per simulated
//! reference), trace generation (ns per reference), the cost of a
//! design point's construction plus first step, and a nine-point ParallAX
//! sweep whose first point simulates the CG side the other eight share.
//!
//! `cargo bench … -- --quick` cuts the repeat counts to a smoke-test shape
//! (used by `scripts/verify.sh`).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId as CritId, Criterion};
use parallax::{FgCoreType, ParallaxSystem};
use parallax_archsim::cache::{BankedCache, Cache};
use parallax_archsim::config::{CoreConfig, L2Config, MachineConfig};
use parallax_archsim::core::CoreModel;
use parallax_archsim::hierarchy::Hierarchy;
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_archsim::yags::Yags;
use parallax_physics::StepProfile;
use parallax_trace::{Kernel, StepTrace, TaskTrace};
use parallax_workloads::{BenchmarkId, SceneParams};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The paper's per-phase L2 way-partition assignment.
const PARTITION_OF_PHASE: [u8; 5] = [0, 2, 1, 2, 2];

fn partitioned_machine() -> MachineConfig {
    let mut machine = MachineConfig::baseline(4, 12);
    machine.l2 = L2Config::partitioned(12, vec![1, 1, 2]);
    machine
}

/// One measured step of `id` at scale 0.2, after two warm frames.
fn captured_step(id: BenchmarkId) -> StepProfile {
    let mut scene = id.build(&SceneParams {
        scale: 0.2,
        ..SceneParams::default()
    });
    scene.run_measured(2, 1).pop().expect("a measured step")
}

/// Least wall of `repeats` runs of `f`, in seconds.
fn least_wall(repeats: usize, mut f: impl FnMut()) -> f64 {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("l1_32k_hits", |b| {
        let mut cache = Cache::new(32 * 1024, 4, 64);
        for i in 0..256u64 {
            cache.access(i * 64, 0);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 256;
            cache.access(i * 64, 0)
        });
    });
    group.bench_function("l2_4mb_stream", |b| {
        let mut l2 = BankedCache::new(4, 1024 * 1024, 4, 64);
        let mut i = 0u64;
        b.iter(|| {
            i += 64;
            l2.access(i % (16 * 1024 * 1024), 0)
        });
    });
    group.finish();
}

fn bench_yags(c: &mut Criterion) {
    let mut group = c.benchmark_group("yags");
    for kb in [1usize, 17, 64] {
        group.bench_with_input(CritId::new("predict_update", kb), &kb, |b, &kb| {
            let mut y = Yags::with_budget(kb * 1024);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                y.predict_and_update(0x1000 + (i % 32) * 4, !i.is_multiple_of(7))
            });
        });
    }
    group.finish();
}

fn bench_core_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_model");
    let task = TaskTrace::compute_only(parallax_trace::kernels::KernelModel::island_solver(
        100, 20, 10,
    ));
    for cfg in [CoreConfig::desktop(), CoreConfig::shader()] {
        let model = CoreModel::new(cfg);
        // Prime the misprediction rate outside the timing loop.
        let _ = model.task_cycles(&task, Kernel::IslandSolver, 0);
        group.bench_function(cfg.name, |b| {
            b.iter(|| model.task_cycles(&task, Kernel::IslandSolver, 100))
        });
    }
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut h = Hierarchy::new(&MachineConfig::baseline(2, 4));
    let mut i = 0u64;
    c.bench_function("hierarchy/access", |b| {
        b.iter(|| {
            i += 64;
            h.access(0, i % (8 * 1024 * 1024), i.is_multiple_of(4), 0)
        })
    });
}

/// Replays captured steps, reference by reference, through a warmed
/// 4-core partitioned hierarchy: parallel-phase tasks round-robin over the
/// cores, each phase under its partition.
fn bench_replay(_: &mut Criterion) {
    let repeats = if quick() { 2 } else { 20 };
    for id in [BenchmarkId::Explosions, BenchmarkId::Mix] {
        let trace = StepTrace::from_profile(&captured_step(id));
        let mut refs: Vec<(usize, u64, bool, u8)> = Vec::with_capacity(trace.total_mem_refs());
        for (pi, phase) in trace.phases.iter().enumerate() {
            for (k, task) in phase.tasks.iter().enumerate() {
                let core = if phase.phase.is_serial() { 0 } else { k % 4 };
                let part = PARTITION_OF_PHASE[pi];
                refs.extend(trace.reads(task).iter().map(|&a| (core, a, false, part)));
                refs.extend(trace.writes(task).iter().map(|&a| (core, a, true, part)));
            }
        }
        let mut h = Hierarchy::new(&partitioned_machine());
        let mut replay = || {
            for &(core, addr, write, part) in &refs {
                black_box(h.access(core, addr, write, part));
            }
        };
        replay();
        let ns = least_wall(repeats, replay) * 1e9 / refs.len() as f64;
        println!(
            "bench: {:<50} {ns:9.1} ns/ref  {:7.1} Mref/s  ({} refs)",
            format!("hierarchy/replay/{}", id.name()),
            1e3 / ns,
            refs.len()
        );
    }
}

fn bench_trace_build(_: &mut Criterion) {
    let profile = captured_step(BenchmarkId::Mix);
    let refs = StepTrace::from_profile(&profile).total_mem_refs();
    let wall = least_wall(if quick() { 2 } else { 30 }, || {
        black_box(StepTrace::from_profile(black_box(&profile)));
    });
    println!(
        "bench: {:<50} {:9.1} ns/ref  {:9.3} ms/step  ({refs} refs)",
        "trace/from_profile/Mix",
        wall * 1e9 / refs as f64,
        wall * 1e3
    );
}

/// A design point's construction plus its first step against a later step
/// of the same simulator; the difference is one-off work (cold modelled
/// caches, and whatever the core models still compute on first use).
fn bench_first_step(_: &mut Criterion) {
    let trace = StepTrace::from_profile(&captured_step(BenchmarkId::Explosions));
    let mut first = f64::INFINITY;
    let mut later = f64::INFINITY;
    for _ in 0..if quick() { 2 } else { 10 } {
        let start = Instant::now();
        let mut sim = MulticoreSim::new(
            partitioned_machine(),
            SimOptions {
                os_overhead: true,
                partition_of_phase: Some(PARTITION_OF_PHASE),
                ..SimOptions::default()
            },
        );
        black_box(sim.run_step(&trace));
        first = first.min(start.elapsed().as_secs_f64());
        sim.run_step(&trace);
        later = later.min(least_wall(1, || {
            black_box(sim.run_step(&trace));
        }));
    }
    println!(
        "bench: {:<50} {:9.3} ms  (a later step: {:.3} ms)",
        "multicore/new+first_step",
        first * 1e3,
        later * 1e3
    );
}

/// The nine ParallAX design points of `arch_sweep` (three FG pools, each
/// behind each CG↔FG link) over one captured window: the first point
/// simulates the CG side, the other eight read it from the CG record.
/// Windows alternate between two scenes, so every sweep's first point
/// starts a new history.
fn bench_parallax_sweep(_: &mut Criterion) {
    let windows: Vec<(BenchmarkId, Vec<StepProfile>)> = [BenchmarkId::Explosions, BenchmarkId::Mix]
        .into_iter()
        .map(|id| {
            let mut scene = id.build(&SceneParams {
                scale: 0.2,
                ..SceneParams::default()
            });
            (id, scene.run_measured(2, 1))
        })
        .collect();
    let pools = [
        (FgCoreType::Desktop, 30),
        (FgCoreType::Console, 43),
        (FgCoreType::Shader, 150),
    ];
    let mut first = [f64::INFINITY; 2];
    let mut rest = [f64::INFINITY; 2];
    for _ in 0..if quick() { 1 } else { 5 } {
        for (w, (_, window)) in windows.iter().enumerate() {
            let walls: Vec<f64> = pools
                .iter()
                .flat_map(|&(fg_type, n)| Link::ALL.map(|link| (fg_type, n, link)))
                .map(|(fg_type, n, link)| {
                    least_wall(1, || {
                        let mut system = ParallaxSystem::new(4, fg_type, n, link);
                        black_box(system.simulate_steps(window));
                    })
                })
                .collect();
            first[w] = first[w].min(walls[0]);
            rest[w] = rest[w].min(walls[1..].iter().sum::<f64>() / 8.0);
        }
    }
    for (w, (id, window)) in windows.iter().enumerate() {
        println!(
            "bench: {:<50} {:9.3} ms  (each of the other eight: {:.3} ms; {} steps)",
            format!("parallax_sweep/{}", id.name()),
            first[w] * 1e3,
            rest[w] * 1e3,
            window.len()
        );
    }
}

criterion_group!(
    benches,
    bench_cache,
    bench_yags,
    bench_core_model,
    bench_hierarchy,
    bench_replay,
    bench_trace_build,
    bench_first_step,
    bench_parallax_sweep
);
criterion_main!(benches);
