//! Executor scaling: wall-clock steps/sec of the real pipeline versus
//! executor width on the Mix scene, written to `BENCH_pipeline.json`.
//!
//! This is the one experiment that measures the engine's actual parallel
//! execution (the persistent executor behind the narrow-phase, island
//! processing and cloth stages) rather than the modeled CG/FG timing.
//! Environment: `PARALLAX_SCALE` (default 0.25), `PARALLAX_EXEC_STEPS`
//! (default 60), `PARALLAX_EXEC_THREADS` (comma list, default `1,2,4,8`).

use parallax_bench::executor_scaling;
use parallax_bench::{env_or, print_table};
use parallax_physics::PhaseKind;
use parallax_workloads::BenchmarkId;

fn main() {
    let scale: f32 = env_or("PARALLAX_SCALE", 0.25);
    let steps: usize = env_or("PARALLAX_EXEC_STEPS", 60).max(1);
    let threads: Vec<usize> = std::env::var("PARALLAX_EXEC_THREADS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| v.first() == Some(&1))
        .unwrap_or_else(|| vec![1, 2, 4, 8]);

    let report = executor_scaling::run(BenchmarkId::Mix, scale, &threads, steps / 4, steps);

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            let serial: f64 = PhaseKind::ALL
                .iter()
                .enumerate()
                .filter(|(_, k)| k.is_serial())
                .map(|(i, _)| p.phase_wall[i])
                .sum();
            let total: f64 = p.phase_wall.iter().sum();
            vec![
                p.threads.to_string(),
                format!("{:.1}", p.steps_per_sec),
                format!("{:.2}x", p.speedup),
                format!("{:.0}%", 100.0 * serial / total.max(1e-12)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Executor scaling: Mix @ scale {scale} ({} hw thread(s))",
            report.available_parallelism
        ),
        &["Threads", "Steps/s", "Speedup", "Serial wall"],
        &rows,
    );
    println!(
        "\nParallel fraction (1-thread wall): {:.0}%  |  Amdahl bound at {} threads: {:.2}x",
        report.parallel_fraction * 100.0,
        threads.last().unwrap(),
        report.amdahl_bound
    );
    if report.serial_bound {
        println!("Serial-bound run: {}", report.serial_bound_reason);
    }

    let json = report.to_json();
    let path = "BENCH_pipeline.json";
    std::fs::write(path, &json).expect("write BENCH_pipeline.json");
    println!("\nWrote {path}");
}
