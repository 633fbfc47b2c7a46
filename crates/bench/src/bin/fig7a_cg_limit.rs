//! Figure 7(a): the limit of coarse-grain parallelism — Island Processing
//! and Cloth under ideal conditions (unlimited cores, no OS overhead, no
//! cache contention, perfect load balance). CG scaling is bounded by the
//! largest island and the largest cloth.

use parallax_archsim::config::CoreConfig;
use parallax_archsim::core::CoreModel;
use parallax_archsim::multicore::kernel_of;
use parallax_bench::{bench_data, fmt_secs, print_table, traces_of, Ctx};
use parallax_physics::PhaseKind;
use parallax_workloads::BenchmarkId;

fn main() {
    let ctx = Ctx::from_env();
    let mut rows = Vec::new();
    for id in BenchmarkId::ALL {
        let d = bench_data(id, &ctx);
        let traces = traces_of(&d.profiles);
        let core = CoreModel::new(CoreConfig::desktop());
        // With unlimited cores and per-work-unit (island/cloth) CG
        // threading, each phase's time is its largest single task.
        let mut island_cycles = 0u64;
        let mut cloth_cycles = 0u64;
        for t in &traces {
            for (phase, acc) in [
                (PhaseKind::IslandProcessing, &mut island_cycles),
                (PhaseKind::Cloth, &mut cloth_cycles),
            ] {
                let kernel = kernel_of(phase);
                let worst = t
                    .phase(phase)
                    .tasks
                    .iter()
                    .map(|task| core.task_cycles(task, kernel, 0))
                    .max()
                    .unwrap_or(0);
                *acc += worst;
            }
        }
        let frames = ctx.measure_frames as f64;
        let island = island_cycles as f64 / 2.0e9 / frames;
        let cloth = cloth_cycles as f64 / 2.0e9 / frames;
        rows.push(vec![
            id.abbrev().to_string(),
            fmt_secs(island),
            fmt_secs(cloth),
            fmt_secs(island + cloth),
            if island + cloth > parallax_bench::FRAME_BUDGET_SECS {
                "OVER".into()
            } else {
                "ok".into()
            },
        ]);
    }
    print_table(
        "Figure 7a: CG-parallelism limit (s/frame, unlimited ideal cores)",
        &["Bench", "IslandProc", "Cloth", "Sum", "vs 33ms"],
        &rows,
    );
    println!("\nPaper: Mix and Deformable need more than one frame's time for");
    println!("Island Processing + Cloth alone — CG parallelism is insufficient;");
    println!("the bound is the largest island and the largest cloth.");
}
