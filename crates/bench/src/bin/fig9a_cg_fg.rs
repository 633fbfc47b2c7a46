//! Figure 9(a): Mix's execution time decomposed into serial, CG-parallel
//! (coarse) and FG-parallel (fine) components, on 1 core + 9 MB and
//! 4 cores + 12 MB.

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::core::CoreModel;
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_bench::{
    bench_data, fmt_secs, print_table, traces_of, warm_measure, Ctx, PARTITION_OF_PHASE,
};
use parallax_trace::kernels::KernelModel;
use parallax_trace::Kernel;
use parallax_workloads::BenchmarkId;

fn main() {
    let ctx = Ctx::from_env();
    let d = bench_data(BenchmarkId::Mix, &ctx);
    let traces = traces_of(&d.profiles);
    let frames = ctx.measure_frames as f64;

    // Fine-grain instruction totals (kernel compute only) and their
    // coarse-grain leftovers, from the profile structure.
    let mut fg_narrow = 0u64;
    let mut fg_island = 0u64;
    let mut cg_island = 0u64;
    let mut fg_cloth = 0u64;
    for p in &d.profiles {
        for pw in &p.pairs {
            fg_narrow += KernelModel::narrowphase_pair(pw.shape_a, pw.shape_b, pw.contacts).total();
        }
        for i in &p.islands {
            fg_island += KernelModel::island_solver(i.rows, i.iterations, 0).total();
            cg_island += KernelModel::island_solver(0, 0, i.bodies.len()).total();
        }
        for c in &p.cloths {
            fg_cloth += KernelModel::cloth(
                c.stats.vertices,
                c.stats.projections,
                c.stats.collision_tests,
            )
            .total();
        }
    }

    let mut rows = Vec::new();
    for cores in [1usize, 4] {
        let mb = if cores == 1 { 9 } else { 12 };
        let mut machine = MachineConfig::baseline(cores, mb);
        machine.l2 = L2Config::partitioned(mb, vec![1, 1, 2]);
        let mut sim = MulticoreSim::new(
            machine,
            SimOptions {
                os_overhead: cores > 1,
                partition_of_phase: Some(PARTITION_OF_PHASE),
                ..Default::default()
            },
        );
        let r = warm_measure(&mut sim, &traces);
        let serial = r.time.serial() as f64 / 2.0e9 / frames;

        // Convert FG/CG instruction pools to time on this many CG cores.
        let core = CoreModel::new(machine_core());
        let ipc = |kernel: Kernel, instr: u64| -> f64 {
            let ops = parallax::fgcore::representative_ops(kernel);
            let cycles = core.compute_cycles(&ops, kernel) as f64;
            instr as f64 * (cycles / ops.total() as f64)
        };
        let scale = 1.0 / (2.0e9 * cores as f64 * frames);
        let narrow = ipc(Kernel::Narrowphase, fg_narrow) * scale;
        let island_fine = ipc(Kernel::IslandSolver, fg_island) * scale;
        let island_coarse = ipc(Kernel::IslandSolver, cg_island) * scale;
        let cloth_fine = ipc(Kernel::Cloth, fg_cloth) * scale;

        rows.push(vec![
            format!("{cores}P"),
            fmt_secs(serial),
            fmt_secs(island_coarse),
            fmt_secs(narrow),
            fmt_secs(island_fine),
            fmt_secs(cloth_fine),
            format!(
                "{:.0}%",
                (serial + island_coarse)
                    / (serial + island_coarse + narrow + island_fine + cloth_fine)
                    * 100.0
            ),
        ]);
    }
    print_table(
        "Figure 9a: Mix decomposition (s/frame)",
        &[
            "Cores",
            "Serial",
            "Island CG",
            "Narrow FG",
            "Island FG",
            "Cloth FG",
            "Ser+CG share",
        ],
        &rows,
    );
    println!("\nPaper: at 4 cores, serial + CG components take 68% of a frame,");
    println!("leaving 32% of the frame for all FG computation.");
}

fn machine_core() -> parallax_archsim::config::CoreConfig {
    parallax_archsim::config::CoreConfig::desktop()
}
