//! The paper's evaluation: every table and figure is one entry of
//! [`EXPERIMENTS`] (declared by `experiments!` below), and the
//! `experiments` binary is a loop over it.
//!
//! The table is the single source for dispatch, `experiments list`,
//! `experiments all`, the smoke test (`tests/experiments_cli.rs`) and the
//! DESIGN.md index. All entries of one run share the memoized scene
//! captures of [`bench_data`], and Figures 3a–5a share one dedicated-L2
//! sweep per scene. Paper experiments iterate [`BenchmarkId::PAPER`] — the
//! post-paper Resting scene is not part of the paper's figures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax::arch::ParallaxSystem;
use parallax::area::{pool_area_mm2, static_mapping_overhead, STATIC_IMBALANCE};
use parallax::buffering::{offloadable_fraction, paper_pool_size, tasks_to_hide_latency};
use parallax::explore::{cores_required_compute_only, cores_required_simulated, FgWorkload};
use parallax::fgcore::{kernel_code_bytes, representative_ops, FgCoreType};
use parallax_archsim::config::{CoreConfig, L2Config, MachineConfig};
use parallax_archsim::core::CoreModel;
use parallax_archsim::multicore::{kernel_of, FrameResult, MulticoreSim, PhaseTime, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_physics::broadphase::{GridScratch, SweepAndPrune, UniformGrid, GRID_CELL};
use parallax_physics::world::STEPS_PER_FRAME;
use parallax_physics::PhaseKind;
use parallax_trace::kernels::KernelModel;
use parallax_trace::{Kernel, OpCounts, StepTrace};
use parallax_workloads::{stats, BenchmarkId, RunConfig};

use crate::{
    bench_data, fmt_secs, partitioned_machine, print_table, warm_measure, BenchData, Ctx, Memo,
    BREAKDOWN_HEADERS, CLOCK_HZ, FRAME_BUDGET_SECS, PARTITION_OF_PHASE,
};

/// One regenerable table/figure (or group printed together) of the paper.
pub struct Experiment {
    /// Subcommand name: `experiments <name>`.
    pub name: &'static str,
    /// What it regenerates, as shown by `experiments list`.
    pub title: &'static str,
    /// Prints the experiment's tables to stdout.
    pub run: fn(&Ctx),
}

/// Declares [`EXPERIMENTS`]: one `function: "title"` line per entry, the
/// subcommand name being the function's own name.
macro_rules! experiments {
    ($($run:ident: $title:literal,)*) => {
        /// Every experiment, in the order `experiments all` runs them.
        pub static EXPERIMENTS: &[Experiment] = &[
            $(Experiment { name: stringify!($run), title: $title, run: $run }),*
        ];
    };
}

experiments! {
    table3_instructions: "Table 3: average instructions per frame (trace calibration target)",
    table4_specs: "Table 4: benchmark specs",
    fig2a_breakdown: "Figure 2a: per-phase breakdown on 1 core + 1 MB L2",
    fig2b_serial_l2: "Figure 2b: serial phases vs shared L2 size, 1-32 MB",
    fig3_dedicated_l2: "Figures 3a/3b: Broadphase and Narrowphase with dedicated L2",
    fig4_dedicated_l2: "Figures 4a/4b: Island Creation and Island Processing with dedicated L2",
    fig5a_cloth_l2: "Figure 5a: Cloth with dedicated L2 (Deformable, Mix)",
    fig5b_cg_scaling: "Figure 5b: 1/2/4 CG cores with the 12 MB partitioned L2",
    fig6a_breakdown4: "Figure 6a: per-phase breakdown on 4 cores + 12 MB partitioned L2",
    fig6b_os_misses: "Figure 6b: kernel/user L2 misses vs thread count (Mix)",
    fig7a_cg_limit: "Figure 7a: limit of coarse-grain parallelism (ideal cores)",
    fig7b_instmix: "Figure 7b: instruction mix of the five phases",
    fig9a_cg_fg: "Figure 9a: Mix decomposed into serial, CG and FG components",
    fig9b_kernel_mix: "Figure 9b: instruction mix of the three FG kernels",
    fig10_fg_cores: "Figures 10a/10b: FG core IPC, and FG cores required for 30 FPS on Mix",
    fig11_fg_tasks: "Figure 11: available fine-grain parallel tasks per benchmark",
    table7_latency_hiding: "Table 7 and Sec 8.2.2: FG tasks to hide latency; offloadable work",
    kernel_storage: "Sec 8.1.2: FG kernel instruction and data storage",
    area_estimates: "Sec 8.2.1: FG pool area at 90 nm, static vs dynamic mapping",
    ablations: "Ablations: broad-phase algorithm, partitioned vs unified L2, L2 prefetch",
    model2_accelerator: "Sec 8.3, Model 2: per-frame PCIe state sync of a discrete accelerator",
    parallax_system: "Headline: 4 CG + 150 shader FG cores across the suite",
}

/// Looks an experiment up by its subcommand name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

// --- shared helpers ------------------------------------------------------

/// Cycles of the measured window as seconds per displayed frame at the
/// 2 GHz CG clock (the window holds `measure_frames` frames).
fn frame_secs(cycles: u64, ctx: &Ctx) -> f64 {
    cycles as f64 / CLOCK_HZ / ctx.measure_frames as f64
}

/// One table row per scene of `ids`, from the scene's memoized capture.
fn scene_rows(
    ids: &[BenchmarkId],
    ctx: &Ctx,
    mut row: impl FnMut(BenchmarkId, &BenchData) -> Vec<String>,
) -> Vec<Vec<String>> {
    ids.iter()
        .map(|&id| row(id, &bench_data(id, ctx)))
        .collect()
}

/// A table row: `label`, then `cells`.
fn labelled(label: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Warm-then-measure run of `traces` on a fresh simulator.
fn simulate(machine: MachineConfig, options: SimOptions, traces: &[StepTrace]) -> FrameResult {
    warm_measure(&mut MulticoreSim::new(machine, options), traces)
}

/// Options of the partitioned-L2 machines: per-phase way partitions, with
/// or without the OS-overhead model.
fn partitioned_options(os_overhead: bool) -> SimOptions {
    SimOptions {
        os_overhead,
        partition_of_phase: Some(PARTITION_OF_PHASE),
        ..Default::default()
    }
}

/// Warm-then-measure run on the paper's partitioned machine: `cores` CG
/// cores, 12 MB way-partitioned L2, OS-overhead model on.
fn simulate_partitioned(cores: usize, traces: &[StepTrace]) -> FrameResult {
    simulate(
        partitioned_machine(cores),
        partitioned_options(true),
        traces,
    )
}

/// Per-phase seconds per frame, their total and the FPS it allows, for
/// the whole suite on the machine `run` simulates (Figures 2a / 6a).
fn breakdown(ctx: &Ctx, title: &str, run: impl Fn(&[StepTrace]) -> FrameResult) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let time = run(&d.traces).time;
        let secs = time.cycles.map(|c| frame_secs(c, ctx));
        let total: f64 = secs.iter().sum();
        let tail = [fmt_secs(total), format!("{:.1}", 1.0 / total.max(1e-12))];
        labelled(id.abbrev(), secs.map(fmt_secs).into_iter().chain(tail))
    });
    print_table(title, &BREAKDOWN_HEADERS, &rows);
}

/// L2 sizes (MB) of the dedicated-L2 sweep.
const DEDICATED_MB: [usize; 5] = [1, 2, 4, 8, 16];

/// One scene's dedicated-L2 sweep — a single core with per-phase cache
/// state saved/restored, at each size of [`DEDICATED_MB`] — run once per
/// process: Figures 3a, 3b, 4a, 4b and 5a each read one phase off it.
fn dedicated_sweep(id: BenchmarkId, ctx: &Ctx) -> Arc<[PhaseTime; DEDICATED_MB.len()]> {
    static SWEEPS: Memo<[PhaseTime; DEDICATED_MB.len()]> = Memo::new();
    SWEEPS.get_or(id, ctx, || {
        let d = bench_data(id, ctx);
        DEDICATED_MB.map(|mb| {
            let options = SimOptions {
                dedicated_per_phase: true,
                ..Default::default()
            };
            simulate(MachineConfig::baseline(1, mb), options, &d.traces).time
        })
    })
}

/// Prints `phase`'s column of the dedicated-L2 sweep for `ids`.
fn dedicated_table(ctx: &Ctx, ids: &[BenchmarkId], phase: PhaseKind, title: &str) {
    let rows: Vec<Vec<String>> = ids
        .iter()
        .map(|&id| {
            let sweep = dedicated_sweep(id, ctx);
            let secs = sweep.iter().map(|t| fmt_secs(frame_secs(t.of(phase), ctx)));
            labelled(id.abbrev(), secs)
        })
        .collect();
    print_table(title, &["Bench", "1MB", "2MB", "4MB", "8MB", "16MB"], &rows);
}

/// Prints an instruction-mix table (Figures 7b / 9b): one row of class
/// percentages per `(label, ops)`.
fn mix_table(title: &str, label: &str, mixes: impl Iterator<Item = (String, OpCounts)>) {
    let rows: Vec<Vec<String>> = mixes
        .map(|(name, ops)| labelled(&name, ops.fractions().map(|f| format!("{:.0}%", f * 100.0))))
        .collect();
    print_table(
        title,
        &[
            label, "int alu", "branch", "fp add", "fp mul", "rd port", "wr port", "other",
        ],
        &rows,
    );
}

// --- §4–5: the benchmark suite -------------------------------------------

/// The paper's Table 3, millions of instructions per frame.
const PAPER_MINSTR: [f64; BenchmarkId::PAPER.len()] =
    [34.0, 36.0, 47.0, 256.0, 409.0, 547.0, 518.0, 829.0];

/// Table 3: average instructions per frame for each benchmark — the
/// calibration target for the trace layer's kernel cost models.
fn table3_instructions(ctx: &Ctx) {
    let rows: Vec<Vec<String>> = BenchmarkId::PAPER
        .iter()
        .zip(PAPER_MINSTR)
        .map(|(&id, paper)| {
            let d = bench_data(id, ctx);
            let total: u64 = d.traces.iter().map(|t| t.total_instructions()).sum();
            let per_frame = total as f64 / ctx.measure_frames as f64 / 1e6;
            vec![
                id.name().to_string(),
                format!("{:.1}M", per_frame),
                format!("{:.0}M", paper),
                format!("{:.2}", per_frame / paper),
            ]
        })
        .collect();
    print_table(
        "Table 3: average instructions per frame",
        &["Benchmark", "Measured", "Paper", "Ratio"],
        &rows,
    );
    println!("\nThe trace layer's per-kernel costs are calibrated so the suite");
    println!("lands near the paper's measured instruction counts (see");
    println!("parallax_trace::kernels::calibration).");
}

/// Table 4: benchmark specs — obj-pairs, islands, cloth objects
/// \[vertices\], static/dynamic objects, pre-fractured objects, static
/// joints.
fn table4_specs(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let s = stats::aggregate(&d.meta, &d.profiles);
        vec![
            id.abbrev().to_string(),
            format!("{:.0}", s.obj_pairs),
            format!("{:.0}", s.islands),
            format!("{} [{}]", s.cloth_objs, s.cloth_vertices),
            s.static_objs.to_string(),
            s.dynamic_objs.to_string(),
            s.prefractured_objs.to_string(),
            s.static_joints.to_string(),
        ]
    });
    print_table(
        "Table 4: Benchmark Specs",
        &[
            "Bench",
            "Obj-Pairs",
            "Islands",
            "Cloth [verts]",
            "Static",
            "Dynamic",
            "Prefract",
            "Joints",
        ],
        &rows,
    );
    println!("\nPaper row (Mix): 16,367 pairs, 28 islands, 33 [2,625] cloth,");
    println!("0 static, 1,608 dynamic, 5,652 prefractured, 564 joints.");
}

// --- §6: the CG baseline and its L2 --------------------------------------

/// Figure 2(a): execution-time breakdown of one frame on a single 2 GHz
/// desktop core with 1 MB of L2.
fn fig2a_breakdown(ctx: &Ctx) {
    breakdown(
        ctx,
        "Figure 2a: 1 core + 1MB L2 — seconds per frame by phase",
        |traces| simulate(MachineConfig::baseline(1, 1), SimOptions::default(), traces),
    );
    println!("\n30 FPS requires total <= 3.33e-2 s. Paper: only Periodic and");
    println!("Ragdoll fit in a frame; Mix needs >10x improvement.");
}

/// Figure 2(b): single-core execution of the serial phases with the
/// shared L2 scaled from 1 MB to 32 MB.
fn fig2b_serial_l2(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let secs = [1usize, 2, 4, 8, 16, 32].map(|mb| {
            let machine = MachineConfig::baseline(1, mb);
            let r = simulate(machine, SimOptions::default(), &d.traces);
            fmt_secs(frame_secs(r.time.serial(), ctx))
        });
        labelled(id.abbrev(), secs)
    });
    print_table(
        "Figure 2b: serial phases (Broadphase + Island Creation) vs shared L2 size",
        &["Bench", "1MB", "2MB", "4MB", "8MB", "16MB", "32MB"],
        &rows,
    );
    println!("\nPaper: a minimum of 4MB is required to complete the serial phases");
    println!("within a frame (3.33e-2 s); most misses are capacity misses caused");
    println!("by parallel-phase data evicting serial-phase data between steps.");
}

/// Figures 3(a)/3(b): Broad-phase and Narrow-phase performance with
/// *dedicated* per-phase L2 (cache state saved/restored per phase).
fn fig3_dedicated_l2(ctx: &Ctx) {
    dedicated_table(
        ctx,
        &BenchmarkId::PAPER,
        PhaseKind::Broadphase,
        "Figure 3a: Broadphase with dedicated L2 (s/frame)",
    );
    dedicated_table(
        ctx,
        &BenchmarkId::PAPER,
        PhaseKind::Narrowphase,
        "Figure 3b: Narrowphase with dedicated L2 (s/frame)",
    );
    println!("\nPaper: with dedicated state, serial-phase performance plateaus at");
    println!("4MB (within 7% of a 16MB shared L2); Explosions and Highspeed show");
    println!("the largest Narrowphase sensitivity due to their object-pair counts.");
}

/// Figures 4(a)/4(b): Island Creation and Island Processing with
/// dedicated per-phase L2.
fn fig4_dedicated_l2(ctx: &Ctx) {
    dedicated_table(
        ctx,
        &BenchmarkId::PAPER,
        PhaseKind::IslandCreation,
        "Figure 4a: Island Creation with dedicated L2 (s/frame)",
    );
    dedicated_table(
        ctx,
        &BenchmarkId::PAPER,
        PhaseKind::IslandProcessing,
        "Figure 4b: Island Processing with dedicated L2 (s/frame)",
    );
    println!("\nPaper: Island Creation plateaus at 4MB; Island Processing is");
    println!("relatively insensitive to L2 scaling in single-thread mode.");
}

/// Figure 5(a): Cloth performance with dedicated L2 (Deformable and Mix,
/// the two benchmarks with cloth).
fn fig5a_cloth_l2(ctx: &Ctx) {
    dedicated_table(
        ctx,
        &[BenchmarkId::Deformable, BenchmarkId::Mix],
        PhaseKind::Cloth,
        "Figure 5a: Cloth with dedicated L2 (s/frame)",
    );
    println!("\nPaper: Cloth is insensitive to L2 size (vertex data streams and");
    println!("fits easily; 1MB of extra shared space suffices in single-thread mode).");
}

/// Figure 5(b): performance with processor scaling — 1, 2 and 4 CG cores
/// with the 12 MB partitioned L2 (4 MB Broadphase, 4 MB Island Creation,
/// 4 MB shared by the parallel phases).
fn fig5b_cg_scaling(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let secs_at = [1usize, 2, 4]
            .map(|cores| frame_secs(simulate_partitioned(cores, &d.traces).time.total(), ctx));
        let mut row = vec![id.abbrev().to_string()];
        row.extend(secs_at.map(fmt_secs));
        row.push(format!("{:.2}x", secs_at[0] / secs_at[1].max(1e-12)));
        row.push(format!("{:.2}x", secs_at[1] / secs_at[2].max(1e-12)));
        row
    });
    print_table(
        "Figure 5b: CG core scaling with 12MB partitioned L2 (s/frame)",
        &["Bench", "1P", "2P", "4P", "1->2", "2->4"],
        &rows,
    );
    println!("\nPaper: scaling 1->2 cores gains 53% and 2->4 gains 29% on average;");
    println!("the improvement plateaus at 4 cores.");
}

/// Figure 6(a): execution-time breakdown on 4 CG cores + 12 MB
/// partitioned L2.
fn fig6a_breakdown4(ctx: &Ctx) {
    breakdown(
        ctx,
        "Figure 6a: 4 cores + 12MB partitioned L2 — seconds per frame by phase",
        |traces| simulate_partitioned(4, traces),
    );
    println!("\nPaper: ~3x faster than the single-core baseline, but an additional");
    println!("~5x is still needed to satisfy every benchmark at 30 FPS.");
}

/// Figure 6(b): L2-miss breakdown (kernel vs user) as worker threads
/// scale 1 → 8 on the Mix benchmark.
fn fig6b_os_misses(ctx: &Ctx) {
    let d = bench_data(BenchmarkId::Mix, ctx);
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for cores in [1usize, 2, 4, 8] {
        let r = simulate_partitioned(cores, &d.traces);
        let total = r.kernel_l2_misses + r.user_l2_misses;
        totals.push(total);
        rows.push(vec![
            format!("{cores}P"),
            r.kernel_l2_misses.to_string(),
            r.user_l2_misses.to_string(),
            total.to_string(),
        ]);
    }
    let (four, eight) = (totals[2], totals[3]);
    print_table(
        "Figure 6b: L2 misses vs thread count (Mix)",
        &["Threads", "Kernel", "User", "Total"],
        &rows,
    );
    println!(
        "\n4P -> 8P miss increase: {:.1}x (paper: ~5x, dominated by kernel",
        eight as f64 / four.max(1) as f64
    );
    println!("memory — each worker's footprint jumps from ~850KB to ~5MB).");
}

// --- §7: the limit of coarse-grain parallelism ---------------------------

/// Figure 7(a): the limit of coarse-grain parallelism — Island Processing
/// and Cloth under ideal conditions (unlimited cores, no OS overhead, no
/// cache contention, perfect load balance). CG scaling is bounded by the
/// largest island and the largest cloth.
fn fig7a_cg_limit(ctx: &Ctx) {
    let core = CoreModel::new(CoreConfig::desktop());
    // With unlimited cores and per-work-unit (island/cloth) CG threading,
    // each phase's time is its largest single task.
    let worst_task_secs = |d: &BenchData, phase: PhaseKind| {
        let kernel = kernel_of(phase);
        let cycles: u64 = d
            .traces
            .iter()
            .map(|t| {
                let tasks = t.phase(phase).tasks.iter();
                tasks
                    .map(|task| core.task_cycles(task, kernel, 0))
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        frame_secs(cycles, ctx)
    };
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let island = worst_task_secs(d, PhaseKind::IslandProcessing);
        let cloth = worst_task_secs(d, PhaseKind::Cloth);
        let verdict = if island + cloth > FRAME_BUDGET_SECS {
            "OVER"
        } else {
            "ok"
        };
        vec![
            id.abbrev().to_string(),
            fmt_secs(island),
            fmt_secs(cloth),
            fmt_secs(island + cloth),
            verdict.to_string(),
        ]
    });
    print_table(
        "Figure 7a: CG-parallelism limit (s/frame, unlimited ideal cores)",
        &["Bench", "IslandProc", "Cloth", "Sum", "vs 33ms"],
        &rows,
    );
    println!("\nPaper: Mix and Deformable need more than one frame's time for");
    println!("Island Processing + Cloth alone — CG parallelism is insufficient;");
    println!("the bound is the largest island and the largest cloth.");
}

/// Figure 7(b): instruction mix of all five phases, aggregated over the
/// benchmark suite.
fn fig7b_instmix(ctx: &Ctx) {
    let mut per_phase = [OpCounts::default(); 5];
    for id in BenchmarkId::PAPER {
        for t in &bench_data(id, ctx).traces {
            for (total, phase) in per_phase.iter_mut().zip(&t.phases) {
                *total += phase.ops();
            }
        }
    }
    mix_table(
        "Figure 7b: instruction mix per phase",
        "Phase",
        PhaseKind::ALL
            .iter()
            .map(|p| p.name().to_string())
            .zip(per_phase),
    );
    println!("\nPaper: serial phases and Narrowphase are integer-dominant with many");
    println!("branches; Island Processing and Cloth are FP-dominant.");
}

// --- §8: fine-grain cores -------------------------------------------------

/// Figure 9(a): Mix's execution time decomposed into serial, CG-parallel
/// (coarse) and FG-parallel (fine) components, on 1 core + 9 MB and
/// 4 cores + 12 MB.
fn fig9a_cg_fg(ctx: &Ctx) {
    let d = bench_data(BenchmarkId::Mix, ctx);
    let frames = ctx.measure_frames as f64;

    // Fine-grain instruction totals (kernel compute only) and their
    // coarse-grain leftovers, from the profile structure.
    let mut fg_narrow = 0u64;
    let mut fg_island = 0u64;
    let mut cg_island = 0u64;
    let mut fg_cloth = 0u64;
    for p in &d.profiles {
        for pw in &p.pairs {
            fg_narrow +=
                KernelModel::narrowphase_pair(pw.shape_a, pw.shape_b, pw.contacts as usize).total();
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
        let r = simulate(machine, partitioned_options(cores > 1), &d.traces);
        let serial = frame_secs(r.time.serial(), ctx);

        // Convert FG/CG instruction pools to time on this many CG cores.
        let core = CoreModel::new(CoreConfig::desktop());
        let ipc = |kernel: Kernel, instr: u64| -> f64 {
            let ops = representative_ops(kernel);
            let cycles = core.compute_cycles(&ops, kernel) as f64;
            instr as f64 * (cycles / ops.total() as f64)
        };
        let scale = 1.0 / (CLOCK_HZ * cores as f64 * frames);
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

/// Figure 9(b): instruction mix of the three fine-grain kernels.
fn fig9b_kernel_mix(_ctx: &Ctx) {
    mix_table(
        "Figure 9b: FG kernel instruction mix",
        "Kernel",
        Kernel::FG
            .iter()
            .map(|k| (format!("{k:?}"), representative_ops(*k))),
    );
    println!("\nPaper: integer ops and reads are the top two classes everywhere.");
    println!("Narrowphase: 8% branches, few FP ops. Island/Cloth: 32%/28% FP;");
    println!("Cloth adds integer multiplies, FP divides and square roots.");
}

/// Figure 10(a): IPC of the FG core candidates per kernel; Figure 10(b):
/// FG cores required per type to reach 30 FPS on Mix.
fn fig10_fg_cores(ctx: &Ctx) {
    let rows: Vec<Vec<String>> = FgCoreType::ALL
        .iter()
        .map(|core| {
            let ipc = Kernel::FG.map(|k| format!("{:.2}", core.kernel_ipc(k)));
            labelled(core.name(), ipc)
        })
        .collect();
    print_table(
        "Figure 10a: IPC of FG core types (FG-resident data)",
        &["Core", "Narrowphase", "Island", "Cloth"],
        &rows,
    );
    println!("\nPaper: Island/Cloth lose ILP drastically from desktop to console;");
    println!("the limit core exceeds IPC 4 on Island and ~1.5 on Cloth;");
    println!("Narrowphase *degrades* with more resources (branch mispredictions).");

    // Figure 10b uses the heaviest measured frame (paper: worst-case
    // frame chosen).
    let d = bench_data(BenchmarkId::Mix, ctx);
    let w = d
        .profiles
        .chunks(3)
        .map(FgWorkload::from_profiles)
        .max_by(|a, b| a.total_instructions().total_cmp(&b.total_instructions()))
        .expect("frames measured");

    let mut rows = Vec::new();
    for core in FgCoreType::REALISTIC {
        let mut row = vec![core.name().to_string()];
        for budget in [1.0, 0.5, 0.25, 0.125] {
            row.push(cores_required_compute_only(core, &w, budget).to_string());
        }
        for link in Link::ALL {
            row.push(
                cores_required_simulated(core, link, &w, 0.32)
                    .map_or_else(|| "-".into(), |n| n.to_string()),
            );
        }
        rows.push(row);
    }
    print_table(
        "Figure 10b: FG cores required for 30 FPS (Mix, worst frame)",
        &[
            "Core",
            "100%",
            "50%",
            "25%",
            "12.5%",
            "Sim(32%,mesh)",
            "Sim(HTX)",
            "Sim(PCIe)",
        ],
        &rows,
    );
    println!("\nPaper (simulated, 32% of frame): 30 desktop, 43 console or 150");
    println!("shader cores; HTX raises shaders to 151 and PCIe to 153.");
}

/// Figure 11: average number of available fine-grain parallel tasks per
/// benchmark (object pairs, island-solver DOF, cloth vertices).
fn fig11_fg_tasks(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let s = stats::aggregate(&d.meta, &d.profiles);
        vec![
            id.name().to_string(),
            format!("{:.0}", s.fg_narrowphase),
            format!("{:.0}", s.fg_island),
            format!("{:.0}", s.fg_cloth),
            s.max_island_dof.to_string(),
            s.max_cloth_vertices.to_string(),
        ]
    });
    print_table(
        "Figure 11: available FG parallel tasks (per step averages)",
        &[
            "Benchmark",
            "Object-Pairs",
            "Island DOF",
            "Cloth Verts",
            "MaxIsland",
            "MaxCloth",
        ],
        &rows,
    );
    println!("\nPaper: all benchmarks have enough FG tasks to hide on-chip latency");
    println!("except Island Processing for Continuous/Deformable (no islands with");
    println!(">25 FG tasks) and Cloth for Deformable.");
}

/// Table 7: fine-grain tasks required to hide communication latency per
/// (core type, interconnect), plus the §8.2.2 offloadable-work analysis.
fn table7_latency_hiding(ctx: &Ctx) {
    let mut rows = Vec::new();
    for core in FgCoreType::REALISTIC {
        let pool = paper_pool_size(core);
        let cells = Link::ALL.map(|link| {
            let tasks = Kernel::FG.map(|k| {
                tasks_to_hide_latency(k, core, link, pool)
                    .total_tasks
                    .map_or_else(|| "inf".into(), |n| n.to_string())
            });
            format!("({})", tasks.join(", "))
        });
        rows.push(labelled(core.name(), cells));
    }
    print_table(
        "Table 7: FG tasks to hide latency — (Narrowphase, Island, Cloth)",
        &["Core", "On-chip", "HTX", "PCIe"],
        &rows,
    );
    println!("\nPaper: (30,240,60)/(43,215,86)/(150,600,300) on-chip;");
    println!("HTX roughly doubles Island/Cloth; PCIe is ~10x on-chip.");

    // §8.2.2: how much work survives filtering small work units.
    let mut rows = Vec::new();
    for id in [
        BenchmarkId::Continuous,
        BenchmarkId::Deformable,
        BenchmarkId::Mix,
    ] {
        let d = bench_data(id, ctx);
        let mut island_sizes = Vec::new();
        let mut cloth_sizes = Vec::new();
        for p in &d.profiles {
            island_sizes.extend(p.islands.iter().map(|i| i.dof_removed));
            cloth_sizes.extend(p.cloths.iter().map(|c| c.stats.vertices));
        }
        for (name, sizes) in [("islands", &island_sizes), ("cloths", &cloth_sizes)] {
            rows.push(vec![
                format!("{} {}", id.abbrev(), name),
                format!("{:.0}%", offloadable_fraction(sizes, 25) * 100.0),
                format!("{:.0}%", offloadable_fraction(sizes, 50) * 100.0),
                format!("{:.0}%", offloadable_fraction(sizes, 1710) * 100.0),
            ]);
        }
    }
    print_table(
        "Sec 8.2.2: FG work offloadable after filtering small units",
        &["Work units", ">=25 tasks", ">=50 tasks", ">=1710 tasks"],
        &rows,
    );
    println!("\nPaper: filtering units under 50 tasks (HTX) drops 2% of island and");
    println!("29% of cloth work; the PCIe filter (1,710 tasks) drops 59% of island");
    println!("work and makes cloth offload impossible on console/shader cores.");
}

/// §8.1.2: memory required for FG instruction and data storage.
fn kernel_storage(_ctx: &Ctx) {
    let mut rows = Vec::new();
    for k in Kernel::FG {
        rows.push(vec![
            format!("{k:?}"),
            k.static_instructions().to_string(),
            format!("{:.1}", k.static_instructions() as f64 * 4.0 / 1024.0),
            format!("{:.1}", k.static_instructions() as f64 * 8.0 / 1024.0),
            k.unique_read_bytes_per_100().to_string(),
            k.unique_write_bytes_per_100().to_string(),
        ]);
    }
    print_table(
        "Sec 8.1.2: FG kernel storage requirements",
        &[
            "Kernel",
            "Static instr",
            "KB (32-bit)",
            "KB (64-bit)",
            "Rd B/100 iter",
            "Wr B/100 iter",
        ],
        &rows,
    );
    println!(
        "\nAll three kernels fit in {:.1} KB of local instruction memory",
        kernel_code_bytes() as f64 / 1024.0
    );
    println!("(paper: 2.7KB with 32-bit instructions: 1.1 + 0.7 + 0.9 KB).");
    println!("2KB of local data storage buffers enough tasks to hide on-chip");
    println!("and HTX communication latency in all cases (paper §8.2.1).");
}

/// §8.2.1: die-area estimates for the FG pools at 90 nm, and the cost of
/// static (inflexible) FG→CG mapping.
fn area_estimates(_ctx: &Ctx) {
    let mut rows = Vec::new();
    for core in FgCoreType::REALISTIC {
        let n = paper_pool_size(core);
        let dynamic = pool_area_mm2(core, n);
        let static_n = static_mapping_overhead(n, STATIC_IMBALANCE);
        let static_area = pool_area_mm2(core, static_n);
        rows.push(vec![
            core.name().to_string(),
            n.to_string(),
            format!("{:.0}", dynamic),
            static_n.to_string(),
            format!("{:.0}", static_area),
            format!("{:+.0}%", (static_area / dynamic - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Sec 8.2.1: FG pool area at 90nm (30 FPS on Mix)",
        &[
            "Core",
            "Cores (dyn)",
            "Area mm2",
            "Cores (static)",
            "Area mm2",
            "Overhead",
        ],
        &rows,
    );
    println!("\nPaper: 1,388 / 926 / 591 mm2 for desktop/console/shader pools —");
    println!("the simplest cores are the most area-efficient; static mapping of");
    println!("shaders to CG cores costs 34% more area than dynamic arbitration.");
}

// --- beyond the paper's figures -------------------------------------------

/// Ablation studies for the design choices DESIGN.md calls out:
///
/// 1. Broad-phase algorithm: spatial hash (the engine's) vs
///    sweep-and-prune, on the engine's own AABB lists.
/// 2. L2 management: the paper's §6.1 claim that application-aware
///    partitioning "reduces the required L2 space by more than half".
/// 3. Next-line L2 prefetching (paper future work).
fn ablations(ctx: &Ctx) {
    // Ablation 1 steps one fresh scene per benchmark (not the capture
    // memo) through two warm-up frames and one measured frame, keeping
    // every step's AABB list and candidates. A fresh grid and a
    // sweep-and-prune then replay the whole sequence, so the grid holds
    // the engine's grid's state at every step; only `pairs_into` is
    // timed, and only the measured frame is counted.
    let mut rows = Vec::new();
    for id in [
        BenchmarkId::Periodic,
        BenchmarkId::Explosions,
        BenchmarkId::Mix,
    ] {
        let mut scene = RunConfig::default().build(id, ctx.scale);
        let steps: Vec<_> = (0..3 * STEPS_PER_FRAME)
            .map(|_| {
                scene.step();
                let pipeline = scene.world.pipeline();
                (
                    pipeline.broadphase_aabbs().to_vec(),
                    pipeline.broadphase_candidates().to_vec(),
                )
            })
            .collect();
        let mut row = vec![id.abbrev().to_string()];
        let (mut grid, mut grid_scratch) = (UniformGrid::new(GRID_CELL), GridScratch::default());
        let mut sap = SweepAndPrune::new();
        for on_grid in [true, false] {
            let mut pairs = Vec::new();
            let (mut tests, mut emitted, mut wall) = (0, 0, Duration::ZERO);
            for (k, (aabbs, candidates)) in steps.iter().enumerate() {
                let start = Instant::now();
                let stats = if on_grid {
                    grid.pairs_into(aabbs, &mut pairs, &mut grid_scratch)
                } else {
                    sap.pairs_into(aabbs, &mut pairs)
                };
                let elapsed = start.elapsed();
                assert!(
                    pairs == *candidates,
                    "{}: a replayed kernel's pairs differ from the engine's candidates",
                    id.name()
                );
                if k >= steps.len() - STEPS_PER_FRAME {
                    tests += stats.overlap_tests;
                    emitted += pairs.len();
                    wall += elapsed;
                }
            }
            row.push(format!("{tests}"));
            row.push(format!("{emitted}"));
            row.push(format!("{:.1}ms", wall.as_secs_f64() * 1000.0));
        }
        rows.push(row);
    }
    print_table(
        "Ablation 1: broad-phase — grid(tests, pairs, wall) vs SAP(tests, pairs, wall), 1 frame",
        &[
            "Bench", "g.tests", "g.pairs", "g.wall", "s.tests", "s.pairs", "s.wall",
        ],
        &rows,
    );
    println!("\nThe spatial hash bounds overlap tests by locality; single-axis SAP");
    println!("degenerates on clustered scenes (walls of bricks share an axis span).");

    // Ablation 2 compares the serial-phase time of an 8MB *partitioned*
    // L2 against unified L2s of growing size — the paper's claim is that
    // partitioning more than halves the capacity needed for a given
    // performance level.
    let scenes = [BenchmarkId::Explosions, BenchmarkId::Mix];
    let rows = scene_rows(&scenes, ctx, |id, d| {
        let mut machine = MachineConfig::baseline(1, 8);
        machine.l2 = L2Config::partitioned(8, vec![1, 2, 1]);
        let r = simulate(machine, partitioned_options(false), &d.traces);
        let mut row = vec![
            id.abbrev().to_string(),
            fmt_secs(frame_secs(r.time.serial(), ctx)),
        ];
        for mb in [8usize, 16, 32] {
            let machine = MachineConfig::baseline(1, mb);
            let r = simulate(machine, SimOptions::default(), &d.traces);
            row.push(fmt_secs(frame_secs(r.time.serial(), ctx)));
        }
        row
    });
    print_table(
        "Ablation 2: serial-phase time — 8MB partitioned vs unified L2 (s/frame)",
        &["Bench", "8MB part", "8MB unif", "16MB unif", "32MB unif"],
        &rows,
    );
    println!("\nPaper §6.1: partitioning reduces the required L2 space by more than");
    println!("half — the partitioned 8MB should perform like a much larger unified L2.");

    let rows = scene_rows(&scenes, ctx, |id, d| {
        let mut row = vec![id.abbrev().to_string()];
        for prefetch in [false, true] {
            let mut machine = MachineConfig::baseline(1, 2);
            machine.l2_prefetch = prefetch;
            let r = simulate(machine, SimOptions::default(), &d.traces);
            row.push(fmt_secs(frame_secs(r.time.total(), ctx)));
            row.push(r.mem.l2_misses.to_string());
        }
        row
    });
    print_table(
        "Ablation 3: next-line L2 prefetch at 2MB (off vs on)",
        &[
            "Bench",
            "off s/frame",
            "off misses",
            "on s/frame",
            "on misses",
        ],
        &rows,
    );
    println!("\nPaper §6.2 future work: \"L2 cache size reduction by prefetching\" —");
    println!("a next-line prefetcher recovers part of a larger cache's benefit.");
}

/// §8.3: implementation alternatives — Model 1 (FG pool coupled to host
/// CG cores) vs Model 2 (the whole physics pipeline on a discrete
/// accelerator with dedicated physics memory, PCIe to the host).
///
/// With Model 2, only per-frame world state crosses PCIe: position +
/// orientation (60 B) per object, position (12 B) per particle and per
/// mesh vertex. The paper: "this small fixed overhead is easily tolerated
/// when using PCIe (0.00006 seconds for 1,000 objects, 10,000 particles,
/// and 5,000 mesh vertices)."
fn model2_accelerator(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let objects = d.meta.dynamic_objs + d.meta.prefractured_objs;
        let vertices = d.meta.cloth_vertices;
        let bytes = (objects * 60 + vertices * 12) as u64;
        let sync = Link::Pcie.transfer_seconds(bytes) * 2.0; // down + up
        vec![
            id.abbrev().to_string(),
            objects.to_string(),
            vertices.to_string(),
            format!("{bytes}"),
            fmt_secs(sync),
            format!("{:.2}%", sync / FRAME_BUDGET_SECS * 100.0),
        ]
    });
    print_table(
        "Sec 8.3, Model 2: per-frame PCIe state sync for a discrete accelerator",
        &[
            "Bench",
            "Objects",
            "ClothVerts",
            "Bytes",
            "Sync (s)",
            "% of frame",
        ],
        &rows,
    );

    // The paper's reference point.
    let reference = 1_000 * 60 + 10_000 * 12 + 5_000 * 12;
    println!(
        "\nPaper reference (1k objects + 10k particles + 5k vertices = {} B): {} s",
        reference,
        fmt_secs(Link::Pcie.transfer_seconds(reference as u64))
    );
    println!("Model 2 makes off-chip physics accelerators (PhysX-style) feasible:");
    println!("the CG+FG feedback loop stays on the accelerator; only world state");
    println!("crosses the system bus once per frame.");
}

/// The headline result: a full ParallAX system (4 desktop CG cores +
/// 12 MB partitioned L2 + 150 shader-class FG cores on an on-chip mesh)
/// sustains interactive frame rates across the benchmark suite.
fn parallax_system(ctx: &Ctx) {
    let rows = scene_rows(&BenchmarkId::PAPER, ctx, |id, d| {
        let frames = ctx.measure_frames as f64;
        let mut sys = ParallaxSystem::new(4, FgCoreType::Shader, 150, Link::OnChipMesh);
        // Warm the CG caches on the window once, then measure.
        let _ = sys.simulate_steps(&d.profiles);
        let r = sys.simulate_steps(&d.profiles);
        let secs = r.seconds() / frames;
        vec![
            id.abbrev().to_string(),
            fmt_secs(frame_secs(r.serial_cycles, ctx)),
            fmt_secs(frame_secs(r.cg_parallel_cycles, ctx)),
            fmt_secs(frame_secs(r.fg_cycles, ctx)),
            fmt_secs(secs),
            format!("{:.0}", 1.0 / secs.max(1e-12)),
            if 1.0 / secs >= 30.0 { "yes" } else { "NO" }.to_string(),
        ]
    });
    print_table(
        "ParallAX (4 CG + 150 shader FG, on-chip mesh): per-frame timing",
        &["Bench", "Serial", "CG par", "FG", "Total", "FPS", ">=30FPS"],
        &rows,
    );
    println!("\nParallAX goal: sustain 30 FPS on the full suite through flexible");
    println!("FG/CG coupling, partitioned L2 and massive fine-grain parallelism.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CAPTURES;

    #[test]
    fn two_experiments_capture_each_scene_once() {
        // A context no other test uses, so the count is this test's alone.
        let ctx = Ctx {
            scale: 0.04,
            warm_frames: 0,
            measure_frames: 1,
        };
        assert_eq!(CAPTURES.computed(&ctx), 0);
        (find("table3_instructions").unwrap().run)(&ctx);
        assert_eq!(CAPTURES.computed(&ctx), BenchmarkId::PAPER.len());
        // The second experiment — and a direct request — are memo hits.
        (find("table4_specs").unwrap().run)(&ctx);
        bench_data(BenchmarkId::Mix, &ctx);
        assert_eq!(CAPTURES.computed(&ctx), BenchmarkId::PAPER.len());
    }
}
