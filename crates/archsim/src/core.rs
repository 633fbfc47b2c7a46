//! First-order interval core model.
//!
//! Converts a task's instruction counts into cycles for a given
//! [`CoreConfig`] using three terms:
//!
//! 1. **Compute**: instructions at the kernel's window-limited IPC
//!    (an ILP curve per kernel fitted to the paper's Figure 10a shapes),
//! 2. **Branches**: mispredictions (YAGS rate from [`crate::branchgen`])
//!    flush the pipeline *and* the speculated window — this is why
//!    Narrowphase *degrades* on wider cores, as the paper observes, and
//! 3. **Memory**: stall cycles from the cache hierarchy, discounted by a
//!    window-dependent memory-level-parallelism factor.

use std::sync::OnceLock;

use parallax_physics::PhaseKind;
use parallax_trace::{Kernel, OpCounts, TaskTrace};

use crate::branchgen::mispredict_rate;
use crate::config::CoreConfig;

/// Per-kernel ILP curve parameters: `ipc(window) = floor + inf·(1 −
/// e^(−window/tau))`, capped by the issue width.
fn ilp_params(kernel: Kernel) -> (f64, f64, f64) {
    // (floor, inf, tau)
    match kernel {
        Kernel::Narrowphase => (0.6, 1.4, 20.0),
        Kernel::IslandSolver => (0.6, 6.5, 50.0),
        Kernel::Cloth => (0.6, 1.8, 30.0),
        Kernel::Broadphase => (0.6, 1.2, 25.0),
        Kernel::IslandCreation => (0.6, 1.0, 25.0),
    }
}

/// Latency of an unpipelined FP divide/sqrt.
const DIV_SQRT_LATENCY: f64 = 12.0;

/// The interval core model.
///
/// Everything that depends only on the configuration and the kernel — the
/// ILP curve's `exp`, the flush penalty's `sqrt`, the stall exposure, the
/// YAGS misprediction rate — is evaluated once and reused per task; the
/// expressions, and so the cycle counts, are those of evaluating them per
/// task.
#[derive(Debug)]
pub struct CoreModel {
    cfg: CoreConfig,
    /// [`CoreModel::ipc_base`] per kernel, indexed by `Kernel as usize`.
    ipc_base: [f64; 5],
    /// Misprediction rate per kernel, looked up on the kernel's first task.
    mispredict_rate: [OnceLock<f64>; 5],
    /// Misprediction flush penalty: pipeline refill plus the speculative
    /// state (window × ROB, geometric mean) that must be discarded and
    /// re-established. Grows with core aggressiveness — this reproduces
    /// the paper's observation that Narrowphase *degrades* on bigger
    /// cores.
    flush_penalty: f64,
    /// Fraction of a divide/sqrt's latency the window cannot hide.
    div_exposure: f64,
    /// Fraction of beyond-L1 memory latency that the window cannot hide
    /// (memory-level-parallelism discount).
    stall_exposure: f64,
    /// When `true`, branches never mispredict (the paper's "ideal branch
    /// prediction" experiment, §8.2).
    pub ideal_branch_prediction: bool,
}

impl CoreModel {
    /// Creates a model for `cfg`.
    pub fn new(cfg: CoreConfig) -> CoreModel {
        let window = cfg.window as f64;
        // Long-latency FP ops partially hidden by the window.
        let hide = (window / 16.0).min(0.75);
        // Memory-level-parallelism discount.
        let mlp = window.sqrt() / 2.0;
        CoreModel {
            cfg,
            ipc_base: PhaseKind::ALL.map(|phase| {
                let (floor, inf, tau) = ilp_params(Kernel::of_phase(phase));
                let ilp = floor + inf * (1.0 - (-window / tau).exp());
                ilp.min(cfg.width as f64)
            }),
            mispredict_rate: Default::default(),
            flush_penalty: cfg.pipeline_depth as f64 + ((cfg.rob * cfg.window) as f64).sqrt(),
            div_exposure: 1.0 - hide,
            stall_exposure: 1.0 / (1.0 + mlp),
            ideal_branch_prediction: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Window-limited base IPC for `kernel` on this core.
    pub fn ipc_base(&self, kernel: Kernel) -> f64 {
        self.ipc_base[kernel as usize]
    }

    /// Cycles for the compute portion of `ops` (no cache misses).
    pub fn compute_cycles(&self, ops: &OpCounts, kernel: Kernel) -> u64 {
        let instr = ops.total() as f64;
        if instr == 0.0 {
            return 0;
        }
        let base = instr / self.ipc_base(kernel);
        let mispred_rate = if self.ideal_branch_prediction {
            0.0
        } else {
            *self.mispredict_rate[kernel as usize]
                .get_or_init(|| mispredict_rate(kernel, self.cfg.predictor_bytes))
        };
        let branch_cycles = ops.branch as f64 * mispred_rate * self.flush_penalty;
        let div_cycles = ops.fp_div_sqrt as f64 * DIV_SQRT_LATENCY * self.div_exposure;
        (base + branch_cycles + div_cycles).ceil() as u64
    }

    /// Full task cycles: compute plus exposed memory stalls.
    ///
    /// `mem_stall_cycles` is the sum of beyond-L1 latencies the hierarchy
    /// reported for this task's accesses.
    pub fn task_cycles(&self, task: &TaskTrace, kernel: Kernel, mem_stall_cycles: u64) -> u64 {
        let compute = self.compute_cycles(&task.ops, kernel);
        compute + (mem_stall_cycles as f64 * self.stall_exposure).round() as u64
    }

    /// Effective IPC of a finished task (diagnostic, Figure 10a).
    pub fn effective_ipc(&self, task: &TaskTrace, kernel: Kernel, mem_stall_cycles: u64) -> f64 {
        let cycles = self.task_cycles(task, kernel, mem_stall_cycles).max(1);
        task.ops.total() as f64 / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_task(kernel: Kernel, instr: u64) -> TaskTrace {
        // Build a task with the kernel's natural mix.
        use parallax_trace::kernels::KernelModel;
        let ops = match kernel {
            Kernel::Narrowphase => KernelModel::narrowphase_pair(
                parallax_physics::ShapeKind::Cuboid,
                parallax_physics::ShapeKind::Cuboid,
                2,
            ),
            Kernel::IslandSolver => KernelModel::island_solver(50, 20, 10),
            Kernel::Cloth => KernelModel::cloth(625, 5000, 200),
            Kernel::Broadphase => KernelModel::broadphase(1000, 10_000, 3_000),
            Kernel::IslandCreation => KernelModel::island_creation(1000, 500, 1500),
        };
        let k = (instr / ops.total().max(1)).max(1);
        TaskTrace::compute_only(ops.scaled(k))
    }

    #[test]
    fn island_solver_ipc_ordering_matches_fig10a() {
        // Island kernel: desktop ≫ console > shader; limit study > 4.
        let ipc = |cfg: CoreConfig| {
            let m = CoreModel::new(cfg);
            let t = kernel_task(Kernel::IslandSolver, 1_000_000);
            m.effective_ipc(&t, Kernel::IslandSolver, 0)
        };
        let d = ipc(CoreConfig::desktop());
        let c = ipc(CoreConfig::console());
        let s = ipc(CoreConfig::shader());
        let l = ipc(CoreConfig::limit_study());
        assert!(d > 2.0, "desktop island IPC {d}");
        assert!(d > c && c > s, "ordering d={d} c={c} s={s}");
        assert!(l > 4.0, "limit-study island IPC {l}");
    }

    #[test]
    fn narrowphase_degrades_with_more_resources() {
        // Paper: "Narrowphase degrades with more resources due to
        // mispredicted branch instructions."
        let ipc = |cfg: CoreConfig| {
            let m = CoreModel::new(cfg);
            let t = kernel_task(Kernel::Narrowphase, 1_000_000);
            m.effective_ipc(&t, Kernel::Narrowphase, 0)
        };
        let d = ipc(CoreConfig::desktop());
        let l = ipc(CoreConfig::limit_study());
        assert!(
            l < d,
            "limit study ({l}) should degrade vs desktop ({d}) on narrowphase"
        );
    }

    #[test]
    fn ideal_branch_prediction_helps_narrowphase_about_30pct() {
        // Paper §8.2: "ideal branch prediction resulted in a 30%
        // improvement in performance" for Narrowphase. Check the
        // console-class FG core lands near that; wider cores gain more.
        let t = kernel_task(Kernel::Narrowphase, 1_000_000);
        let mut m = CoreModel::new(CoreConfig::console());
        let real = m.task_cycles(&t, Kernel::Narrowphase, 0);
        m.ideal_branch_prediction = true;
        let ideal = m.task_cycles(&t, Kernel::Narrowphase, 0);
        let speedup = real as f64 / ideal as f64;
        assert!(
            (1.1..1.75).contains(&speedup),
            "ideal BP speedup {speedup} (paper: ~30%)"
        );
    }

    #[test]
    fn cloth_ipc_below_island_on_limit_core() {
        let m = CoreModel::new(CoreConfig::limit_study());
        let cloth = kernel_task(Kernel::Cloth, 1_000_000);
        let island = kernel_task(Kernel::IslandSolver, 1_000_000);
        let ci = m.effective_ipc(&cloth, Kernel::Cloth, 0);
        let ii = m.effective_ipc(&island, Kernel::IslandSolver, 0);
        assert!(ci < ii, "cloth {ci} vs island {ii}");
        assert!(
            (1.0..2.5).contains(&ci),
            "paper: limit cloth IPC ≈ 1.5, got {ci}"
        );
    }

    #[test]
    fn memory_stalls_add_cycles_with_window_discount() {
        let t = kernel_task(Kernel::IslandSolver, 10_000);
        let desk = CoreModel::new(CoreConfig::desktop());
        let shad = CoreModel::new(CoreConfig::shader());
        let base_d = desk.task_cycles(&t, Kernel::IslandSolver, 0);
        let stall_d = desk.task_cycles(&t, Kernel::IslandSolver, 10_000);
        let base_s = shad.task_cycles(&t, Kernel::IslandSolver, 0);
        let stall_s = shad.task_cycles(&t, Kernel::IslandSolver, 10_000);
        let added_d = stall_d - base_d;
        let added_s = stall_s - base_s;
        assert!(added_d > 0);
        assert!(
            added_s > added_d,
            "the shader's 1-entry window hides less latency ({added_s} vs {added_d})"
        );
    }

    #[test]
    fn cached_terms_are_the_per_task_expressions() {
        for cfg in [
            CoreConfig::desktop(),
            CoreConfig::console(),
            CoreConfig::shader(),
            CoreConfig::limit_study(),
        ] {
            let m = CoreModel::new(cfg);
            let window = cfg.window as f64;
            for (i, kernel) in PhaseKind::ALL.map(Kernel::of_phase).into_iter().enumerate() {
                assert_eq!(kernel as usize, i);
                let (floor, inf, tau) = ilp_params(kernel);
                let ilp = floor + inf * (1.0 - (-window / tau).exp());
                assert_eq!(m.ipc_base(kernel), ilp.min(cfg.width as f64));
            }
            assert_eq!(
                m.flush_penalty,
                cfg.pipeline_depth as f64 + ((cfg.rob * cfg.window) as f64).sqrt()
            );
            assert_eq!(m.stall_exposure, 1.0 / (1.0 + window.sqrt() / 2.0));
        }
    }

    #[test]
    fn empty_task_is_free() {
        let m = CoreModel::new(CoreConfig::desktop());
        let t = TaskTrace::default();
        assert_eq!(m.task_cycles(&t, Kernel::Cloth, 0), 0);
    }
}
