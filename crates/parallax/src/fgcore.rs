//! Fine-grain core candidates (paper Table 6) and their kernel execution
//! characteristics.

use parallax_archsim::config::CoreConfig;
use parallax_archsim::core::CoreModel;
use parallax_trace::{Kernel, OpCounts, TaskTrace};
use serde::{Deserialize, Serialize};

/// The four FG core design points of paper Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FgCoreType {
    /// Intel-Core-Duo-class 4-wide out-of-order core.
    Desktop,
    /// IBM-Cell-class 2-wide core.
    Console,
    /// GPU-shader-class scalar core.
    Shader,
    /// Unrealistically aggressive ILP limit study.
    LimitStudy,
}

impl FgCoreType {
    /// The three realistic candidates plus the limit study, paper order.
    pub const ALL: [FgCoreType; 4] = [
        FgCoreType::Desktop,
        FgCoreType::Console,
        FgCoreType::Shader,
        FgCoreType::LimitStudy,
    ];

    /// The realistic candidates considered for deployment.
    pub const REALISTIC: [FgCoreType; 3] =
        [FgCoreType::Desktop, FgCoreType::Console, FgCoreType::Shader];

    /// Microarchitectural configuration.
    pub fn config(self) -> CoreConfig {
        match self {
            FgCoreType::Desktop => CoreConfig::desktop(),
            FgCoreType::Console => CoreConfig::console(),
            FgCoreType::Shader => CoreConfig::shader(),
            FgCoreType::LimitStudy => CoreConfig::limit_study(),
        }
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        self.config().name
    }

    /// Effective IPC on a kernel, assuming FG-resident data (all memory
    /// requests "hit in single-cycle local memory", paper §8.2).
    ///
    /// Memoized: the first call per (core, kernel) runs the YAGS
    /// mispredict simulation; later calls are table lookups.
    pub fn kernel_ipc(self, kernel: Kernel) -> f64 {
        use std::sync::{Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<std::collections::HashMap<(FgCoreType, Kernel), f64>>> =
            OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
        if let Some(&ipc) = cache.lock().expect("ipc cache").get(&(self, kernel)) {
            return ipc;
        }
        let task = TaskTrace::compute_only(representative_ops(kernel));
        let ipc = CoreModel::new(self.config()).effective_ipc(&task, kernel, 0);
        cache.lock().expect("ipc cache").insert((self, kernel), ipc);
        ipc
    }
}

/// A large representative workload of the kernel's natural mix, used to
/// measure steady-state IPC (Figure 10a).
pub fn representative_ops(kernel: Kernel) -> OpCounts {
    use parallax_trace::kernels::KernelModel;
    let unit = match kernel {
        Kernel::Narrowphase => KernelModel::narrowphase_pair(
            parallax_physics::ShapeKind::Cuboid,
            parallax_physics::ShapeKind::Cuboid,
            2,
        ),
        Kernel::IslandSolver => KernelModel::island_solver(50, 20, 10),
        Kernel::Cloth => KernelModel::cloth(625, 5_000, 200),
        Kernel::Broadphase => KernelModel::broadphase(1_000, 10_000, 3_000),
        Kernel::IslandCreation => KernelModel::island_creation(1_000, 500, 1_500),
    };
    unit.scaled((1_000_000 / unit.total().max(1)).max(1))
}

/// Per-FG-task workload sizes used by the buffering and exploration
/// models: (instructions per task, unique bytes moved per task).
///
/// Derived from the paper's §8.1.2 measurements (unique data per 100
/// iterations: 1,668/604/376 B read and 100/128/308 B written).
pub fn task_profile(kernel: Kernel) -> (f64, f64) {
    match kernel {
        // One object pair (×6 ODE-cost calibration, see
        // `parallax_trace::kernels`).
        Kernel::Narrowphase => (3_100.0, 17.7),
        // One LCP solver row relaxation for ONE iteration (the task's
        // data stays FG-resident across the solver's 20 iterations).
        Kernel::IslandSolver => (230.0, 7.3),
        // One cloth vertex update for ONE relaxation iteration.
        Kernel::Cloth => (6_700.0, 6.8),
        // Serial phases have no FG tasks; give whole-phase placeholders.
        Kernel::Broadphase | Kernel::IslandCreation => (0.0, 0.0),
    }
}

/// Sequential iterations each FG task executes over its resident data
/// (the paper's ∆t uses 20 solver iterations and our cloth uses 8
/// relaxation passes). Data transfers once; compute repeats.
pub fn iterations_per_task(kernel: Kernel) -> u64 {
    match kernel {
        Kernel::IslandSolver => 20,
        Kernel::Cloth => 8,
        _ => 1,
    }
}

/// Local instruction memory needed to hold all three kernels (paper
/// §8.1.2: 2.7 KB with 32-bit instructions).
pub fn kernel_code_bytes() -> usize {
    Kernel::FG.iter().map(|k| k.static_instructions() * 4).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_code_fits_in_2_7_kb() {
        let bytes = kernel_code_bytes();
        assert_eq!(bytes, (277 + 177 + 221) * 4);
        assert!(bytes <= 2_700, "paper: 2.7KB for 32-bit instructions");
    }

    #[test]
    fn ipc_ordering_island_kernel() {
        let d = FgCoreType::Desktop.kernel_ipc(Kernel::IslandSolver);
        let c = FgCoreType::Console.kernel_ipc(Kernel::IslandSolver);
        let s = FgCoreType::Shader.kernel_ipc(Kernel::IslandSolver);
        let l = FgCoreType::LimitStudy.kernel_ipc(Kernel::IslandSolver);
        assert!(l > 4.0, "limit study island IPC {l}");
        assert!(d > c && c > s, "d={d} c={c} s={s}");
    }

    #[test]
    fn narrowphase_best_on_modest_cores() {
        let d = FgCoreType::Desktop.kernel_ipc(Kernel::Narrowphase);
        let l = FgCoreType::LimitStudy.kernel_ipc(Kernel::Narrowphase);
        assert!(l < d, "narrowphase degrades with more resources");
    }

    #[test]
    fn task_profiles_are_positive_for_fg_kernels() {
        for k in Kernel::FG {
            let (instr, bytes) = task_profile(k);
            assert!(instr > 0.0 && bytes > 0.0, "{k:?}");
        }
    }
}
