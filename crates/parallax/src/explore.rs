//! Design-space exploration: FG core counts required for 30 FPS
//! (paper Figure 10b) and related sweeps.

use parallax_archsim::offchip::Link;
use parallax_physics::{PhaseKind, StepProfile};
use parallax_trace::Kernel;
use serde::{Deserialize, Serialize};

use crate::fgcore::{iterations_per_task, task_profile, FgCoreType};
use crate::schedule::fg_phase_timing;

/// The FG workload of one displayed frame: task counts per FG kernel.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct FgWorkload {
    /// Narrow-phase object pairs.
    pub narrowphase_tasks: usize,
    /// Island-solver DOF iterations.
    pub island_tasks: usize,
    /// Cloth vertices.
    pub cloth_tasks: usize,
}

impl FgWorkload {
    /// Extracts the per-frame FG workload from a window of step profiles.
    pub fn from_profiles(profiles: &[StepProfile]) -> FgWorkload {
        let mut w = FgWorkload::default();
        for p in profiles {
            w.narrowphase_tasks += p.fg_tasks(PhaseKind::Narrowphase);
            w.island_tasks += p.fg_tasks(PhaseKind::IslandProcessing);
            w.cloth_tasks += p.fg_tasks(PhaseKind::Cloth);
        }
        w
    }

    /// (kernel, tasks) pairs.
    pub fn per_kernel(&self) -> [(Kernel, usize); 3] {
        [
            (Kernel::Narrowphase, self.narrowphase_tasks),
            (Kernel::IslandSolver, self.island_tasks),
            (Kernel::Cloth, self.cloth_tasks),
        ]
    }

    /// Total FG instructions in the frame.
    pub fn total_instructions(&self) -> f64 {
        self.per_kernel()
            .iter()
            .map(|(k, n)| task_profile(*k).0 * iterations_per_task(*k) as f64 * *n as f64)
            .sum()
    }
}

/// Cycles available per displayed frame at 30 FPS and 2 GHz.
pub const FRAME_CYCLES: f64 = 2.0e9 / 30.0;

/// FG cores needed assuming pure compute (no communication), given the
/// fraction of frame time available for FG work — the paper's
/// 100%/50%/25%/12.5% bars in Figure 10b.
pub fn cores_required_compute_only(
    core: FgCoreType,
    workload: &FgWorkload,
    budget_fraction: f64,
) -> usize {
    let budget = FRAME_CYCLES * budget_fraction;
    let mut cycles_one_core = 0.0;
    for (kernel, tasks) in workload.per_kernel() {
        let (instr, _) = task_profile(kernel);
        let ipc = core.kernel_ipc(kernel);
        cycles_one_core +=
            tasks as f64 * instr * iterations_per_task(kernel) as f64 / ipc.max(1e-6);
    }
    (cycles_one_core / budget).ceil().max(1.0) as usize
}

/// FG cores needed including interconnect effects — the paper's
/// "Simulated" bars (32% of frame time left by the 4-core CG simulation).
///
/// Searches for the smallest pool that finishes the frame's FG work within
/// the budget, accounting for startup/drain latency and link bandwidth.
pub fn cores_required_simulated(
    core: FgCoreType,
    link: Link,
    workload: &FgWorkload,
    budget_fraction: f64,
) -> Option<usize> {
    let budget = FRAME_CYCLES * budget_fraction;
    let time = |n: usize| -> f64 {
        workload
            .per_kernel()
            .iter()
            .map(|(k, tasks)| fg_phase_timing(*k, core, n, link, *tasks).total_cycles as f64)
            .sum()
    };
    // The workload may be communication-bound and unsatisfiable.
    const MAX_CORES: usize = 100_000;
    if time(MAX_CORES) > budget {
        return None;
    }
    // Binary search the smallest satisfying pool.
    let (mut lo, mut hi) = (1usize, MAX_CORES);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if time(mid) <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_like_workload() -> FgWorkload {
        // Roughly Mix-scale per frame (3 steps).
        FgWorkload {
            narrowphase_tasks: 3 * 16_000,
            island_tasks: 3 * 1_500,
            cloth_tasks: 3 * 2_625,
        }
    }

    #[test]
    fn tighter_budget_needs_more_cores() {
        let w = mix_like_workload();
        let full = cores_required_compute_only(FgCoreType::Shader, &w, 1.0);
        let half = cores_required_compute_only(FgCoreType::Shader, &w, 0.5);
        let eighth = cores_required_compute_only(FgCoreType::Shader, &w, 0.125);
        assert!(full < half && half < eighth, "{full} {half} {eighth}");
        // Roughly inverse-linear.
        assert!((half as f64 / full as f64 - 2.0).abs() < 0.3);
    }

    #[test]
    fn simpler_cores_need_more_of_them() {
        let w = mix_like_workload();
        let d = cores_required_compute_only(FgCoreType::Desktop, &w, 0.32);
        let c = cores_required_compute_only(FgCoreType::Console, &w, 0.32);
        let s = cores_required_compute_only(FgCoreType::Shader, &w, 0.32);
        assert!(d <= c && c <= s, "{d} {c} {s}");
    }

    #[test]
    fn simulated_counts_exceed_compute_only() {
        let w = mix_like_workload();
        for link in Link::ALL {
            let compute = cores_required_compute_only(FgCoreType::Shader, &w, 0.32);
            let simulated =
                cores_required_simulated(FgCoreType::Shader, link, &w, 0.32).expect("satisfiable");
            assert!(
                simulated >= compute,
                "{link:?}: simulated {simulated} < compute-only {compute}"
            );
        }
    }

    #[test]
    fn offchip_needs_no_fewer_cores_than_onchip() {
        let w = mix_like_workload();
        let on = cores_required_simulated(FgCoreType::Shader, Link::OnChipMesh, &w, 0.32).unwrap();
        let htx = cores_required_simulated(FgCoreType::Shader, Link::Htx, &w, 0.32).unwrap();
        let pcie = cores_required_simulated(FgCoreType::Shader, Link::Pcie, &w, 0.32);
        assert!(htx >= on);
        if let Some(p) = pcie {
            assert!(p >= htx);
        }
    }

    #[test]
    fn workload_extraction_counts_tasks() {
        let mut p = StepProfile::default();
        p.pairs.push(parallax_physics::probe::PairWork {
            geom_a: 0,
            geom_b: 1,
            body_a: 0,
            body_b: 1,
            shape_a: parallax_physics::ShapeKind::Sphere,
            shape_b: parallax_physics::ShapeKind::Sphere,
            contacts: 1,
            active: true,
        });
        let w = FgWorkload::from_profiles(&[p.clone(), p]);
        assert_eq!(w.narrowphase_tasks, 2);
        assert!(w.total_instructions() > 0.0);
    }
}
