//! Task farming: the FG pipeline timing model of the CG→FG protocol
//! (paper §7.3).
//!
//! "The hand-shaking between CG and FG cores for data transfers will be
//! similar to network protocols using control and data packets." The
//! model prices each task's transfer over the link
//! ([`fg_phase_timing`]); it does not build the packets.

use parallax_archsim::offchip::Link;
use parallax_trace::Kernel;
use serde::{Deserialize, Serialize};

use crate::fgcore::{iterations_per_task, task_profile, FgCoreType};

/// Timing of one FG phase execution.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FgPhaseTiming {
    /// Total cycles from first transfer to last result.
    pub total_cycles: u64,
    /// Pure compute cycles on the critical FG core.
    pub compute_cycles: u64,
    /// Cycles where communication was exposed (not overlapped).
    pub exposed_comm_cycles: u64,
    /// Whether communication was fully hidden behind computation (other
    /// than the unavoidable startup/drain).
    pub hidden: bool,
}

/// Pipelined FG execution time for `tasks` tasks of `kernel` on a pool of
/// `count` cores of type `core` coupled via `link`.
///
/// Model (paper §7.2): tasks stream to the cores; task *i* on a core can
/// start once it has arrived and the previous task finished. For off-chip
/// links the single link serializes all cores' transfers; the on-chip mesh
/// provides per-core link bandwidth.
///
/// `total = max(rounds × c, L + T_ser) + L` where `rounds = ⌈tasks /
/// count⌉`, `c` is per-task compute, `T_ser` is total serialization seen
/// by the bottleneck resource, and the trailing `L` is result drain.
pub fn fg_phase_timing(
    kernel: Kernel,
    core: FgCoreType,
    count: usize,
    link: Link,
    tasks: usize,
) -> FgPhaseTiming {
    if tasks == 0 || count == 0 {
        return FgPhaseTiming {
            total_cycles: 0,
            compute_cycles: 0,
            exposed_comm_cycles: 0,
            hidden: true,
        };
    }
    let (instr, bytes) = task_profile(kernel);
    let ipc = core.kernel_ipc(kernel);
    // A task's data transfers once but is iterated over multiple times
    // (20 solver sweeps / 8 cloth relaxations) while FG-resident.
    let c = instr * iterations_per_task(kernel) as f64 / ipc.max(1e-6);
    let bw = link.bandwidth_bytes_per_sec() / 2.0e9; // bytes per cycle
    let s = bytes / bw;
    let latency = link.latency_cycles() as f64;
    let rounds = tasks.div_ceil(count) as f64;

    let ser_total = match link {
        // Mesh: transfers distribute over per-core links.
        Link::OnChipMesh => rounds * s,
        // A single shared off-chip link carries every task's data.
        Link::Htx | Link::Pcie => tasks as f64 * s,
    };
    let compute = rounds * c;
    let arrive_last = latency + ser_total;
    let busy = compute.max(arrive_last);
    let total = busy + latency; // result drain
    FgPhaseTiming {
        total_cycles: total.ceil() as u64,
        compute_cycles: compute.ceil() as u64,
        exposed_comm_cycles: (busy - compute).max(0.0).ceil() as u64,
        hidden: arrive_last <= compute + latency,
    }
}

/// CG-side overhead instructions for dispatching one FG task: data
/// packing before send, scattering on return, queue management.
pub const CG_DISPATCH_INSTR: u64 = 90;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onchip_narrowphase_hides_communication() {
        let t = fg_phase_timing(
            Kernel::Narrowphase,
            FgCoreType::Shader,
            150,
            Link::OnChipMesh,
            3000,
        );
        assert!(t.hidden, "{t:?}");
        assert_eq!(t.exposed_comm_cycles, 0);
    }

    #[test]
    fn huge_pcie_pool_saturates_the_link() {
        // With enough cores pulling tasks, the shared 4 GB/s link becomes
        // the bottleneck and communication is exposed.
        let t = fg_phase_timing(
            Kernel::Narrowphase,
            FgCoreType::Shader,
            4000,
            Link::Pcie,
            40_000,
        );
        assert!(!t.hidden, "{t:?}");
        assert!(t.exposed_comm_cycles > 0);
        // The on-chip mesh with per-core links stays hidden.
        let m = fg_phase_timing(
            Kernel::Narrowphase,
            FgCoreType::Shader,
            4000,
            Link::OnChipMesh,
            40_000,
        );
        assert!(m.hidden, "{m:?}");
    }

    #[test]
    fn more_cores_reduce_time_until_comm_bound() {
        let t50 = fg_phase_timing(
            Kernel::IslandSolver,
            FgCoreType::Shader,
            50,
            Link::OnChipMesh,
            10_000,
        );
        let t150 = fg_phase_timing(
            Kernel::IslandSolver,
            FgCoreType::Shader,
            150,
            Link::OnChipMesh,
            10_000,
        );
        assert!(t150.total_cycles < t50.total_cycles);
    }

    #[test]
    fn zero_tasks_cost_nothing() {
        let t = fg_phase_timing(Kernel::Cloth, FgCoreType::Console, 43, Link::Htx, 0);
        assert_eq!(t.total_cycles, 0);
    }
}
