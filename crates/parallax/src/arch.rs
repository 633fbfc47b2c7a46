//! The full ParallAX system model: CG cores + partitioned L2 + FG pool
//! (paper Figure 8), simulated end-to-end from physics step profiles.

use std::sync::OnceLock;

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{kernel_of, MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_physics::{PhaseKind, StepProfile};
use parallax_telemetry as telemetry;
use parallax_trace::kernels::KernelModel;
use parallax_trace::{OpCounts, ParallelWork, StepTrace};
use serde::{Deserialize, Serialize};

/// Telemetry for the full-system model: FG-pool utilization (via the
/// hierarchical arbiter) and the CG/FG cycle split, flushed per step.
struct SysMetrics {
    steps: telemetry::Counter,
    fg_tasks: telemetry::Counter,
    fg_cores_granted: telemetry::Counter,
    fg_occupancy_pct: telemetry::Gauge,
    arbiter_queue_depth: telemetry::Gauge,
    fg_cycles: telemetry::Counter,
    cg_parallel_cycles: telemetry::Counter,
    serial_cycles: telemetry::Counter,
    exposed_comm_cycles: telemetry::Counter,
}

fn sys_metrics() -> &'static SysMetrics {
    static M: OnceLock<SysMetrics> = OnceLock::new();
    M.get_or_init(|| SysMetrics {
        steps: telemetry::counter("parallax.steps"),
        fg_tasks: telemetry::counter("parallax.fg_tasks"),
        fg_cores_granted: telemetry::counter("parallax.fg_cores_granted"),
        fg_occupancy_pct: telemetry::gauge("parallax.fg_occupancy_pct"),
        arbiter_queue_depth: telemetry::gauge("parallax.arbiter_queue_depth"),
        fg_cycles: telemetry::counter("parallax.fg_cycles"),
        cg_parallel_cycles: telemetry::counter("parallax.cg_parallel_cycles"),
        serial_cycles: telemetry::counter("parallax.serial_cycles"),
        exposed_comm_cycles: telemetry::counter("parallax.exposed_comm_cycles"),
    })
}

use crate::arbiter::HierarchicalArbiter;
use crate::fgcore::FgCoreType;
use crate::schedule::{fg_phase_timing, CG_DISPATCH_INSTR};

/// Result of simulating a window of steps on a ParallAX system.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct SystemResult {
    /// Per-phase cycles in [`PhaseKind::ALL`] order (CG and FG parts
    /// overlapped: each entry is the phase's critical path).
    pub per_phase: [u64; 5],
    /// Serial-phase cycles (Broadphase + Island Creation, on one CG core).
    pub serial_cycles: u64,
    /// CG-side cycles spent in the parallel phases (setup + packing +
    /// dispatch).
    pub cg_parallel_cycles: u64,
    /// FG-pool cycles across the parallel phases.
    pub fg_cycles: u64,
    /// Communication cycles that could not be overlapped.
    pub exposed_comm_cycles: u64,
}

impl SystemResult {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.per_phase.iter().sum()
    }

    /// Seconds at 2 GHz.
    pub fn seconds(&self) -> f64 {
        self.total_cycles() as f64 / 2.0e9
    }

    /// Frames per second when this result covers one displayed frame.
    pub fn fps(&self) -> f64 {
        1.0 / self.seconds().max(1e-12)
    }
}

/// A configured ParallAX system.
pub struct ParallaxSystem {
    cg_sim: MulticoreSim,
    cg_cores: usize,
    fg_type: FgCoreType,
    fg_count: usize,
    link: Link,
    arbiter: HierarchicalArbiter,
}

impl std::fmt::Debug for ParallaxSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallaxSystem")
            .field("cg_cores", &self.cg_cores)
            .field("fg_type", &self.fg_type)
            .field("fg_count", &self.fg_count)
            .field("link", &self.link)
            .finish()
    }
}

impl ParallaxSystem {
    /// Builds the paper's reference configuration: `cg_cores` desktop CG
    /// cores with a 12 MB way-partitioned L2 (serial phases protected),
    /// plus `fg_count` FG cores of `fg_type` coupled via `link`.
    pub fn new(cg_cores: usize, fg_type: FgCoreType, fg_count: usize, link: Link) -> Self {
        let mut machine = MachineConfig::baseline(cg_cores, 12);
        // Partition: way 0 → Broadphase (geom data + spatial hash fit in
        // 3 MB), ways 1-2 → Island Creation (object + joint + contact
        // data need ~6 MB), way 3 → parallel phases (streaming).
        machine.l2 = L2Config::partitioned(12, vec![1, 2, 1]);
        let options = SimOptions {
            partition_of_phase: Some([0, 2, 1, 2, 2]),
            ..Default::default()
        };
        ParallaxSystem {
            cg_sim: MulticoreSim::new(machine, options),
            cg_cores,
            fg_type,
            fg_count: fg_count.max(1),
            link,
            arbiter: HierarchicalArbiter::new(cg_cores.max(1), fg_count.max(1)),
        }
    }

    /// The FG arbiter (exposed for inspection).
    pub fn arbiter(&self) -> &HierarchicalArbiter {
        &self.arbiter
    }

    /// Simulates one physics step. Parallel phases run their CG setup on
    /// the CG cores and their kernels on the FG pool, overlapped.
    pub fn simulate_step(&mut self, profile: &StepProfile) -> SystemResult {
        // CG-side trace: serial phases unchanged; parallel-phase tasks
        // keep their memory references (the CG cores read the data to
        // pack/send it) but execute only setup + dispatch instructions.
        let trace = StepTrace::from_profile_with(profile, cg_side_ops);
        let cg_time = self.cg_sim.run_step(&trace);

        // FG side, per parallel phase.
        let mut result = SystemResult::default();
        for (pi, phase) in PhaseKind::ALL.iter().enumerate() {
            if phase.is_serial() {
                result.per_phase[pi] = cg_time.cycles[pi];
                result.serial_cycles += cg_time.cycles[pi];
                continue;
            }
            let tasks = profile.fg_tasks(*phase);
            let kernel = kernel_of(*phase);
            let fg = fg_phase_timing(kernel, self.fg_type, self.fg_count, self.link, tasks);
            let cg = cg_time.cycles[pi];
            result.cg_parallel_cycles += cg;
            result.fg_cycles += fg.total_cycles;
            result.exposed_comm_cycles += fg.exposed_comm_cycles;
            // CG packing streams to the FG pool; the phase's critical path
            // is the slower of the two sides.
            result.per_phase[pi] = cg.max(fg.total_cycles);
        }
        self.flush_telemetry(profile, &result);
        result
    }

    /// Records the step's FG utilization and cycle split: per parallel
    /// phase, the FG-task demand is spread over the CG cores and pushed
    /// through the hierarchical arbiter, yielding the granted-core count
    /// (occupancy) and the unmet demand (queue depth).
    fn flush_telemetry(&self, profile: &StepProfile, result: &SystemResult) {
        if !telemetry::enabled() {
            return;
        }
        let m = sys_metrics();
        m.steps.add(1);
        let mut max_occupancy = 0u64;
        let mut max_queue = 0u64;
        for phase in PhaseKind::ALL {
            if phase.is_serial() {
                continue;
            }
            let tasks = profile.fg_tasks(phase);
            if tasks == 0 {
                continue;
            }
            m.fg_tasks.add(tasks as u64);
            // Near-even demand split across CG cores, as each CG core
            // packs and dispatches its share of the phase's tasks.
            let demands: Vec<usize> = (0..self.cg_cores)
                .map(|c| tasks / self.cg_cores + usize::from(c < tasks % self.cg_cores))
                .collect();
            let granted: usize = self.arbiter.assign(&demands).iter().map(Vec::len).sum();
            m.fg_cores_granted.add(granted as u64);
            max_occupancy = max_occupancy.max(granted as u64 * 100 / self.fg_count as u64);
            max_queue = max_queue.max(tasks.saturating_sub(granted) as u64);
        }
        m.fg_occupancy_pct.set(max_occupancy);
        m.arbiter_queue_depth.set(max_queue);
        m.fg_cycles.add(result.fg_cycles);
        m.cg_parallel_cycles.add(result.cg_parallel_cycles);
        m.serial_cycles.add(result.serial_cycles);
        m.exposed_comm_cycles.add(result.exposed_comm_cycles);
    }

    /// Simulates a window of steps (e.g. one displayed frame = 3 steps).
    pub fn simulate_steps(&mut self, profiles: &[StepProfile]) -> SystemResult {
        let mut acc = SystemResult::default();
        for p in profiles {
            let r = self.simulate_step(p);
            for i in 0..5 {
                acc.per_phase[i] += r.per_phase[i];
            }
            acc.serial_cycles += r.serial_cycles;
            acc.cg_parallel_cycles += r.cg_parallel_cycles;
            acc.fg_cycles += r.fg_cycles;
            acc.exposed_comm_cycles += r.exposed_comm_cycles;
        }
        acc
    }
}

/// The CG-side portion of a parallel-phase task: per-unit setup plus
/// dispatch overhead (the kernel itself runs on the FG pool).
fn cg_side_ops(work: ParallelWork<'_>) -> OpCounts {
    match work {
        ParallelWork::Pair(_) => dispatch_ops(CG_DISPATCH_INSTR + 8),
        // Per-island setup/integration stays on CG; solver sweeps go to
        // FG.
        ParallelWork::Island(island) => {
            KernelModel::island_solver(0, 0, island.bodies.len())
                + dispatch_ops(CG_DISPATCH_INSTR + 8 * island.dof_removed.max(1) as u64)
        }
        ParallelWork::Cloth(cw) => {
            dispatch_ops(CG_DISPATCH_INSTR + 8 * cw.stats.vertices.max(1) as u64)
        }
    }
}

/// Integer/branch/memory mix of dispatch code.
fn dispatch_ops(instr: u64) -> OpCounts {
    OpCounts {
        int_alu: instr * 40 / 100,
        branch: instr * 10 / 100,
        load: instr * 30 / 100,
        store: instr * 15 / 100,
        other: instr * 5 / 100,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_physics::probe::{ClothWork, IslandWork, PairWork};

    fn demo_profile(pairs: usize, islands: usize, dof_per_island: usize) -> StepProfile {
        let mut p = StepProfile::default();
        p.broadphase.geoms = pairs + 5;
        p.broadphase.sort_ops = pairs * 8;
        p.broadphase.overlap_tests = pairs * 2;
        p.broadphase.pairs = pairs;
        for k in 0..pairs as u32 {
            p.pairs.push(PairWork {
                geom_a: k,
                geom_b: k + 1,
                body_a: k,
                body_b: k + 1,
                shape_a: parallax_physics::ShapeKind::Cuboid,
                shape_b: parallax_physics::ShapeKind::Sphere,
                contacts: 2,
                active: true,
            });
        }
        p.island_creation.bodies = pairs;
        p.island_creation.union_ops = pairs / 2;
        p.island_creation.find_ops = pairs;
        for i in 0..islands {
            p.islands.push(IslandWork {
                bodies: (0..6).map(|b| (i * 6 + b) as u32).collect(),
                joints: vec![],
                manifolds: 6,
                rows: dof_per_island,
                dof_removed: dof_per_island,
                iterations: 20,
                residual: 0.0,
                queued: dof_per_island > 25,
                lambda_digest: 0,
            });
        }
        p.cloths.push(ClothWork {
            cloth: 0,
            stats: parallax_physics::cloth::ClothStats {
                vertices: 625,
                projections: 625 * 8,
                collision_tests: 300,
                collisions_resolved: 20,
            },
            colliders: 3,
        });
        p
    }

    #[test]
    fn fg_pool_accelerates_parallel_phases() {
        let profile = demo_profile(800, 40, 60);
        let mut small = ParallaxSystem::new(4, FgCoreType::Shader, 10, Link::OnChipMesh);
        let mut big = ParallaxSystem::new(4, FgCoreType::Shader, 150, Link::OnChipMesh);
        let rs = small.simulate_step(&profile);
        let rb = big.simulate_step(&profile);
        assert!(
            rb.total_cycles() < rs.total_cycles(),
            "150 FG cores ({}) should beat 10 ({})",
            rb.total_cycles(),
            rs.total_cycles()
        );
        // Serial phases are identical.
        assert_eq!(rb.serial_cycles, rs.serial_cycles);
    }

    #[test]
    fn offchip_coupling_is_never_faster() {
        let profile = demo_profile(400, 60, 80);
        let run = |link: Link| {
            let mut sys = ParallaxSystem::new(4, FgCoreType::Shader, 150, link);
            sys.simulate_step(&profile).fg_cycles
        };
        let onchip = run(Link::OnChipMesh);
        let htx = run(Link::Htx);
        let pcie = run(Link::Pcie);
        assert!(
            onchip <= htx && htx <= pcie,
            "FG time must grow with coupling looseness: {onchip} {htx} {pcie}"
        );
    }

    #[test]
    fn result_accumulates_over_steps() {
        let profile = demo_profile(100, 10, 30);
        let mut sys = ParallaxSystem::new(2, FgCoreType::Console, 43, Link::OnChipMesh);
        let one = sys.simulate_steps(std::slice::from_ref(&profile));
        let mut sys2 = ParallaxSystem::new(2, FgCoreType::Console, 43, Link::OnChipMesh);
        let three = sys2.simulate_steps(&[profile.clone(), profile.clone(), profile]);
        assert!(three.total_cycles() > one.total_cycles() * 2);
        assert!(three.fps() < 2.0e9_f64);
    }
}
