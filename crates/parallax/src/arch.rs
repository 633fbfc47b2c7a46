//! The full ParallAX system model: CG cores + partitioned L2 + FG pool
//! (paper Figure 8), simulated end-to-end from physics step profiles.
//!
//! A step's CG-side time depends only on the CG machine and on the
//! profiles stepped so far; the FG pool and the link enter only in the
//! per-phase FG timing that follows it. So systems that differ only in
//! their FG side share one CG simulation through a process-wide record
//! per CG machine (see `CgRecord`): the first system on a history
//! simulates it and records each step's time, and every later system
//! whose history matches reads the times back, bit for bit.

use std::sync::{Mutex, OnceLock, PoisonError};

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{kernel_of, MulticoreSim, PhaseTime, SimOptions};
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
    /// Steps a system's own CG simulator ran, prefix replays included.
    cg_steps_simulated: telemetry::Counter,
    /// Steps whose CG time a system read from the CG record.
    cg_steps_shared: telemetry::Counter,
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
        cg_steps_simulated: telemetry::counter("parallax.cg_steps_simulated"),
        cg_steps_shared: telemetry::counter("parallax.cg_steps_shared"),
    })
}

use crate::arbiter::HierarchicalArbiter;
use crate::fgcore::FgCoreType;
use crate::schedule::{fg_phase_timing, CG_DISPATCH_INSTR};

/// Result of simulating a window of steps on a ParallAX system.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The CG machine with `cores` CG cores: the paper's reference
/// configuration, desktop cores with a 12 MB way-partitioned L2 (serial
/// phases protected).
fn cg_simulator(cores: usize) -> MulticoreSim {
    let mut machine = MachineConfig::baseline(cores, 12);
    // Partition: way 0 → Broadphase (geom data + spatial hash fit in
    // 3 MB), ways 1-2 → Island Creation (object + joint + contact
    // data need ~6 MB), way 3 → parallel phases (streaming).
    machine.l2 = L2Config::partitioned(12, vec![1, 2, 1]);
    let options = SimOptions {
        partition_of_phase: Some([0, 2, 1, 2, 2]),
        ..Default::default()
    };
    MulticoreSim::new(machine, options)
}

/// CG-side trace of a step: serial phases unchanged; parallel-phase tasks
/// keep their memory references (the CG cores read the data to pack/send
/// it) but execute only setup + dispatch instructions.
fn cg_trace(profile: &StepProfile) -> StepTrace {
    StepTrace::from_profile_with(profile, cg_side_ops)
}

/// The most recent CG history of one CG machine: each step's profile and
/// the machine's [`PhaseTime`] for it. A system whose own history is a
/// prefix of `steps` reads its times from here instead of simulating.
///
/// Invariants, kept under [`RECORDS`]' lock:
/// - a live reader whose history is `steps[..n]` pins those steps:
///   `steps` never shrinks below `n` while it lives;
/// - `profiles[..live]` are the slots `steps` names, in order of first
///   appearance, so a prefix of `steps` names a prefix of the slots.
#[derive(Default)]
struct CgRecord {
    /// Effective CG core count: which machine this is the record of.
    cores: usize,
    /// Distinct profiles of the history. Slots from `live` on belong to
    /// dropped steps; their buffers are kept for new profiles to be
    /// cloned into.
    profiles: Vec<StepProfile>,
    live: usize,
    /// The history: each step's profile slot and its CG time.
    steps: Vec<(usize, PhaseTime)>,
    /// `readers[i]`: live systems whose history is `steps[..=i]`.
    readers: Vec<usize>,
    /// Bumped whenever `steps` shrinks, so a writer extends only the
    /// history it is on.
    epoch: u64,
}

/// One [`CgRecord`] per CG machine.
static RECORDS: Mutex<Vec<CgRecord>> = Mutex::new(Vec::new());

/// Runs `f` on the record of the machine with `cores` CG cores, under
/// the records' lock.
fn with_record<T>(cores: usize, f: impl FnOnce(&mut CgRecord) -> T) -> T {
    // No update below panics half-way, so a record is whole even under a
    // lock poisoned by a panic elsewhere in the holder.
    let mut records = RECORDS.lock().unwrap_or_else(PoisonError::into_inner);
    let i = match records.iter().position(|r| r.cores == cores) {
        Some(i) => i,
        None => {
            records.push(CgRecord {
                cores,
                ..CgRecord::default()
            });
            records.len() - 1
        }
    };
    f(&mut records[i])
}

impl CgRecord {
    /// Profile of step `i`.
    fn profile(&self, i: usize) -> &StepProfile {
        &self.profiles[self.steps[i].0]
    }

    /// The time of step `len` for a reader whose history is
    /// `steps[..len]`, moving the reader on by that step; `None` when the
    /// record ends there or its step is not `profile`.
    fn read(&mut self, len: usize, profile: &StepProfile) -> Option<PhaseTime> {
        let &(slot, time) = self.steps.get(len)?;
        if self.profiles[slot] != *profile {
            return None;
        }
        self.unpin(len);
        self.readers[len] += 1;
        Some(time)
    }

    /// Releases a reader whose history is `steps[..len]`.
    fn unpin(&mut self, len: usize) {
        if len > 0 {
            self.readers[len - 1] -= 1;
        }
    }

    /// Cuts the record back to `steps[..len]` for a system with that
    /// history to extend, returning the epoch to extend it under; `None`
    /// when a live reader is further along.
    fn fork(&mut self, len: usize) -> Option<u64> {
        let pinned = self
            .readers
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        if pinned > len {
            return None;
        }
        if len < self.steps.len() {
            self.steps.truncate(len);
            self.readers.truncate(len);
            self.live = self
                .steps
                .iter()
                .map(|&(slot, _)| slot + 1)
                .max()
                .unwrap_or(0);
            self.epoch += 1;
        }
        Some(self.epoch)
    }

    /// Appends step `len` for a writer forked at `epoch`; `false` when the
    /// record is no longer that writer's history.
    fn extend(&mut self, epoch: u64, len: usize, profile: &StepProfile, time: PhaseTime) -> bool {
        if epoch != self.epoch || len != self.steps.len() {
            return false;
        }
        let slot = match self.profiles[..self.live].iter().position(|p| p == profile) {
            Some(slot) => slot,
            None => {
                if self.live == self.profiles.len() {
                    self.profiles.push(profile.clone());
                } else {
                    self.profiles[self.live].clone_from(profile);
                }
                self.live += 1;
                self.live - 1
            }
        };
        self.steps.push((slot, time));
        self.readers.push(0);
        true
    }
}

/// Where a system's CG times come from.
enum CgSide {
    /// The CG record, while the system's history is its first `len` steps.
    Shared { len: usize },
    /// The system's own simulator. `writer` is `(epoch, len)` while the
    /// system's history is the whole record, which it then extends.
    Own {
        sim: Box<MulticoreSim>,
        writer: Option<(u64, usize)>,
    },
}

/// The CG side of a system leaving the record, whose history is the
/// record's first `len` steps: its own simulator, brought up to date by
/// replaying those steps (the system pins them until it has), then a
/// fork of the record at `len`.
fn leave_record(cores: usize, len: usize) -> CgSide {
    let mut sim = Box::new(cg_simulator(cores));
    for i in 0..len {
        let trace = with_record(cores, |r| cg_trace(r.profile(i)));
        sim.run_step(&trace);
        sys_metrics().cg_steps_simulated.add(1);
    }
    let writer = with_record(cores, |r| {
        r.unpin(len);
        r.fork(len)
    });
    CgSide::Own {
        sim,
        writer: writer.map(|epoch| (epoch, len)),
    }
}

/// A configured ParallAX system.
pub struct ParallaxSystem {
    cg: CgSide,
    /// CG cores, at least one: the CG machine.
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

impl Drop for ParallaxSystem {
    fn drop(&mut self) {
        if let CgSide::Shared { len: len @ 1.. } = self.cg {
            with_record(self.cg_cores, |r| r.unpin(len));
        }
    }
}

impl ParallaxSystem {
    /// Builds the paper's reference configuration: `cg_cores` desktop CG
    /// cores (at least one) with a 12 MB way-partitioned L2 (serial
    /// phases protected), plus `fg_count` FG cores of `fg_type` coupled
    /// via `link`.
    pub fn new(cg_cores: usize, fg_type: FgCoreType, fg_count: usize, link: Link) -> Self {
        let cg_cores = cg_cores.max(1);
        ParallaxSystem {
            cg: CgSide::Shared { len: 0 },
            cg_cores,
            fg_type,
            fg_count: fg_count.max(1),
            link,
            arbiter: HierarchicalArbiter::new(cg_cores, fg_count.max(1)),
        }
    }

    /// Simulates one physics step. Parallel phases run their CG setup on
    /// the CG cores and their kernels on the FG pool, overlapped.
    pub fn simulate_step(&mut self, profile: &StepProfile) -> SystemResult {
        let cg_time = self.cg_time(profile);

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

    /// The CG machine's time for `profile` after the system's history:
    /// read from the CG record while the history matches it, simulated
    /// from the first step that does not on.
    fn cg_time(&mut self, profile: &StepProfile) -> PhaseTime {
        let cores = self.cg_cores;
        if let CgSide::Shared { len } = self.cg {
            if let Some(time) = with_record(cores, |r| r.read(len, profile)) {
                self.cg = CgSide::Shared { len: len + 1 };
                sys_metrics().cg_steps_shared.add(1);
                return time;
            }
            self.cg = leave_record(cores, len);
        }
        let CgSide::Own { sim, writer } = &mut self.cg else {
            unreachable!("a system that misses the record leaves it");
        };
        let time = sim.run_step(&cg_trace(profile));
        sys_metrics().cg_steps_simulated.add(1);
        if let Some((epoch, len)) = writer {
            if with_record(cores, |r| r.extend(*epoch, *len, profile, time)) {
                *len += 1;
            } else {
                *writer = None;
            }
        }
        time
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

    // -----------------------------------------------------------------
    // The CG record against the system as it was before it: every result
    // bit-identical. Each test runs on a CG machine (core count) of its
    // own, so the record paths it asserts do not depend on the tests
    // running beside it.

    /// The system before the CG record: a simulator of its own, run on
    /// every step, then the FG loop.
    struct Reference {
        cg_sim: MulticoreSim,
        fg_type: FgCoreType,
        fg_count: usize,
        link: Link,
    }

    impl Reference {
        fn new(cg_cores: usize, fg_type: FgCoreType, fg_count: usize, link: Link) -> Reference {
            let mut machine = MachineConfig::baseline(cg_cores, 12);
            machine.l2 = L2Config::partitioned(12, vec![1, 2, 1]);
            let options = SimOptions {
                partition_of_phase: Some([0, 2, 1, 2, 2]),
                ..Default::default()
            };
            Reference {
                cg_sim: MulticoreSim::new(machine, options),
                fg_type,
                fg_count: fg_count.max(1),
                link,
            }
        }

        fn simulate_step(&mut self, profile: &StepProfile) -> SystemResult {
            let trace = StepTrace::from_profile_with(profile, cg_side_ops);
            let cg_time = self.cg_sim.run_step(&trace);
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
                result.per_phase[pi] = cg.max(fg.total_cycles);
            }
            result
        }
    }

    /// A system stepped beside its reference.
    struct Twin {
        sys: ParallaxSystem,
        reference: Reference,
    }

    impl Twin {
        fn new(cg_cores: usize, fg_type: FgCoreType, fg_count: usize, link: Link) -> Twin {
            Twin {
                sys: ParallaxSystem::new(cg_cores, fg_type, fg_count, link),
                reference: Reference::new(cg_cores, fg_type, fg_count, link),
            }
        }

        /// Steps both; the results must agree in every field.
        fn step(&mut self, profile: &StepProfile) {
            let got = self.sys.simulate_step(profile);
            let want = self.reference.simulate_step(profile);
            assert_eq!(got, want, "{:?}", self.sys);
        }

        /// Whether the system still reads its CG times from the record.
        fn shared(&self) -> bool {
            matches!(self.sys.cg, CgSide::Shared { .. })
        }
    }

    /// The nine FG pool × link design points on one CG machine.
    fn nine(cg_cores: usize) -> Vec<Twin> {
        let pools = [
            (FgCoreType::Desktop, 30),
            (FgCoreType::Console, 43),
            (FgCoreType::Shader, 150),
        ];
        pools
            .into_iter()
            .flat_map(|(fg_type, n)| Link::ALL.map(|link| Twin::new(cg_cores, fg_type, n, link)))
            .collect()
    }

    /// `n` distinct small profiles; windows of different `salt`s share
    /// none.
    fn window(salt: usize, n: usize) -> Vec<StepProfile> {
        (0..n)
            .map(|k| demo_profile(40 + 9 * k + salt, 2 + k % 3, 20 + 7 * (k % 4)))
            .collect()
    }

    #[test]
    fn interleaved_systems_match_the_reference() {
        let w = window(0, 5);
        let mut twins = nine(3);
        // A warm pass over the first steps, then the window, as the
        // benchmark steps it; the order within a step alternates, so
        // which system runs ahead changes every step.
        for (i, p) in w[..3].iter().chain(&w).enumerate() {
            if i % 2 == 0 {
                twins.iter_mut().for_each(|t| t.step(p));
            } else {
                twins.iter_mut().rev().for_each(|t| t.step(p));
            }
        }
    }

    #[test]
    fn divergence_at_every_step_matches_the_reference() {
        let w = window(100, 6);
        let odd = demo_profile(7, 1, 5);
        let mut writer = Twin::new(5, FgCoreType::Shader, 150, Link::Htx);
        w.iter().for_each(|p| writer.step(p));
        // A live reader at the record's end: no divergence may cut the
        // record back, so every diverging system simulates alone and a
        // later system still reads the whole window.
        let mut pin = Twin::new(5, FgCoreType::Shader, 150, Link::Pcie);
        w.iter().for_each(|p| pin.step(p));
        assert!(pin.shared());
        for k in 0..w.len() {
            let mut t = Twin::new(5, FgCoreType::Desktop, 30, Link::Pcie);
            w[..k].iter().for_each(|p| t.step(p));
            assert!(t.shared());
            t.step(&odd);
            assert!(!t.shared());
            w[k..].iter().for_each(|p| t.step(p));
            let mut follower = Twin::new(5, FgCoreType::Console, 43, Link::OnChipMesh);
            for p in &w {
                follower.step(p);
                assert!(follower.shared(), "divergence at {k} cut the record");
            }
        }
        drop(pin);
        // With no live reader, a divergence at `k` forks the record
        // there; a system on the original window reads up to the fork,
        // simulates from it on, and records the window again.
        for k in 0..w.len() {
            let mut t = Twin::new(5, FgCoreType::Desktop, 30, Link::Pcie);
            w[..k].iter().for_each(|p| t.step(p));
            t.step(&odd);
            w[k..].iter().for_each(|p| t.step(p));
            let mut follower = Twin::new(5, FgCoreType::Console, 43, Link::OnChipMesh);
            for (i, p) in w.iter().enumerate() {
                follower.step(p);
                assert_eq!(follower.shared(), i < k, "fork at {k}, step {i}");
            }
            let mut again = Twin::new(5, FgCoreType::Shader, 150, Link::OnChipMesh);
            for p in &w {
                again.step(p);
                assert!(again.shared());
            }
        }
    }

    #[test]
    fn extension_past_the_record_end_matches_the_reference() {
        let w = window(200, 6);
        let mut first = Twin::new(6, FgCoreType::Shader, 150, Link::Htx);
        w[..2].iter().for_each(|p| first.step(p));
        // Reads two steps, then replays them and extends the record.
        let mut second = Twin::new(6, FgCoreType::Console, 43, Link::Pcie);
        for (i, p) in w.iter().enumerate() {
            second.step(p);
            assert_eq!(second.shared(), i < 2);
        }
        // The first system's history is still a prefix of the record,
        // but it has a simulator of its own and keeps it.
        w[2..].iter().for_each(|p| first.step(p));
        // A reader left behind catches up on steps recorded after it
        // stopped, while another system runs past the end.
        let mut third = Twin::new(6, FgCoreType::Desktop, 30, Link::OnChipMesh);
        w[..3].iter().for_each(|p| third.step(p));
        let mut fourth = Twin::new(6, FgCoreType::Shader, 150, Link::Pcie);
        for (i, p) in w.iter().chain(&w).enumerate() {
            fourth.step(p);
            assert_eq!(fourth.shared(), i < w.len());
        }
        for p in w[3..].iter().chain(&w) {
            third.step(p);
            assert!(third.shared());
        }
    }

    #[test]
    fn a_writer_cut_off_by_a_fork_stops_recording() {
        let w = window(700, 4);
        let odd = demo_profile(7, 1, 5);
        let mut writer = Twin::new(12, FgCoreType::Shader, 150, Link::Htx);
        w[..3].iter().for_each(|p| writer.step(p));
        // Forks at step 1 and brings the record back to three steps.
        let mut fork = Twin::new(12, FgCoreType::Desktop, 30, Link::Htx);
        for p in [&w[0], &odd, &w[2]] {
            fork.step(p);
        }
        // The writer's fourth step is not a step of the record's history.
        writer.step(&w[3]);
        let mut follower = Twin::new(12, FgCoreType::Console, 43, Link::Pcie);
        for (i, p) in [&w[0], &odd, &w[2], &w[3]].into_iter().enumerate() {
            follower.step(p);
            assert_eq!(follower.shared(), i < 3);
        }
    }

    #[test]
    fn mixed_cg_cores_match_the_reference() {
        let w = window(300, 4);
        // Zero CG cores is the one-core machine, and shares its record.
        let points = [
            (0, FgCoreType::Desktop),
            (1, FgCoreType::Console),
            (2, FgCoreType::Shader),
            (11, FgCoreType::Desktop),
            (1, FgCoreType::Shader),
            (0, FgCoreType::Console),
        ];
        let mut twins: Vec<Twin> = points
            .into_iter()
            .map(|(cores, fg_type)| Twin::new(cores, fg_type, 43, Link::Htx))
            .collect();
        for p in w[..2].iter().chain(&w) {
            twins.iter_mut().for_each(|t| t.step(p));
        }
        assert_eq!(twins[0].sys.cg_cores, 1);
        assert!(!twins[0].shared());
        assert!(twins[1].shared() && twins[4].shared() && twins[5].shared());
    }

    #[test]
    fn nan_residual_misses_and_matches_the_reference() {
        let mut w = window(400, 4);
        w[2].islands[0].residual = f32::NAN;
        assert_ne!(w[2], w[2].clone());
        let mut first = Twin::new(7, FgCoreType::Shader, 150, Link::OnChipMesh);
        w.iter().for_each(|p| first.step(p));
        let mut second = Twin::new(7, FgCoreType::Desktop, 30, Link::Htx);
        for (i, p) in w.iter().enumerate() {
            second.step(p);
            assert_eq!(second.shared(), i < 2);
        }
    }

    #[test]
    fn two_threads_stepping_different_windows_match_the_reference() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for salt in [500, 600] {
                let barrier = &barrier;
                scope.spawn(move || {
                    let w = window(salt, 4);
                    let mut failed = false;
                    for _ in 0..2 {
                        for mut t in nine(9) {
                            for p in w[..2].iter().chain(&w) {
                                // Both threads step a system on the same
                                // machine at once. A failed step is noted,
                                // not raised, so the other thread is never
                                // left waiting at the barrier.
                                barrier.wait();
                                failed |= catch_unwind(AssertUnwindSafe(|| t.step(p))).is_err();
                            }
                        }
                    }
                    assert!(!failed, "a step of window {salt} disagreed");
                });
            }
        });
    }
}
