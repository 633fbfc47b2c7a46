//! Multi-core frame simulation: turns step traces into per-phase cycle
//! counts on a configurable CG machine (the engine behind Figures 2–6).

use std::sync::OnceLock;

use parallax_physics::PhaseKind;
use parallax_telemetry as telemetry;
use parallax_trace::{Kernel, StepTrace, TaskTrace};

use crate::config::MachineConfig;
use crate::core::CoreModel;
use crate::hierarchy::{Hierarchy, MemStats};
use crate::os;

/// Telemetry counters for the architecture simulation, fed with per-step
/// deltas of the simulator's own statistics (the access hot path is left
/// untouched — stats are flushed once per simulated step).
struct ArchMetrics {
    steps: telemetry::Counter,
    l1_hits: telemetry::Counter,
    l1_misses: telemetry::Counter,
    l2_hits: telemetry::Counter,
    l2_misses: telemetry::Counter,
    coherence_transfers: telemetry::Counter,
    prefetches: telemetry::Counter,
    /// Open-row DRAM behaviour stands in for queue occupancy: the model
    /// has no request queue, so pressure shows up as row misses.
    dram_row_hits: telemetry::Counter,
    dram_row_misses: telemetry::Counter,
    dram_row_hit_rate_pct: telemetry::Gauge,
    kernel_l2_misses: telemetry::Counter,
    user_l2_misses: telemetry::Counter,
    phase_cycles: telemetry::Histogram,
}

fn arch_metrics() -> &'static ArchMetrics {
    static M: OnceLock<ArchMetrics> = OnceLock::new();
    M.get_or_init(|| ArchMetrics {
        steps: telemetry::counter("archsim.steps"),
        l1_hits: telemetry::counter("archsim.l1_hits"),
        l1_misses: telemetry::counter("archsim.l1_misses"),
        l2_hits: telemetry::counter("archsim.l2_hits"),
        l2_misses: telemetry::counter("archsim.l2_misses"),
        coherence_transfers: telemetry::counter("archsim.coherence_transfers"),
        prefetches: telemetry::counter("archsim.prefetches"),
        dram_row_hits: telemetry::counter("archsim.dram_row_hits"),
        dram_row_misses: telemetry::counter("archsim.dram_row_misses"),
        dram_row_hit_rate_pct: telemetry::gauge("archsim.dram_row_hit_rate_pct"),
        kernel_l2_misses: telemetry::counter("archsim.kernel_l2_misses"),
        user_l2_misses: telemetry::counter("archsim.user_l2_misses"),
        phase_cycles: telemetry::histogram("archsim.phase_cycles"),
    })
}

/// Cumulative simulator statistics at the last telemetry flush, so each
/// step contributes exactly its delta to the counters.
#[derive(Debug, Default, Clone, Copy)]
struct StatTotals {
    mem: MemStats,
    prefetches: u64,
    dram_row_hits: u64,
    dram_row_misses: u64,
    kernel_l2_misses: u64,
    user_l2_misses: u64,
}

/// Which kernel model a phase uses.
///
/// Thin alias over [`Kernel::of_phase`], kept for existing callers; the
/// mapping itself lives in the trace crate next to the kernel models.
pub fn kernel_of(phase: PhaseKind) -> Kernel {
    Kernel::of_phase(phase)
}

/// Simulation options.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Model the OS kernel-memory overhead of worker threads (Fig 6b).
    pub os_overhead: bool,
    /// Give every phase its own private L2 hierarchy — the paper's
    /// "dedicated cache space per computation phase" experiment
    /// (Figures 3–5a).
    pub dedicated_per_phase: bool,
    /// Way-partition assignment per phase (ids into
    /// `MachineConfig::l2.partition_ways`); `None` = unpartitioned.
    pub partition_of_phase: Option<[u8; 5]>,
}

/// Per-phase timing of one simulated window.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTime {
    /// Cycles per phase in [`PhaseKind::ALL`] order.
    pub cycles: [u64; 5],
}

impl PhaseTime {
    /// Cycles of one phase.
    pub fn of(&self, phase: PhaseKind) -> u64 {
        self.cycles[phase as usize]
    }

    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Serial-phase (Broadphase + Island Creation) cycles.
    pub fn serial(&self) -> u64 {
        self.of(PhaseKind::Broadphase) + self.of(PhaseKind::IslandCreation)
    }

    /// Seconds at `clock_hz`.
    pub fn seconds(&self, clock_hz: u64) -> f64 {
        self.total() as f64 / clock_hz as f64
    }
}

/// Aggregate result of a simulated window.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrameResult {
    /// Per-phase cycles, summed over the simulated steps.
    pub time: PhaseTime,
    /// Memory statistics over the window.
    pub mem: MemStats,
    /// L2 misses to kernel-space lines (OS model).
    pub kernel_l2_misses: u64,
    /// L2 misses to user-space lines.
    pub user_l2_misses: u64,
}

impl FrameResult {
    /// Seconds for the window at the machine clock.
    pub fn seconds(&self, clock_hz: u64) -> f64 {
        self.time.seconds(clock_hz)
    }
}

/// The multi-core trace-driven simulator.
pub struct MulticoreSim {
    machine: MachineConfig,
    options: SimOptions,
    /// One hierarchy normally; five (one per phase) in dedicated mode.
    hierarchies: Vec<Hierarchy>,
    cores: Vec<CoreModel>,
    /// Per-core cycles of the parallel phase being scheduled.
    load: Vec<u64>,
    kernel_l2_misses: u64,
    user_l2_misses: u64,
    /// Totals already flushed to the telemetry registry.
    flushed: StatTotals,
}

impl std::fmt::Debug for MulticoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulticoreSim")
            .field("cores", &self.machine.cores)
            .field("l2_mb", &self.machine.l2.banks)
            .finish()
    }
}

impl MulticoreSim {
    /// Builds the simulator.
    pub fn new(machine: MachineConfig, options: SimOptions) -> MulticoreSim {
        let n_hier = if options.dedicated_per_phase { 5 } else { 1 };
        MulticoreSim {
            hierarchies: (0..n_hier).map(|_| Hierarchy::new(&machine)).collect(),
            cores: (0..machine.cores)
                .map(|_| CoreModel::new(machine.core))
                .collect(),
            load: Vec::with_capacity(machine.cores),
            machine,
            options,
            kernel_l2_misses: 0,
            user_l2_misses: 0,
            flushed: StatTotals::default(),
        }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// L2 partition of phase `pi` (an index into [`PhaseKind::ALL`]).
    fn partition(&self, pi: usize) -> u8 {
        self.options.partition_of_phase.map_or(0, |map| map[pi])
    }

    fn hierarchy_index(&self, pi: usize) -> usize {
        if self.options.dedicated_per_phase {
            pi
        } else {
            0
        }
    }

    /// Feeds one task's memory references through the hierarchy on behalf
    /// of `core`, returning the beyond-L1 stall cycles.
    fn task_mem_stalls(
        &mut self,
        pi: usize,
        core: usize,
        trace: &StepTrace,
        task: &TaskTrace,
    ) -> u64 {
        let part = self.partition(pi);
        let l1_lat = self.machine.l1_latency;
        let hi = self.hierarchy_index(pi);
        let h = &mut self.hierarchies[hi];
        let mut stall = 0;
        let before = h.stats().l2_misses;
        for &r in trace.reads(task) {
            stall += h.access(core, r, false, part).saturating_sub(l1_lat);
        }
        for &w in trace.writes(task) {
            stall += h.access(core, w, true, part).saturating_sub(l1_lat);
        }
        // Attribute the L2 misses of this task to user space (kernel lines
        // are injected separately).
        self.user_l2_misses += h.stats().l2_misses - before;
        stall
    }

    /// Injects the OS kernel working set for `threads` workers during a
    /// parallel phase; returns added cycles on the busiest core.
    fn os_kernel_traffic(&mut self, pi: usize, threads: usize, tasks: usize) -> u64 {
        if !self.options.os_overhead || threads <= 1 || tasks == 0 {
            return 0;
        }
        let part = self.partition(pi);
        let l1_lat = self.machine.l1_latency;
        let cores = self.machine.cores;
        let hi = self.hierarchy_index(pi);
        let h = &mut self.hierarchies[hi];
        // Each thread touches a fraction of its kernel footprint per
        // phase, proportional to how much queue work it does.
        let fraction = (tasks as f64 / 4_000.0).clamp(0.02, 0.2);
        let mut worst = 0u64;
        for t in 0..threads {
            let before = h.stats().l2_misses;
            let mut stall = 0;
            for l in os::kernel_lines(t, threads, fraction) {
                stall += h.access(t % cores, l, true, part).saturating_sub(l1_lat);
            }
            self.kernel_l2_misses += h.stats().l2_misses - before;
            worst = worst.max(stall);
        }
        worst
    }

    /// Simulates one step trace; returns per-phase cycles.
    pub fn run_step(&mut self, trace: &StepTrace) -> PhaseTime {
        let mut time = PhaseTime::default();
        for (pi, ptrace) in trace.phases.iter().enumerate() {
            let kernel = kernel_of(ptrace.phase);
            if ptrace.phase.is_serial() {
                // Serial phases run on core 0.
                let mut cycles = 0;
                for task in &ptrace.tasks {
                    let stalls = self.task_mem_stalls(pi, 0, trace, task);
                    cycles += self.cores[0].task_cycles(task, kernel, stalls);
                }
                time.cycles[pi] = cycles;
            } else {
                // Parallel phases: dynamic work queue — each task goes to
                // the currently least-loaded core.
                let threads = self.machine.cores;
                self.load.clear();
                self.load.resize(threads, 0);
                for task in &ptrace.tasks {
                    let core = (0..threads).min_by_key(|&c| self.load[c]).expect("cores");
                    let stalls = self.task_mem_stalls(pi, core, trace, task);
                    let mut cycles = self.cores[core].task_cycles(task, kernel, stalls);
                    if self.options.os_overhead && threads > 1 {
                        cycles += os::KERNEL_INSTR_PER_TASK / self.machine.core.width as u64;
                    }
                    self.load[core] += cycles;
                }
                let os_cycles = self.os_kernel_traffic(pi, threads, ptrace.tasks.len());
                time.cycles[pi] = self.load.iter().copied().max().unwrap_or(0) + os_cycles;
            }
        }
        self.flush_telemetry(&time);
        time
    }

    /// Cumulative statistics across all hierarchies plus the OS split.
    fn stat_totals(&self) -> StatTotals {
        let mut t = StatTotals {
            kernel_l2_misses: self.kernel_l2_misses,
            user_l2_misses: self.user_l2_misses,
            ..Default::default()
        };
        for h in &self.hierarchies {
            let s = h.stats();
            t.mem.l1_hits += s.l1_hits;
            t.mem.l1_misses += s.l1_misses;
            t.mem.l2_hits += s.l2_hits;
            t.mem.l2_misses += s.l2_misses;
            t.mem.coherence_transfers += s.coherence_transfers;
            t.prefetches += h.prefetches();
            let (rh, rm) = h.dram_stats();
            t.dram_row_hits += rh;
            t.dram_row_misses += rm;
        }
        t
    }

    /// Flushes the step's statistics delta into the telemetry registry.
    fn flush_telemetry(&mut self, time: &PhaseTime) {
        if !telemetry::enabled() {
            return;
        }
        let m = arch_metrics();
        m.steps.add(1);
        for c in time.cycles {
            m.phase_cycles.record(c);
        }
        let now = self.stat_totals();
        let was = self.flushed;
        m.l1_hits
            .add(now.mem.l1_hits.saturating_sub(was.mem.l1_hits));
        m.l1_misses
            .add(now.mem.l1_misses.saturating_sub(was.mem.l1_misses));
        m.l2_hits
            .add(now.mem.l2_hits.saturating_sub(was.mem.l2_hits));
        m.l2_misses
            .add(now.mem.l2_misses.saturating_sub(was.mem.l2_misses));
        m.coherence_transfers.add(
            now.mem
                .coherence_transfers
                .saturating_sub(was.mem.coherence_transfers),
        );
        m.prefetches
            .add(now.prefetches.saturating_sub(was.prefetches));
        let row_hits = now.dram_row_hits.saturating_sub(was.dram_row_hits);
        let row_misses = now.dram_row_misses.saturating_sub(was.dram_row_misses);
        m.dram_row_hits.add(row_hits);
        m.dram_row_misses.add(row_misses);
        if let Some(rate) = (row_hits * 100).checked_div(row_hits + row_misses) {
            m.dram_row_hit_rate_pct.set(rate);
        }
        m.kernel_l2_misses
            .add(now.kernel_l2_misses.saturating_sub(was.kernel_l2_misses));
        m.user_l2_misses
            .add(now.user_l2_misses.saturating_sub(was.user_l2_misses));
        self.flushed = now;
    }

    /// Simulates a window of steps, aggregating phase times.
    pub fn run_steps(&mut self, traces: &[StepTrace]) -> FrameResult {
        let mut result = FrameResult::default();
        for t in traces {
            let pt = self.run_step(t);
            for i in 0..5 {
                result.time.cycles[i] += pt.cycles[i];
            }
        }
        result.mem = self.hierarchies.iter().fold(MemStats::default(), |acc, h| {
            let s = h.stats();
            MemStats {
                l1_hits: acc.l1_hits + s.l1_hits,
                l1_misses: acc.l1_misses + s.l1_misses,
                l2_hits: acc.l2_hits + s.l2_hits,
                l2_misses: acc.l2_misses + s.l2_misses,
                coherence_transfers: acc.coherence_transfers + s.coherence_transfers,
                total_latency: acc.total_latency + s.total_latency,
            }
        });
        result.kernel_l2_misses = self.kernel_l2_misses;
        result.user_l2_misses = self.user_l2_misses;
        result
    }

    /// Resets statistics after warm-up (cache contents are kept).
    pub fn reset_stats(&mut self) {
        for h in &mut self.hierarchies {
            h.reset_stats();
        }
        self.kernel_l2_misses = 0;
        self.user_l2_misses = 0;
        // Re-baseline so the next telemetry flush sees post-reset deltas.
        self.flushed = self.stat_totals();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use parallax_physics::probe::{IslandWork, PairWork};
    use parallax_physics::StepProfile;

    fn synthetic_trace(pairs: usize, bodies_per_island: usize, islands: usize) -> StepTrace {
        let mut p = StepProfile::default();
        p.broadphase.geoms = pairs + 10;
        p.broadphase.sort_ops = pairs * 10;
        p.broadphase.overlap_tests = pairs * 3;
        p.broadphase.pairs = pairs;
        for k in 0..pairs as u32 {
            p.pairs.push(PairWork {
                geom_a: k,
                geom_b: k + 1,
                body_a: k,
                body_b: k + 1,
                shape_a: parallax_physics::ShapeKind::Cuboid,
                shape_b: parallax_physics::ShapeKind::Cuboid,
                contacts: 2,
                active: true,
            });
        }
        p.island_creation.bodies = pairs + 1;
        p.island_creation.union_ops = pairs;
        p.island_creation.find_ops = pairs * 2;
        for i in 0..islands {
            p.islands.push(IslandWork {
                bodies: (0..bodies_per_island as u32)
                    .map(|b| (i * bodies_per_island) as u32 + b)
                    .collect(),
                joints: vec![],
                manifolds: bodies_per_island,
                rows: bodies_per_island * 6,
                dof_removed: bodies_per_island * 6,
                iterations: 20,
                residual: 0.0,
                queued: bodies_per_island * 6 > 25,
                lambda_digest: 0,
            });
        }
        p.joint_count = 0;
        StepTrace::from_profile(&p)
    }

    #[test]
    fn more_cores_speed_up_parallel_phases() {
        let trace = synthetic_trace(200, 8, 12);
        let run = |cores: usize| {
            let mut sim =
                MulticoreSim::new(MachineConfig::baseline(cores, 4), SimOptions::default());
            sim.run_step(&trace)
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.of(PhaseKind::Narrowphase) < one.of(PhaseKind::Narrowphase) / 2,
            "narrowphase should scale: {} vs {}",
            four.of(PhaseKind::Narrowphase),
            one.of(PhaseKind::Narrowphase)
        );
        // Serial phases do not scale.
        let s1 = one.of(PhaseKind::Broadphase);
        let s4 = four.of(PhaseKind::Broadphase);
        assert!(
            s4 as f64 > s1 as f64 * 0.8,
            "broadphase serial: {s1} vs {s4}"
        );
    }

    #[test]
    fn bigger_l2_never_slower() {
        let trace = synthetic_trace(600, 10, 20);
        let run = |mb: usize| {
            let mut sim = MulticoreSim::new(MachineConfig::baseline(1, mb), SimOptions::default());
            // Warm one step, measure the second (steady state).
            sim.run_step(&trace);
            sim.reset_stats();
            sim.run_step(&trace).total()
        };
        let small = run(1);
        let big = run(16);
        assert!(big <= small, "16MB ({big}) vs 1MB ({small})");
    }

    #[test]
    fn os_overhead_hurts_at_eight_threads() {
        let trace = synthetic_trace(400, 10, 32);
        let run = |cores: usize, os: bool| {
            let mut sim = MulticoreSim::new(
                MachineConfig::baseline(cores, 4),
                SimOptions {
                    os_overhead: os,
                    ..Default::default()
                },
            );
            sim.run_step(&trace);
            sim.reset_stats();
            let _ = sim.run_step(&trace);
            sim.run_steps(&[]).kernel_l2_misses
        };
        let four = run(4, true);
        let eight = run(8, true);
        assert!(
            eight > four * 3,
            "8T kernel misses ({eight}) should dwarf 4T ({four})"
        );
    }

    #[test]
    fn dedicated_phases_do_not_interfere() {
        let trace = synthetic_trace(800, 10, 30);
        let run = |dedicated: bool| {
            let mut sim = MulticoreSim::new(
                MachineConfig::baseline(1, 1),
                SimOptions {
                    dedicated_per_phase: dedicated,
                    ..Default::default()
                },
            );
            for _ in 0..2 {
                sim.run_step(&trace);
            }
            sim.reset_stats();
            let t = sim.run_step(&trace);
            t.serial()
        };
        let shared = run(false);
        let dedicated = run(true);
        assert!(
            dedicated <= shared,
            "dedicated serial time ({dedicated}) should not exceed shared ({shared})"
        );
    }

    #[test]
    fn empty_trace_runs() {
        let mut sim = MulticoreSim::new(MachineConfig::baseline(2, 1), SimOptions::default());
        let t = sim.run_step(&StepTrace::from_profile(&StepProfile::default()));
        assert_eq!(t.total(), 0);
    }
}
