//! `arch_sweep`: the architecture model (`trace` → `archsim` →
//! `parallax`) as the measured program; `physics` only runs in set-up.
//!
//! Set-up captures the paper's measured window (4 warm frames, then 3
//! frames = 9 step profiles) of four scenes at scale 1.0. The sweep then
//! pushes every window through twelve design points per scene: the
//! partitioned 12 MB-L2 machine with OS overhead at 1/2/4 CG cores, and
//! the full ParallAX system (4 CG cores) for three FG-core types × three
//! CG↔FG links — each a warm pass over the window's first frame, then
//! a measured pass over all three. Host time is what the simulator
//! takes; simulated statistics are what it says the modelled machine
//! would do, and must not move unless the model does.

use std::time::Instant;

use parallax::{FgCoreType, ParallaxSystem};
use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_physics::StepProfile;
use parallax_trace::StepTrace;
use parallax_workloads::BenchmarkId;

use crate::hostspeed::{self, Meter, Probe};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{procfs, repeat_within, stats, RunOpts};

/// Scenes whose windows are swept: the two scene workloads plus the
/// cloth-heavy and the terrain-heavy one.
const SCENES: [BenchmarkId; 4] = [
    BenchmarkId::Mix,
    BenchmarkId::Explosions,
    BenchmarkId::Deformable,
    BenchmarkId::Continuous,
];
/// Warm-up frames before the measured window (paper: frames 1–4).
const WARM_FRAMES: usize = 4;
/// Measured frames (paper: frames 5–7), 3 steps each.
const MEASURE_FRAMES: usize = 3;
/// CG-core counts of the multicore design points.
const CG_CORES: [usize; 3] = [1, 2, 4];
/// FG pools of the ParallAX design points (type, core count): the
/// paper's area-equivalent candidates.
const FG_POOLS: [(FgCoreType, usize); 3] = [
    (FgCoreType::Desktop, 30),
    (FgCoreType::Console, 43),
    (FgCoreType::Shader, 150),
];
/// The paper's per-phase L2 way-partition assignment.
const PARTITION_OF_PHASE: [u8; 5] = [0, 2, 1, 2, 2];
/// Simulated CG clock.
const CLOCK_HZ: f64 = 2.0e9;
/// Steps of the window each design point simulates once, unmeasured,
/// to fill the modelled caches: the first frame.
const WARM_STEPS: usize = 3;

/// FNV-1a over 64-bit words: the digest of every simulated statistic.
struct StatsDigest(u64);

impl StatsDigest {
    fn new() -> StatsDigest {
        StatsDigest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// What one sweep measured.
#[derive(Default)]
struct Sweep {
    /// Host wall of every simulated step, both simulators, both passes,
    /// at the host's reference speed (as are all walls here).
    step_ms: Vec<f64>,
    /// Simulated instructions `step_ms[i]` consumed.
    step_instructions: Vec<u64>,
    /// Whether `step_ms[i]` was a `MulticoreSim::run_step`.
    is_archsim: Vec<bool>,
    /// Reference-kernel wall sampled just before `step_ms[i]`.
    kernel_s: Vec<f64>,
    from_profile_ms: Vec<f64>,
    /// Simulated instructions consumed, all design points and passes.
    instructions: u64,
    /// Memory references pushed through `archsim` directly.
    archsim_mem_refs: u64,
    trace_instructions: u64,
    trace_mem_refs: u64,
    /// Host wall of trace generation plus both simulators.
    wall_s: f64,
    /// The same as the clock read it.
    raw_wall_s: f64,
    cpu_s: f64,
    design_points: u64,
    bad_design_points: u64,
    archsim_cycles: u64,
    l2_hits: u64,
    l2_misses: u64,
    coherence_transfers: u64,
    parallax_cycles: u64,
    fg_cycles: u64,
    parallax_seconds: f64,
    digest: u64,
}

fn capture(id: BenchmarkId, seed: u64, scale: f32) -> Vec<StepProfile> {
    let mut scene = id.build(&crate::scene::params(seed, scale, false));
    scene.run_measured(WARM_FRAMES, MEASURE_FRAMES)
}

fn partitioned_machine(cores: usize) -> MachineConfig {
    let mut machine = MachineConfig::baseline(cores, 12);
    machine.l2 = L2Config::partitioned(12, vec![1, 1, 2]);
    machine
}

fn sweep(windows: &[Vec<StepProfile>], rec: &mut Recorder) -> Sweep {
    let mut sweep = Sweep::default();
    let mut digest = StatsDigest::new();
    let pid = std::process::id();
    let cpu_before = procfs::cpu_seconds(pid).unwrap_or(0.0);
    let mut probe = Probe::new();
    let mut point = 0u64;
    for window in windows {
        let traces: Vec<StepTrace> = window
            .iter()
            .map(|profile| {
                let (trace, s) = rec.timed("trace", "StepTrace::from_profile", point, |_| {
                    StepTrace::from_profile(profile)
                });
                sweep.from_profile_ms.push(s * 1e3);
                trace
            })
            .collect();
        let instructions: Vec<u64> = traces.iter().map(StepTrace::total_instructions).collect();
        let mem_refs: Vec<u64> = traces.iter().map(|t| t.total_mem_refs() as u64).collect();
        sweep.trace_instructions += instructions.iter().sum::<u64>();
        sweep.trace_mem_refs += mem_refs.iter().sum::<u64>();
        let warm = WARM_STEPS.min(window.len());

        for cores in CG_CORES {
            point += 1;
            let mut sim = MulticoreSim::new(
                partitioned_machine(cores),
                SimOptions {
                    os_overhead: true,
                    partition_of_phase: Some(PARTITION_OF_PHASE),
                    ..SimOptions::default()
                },
            );
            let mut cycles = [0u64; 5];
            for (measured, steps) in [(false, 0..warm), (true, 0..traces.len())] {
                if measured {
                    sim.reset_stats();
                }
                for step in steps {
                    sweep.kernel_s.push(probe.sample());
                    let (time, s) = rec.timed("archsim", "MulticoreSim::run_step", point, |_| {
                        sim.run_step(&traces[step])
                    });
                    sweep.step_ms.push(s * 1e3);
                    sweep.is_archsim.push(true);
                    sweep.step_instructions.push(instructions[step]);
                    sweep.archsim_mem_refs += mem_refs[step];
                    if measured {
                        for (total, phase) in cycles.iter_mut().zip(time.cycles) {
                            *total += phase;
                        }
                    }
                }
            }
            let result = sim.run_steps(&[]);
            let total: u64 = cycles.iter().sum();
            sweep.design_points += 1;
            sweep.bad_design_points += u64::from(total == 0);
            sweep.archsim_cycles += total;
            sweep.l2_hits += result.mem.l2_hits;
            sweep.l2_misses += result.mem.l2_misses;
            sweep.coherence_transfers += result.mem.coherence_transfers;
            for word in cycles.into_iter().chain([
                result.mem.l1_hits,
                result.mem.l1_misses,
                result.mem.l2_hits,
                result.mem.l2_misses,
                result.mem.coherence_transfers,
                result.mem.total_latency,
                result.kernel_l2_misses,
                result.user_l2_misses,
            ]) {
                digest.word(word);
            }
        }

        for (fg_type, fg_count) in FG_POOLS {
            for link in Link::ALL {
                point += 1;
                let mut system = ParallaxSystem::new(4, fg_type, fg_count, link);
                let mut total = parallax::SystemResult::default();
                for (measured, steps) in [(false, 0..warm), (true, 0..window.len())] {
                    for step in steps {
                        sweep.kernel_s.push(probe.sample());
                        let (result, s) =
                            rec.timed("parallax", "ParallaxSystem::simulate_step", point, |_| {
                                system.simulate_step(&window[step])
                            });
                        sweep.step_ms.push(s * 1e3);
                        sweep.is_archsim.push(false);
                        sweep.step_instructions.push(instructions[step]);
                        if measured {
                            for (sum, phase) in total.per_phase.iter_mut().zip(result.per_phase) {
                                *sum += phase;
                            }
                            total.serial_cycles += result.serial_cycles;
                            total.cg_parallel_cycles += result.cg_parallel_cycles;
                            total.fg_cycles += result.fg_cycles;
                            total.exposed_comm_cycles += result.exposed_comm_cycles;
                        }
                    }
                }
                // Serial phases run on the CG side alone, so the two
                // accountings of them must agree.
                let serial_ok = total.serial_cycles == total.per_phase[0] + total.per_phase[2];
                sweep.design_points += 1;
                sweep.bad_design_points += u64::from(total.total_cycles() == 0 || !serial_ok);
                sweep.parallax_cycles += total.total_cycles();
                sweep.fg_cycles += total.fg_cycles;
                sweep.parallax_seconds += total.total_cycles() as f64 / CLOCK_HZ;
                for word in total.per_phase.into_iter().chain([
                    total.serial_cycles,
                    total.cg_parallel_cycles,
                    total.fg_cycles,
                    total.exposed_comm_cycles,
                ]) {
                    digest.word(word);
                }
            }
        }
    }
    sweep.instructions = sweep.step_instructions.iter().sum();
    sweep.raw_wall_s =
        (sweep.step_ms.iter().sum::<f64>() + sweep.from_profile_ms.iter().sum::<f64>()) / 1e3;
    let overall = hostspeed::factor(&sweep.kernel_s);
    sweep.step_ms = hostspeed::at_reference_speed(&sweep.step_ms, &sweep.kernel_s);
    for wall in &mut sweep.from_profile_ms {
        *wall *= overall;
    }
    sweep.wall_s =
        (sweep.step_ms.iter().sum::<f64>() + sweep.from_profile_ms.iter().sum::<f64>()) / 1e3;
    sweep.cpu_s = (procfs::cpu_seconds(pid).unwrap_or(0.0) - cpu_before) * overall;
    sweep.digest = digest.0;
    sweep
}

impl Sweep {
    /// Walls of one simulator's steps.
    fn walls_of(&self, archsim: bool) -> Vec<f64> {
        let steps = self.step_ms.iter().zip(&self.is_archsim);
        steps
            .filter(|(_, &is)| is == archsim)
            .map(|(&ms, _)| ms)
            .collect()
    }
}

/// Runs `arch_sweep`, traced or not.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    let scale = 1.0 / opts.size_div.max(1) as f32;
    let mut meter = Meter::default();
    let mut setup_s = 0.0;
    let mut build_physics_ms = Vec::new();
    let windows: Vec<Vec<StepProfile>> = SCENES
        .iter()
        .map(|&id| {
            meter.sample(3);
            let (window, s) = rec.timed("physics", "Scene::run_measured", 0, |_| {
                capture(id, opts.seed, scale)
            });
            setup_s += s;
            build_physics_ms.extend(
                window
                    .iter()
                    .map(|p| p.wall.iter().map(|w| w.as_secs_f64() * 1e3).sum::<f64>()),
            );
            window
        })
        .collect();
    meter.sample(3);
    let setup_s = setup_s * meter.factor();

    // The traced run sweeps once untraced (the overhead reference) and
    // once with spans. An untraced run sweeps once and then as often as
    // ends within `--seconds`.
    let mut off = Recorder::new(false, Instant::now(), 0);
    let budget = if opts.traced { 0.0 } else { opts.seconds };
    let mut runs = repeat_within(budget, 1, || sweep(&windows, &mut off));
    if opts.traced {
        runs.push(sweep(&windows, rec));
    }

    let mut out = Outcome::default();
    let first_digest = runs[0].digest;
    for run in &runs {
        out.check(
            run.design_points,
            run.bad_design_points,
            "design points had zero or inconsistent cycles",
        );
        out.check(
            run.design_points,
            if run.digest == first_digest {
                0
            } else {
                run.design_points
            },
            "design points: a repeated sweep produced other simulated statistics",
        );
    }
    let last = runs.last().expect("at least one sweep");
    let minstr = |s: &Sweep| s.instructions as f64 / 1e6;
    out.exact
        .insert("model.sim_stats_digest".to_string(), last.digest);
    out.exact
        .insert("archsim.sim_cycles".to_string(), last.archsim_cycles);
    out.exact
        .insert("parallax.sim_cycles".to_string(), last.parallax_cycles);
    out.exact
        .insert("trace.instructions".to_string(), last.trace_instructions);

    if !opts.traced {
        // Every sweep does identical work, so each step's wall is the
        // minimum over the sweeps, as is the trace generation's and the
        // CPU time.
        let least = |f: fn(&Sweep) -> f64| runs.iter().map(f).fold(f64::INFINITY, f64::min);
        let walls: Vec<&[f64]> = runs.iter().map(|r| r.step_ms.as_slice()).collect();
        let best = stats::replay_min(&walls);
        let wall_s = (best.iter().sum::<f64>() + least(|r| r.from_profile_ms.iter().sum())) / 1e3;
        // Steps differ a hundredfold in size between scenes, so a raw
        // percentile would only say which scene it fell in. A step's
        // latency is its wall scaled to the sweep's mean step size.
        let mean_instructions = last.instructions as f64 / best.len() as f64;
        let sized: Vec<f64> = best
            .iter()
            .zip(&last.step_instructions)
            .map(|(ms, &n)| ms * mean_instructions / n.max(1) as f64)
            .collect();
        let (tail_q, tail_ms) = stats::tail(&sized, 0.95);
        out.set("work_per_s", minstr(last) / wall_s);
        out.set("latency_ms_p50", stats::median(&sized));
        out.note("latency_ms_tail", tail_ms);
        out.set("cpu_us_per_work", least(|r| r.cpu_s) * 1e6 / minstr(last));
        out.set("peak_rss_mb", procfs::peak_rss_mb(std::process::id())?);
        out.set("setup_s", setup_s);
        out.note("latency_samples", sized.len() as f64);
        out.note("latency_tail_percentile", tail_q);
        out.note("sweeps", runs.len() as f64);
        out.note("sweep_wall_s", wall_s);
        out.note("sweep_raw_wall_s", least(|r| r.raw_wall_s));
        return Ok(out);
    }

    let reference = &runs[0];
    out.set("physics.step_ms", stats::mean(&build_physics_ms));
    out.set("trace.from_profile_ms", stats::mean(&last.from_profile_ms));
    out.set("trace.minstr", last.trace_instructions as f64 / 1e6);
    out.set("trace.mem_refs_k", last.trace_mem_refs as f64 / 1e3);
    let run_step_ms = last.walls_of(true);
    out.set("archsim.run_step_ms", stats::mean(&run_step_ms));
    out.set(
        "archsim.mrefs_per_s",
        last.archsim_mem_refs as f64 / 1e6 / (run_step_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("archsim.sim_cycles", last.archsim_cycles as f64);
    out.set(
        "archsim.l2_miss_ratio",
        last.l2_misses as f64 / (last.l2_hits + last.l2_misses).max(1) as f64,
    );
    out.set(
        "archsim.coherence_transfers",
        last.coherence_transfers as f64,
    );
    out.set(
        "parallax.simulate_step_ms",
        stats::mean(&last.walls_of(false)),
    );
    out.set("parallax.sim_cycles", last.parallax_cycles as f64);
    out.set("parallax.fg_cycles", last.fg_cycles as f64);
    // Each ParallAX design point simulates MEASURE_FRAMES frames.
    let parallax_points = (SCENES.len() * FG_POOLS.len() * Link::ALL.len()) as f64;
    out.set(
        "parallax.sim_fps",
        parallax_points * MEASURE_FRAMES as f64 / last.parallax_seconds,
    );
    out.set("model.sim_stats_digest", (last.digest & 0xFFFF_FFFF) as f64);
    out.set("model.sim_minstr_per_s", minstr(last) / last.wall_s);
    out.set(
        "proc.trace_overhead_share",
        (minstr(reference) / reference.wall_s) / (minstr(last) / last.wall_s) - 1.0,
    );
    out.note("setup_s", setup_s);
    out.note(
        "reference_minstr_per_s",
        minstr(reference) / reference.wall_s,
    );
    Ok(out)
}
