//! Scene workloads: one paper-scale world stepped in-process.
//!
//! The timed unit is `Scene::step` (actor logic + `World::step`). A run
//! replays the same seeded scene several times; step `i` does
//! bit-identical work in every replay, so its wall is the minimum over
//! the replays, and a replay whose final world digest differs from the
//! first one's fails all its steps.

use std::time::Instant;

use parallax_physics::{world_digest, InvariantMonitor, MonitorConfig, SimdMode, StepProfile};
use parallax_telemetry as telemetry;
use parallax_workloads::{BenchmarkId, Scene, SceneParams};

use crate::hostspeed::{self, Meter, Probe};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{procfs, repeat_within, stats, RunOpts};

/// Which scene, and how much of it, a scene workload runs.
#[derive(Debug, Clone, Copy)]
pub struct SceneSpec {
    /// The benchmark scene.
    pub id: BenchmarkId,
    /// Untimed steps after the build (contact cache and allocator warm).
    pub warmup: usize,
    /// Timed steps per replay: 200 leaves exactly ten beyond p95.
    pub steps: usize,
}

/// `scene_static`: Mix, ~6.5k geoms / 1.2k bodies, broad phase ~half
/// the step, every feature present (~17 ms/step on the sizing host).
pub const STATIC: SceneSpec = SceneSpec {
    id: BenchmarkId::Mix,
    warmup: 12,
    steps: 200,
};

/// `scene_dynamic`: Explosions, ~3.5k dynamic bodies on one plane,
/// island processing ~80 %, no cloth (~35 ms/step on the sizing host).
pub const DYNAMIC: SceneSpec = SceneSpec {
    id: BenchmarkId::Explosions,
    warmup: 12,
    steps: 200,
};

/// The pinned engine configuration: the engine default and the
/// ROADMAP's `paper` preset, independent of any `PARALLAX_*` variable.
pub(crate) fn params(seed: u64, scale: f32, digests: bool) -> SceneParams {
    SceneParams {
        scale,
        seed,
        threads: 1,
        warm_starting: true,
        simd: SimdMode::resolve(),
        digests,
        sleeping: false,
    }
}

struct Replay {
    setup_s: f64,
    build_ms: f64,
    /// Wall of each timed step at the host's reference speed.
    walls_ms: Vec<f64>,
    /// Sum of the timed steps' walls as the clock read them.
    raw_ms: f64,
    /// CPU time of the timed steps (and the kernel samples between
    /// them) at the host's reference speed.
    cpu_s: f64,
    digest: u64,
}

/// Builds the scene and takes the warm-up steps. Returns the scene, the
/// wall of both at the host's reference speed, and the build's wall.
fn build_and_warm(
    spec: &SceneSpec,
    params: &SceneParams,
    warmup: usize,
    rec: &mut Recorder,
) -> (Scene, f64, f64) {
    let mut meter = Meter::default();
    meter.sample(3);
    let start = Instant::now();
    let mut scene = rec.span("workloads", "BenchmarkId::build", 0, |_| {
        spec.id.build(params)
    });
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    for _ in 0..warmup {
        scene.step();
    }
    let setup_s = start.elapsed().as_secs_f64();
    meter.sample(3);
    (scene, setup_s * meter.factor(), build_ms)
}

/// One untraced replay: build, warm up, then time `steps` calls of
/// `Scene::step`.
fn replay(spec: &SceneSpec, params: &SceneParams, warmup: usize, steps: usize) -> Replay {
    let mut off = Recorder::new(false, Instant::now(), 0);
    let (mut scene, setup_s, build_ms) = build_and_warm(spec, params, warmup, &mut off);
    let pid = std::process::id();
    let mut probe = Probe::new();
    let cpu_before = procfs::cpu_seconds(pid).unwrap_or(0.0);
    let mut raw_ms = Vec::with_capacity(steps);
    let mut kernel_s = Vec::with_capacity(steps);
    for _ in 0..steps {
        kernel_s.push(probe.sample());
        let start = Instant::now();
        std::hint::black_box(scene.step());
        raw_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    // The kernel samples ran on this process's CPU time too.
    let cpu_s = procfs::cpu_seconds(pid).unwrap_or(0.0) - cpu_before - kernel_s.iter().sum::<f64>();
    let walls_ms = hostspeed::at_reference_speed(&raw_ms, &kernel_s);
    let raw_ms: f64 = raw_ms.iter().sum();
    Replay {
        setup_s,
        build_ms,
        // Scaled like the walls it was spent in.
        cpu_s: cpu_s * walls_ms.iter().sum::<f64>() / raw_ms,
        walls_ms,
        raw_ms,
        digest: world_digest(&scene.world),
    }
}

/// Sizes of a run: `(scale, warm-up steps, timed steps)`.
fn sizes(spec: &SceneSpec, opts: &RunOpts) -> (f32, usize, usize) {
    let div = opts.size_div.max(1) as usize;
    (
        1.0 / div as f32,
        spec.warmup.div_ceil(div),
        spec.steps.div_ceil(div),
    )
}

/// Runs a scene workload, traced or not.
pub fn run(spec: &SceneSpec, opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    if opts.traced {
        run_traced(spec, opts, rec)
    } else {
        Ok(run_untraced(spec, opts))
    }
}

fn run_untraced(spec: &SceneSpec, opts: &RunOpts) -> Outcome {
    let (scale, warmup, steps) = sizes(spec, opts);
    let params = params(opts.seed, scale, false);
    let runs = repeat_within(opts.seconds, 2, || replay(spec, &params, warmup, steps));

    let mut out = Outcome::default();
    for (index, run) in runs.iter().enumerate() {
        let diverged = run.digest != runs[0].digest;
        out.check(
            steps as u64,
            if diverged { steps as u64 } else { 0 },
            &format!("steps: replay {index} ended on another world digest than replay 0"),
        );
    }
    let walls: Vec<&[f64]> = runs.iter().map(|r| r.walls_ms.as_slice()).collect();
    let best = stats::replay_min(&walls);
    let total_ms: f64 = best.iter().sum();
    let (tail_q, tail_ms) = stats::tail(&best, 0.95);
    // The replays burn the same CPU work; the least disturbed counts.
    let cpu_s = runs.iter().map(|r| r.cpu_s).fold(f64::INFINITY, f64::min);
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();

    out.set("work_per_s", steps as f64 / (total_ms / 1e3));
    out.set("latency_ms_p50", stats::median(&best));
    out.note("latency_ms_tail", tail_ms);
    out.set("cpu_us_per_work", cpu_s * 1e6 / steps as f64);
    out.set(
        "peak_rss_mb",
        procfs::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
    );
    out.set("setup_s", stats::median(&setups));
    out.exact
        .insert("physics.world_digest".to_string(), runs[0].digest);
    out.note("latency_samples", best.len() as f64);
    out.note("latency_tail_percentile", tail_q);
    out.note("replays", runs.len() as f64);
    for (index, run) in runs.iter().enumerate() {
        out.note(&format!("replay_{index}_ms"), run.walls_ms.iter().sum());
        out.note(&format!("replay_{index}_raw_ms"), run.raw_ms);
    }
    out.note(
        "build_ms",
        stats::median(&runs.iter().map(|r| r.build_ms).collect::<Vec<_>>()),
    );
    out
}

/// Per-step numbers taken from the profile `World::step` returns.
#[derive(Default)]
struct Tally {
    step_ms: Vec<f64>,
    actors_us: Vec<f64>,
    phase_ms: [Vec<f64>; 5],
    counts: Vec<(&'static str, u64)>,
    yielding_pairs: u64,
    candidate_pairs: u64,
}

impl Tally {
    fn count(&mut self, name: &'static str, value: usize) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += value as u64,
            None => self.counts.push((name, value as u64)),
        }
    }

    /// Scales every wall of step `i` by `factors[i]`.
    fn scale(&mut self, factors: &[f64]) {
        let walls = [&mut self.step_ms, &mut self.actors_us];
        for samples in walls.into_iter().chain(&mut self.phase_ms) {
            for (wall, factor) in samples.iter_mut().zip(factors) {
                *wall *= factor;
            }
        }
    }

    fn add(&mut self, profile: &StepProfile) {
        for (samples, wall) in self.phase_ms.iter_mut().zip(profile.wall) {
            samples.push(wall.as_secs_f64() * 1e3);
        }
        self.count("physics.geoms", profile.geom_count);
        self.count("physics.bodies", profile.body_count);
        self.count("physics.overlap_tests", profile.broadphase.overlap_tests);
        self.count("physics.candidate_pairs", profile.pairs.len());
        self.count(
            "physics.active_pairs",
            profile.pairs.iter().filter(|p| p.active).count(),
        );
        self.count("physics.contacts", profile.total_contacts());
        self.count("physics.islands", profile.islands.len());
        self.count(
            "physics.queued_islands",
            profile.islands.iter().filter(|i| i.queued).count(),
        );
        self.count(
            "physics.solver_rows",
            profile.islands.iter().map(|i| i.rows).sum(),
        );
        self.count(
            "physics.cloth_vertices",
            profile.cloths.iter().map(|c| c.stats.vertices).sum(),
        );
        self.count("physics.sleeping_bodies", profile.sleeping_bodies);
        self.yielding_pairs += profile.pairs.iter().filter(|p| p.contacts > 0).count() as u64;
        self.candidate_pairs += profile.pairs.len() as u64;
    }
}

const PHASE_METRICS: [&str; 5] = [
    "physics.broadphase_ms",
    "physics.narrowphase_ms",
    "physics.island_creation_ms",
    "physics.island_processing_ms",
    "physics.cloth_ms",
];

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced pass: an untraced reference replay for the overhead, then
/// one replay with `Actors::update` and `World::step` spanned
/// separately and everything the program already exposes switched on —
/// the metrics registry, per-phase digests, an invariant monitor per
/// step — and the checkpoint path timed once at the end.
fn run_traced(spec: &SceneSpec, opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    let (scale, warmup, steps) = sizes(spec, opts);
    let reference = replay(spec, &params(opts.seed, scale, false), warmup, steps);

    telemetry::set_enabled(true);
    let before = telemetry::snapshot();
    let traced_params = params(opts.seed, scale, true);
    let (mut scene, _, build_ms) = build_and_warm(spec, &traced_params, warmup, rec);
    let mut monitor = InvariantMonitor::new(MonitorConfig::default());
    let mut tally = Tally::default();
    let mut violations = 0u64;
    let mut violating_steps = 0u64;
    let mut probe = Probe::new();
    let mut kernel_s = Vec::with_capacity(steps);
    for step in 0..steps as u64 {
        kernel_s.push(probe.sample());
        rec.span("benchmark", "step", step, |rec| {
            let at = scene.world.step_count();
            let start = Instant::now();
            rec.span("workloads", "Actors::update", step, |_| {
                scene.actors.update(&mut scene.world, at)
            });
            tally.actors_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let profile = rec.span("physics", "World::step", step, |_| scene.world.step());
            tally.step_ms.push(start.elapsed().as_secs_f64() * 1e3);
            tally.add(&profile);
            let found = rec.span("physics", "InvariantMonitor::check_step", step, |_| {
                monitor.check_step(&scene.world, &profile)
            });
            violations += found.len() as u64;
            violating_steps += u64::from(!found.is_empty());
        });
    }
    let registry = telemetry::snapshot().delta_since(&before);
    telemetry::set_enabled(false);
    tally.scale(&hostspeed::factors(&kernel_s));

    let mut out = Outcome::default();
    let digest = world_digest(&scene.world);
    out.check(
        steps as u64,
        if digest == reference.digest {
            0
        } else {
            steps as u64
        },
        "steps: the traced replay ended on another world digest than the untraced one",
    );
    out.check(
        steps as u64,
        violating_steps,
        "steps flagged by the invariant monitor",
    );

    // Checkpoint path, once, on the final state.
    let group = steps as u64;
    let start = Instant::now();
    let bytes = rec.span("physics", "World::snapshot", group, |_| {
        scene.world.snapshot()
    });
    out.set("physics.snapshot_ms", start.elapsed().as_secs_f64() * 1e3);
    out.set("physics.snapshot_kb", bytes.len() as f64 / 1024.0);
    let start = Instant::now();
    let restored = rec.span("physics", "World::restore", group, |_| {
        scene.world.restore(&bytes)
    });
    out.set("physics.restore_ms", start.elapsed().as_secs_f64() * 1e3);
    let start = Instant::now();
    let after = rec.span("physics", "world_digest", group, |_| {
        world_digest(&scene.world)
    });
    out.set("physics.digest_ms", start.elapsed().as_secs_f64() * 1e3);
    let round_trip_ok = restored.is_ok() && after == digest;
    out.check(
        1,
        u64::from(!round_trip_ok),
        "snapshot/restore round trips changed the world",
    );

    let step_ms = stats::mean(&tally.step_ms);
    let mut phases_ms = 0.0;
    for (name, samples) in PHASE_METRICS.iter().zip(&tally.phase_ms) {
        let mean = stats::mean(samples);
        phases_ms += mean;
        out.set(name, mean);
    }
    out.set("workloads.build_ms", build_ms);
    out.set("workloads.actors_us", stats::mean(&tally.actors_us));
    out.set("physics.step_ms", step_ms);
    out.set("physics.step_ms_p95", stats::tail(&tally.step_ms, 0.95).1);
    out.set("physics.glue_ms", step_ms - phases_ms);
    for (name, total) in &tally.counts {
        out.set(name, *total as f64 / steps as f64);
        out.exact.insert(format!("{name}.total"), *total);
    }
    let rebuilt = registry.counter("physics.islands_rebuilt");
    out.set("physics.islands_rebuilt", rebuilt as f64 / steps as f64);
    out.exact
        .insert("physics.islands_rebuilt.total".to_string(), rebuilt);
    out.set(
        "physics.pair_yield",
        ratio(tally.yielding_pairs, tally.candidate_pairs),
    );
    let hits = registry.counter("physics.solver.warm_hits");
    let misses = registry.counter("physics.solver.warm_misses");
    out.set("physics.warm_hit_ratio", ratio(hits, hits + misses));
    out.set_exact("physics.monitor_violations", violations);
    out.exact.insert("physics.world_digest".to_string(), digest);
    out.set("physics.world_digest", (digest & 0xFFFF_FFFF) as f64);
    out.set(
        "telemetry.spans_dropped",
        telemetry::span::spans_dropped() as f64,
    );

    let traced_ms: f64 =
        tally.step_ms.iter().sum::<f64>() + tally.actors_us.iter().sum::<f64>() / 1e3;
    let reference_ms: f64 = reference.walls_ms.iter().sum();
    out.set("proc.trace_overhead_share", traced_ms / reference_ms - 1.0);
    out.note("reference_steps_per_s", steps as f64 / (reference_ms / 1e3));
    out.note("traced_steps_per_s", steps as f64 / (traced_ms / 1e3));
    Ok(out)
}
