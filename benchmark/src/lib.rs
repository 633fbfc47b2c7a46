//! The repository's benchmark: five workloads over the three products
//! (engine, simulation service, architecture model), end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics; `benchmark/README.md` says what each means and which layer
//! metric should move which end-to-end metric on which workload.

pub mod arch;
pub mod client;
pub mod fleet;
pub mod hostspeed;
pub mod procfs;
pub mod report;
pub mod scene;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod table;

use std::path::PathBuf;
use std::time::Instant;

use report::Outcome;
use spans::Recorder;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mix at scale 1.0: static-heavy, broad phase ~half the step.
    SceneStatic,
    /// Explosions at scale 1.0: island processing ~80 % of the step.
    SceneDynamic,
    /// `serve` with 400 settled sessions at 60 Hz.
    FleetSettled,
    /// `serve` with 12 never-settling sessions plus churn.
    FleetActive,
    /// The architecture model swept over 48 design points.
    ArchSweep,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::SceneStatic,
        Workload::SceneDynamic,
        Workload::FleetSettled,
        Workload::FleetActive,
        Workload::ArchSweep,
    ];

    /// Name as declared in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SceneStatic => "scene_static",
            Workload::SceneDynamic => "scene_dynamic",
            Workload::FleetSettled => "fleet_settled",
            Workload::FleetActive => "fleet_active",
            Workload::ArchSweep => "arch_sweep",
        }
    }

    /// Looks a workload up by its declared name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// Shrinks every workload by this factor; 1 in any measured run,
    /// 20 in the harness's own smoke test.
    pub size_div: u32,
    /// The `serve` binary the fleet workloads start.
    pub serve_bin: PathBuf,
}

/// Calls `run` at least `at_least` times, then again for as long as —
/// going by how long the last call took — the next would still end
/// within `seconds` of the first one's start. A run is bounded in time,
/// not in work: a slow host makes it noisier, not longer.
pub fn repeat_within<T>(seconds: f64, at_least: usize, mut run: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let call = Instant::now();
        out.push(run());
        let next_end = start.elapsed() + call.elapsed();
        if out.len() >= at_least && next_end.as_secs_f64() > seconds {
            return out;
        }
    }
}

/// Runs one workload. Returns its outcome and, for a traced run, the
/// span recorders (one per thread that recorded).
pub fn run_workload(
    workload: Workload,
    opts: &RunOpts,
) -> Result<(Outcome, Vec<Recorder>), String> {
    let mut rec = Recorder::new(opts.traced, Instant::now(), 0);
    let mut recorders = Vec::new();
    let mut outcome = match workload {
        Workload::SceneStatic => scene::run(&scene::STATIC, opts, &mut rec)?,
        Workload::SceneDynamic => scene::run(&scene::DYNAMIC, opts, &mut rec)?,
        Workload::FleetSettled => fleet::run(fleet::FleetKind::Settled, opts, &mut recorders)?,
        Workload::FleetActive => fleet::run(fleet::FleetKind::Active, opts, &mut recorders)?,
        Workload::ArchSweep => arch::run(opts, &mut rec)?,
    };
    recorders.insert(0, rec);
    if opts.traced {
        for (layer, ms) in spans::self_ms_by_layer(&recorders) {
            outcome.note(&format!("self_ms.{layer}"), ms);
        }
    }
    Ok((outcome, recorders))
}
