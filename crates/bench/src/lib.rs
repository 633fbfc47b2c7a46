//! Shared experiment infrastructure for the ParallAX reproduction.
//!
//! Every figure/table of the paper's evaluation has a binary in
//! `src/bin/`; run `cargo run --release -p parallax-bench --bin
//! all_experiments` to regenerate everything. The environment variable
//! `PARALLAX_SCALE` (default `1.0`) scales the scenes, and
//! `PARALLAX_FRAMES` (default `3`) sets the measured window — useful for
//! quick smoke runs (`PARALLAX_SCALE=0.1`).

pub mod bisect;
pub mod executor_scaling;
pub mod harness;
pub mod server_gate;

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::PhaseTime;
use parallax_physics::{PhaseKind, StepProfile};
use parallax_telemetry::{Snapshot, SpanRecord, StepRecord, TelemetrySink};
use parallax_trace::StepTrace;
use parallax_workloads::{BenchmarkId, Scene, SceneMeta, SceneParams};

/// Experiment context: scale and measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Scene scale (1.0 = paper scale).
    pub scale: f32,
    /// Warm-up frames before measurement (paper: frames 1–4).
    pub warm_frames: usize,
    /// Measured frames (paper: frames 5–7).
    pub measure_frames: usize,
}

impl Ctx {
    /// Reads the context from the environment.
    pub fn from_env() -> Ctx {
        let scale = std::env::var("PARALLAX_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let measure_frames = std::env::var("PARALLAX_FRAMES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(3)
            .max(1);
        Ctx {
            scale,
            warm_frames: 4,
            measure_frames,
        }
    }
}

/// Cached measured data for one benchmark: metadata + the measured-window
/// step profiles.
#[derive(Debug, Clone)]
pub struct BenchData {
    /// Static scene composition.
    pub meta: SceneMeta,
    /// Step profiles of the measured window.
    pub profiles: Vec<StepProfile>,
}

fn profile_cache() -> &'static Mutex<HashMap<(BenchmarkId, u32), BenchData>> {
    static CACHE: OnceLock<Mutex<HashMap<(BenchmarkId, u32), BenchData>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Builds and measures a benchmark (memoized per scale within the
/// process). With an active `--telemetry` sink, the measured window is
/// stepped manually so each step writes one JSONL [`StepRecord`].
pub fn bench_data(id: BenchmarkId, ctx: &Ctx) -> BenchData {
    let key = (id, (ctx.scale * 1000.0) as u32);
    if let Some(d) = profile_cache().lock().expect("cache lock").get(&key) {
        return d.clone();
    }
    let params = SceneParams {
        scale: ctx.scale,
        ..Default::default()
    };
    let mut scene: Scene = id.build(&params);
    let profiles = if telemetry_sink().is_some() {
        run_measured_with_telemetry(&mut scene, ctx.warm_frames, ctx.measure_frames)
    } else {
        scene.run_measured(ctx.warm_frames, ctx.measure_frames)
    };
    let data = BenchData {
        meta: scene.meta,
        profiles,
    };
    profile_cache()
        .lock()
        .expect("cache lock")
        .insert(key, data.clone());
    data
}

/// The global telemetry sink, opened on first use from `--telemetry
/// <path>` on the command line (or the `PARALLAX_TELEMETRY` env var).
/// Opening the sink turns the telemetry layer on for the process.
pub fn telemetry_sink() -> &'static Option<Mutex<TelemetrySink>> {
    static SINK: OnceLock<Option<Mutex<TelemetrySink>>> = OnceLock::new();
    SINK.get_or_init(|| {
        let path = telemetry_path(std::env::args())?;
        match TelemetrySink::create(&path) {
            Ok(sink) => {
                parallax_telemetry::set_enabled(true);
                Some(Mutex::new(sink))
            }
            Err(e) => {
                eprintln!("warning: cannot open telemetry sink {path}: {e}");
                None
            }
        }
    })
}

/// Extracts the telemetry output path from an argument list
/// (`--telemetry <path>` or `--telemetry=<path>`), falling back to the
/// `PARALLAX_TELEMETRY` environment variable.
fn telemetry_path(args: impl Iterator<Item = String>) -> Option<String> {
    let args: Vec<String> = args.collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--telemetry" {
            return args.get(i + 1).cloned();
        }
        if let Some(p) = a.strip_prefix("--telemetry=") {
            return Some(p.to_string());
        }
    }
    std::env::var("PARALLAX_TELEMETRY").ok()
}

/// Builds one step's [`StepRecord`]: the per-phase wall times from
/// `profile`, the registry delta since `baseline` (which is advanced to
/// now), and the drained spans. Shared by the JSONL sink path and the
/// live exporter (`parallax-observe`) — both see the same record.
pub fn build_step_record(
    source: &str,
    scene: &str,
    step: u64,
    profile: Option<&StepProfile>,
    baseline: &mut Snapshot,
) -> StepRecord {
    publish_spans_dropped();
    let now = parallax_telemetry::snapshot();
    let metrics = now.delta_since(baseline);
    *baseline = now;
    let mut spans: Vec<SpanRecord> = Vec::new();
    parallax_telemetry::drain_spans(&mut spans);
    let wall_ns = profile.map_or_else(Vec::new, |p| {
        PhaseKind::ALL
            .iter()
            .map(|ph| (ph.name().to_string(), p.wall_time(*ph).as_nanos() as u64))
            .collect()
    });
    StepRecord {
        source: source.to_string(),
        scene: scene.to_string(),
        step,
        wall_ns,
        metrics,
        spans,
    }
}

/// Appends an already-built record to the active sink (no-op without
/// one).
pub fn sink_step_record(record: &StepRecord) {
    let Some(sink) = telemetry_sink() else {
        return;
    };
    let mut sink = sink.lock().expect("telemetry sink lock");
    if let Err(e) = sink.write(record).and_then(|()| sink.flush()) {
        eprintln!("warning: telemetry write failed: {e}");
    }
}

/// Writes one step's telemetry to the active sink (no-op without one):
/// [`build_step_record`] + [`sink_step_record`].
pub fn write_step_record(
    source: &str,
    scene: &str,
    step: u64,
    profile: Option<&StepProfile>,
    baseline: &mut Snapshot,
) {
    if telemetry_sink().is_none() {
        return;
    }
    sink_step_record(&build_step_record(source, scene, step, profile, baseline));
}

/// Mirrors the process's cumulative dropped-span count into the
/// `telemetry.spans_dropped` gauge so it travels with every snapshot and
/// `telemetry_report` can surface incomplete traces from the JSONL alone
/// (gauges merge by max, so the largest value wins across records).
fn publish_spans_dropped() {
    let dropped = parallax_telemetry::span::spans_dropped();
    if dropped > 0 {
        parallax_telemetry::gauge(parallax_telemetry::report::SPANS_DROPPED_GAUGE).set(dropped);
    }
}

/// Discards accumulated telemetry state (spans, registry baseline) so a
/// capture starts clean; returns the fresh baseline snapshot.
pub fn telemetry_baseline() -> Snapshot {
    let mut discard = Vec::new();
    parallax_telemetry::drain_spans(&mut discard);
    parallax_telemetry::snapshot()
}

/// `run_measured` with per-step telemetry: warm-up steps are run but not
/// recorded; each measured step writes one `source="physics"` record.
fn run_measured_with_telemetry(
    scene: &mut Scene,
    warm_frames: usize,
    measure_frames: usize,
) -> Vec<StepProfile> {
    for _ in 0..warm_frames {
        scene.step_frame();
    }
    let mut baseline = telemetry_baseline();
    let steps = measure_frames * scene.world.config().steps_per_frame;
    let name = scene.id.name();
    let mut out = Vec::with_capacity(steps);
    for s in 0..steps {
        let profile = scene.step();
        write_step_record("physics", name, s as u64, Some(&profile), &mut baseline);
        out.push(profile);
    }
    out
}

/// Converts profiles to architecture traces.
pub fn traces_of(profiles: &[StepProfile]) -> Vec<StepTrace> {
    profiles.iter().map(StepTrace::from_profile).collect()
}

/// Formats seconds in the paper's figure units.
pub fn fmt_secs(s: f64) -> String {
    format!("{:.2e}", s)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>width$}  ",
                c,
                width = widths[i.min(widths.len() - 1)]
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The 33-ms frame budget at 30 FPS.
pub const FRAME_BUDGET_SECS: f64 = 1.0 / 30.0;

/// The simulated CG clock every figure reports against (2 GHz).
pub const CLOCK_HZ: f64 = 2.0e9;

/// The paper's per-phase L2 way-partition assignment: way 0 →
/// Broadphase, way 1 → Island Creation, way 2 → the parallel phases.
pub const PARTITION_OF_PHASE: [u8; 5] = [0, 2, 1, 2, 2];

/// The paper's partitioned machine: 12 MB L2, ways split 1/1/2 between
/// Broadphase / Island Creation / parallel phases (per-way
/// columnization). Pair with [`PARTITION_OF_PHASE`].
pub fn partitioned_machine(cores: usize) -> MachineConfig {
    let mut m = MachineConfig::baseline(cores, 12);
    m.l2 = L2Config::partitioned(12, vec![1, 1, 2]);
    m
}

/// Header row matching [`breakdown_row`].
pub const BREAKDOWN_HEADERS: [&str; 8] = [
    "Bench", "Broad", "Narrow", "IslSer", "IslPar", "Cloth", "Total", "FPS",
];

/// Formats one benchmark's per-phase breakdown row (Figures 2a / 6a):
/// abbreviation, seconds per frame for each phase, total, FPS.
pub fn breakdown_row(abbrev: &str, time: &PhaseTime, frames: f64) -> Vec<String> {
    let mut row = vec![abbrev.to_string()];
    let mut total = 0.0;
    for cycles in time.cycles {
        let secs = cycles as f64 / CLOCK_HZ / frames;
        total += secs;
        row.push(fmt_secs(secs));
    }
    row.push(fmt_secs(total));
    row.push(format!("{:.1}", 1.0 / total.max(1e-12)));
    row
}

/// Looks up a benchmark by name or abbreviation, case-insensitively.
pub fn benchmark_by_name(s: &str) -> Option<BenchmarkId> {
    BenchmarkId::by_name(s).or_else(|| {
        BenchmarkId::ALL
            .into_iter()
            .find(|b| b.abbrev().eq_ignore_ascii_case(s))
    })
}

/// Every valid scene spelling, `"Name (Abbrev)"` comma-joined — the
/// suggestion list binaries print when `--scene` doesn't resolve.
pub fn scene_names() -> String {
    BenchmarkId::ALL
        .into_iter()
        .map(|b| format!("{} ({})", b.name(), b.abbrev()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Warm-then-measure helper: runs `traces` through the simulator once to
/// warm caches, resets stats, runs again and returns the measured result.
/// With an active `--telemetry` sink, each measured step also writes one
/// `source="archsim"` record whose `wall_ns` holds the simulated phase
/// times at the 2 GHz CG clock.
pub fn warm_measure(
    sim: &mut parallax_archsim::multicore::MulticoreSim,
    traces: &[StepTrace],
) -> parallax_archsim::multicore::FrameResult {
    for t in traces {
        sim.run_step(t);
    }
    sim.reset_stats();
    if telemetry_sink().is_none() {
        return sim.run_steps(traces);
    }

    let mut baseline = telemetry_baseline();
    let mut time = PhaseTime::default();
    for (s, t) in traces.iter().enumerate() {
        let pt = sim.run_step(t);
        for i in 0..5 {
            time.cycles[i] += pt.cycles[i];
        }
        let wall_ns: Vec<(String, u64)> = PhaseKind::ALL
            .iter()
            .enumerate()
            .map(|(i, ph)| {
                let ns = pt.cycles[i] as f64 * 1e9 / CLOCK_HZ;
                (ph.name().to_string(), ns as u64)
            })
            .collect();
        publish_spans_dropped();
        let now = parallax_telemetry::snapshot();
        let metrics = now.delta_since(&baseline);
        baseline = now;
        let record = StepRecord {
            source: "archsim".to_string(),
            scene: "window".to_string(),
            step: s as u64,
            wall_ns,
            metrics,
            spans: Vec::new(),
        };
        if let Some(sink) = telemetry_sink() {
            let mut sink = sink.lock().expect("telemetry sink lock");
            if let Err(e) = sink.write(&record).and_then(|()| sink.flush()) {
                eprintln!("warning: telemetry write failed: {e}");
            }
        }
    }
    // `run_steps` over an empty window yields the accumulated memory and
    // OS statistics without re-running the traces.
    let mut r = sim.run_steps(&[]);
    r.time = time;
    r
}

/// Serializes the unit tests that switch, or count on, the process-global
/// telemetry flag: `harness::record` turns it back off on return, which
/// zeroes the counters a concurrent `server_gate::record` is sampling.
#[cfg(test)]
pub(crate) fn telemetry_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_defaults() {
        let c = Ctx {
            scale: 1.0,
            warm_frames: 4,
            measure_frames: 3,
        };
        assert_eq!(c.measure_frames, 3);
    }

    #[test]
    fn bench_data_is_memoized() {
        let ctx = Ctx {
            scale: 0.05,
            warm_frames: 0,
            measure_frames: 1,
        };
        let a = bench_data(BenchmarkId::Ragdoll, &ctx);
        let b = bench_data(BenchmarkId::Ragdoll, &ctx);
        assert_eq!(a.profiles.len(), b.profiles.len());
        assert_eq!(a.meta.dynamic_objs, b.meta.dynamic_objs);
    }

    #[test]
    fn traces_match_profiles() {
        let ctx = Ctx {
            scale: 0.05,
            warm_frames: 0,
            measure_frames: 1,
        };
        let d = bench_data(BenchmarkId::Periodic, &ctx);
        let t = traces_of(&d.profiles);
        assert_eq!(t.len(), d.profiles.len());
    }
}
