//! Shared experiment infrastructure for the ParallAX reproduction.
//!
//! Every figure/table of the paper's evaluation is one entry of
//! [`experiments::EXPERIMENTS`], run by the `experiments` binary: `cargo
//! run --release -p parallax-bench --bin experiments -- all` regenerates
//! everything in one process (`list` names the entries, `<name>…` runs
//! some). `--scale F` (default `1.0`) scales the scenes and `--frames N`
//! (default `3`) sets the measured window — useful for quick smoke runs
//! (`--scale 0.1`); the engine always runs under `RunConfig::default()`.
//!
//! Nothing in this crate reads the environment: a binary's behaviour is
//! its command line, parsed through [`cli::Flags`], and an engine
//! configuration is a [`parallax_workloads::RunConfig`] spec.

pub mod bisect;
pub mod cli;
pub mod experiments;
pub mod gate;

use std::sync::{Arc, Mutex, OnceLock};

use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::PhaseTime;
use parallax_physics::{PhaseKind, StepProfile};
use parallax_telemetry::{Snapshot, SpanRecord, StepRecord, TelemetrySink};
use parallax_trace::StepTrace;
use parallax_workloads::{BenchmarkId, RunConfig, Scene, SceneMeta};

/// Experiment context: scale and measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Scene scale (1.0 = paper scale).
    pub scale: f32,
    /// Warm-up frames before measurement (paper: frames 1–4).
    pub warm_frames: usize,
    /// Measured frames (paper: frames 5–7).
    pub measure_frames: usize,
}

impl Default for Ctx {
    /// Paper scale, the paper's window: frames 1–4 warm, 5–7 measured.
    fn default() -> Self {
        Ctx {
            scale: 1.0,
            warm_frames: 4,
            measure_frames: 3,
        }
    }
}

/// Measured data of one benchmark: metadata, the measured-window step
/// profiles and the architecture traces generated from them.
#[derive(Debug)]
pub struct BenchData {
    /// Static scene composition.
    pub meta: SceneMeta,
    /// Step profiles of the measured window.
    pub profiles: Vec<StepProfile>,
    /// One architecture trace per profile.
    pub traces: Vec<StepTrace>,
}

/// A per-process memo of per-scene results, keyed on the scene and the
/// whole [`Ctx`] (two contexts that differ in any field never alias). At
/// most a few entries per scene exist, so it is a scanned list; the lock
/// is held while a missing entry is computed, so one key is computed once
/// however many threads ask for it.
pub(crate) struct Memo<T>(Mutex<Vec<(BenchmarkId, Ctx, Arc<T>)>>);

impl<T> Memo<T> {
    pub(crate) const fn new() -> Self {
        Memo(Mutex::new(Vec::new()))
    }

    pub(crate) fn get_or(&self, id: BenchmarkId, ctx: &Ctx, make: impl FnOnce() -> T) -> Arc<T> {
        let mut entries = self.0.lock().expect("memo lock");
        if let Some((.., hit)) = entries.iter().find(|(i, c, _)| *i == id && c == ctx) {
            return Arc::clone(hit);
        }
        let made = Arc::new(make());
        entries.push((id, *ctx, Arc::clone(&made)));
        made
    }

    /// How many entries were computed under `ctx` — every miss appends
    /// one, so this is the capture counter the tests read.
    #[cfg(test)]
    pub(crate) fn computed(&self, ctx: &Ctx) -> usize {
        let entries = self.0.lock().expect("memo lock");
        entries.iter().filter(|(_, c, _)| c == ctx).count()
    }
}

pub(crate) static CAPTURES: Memo<BenchData> = Memo::new();

/// Builds, measures and traces a benchmark, once per `(id, ctx)` within
/// the process: every experiment of one `experiments all` run shares the
/// same capture. With an active `--telemetry` sink, the measured window is
/// stepped manually so each step writes one JSONL [`StepRecord`].
pub fn bench_data(id: BenchmarkId, ctx: &Ctx) -> Arc<BenchData> {
    CAPTURES.get_or(id, ctx, || {
        let mut scene = RunConfig::default().build(id, ctx.scale);
        let profiles = if telemetry_sink().is_some() {
            run_measured_with_telemetry(&mut scene, ctx.warm_frames, ctx.measure_frames)
        } else {
            scene.run_measured(ctx.warm_frames, ctx.measure_frames)
        };
        let traces = profiles.iter().map(StepTrace::from_profile).collect();
        BenchData {
            meta: scene.meta,
            profiles,
            traces,
        }
    })
}

static SINK: OnceLock<Mutex<TelemetrySink>> = OnceLock::new();

/// Opens the process's telemetry sink at `path` (a binary's `--telemetry
/// PATH`) and turns the telemetry layer on; a path that cannot be created
/// is warned about and the run goes on unrecorded.
pub fn open_telemetry_sink(path: &str) {
    match TelemetrySink::create(path) {
        Ok(sink) => {
            if SINK.set(Mutex::new(sink)).is_ok() {
                parallax_telemetry::set_enabled(true);
            }
        }
        Err(e) => eprintln!("warning: cannot open telemetry sink {path}: {e}"),
    }
}

/// The sink [`open_telemetry_sink`] opened, if any.
pub fn telemetry_sink() -> Option<&'static Mutex<TelemetrySink>> {
    SINK.get()
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
        let record = build_step_record("physics", name, s as u64, Some(&profile), &mut baseline);
        sink_step_record(&record);
        out.push(profile);
    }
    out
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

/// Header row of the per-phase breakdown tables (Figures 2a / 6a).
pub const BREAKDOWN_HEADERS: [&str; 8] = [
    "Bench", "Broad", "Narrow", "IslSer", "IslPar", "Cloth", "Total", "FPS",
];

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
        let mut record = build_step_record("archsim", "window", s as u64, None, &mut baseline);
        record.wall_ns = PhaseKind::ALL
            .iter()
            .enumerate()
            .map(|(i, ph)| {
                let ns = pt.cycles[i] as f64 * 1e9 / CLOCK_HZ;
                (ph.name().to_string(), ns as u64)
            })
            .collect();
        sink_step_record(&record);
    }
    // `run_steps` over an empty window yields the accumulated memory and
    // OS statistics without re-running the traces.
    let mut r = sim.run_steps(&[]);
    r.time = time;
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(measure_frames: usize) -> Ctx {
        Ctx {
            scale: 0.05,
            warm_frames: 0,
            measure_frames,
        }
    }

    #[test]
    fn ctx_defaults() {
        let c = Ctx::default();
        assert_eq!((c.scale, c.warm_frames, c.measure_frames), (1.0, 4, 3));
    }

    #[test]
    fn bench_data_is_memoized() {
        let a = bench_data(BenchmarkId::Ragdoll, &tiny(1));
        let b = bench_data(BenchmarkId::Ragdoll, &tiny(1));
        assert!(Arc::ptr_eq(&a, &b), "the second call must be a memo hit");
    }

    #[test]
    fn contexts_differing_only_in_measure_frames_do_not_alias() {
        let a = bench_data(BenchmarkId::Ragdoll, &tiny(1));
        let b = bench_data(BenchmarkId::Ragdoll, &tiny(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.profiles.len(), 2 * a.profiles.len());
    }

    #[test]
    fn traces_match_profiles() {
        let d = bench_data(BenchmarkId::Periodic, &tiny(1));
        assert_eq!(d.traces.len(), d.profiles.len());
    }
}
