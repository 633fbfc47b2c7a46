//! Cross-crate telemetry integration: phase wall-time accounting against
//! the real step pipeline, and the JSONL export round trip on a live
//! multi-threaded scene.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use parallax_physics::PhaseKind;
use parallax_telemetry::{
    chrome_trace, read_jsonl, Snapshot, SpanRecord, StepRecord, TelemetrySink,
};
use parallax_workloads::{BenchmarkId, SceneParams};

/// Serializes the tests of this file: the metrics registry is
/// process-global, so a scene stepped by one test while another has
/// telemetry on is counted in the other's deltas.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Takes the registry lock and switches telemetry on; restores the
/// disabled state even on panic.
fn enable_telemetry() -> impl Drop {
    struct Guard(Option<MutexGuard<'static, ()>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            parallax_telemetry::set_enabled(false);
            self.0.take();
        }
    }
    let guard = registry_lock();
    parallax_telemetry::set_enabled(true);
    Guard(Some(guard))
}

/// The per-phase walls recorded by the pipeline must account for the
/// step: their sum over a window of Mix steps stays within 10% of the
/// externally timed total.
#[test]
fn phase_walls_account_for_step_time() {
    let _registry = registry_lock();
    let mut scene = BenchmarkId::Mix.build(&SceneParams {
        scale: 0.15,
        ..SceneParams::default()
    });
    for _ in 0..5 {
        scene.step();
    }
    let mut outside = Duration::ZERO;
    let mut phases = Duration::ZERO;
    for _ in 0..15 {
        let start = Instant::now();
        let profile = scene.step();
        outside += start.elapsed();
        phases += profile.wall.iter().sum::<Duration>();
    }
    let ratio = phases.as_secs_f64() / outside.as_secs_f64();
    assert!(
        (0.9..=1.0).contains(&ratio),
        "phase walls {phases:?} should be within 10% of step total {outside:?} (ratio {ratio:.3})"
    );
}

/// Steps a scene with telemetry live, writes one record per step the way
/// the bench sink does, and checks the JSONL round trip: all five phases
/// on every record, metric deltas, and one span track per worker.
#[test]
fn jsonl_round_trip_covers_phases_and_workers() {
    let _guard = enable_telemetry();
    let mut scene = BenchmarkId::Mix.build(&SceneParams {
        scale: 0.1,
        threads: 3,
        ..SceneParams::default()
    });

    let path =
        std::env::temp_dir().join(format!("parallax-telemetry-{}.jsonl", std::process::id()));
    let mut sink = TelemetrySink::create(&path).expect("create sink");
    let mut spans: Vec<SpanRecord> = Vec::new();
    parallax_telemetry::drain_spans(&mut spans);
    let mut baseline = parallax_telemetry::snapshot();

    const STEPS: u64 = 6;
    for step in 0..STEPS {
        let profile = scene.step();
        let now = parallax_telemetry::snapshot();
        let metrics = now.delta_since(&baseline);
        baseline = now;
        spans.clear();
        parallax_telemetry::drain_spans(&mut spans);
        let record = StepRecord {
            source: "physics".to_string(),
            scene: "Mix".to_string(),
            step,
            wall_ns: PhaseKind::ALL
                .iter()
                .zip(profile.wall.iter())
                .map(|(p, w)| (p.name().to_string(), w.as_nanos() as u64))
                .collect(),
            metrics,
            spans: std::mem::take(&mut spans),
        };
        sink.write(&record).expect("write record");
    }
    drop(sink);

    let records = read_jsonl(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert_eq!(records.len(), STEPS as usize);
    for r in &records {
        assert_eq!(r.source, "physics");
        for phase in PhaseKind::ALL {
            assert!(
                r.wall_ns.iter().any(|(n, _)| n == phase.name()),
                "step {} missing phase {:?}",
                r.step,
                phase.name()
            );
        }
        assert!(r.wall_total_ns() > 0, "step {} lost wall time", r.step);
    }

    let merged = records
        .iter()
        .fold(Snapshot::default(), |acc, r| acc.merge(&r.metrics));
    assert_eq!(merged.counter("physics.steps"), STEPS);
    assert!(merged.counter("physics.executor.chunks_claimed") > 0);
    assert!(merged.histogram("physics.island_size_bodies").is_some());

    // threads: 3 => caller track 0 plus spawned workers 1 and 2.
    let mut tracks: Vec<u32> = records
        .iter()
        .flat_map(|r| r.spans.iter().map(|s| s.track))
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert!(tracks.contains(&0), "caller track missing: {tracks:?}");
    assert!(
        tracks.iter().any(|&t| t >= 1),
        "no worker tracks recorded: {tracks:?}"
    );

    let trace = chrome_trace(&records);
    assert!(trace.contains("\"traceEvents\""));
    for t in &tracks {
        assert!(
            trace.contains(&format!("\"tid\":{t}")),
            "chrome trace lost track {t}"
        );
    }
}
