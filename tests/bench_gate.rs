//! End-to-end regression-gate behavior: an identical build passes the
//! gate, a deliberately slowed build (delay injected into one pipeline
//! phase) fails it naming the exact scene and phase, and the invariant
//! monitor stays quiet on a healthy scene.
//!
//! This file is its own test binary (see `crates/integration/Cargo.toml`)
//! because the injected phase delay is process-global: keeping it here
//! means it can never leak into unrelated unit tests.

use std::time::Duration;

use parallax_bench::gate::scenes::{compare, record, SceneConfig, Scenes, QUICK_THRESHOLD};
use parallax_bench::gate::Baseline;
use parallax_physics::{set_injected_phase_delay, InvariantMonitor, PhaseKind};
use parallax_workloads::{BenchmarkId, RunConfig, SceneParams};

fn tiny_gate() -> SceneConfig {
    SceneConfig {
        steps: 8,
        warmup: 2,
        scale: 0.05,
        run: RunConfig::parse("simd=scalar").expect("spec"),
        // Two scenes whose broad-phase is tens of microseconds at this
        // scale, so the injected delay is a huge *relative* change.
        scenes: vec![BenchmarkId::Periodic, BenchmarkId::Ragdoll],
    }
}

/// One test walks the whole pass→fail arc so the injected delay is
/// strictly scoped: tests in a binary run concurrently, and a delay
/// active during another test's recording would poison its samples.
#[test]
fn gate_passes_identical_build_and_fails_slowed_build() {
    let cfg = tiny_gate();
    let base = record(&cfg);

    // Through the on-disk form, as `bench_gate scenes compare` reads it.
    let parsed = Baseline::<Scenes>::from_json(&base.to_json().render())
        .expect("baseline round-trips")
        .gate;

    // Identical build: a fresh recording of the same binary must pass
    // at the CI smoke threshold.
    let fresh = record(&cfg).gate;
    let rows = compare(&parsed, &fresh, QUICK_THRESHOLD);
    // Five pipeline phases plus the per-scene "step total" row.
    assert_eq!(
        rows.len(),
        cfg.scenes.len() * 6,
        "every scene x phase compared"
    );
    let false_alarms: Vec<_> = rows.iter().filter(|r| r.is_regression()).collect();
    assert!(
        false_alarms.is_empty(),
        "identical build flagged as regressed: {false_alarms:?}"
    );

    // Slowed build: 20 ms injected into Broadphase dwarfs the real phase
    // at this scale, so both scenes must regress there. (A 20 ms sleep
    // per step also cools caches and lets the governor downclock, so
    // *other* phases may slow too on a 1-core host — the gate naming
    // Broadphase as the dominant regression is what matters.)
    set_injected_phase_delay(PhaseKind::Broadphase, Duration::from_millis(20));
    let slowed = record(&cfg).gate;
    set_injected_phase_delay(PhaseKind::Broadphase, Duration::ZERO);

    let rows = compare(&parsed, &slowed, QUICK_THRESHOLD);
    let regressions: Vec<_> = rows.iter().filter(|r| r.is_regression()).collect();
    assert!(!regressions.is_empty(), "slowed build passed the gate");
    for id in &cfg.scenes {
        let broad = regressions
            .iter()
            .find(|r| r.what == format!("{} / Broadphase", id.name()));
        assert!(
            broad.is_some(),
            "Broadphase regression of {} not flagged: {regressions:?}",
            id.name()
        );
        assert!(broad.expect("checked").cmp.rel_change > 1.0);
        // Broadphase — where the delay actually lives — must be the
        // scene's biggest relative change.
        let max = rows
            .iter()
            .filter(|r| r.what.starts_with(id.name()))
            .max_by(|a, b| a.cmp.rel_change.total_cmp(&b.cmp.rel_change))
            .expect("rows");
        assert!(max.what.ends_with("/ Broadphase"), "{max:?}");
    }
}

/// The paper's Mix scene — every feature at once — must run clean under
/// the default invariant-monitor bounds (the `run_scene --monitor`
/// acceptance path).
#[test]
fn mix_scene_is_clean_under_default_monitor() {
    let mut scene = BenchmarkId::Mix.build(&SceneParams {
        scale: 0.2,
        ..SceneParams::default()
    });
    let mut monitor = InvariantMonitor::default();
    for step in 0..40 {
        let profile = scene.step();
        let violations = monitor.check_step(&scene.world, &profile);
        assert!(violations.is_empty(), "step {step}: {violations:?}");
    }
    assert_eq!(monitor.checked_steps(), 40);
    assert_eq!(monitor.violations_total(), 0);
}
