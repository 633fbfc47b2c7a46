//! The CG record seen through the telemetry registry: how many CG steps
//! the ParallAX systems simulate and how many they read back.
//!
//! The tests switch recording on and read process-wide counters, so they
//! run one at a time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use parallax::{FgCoreType, ParallaxSystem};
use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_physics::probe::{IslandWork, PairWork};
use parallax_physics::{ShapeKind, StepProfile};
use parallax_telemetry as telemetry;
use parallax_trace::StepTrace;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The FG pools of the benchmark's ParallAX design points.
const POOLS: [(FgCoreType, usize); 3] = [
    (FgCoreType::Desktop, 30),
    (FgCoreType::Console, 43),
    (FgCoreType::Shader, 150),
];

/// A small step with `pairs` pairs and `islands` six-body islands.
fn profile(pairs: usize, islands: usize) -> StepProfile {
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
            shape_a: ShapeKind::Cuboid,
            shape_b: ShapeKind::Sphere,
            contacts: 2,
            active: true,
        });
    }
    for i in 0..islands {
        p.islands.push(IslandWork {
            bodies: (0..6).map(|b| (i * 6 + b) as u32).collect(),
            joints: vec![],
            manifolds: 6,
            rows: 30,
            dof_removed: 30,
            iterations: 20,
            residual: 0.0,
            queued: true,
            lambda_digest: 0,
        });
    }
    p
}

/// `n` distinct steps; windows of different `salt`s share none.
fn window(salt: usize, n: usize) -> Vec<StepProfile> {
    (0..n)
        .map(|k| profile(30 + salt + 7 * k, 1 + k % 3))
        .collect()
}

/// Counter deltas of `f`: (CG steps simulated, CG steps shared, archsim
/// steps).
fn counted(f: impl FnOnce()) -> (u64, u64, u64) {
    let read = || {
        let s = telemetry::snapshot();
        (
            s.counter("parallax.cg_steps_simulated"),
            s.counter("parallax.cg_steps_shared"),
            s.counter("archsim.steps"),
        )
    };
    telemetry::set_enabled(true);
    let before = read();
    f();
    let after = read();
    telemetry::set_enabled(false);
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

#[test]
fn zero_cg_cores_steps_with_telemetry_on() {
    let _serial = serial();
    let p = profile(40, 3);
    let (simulated, shared, _) = counted(|| {
        let mut zero = ParallaxSystem::new(0, FgCoreType::Shader, 150, Link::OnChipMesh);
        let mut one = ParallaxSystem::new(1, FgCoreType::Shader, 150, Link::OnChipMesh);
        assert_eq!(zero.simulate_step(&p), one.simulate_step(&p));
        assert!(format!("{zero:?}").contains("cg_cores: 1"));
    });
    // Zero CG cores is the one-core machine: one simulation, one read.
    assert_eq!((simulated, shared), (1, 1));
}

#[test]
fn a_nine_point_sweep_simulates_each_step_once() {
    let _serial = serial();
    let n = 5;
    let w = window(1_000, n);
    let (simulated, shared, archsim) = counted(|| {
        for (fg_type, fg_count) in POOLS {
            for link in Link::ALL {
                ParallaxSystem::new(4, fg_type, fg_count, link).simulate_steps(&w);
            }
        }
    });
    assert_eq!((simulated, shared), (n as u64, 8 * n as u64));
    assert_eq!(archsim, simulated, "archsim counts only the steps it ran");
}

/// One sweep in the `arch_sweep` benchmark's order: per window, three
/// multicore points, then nine ParallAX points, each a warm pass over the
/// first three steps and a measured pass over the window.
fn benchmark_sweep(windows: &[Vec<StepProfile>]) {
    for window in windows {
        let traces: Vec<StepTrace> = window.iter().map(StepTrace::from_profile).collect();
        for cores in [1, 2, 4] {
            let mut machine = MachineConfig::baseline(cores, 12);
            machine.l2 = L2Config::partitioned(12, vec![1, 1, 2]);
            let mut sim = MulticoreSim::new(
                machine,
                SimOptions {
                    os_overhead: true,
                    partition_of_phase: Some([0, 2, 1, 2, 2]),
                    ..SimOptions::default()
                },
            );
            sim.run_steps(&traces[..3]);
            sim.reset_stats();
            sim.run_steps(&traces);
        }
        for (fg_type, fg_count) in POOLS {
            for link in Link::ALL {
                let mut system = ParallaxSystem::new(4, fg_type, fg_count, link);
                system.simulate_steps(&window[..3]);
                system.simulate_steps(window);
            }
        }
    }
}

#[test]
fn a_repeated_sweep_simulates_as_much_as_the_first() {
    let _serial = serial();
    let n = 4;
    let windows = [window(2_000, n), window(3_000, n)];
    let first = counted(|| benchmark_sweep(&windows));
    let second = counted(|| benchmark_sweep(&windows));
    // Each window's history is its first three steps, then all of it:
    // one ParallAX point simulates it, eight read it, and the repeated
    // sweep reuses nothing from the first.
    let history = (windows.len() * (3 + n)) as u64;
    assert_eq!(first, second);
    assert_eq!((first.0, first.1), (history, 8 * history));
    assert_eq!(first.2, 3 * history + history);
}
