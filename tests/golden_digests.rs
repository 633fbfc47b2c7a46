//! Cross-commit golden digests: the trajectory contract across refactors.
//!
//! `tests/determinism.rs` and `tests/simd_equivalence.rs` compare two
//! configurations of *one* build; nothing there notices a commit that moves
//! every configuration together. These constants were recorded from the
//! commit before the island-processing data path was rebuilt (PR 13), with
//! the solver untouched, so a refactor that claims to preserve every
//! floating-point operation has to reproduce them bit for bit. A PR that
//! changes trajectories on purpose re-records them and says so.

use parallax::{FgCoreType, ParallaxSystem};
use parallax_archsim::config::{L2Config, MachineConfig};
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_archsim::offchip::Link;
use parallax_math::SimdMode;
use parallax_physics::{chunk_digests, world_digest, StepProfile};
use parallax_trace::StepTrace;
use parallax_workloads::{BenchmarkId, SceneParams};

const STEPS: usize = 60;

fn digest_after(id: BenchmarkId, simd: SimdMode) -> u64 {
    let mut scene = id.build(&SceneParams {
        scale: 0.2,
        threads: 1,
        warm_starting: true,
        sleeping: false,
        digests: false,
        simd,
        ..SceneParams::default()
    });
    for _ in 0..STEPS {
        scene.step();
    }
    world_digest(&scene.world)
}

fn assert_golden(id: BenchmarkId, golden: u64) {
    let scalar = digest_after(id, SimdMode::Scalar);
    let widest = digest_after(id, SimdMode::Avx2.clamp_to_supported());
    assert_eq!(
        scalar,
        widest,
        "{}: scalar and widest SIMD disagree",
        id.name()
    );
    assert_eq!(
        scalar,
        golden,
        "{}: world_digest after {STEPS} steps is {scalar:#018x}, the pinned \
         trajectory is {golden:#018x}",
        id.name()
    );
}

#[test]
fn explosions_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Explosions, 0x26c0_ce11_4def_dbdf);
}

#[test]
fn mix_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Mix, 0xa076_bb56_2a3d_b31c);
}

#[test]
fn breakable_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Breakable, 0xf65b_6507_8f43_f41b);
}

// ---------------------------------------------------------------------
// Architecture-model goldens: the simulated-statistics contract.
//
// The constants below were recorded from the commit before the simulator's
// host path was rebuilt (PR 14), with `trace`, `archsim` and `parallax`
// untouched. A change that claims to leave every simulated event alone has
// to reproduce them; one that moves the model on purpose re-records them.

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One displayed frame (3 steps) after two warm frames, scale 0.2.
fn model_window(id: BenchmarkId) -> Vec<StepProfile> {
    let mut scene = id.build(&SceneParams {
        scale: 0.2,
        threads: 1,
        warm_starting: true,
        sleeping: false,
        digests: false,
        simd: SimdMode::Scalar,
        ..SceneParams::default()
    });
    scene.run_measured(2, 1)
}

/// What the trace layer emitted for a window: instruction and reference
/// totals, and a hash of every task's read stream then write stream (with
/// their lengths, so task boundaries are pinned too), in phase and task
/// order.
fn trace_golden(traces: &[StepTrace]) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    for trace in traces {
        for phase in &trace.phases {
            h.word(phase.tasks.len() as u64);
            for task in &phase.tasks {
                for stream in [trace.reads(task), trace.writes(task)] {
                    h.word(stream.len() as u64);
                    for &line in stream {
                        h.word(line);
                    }
                }
            }
        }
    }
    (
        traces.iter().map(StepTrace::total_instructions).sum(),
        traces.iter().map(|t| t.total_mem_refs() as u64).sum(),
        h.0,
    )
}

/// Every statistic the two simulators report for a window: the 4-core
/// partitioned CG machine with OS overhead, then the 150-shader HTX system,
/// each warmed on the window and measured on it again.
fn model_golden(window: &[StepProfile], traces: &[StepTrace]) -> u64 {
    let mut h = Fnv::new();

    let mut machine = MachineConfig::baseline(4, 12);
    machine.l2 = L2Config::partitioned(12, vec![1, 1, 2]);
    let mut sim = MulticoreSim::new(
        machine,
        SimOptions {
            os_overhead: true,
            partition_of_phase: Some([0, 2, 1, 2, 2]),
            ..SimOptions::default()
        },
    );
    for t in traces {
        sim.run_step(t);
    }
    sim.reset_stats();
    let r = sim.run_steps(traces);
    for word in r.time.cycles.into_iter().chain([
        r.mem.l1_hits,
        r.mem.l1_misses,
        r.mem.l2_hits,
        r.mem.l2_misses,
        r.mem.coherence_transfers,
        r.mem.total_latency,
        r.kernel_l2_misses,
        r.user_l2_misses,
    ]) {
        h.word(word);
    }

    let mut system = ParallaxSystem::new(4, FgCoreType::Shader, 150, Link::Htx);
    system.simulate_steps(window);
    let s = system.simulate_steps(window);
    for word in s.per_phase.into_iter().chain([
        s.serial_cycles,
        s.cg_parallel_cycles,
        s.fg_cycles,
        s.exposed_comm_cycles,
    ]) {
        h.word(word);
    }
    h.0
}

/// A nine-point ParallAX sweep over the window (three FG pools, each
/// behind each CG↔FG link, on the 4-core CG side), each point warmed on
/// the window and measured on it again: every point's results, in order.
/// Its constants were recorded at the commit before the points shared
/// one CG simulation, so they pin the results of points simulated alone.
fn sweep_golden(window: &[StepProfile]) -> u64 {
    let mut h = Fnv::new();
    for (fg_type, fg_count) in [
        (FgCoreType::Desktop, 30),
        (FgCoreType::Console, 43),
        (FgCoreType::Shader, 150),
    ] {
        for link in Link::ALL {
            let mut system = ParallaxSystem::new(4, fg_type, fg_count, link);
            system.simulate_steps(window);
            let s = system.simulate_steps(window);
            for word in s.per_phase.into_iter().chain([
                s.serial_cycles,
                s.cg_parallel_cycles,
                s.fg_cycles,
                s.exposed_comm_cycles,
            ]) {
                h.word(word);
            }
        }
    }
    h.0
}

fn assert_model_golden(id: BenchmarkId, trace: (u64, u64, u64), model: u64, sweep: u64) {
    let window = model_window(id);
    let traces: Vec<StepTrace> = window.iter().map(StepTrace::from_profile).collect();
    let got = trace_golden(&traces);
    assert_eq!(
        got,
        trace,
        "{}: (instructions, mem refs, reference-stream hash) is \
         ({}, {}, {:#018x})",
        id.name(),
        got.0,
        got.1,
        got.2
    );
    let got = model_golden(&window, &traces);
    assert_eq!(
        got,
        model,
        "{}: simulated statistics hash to {got:#018x}, pinned {model:#018x}",
        id.name()
    );
    let got = sweep_golden(&window);
    assert_eq!(
        got,
        sweep,
        "{}: the nine-point ParallAX sweep hashes to {got:#018x}, pinned {sweep:#018x}",
        id.name()
    );
}

#[test]
fn mix_matches_the_pinned_simulated_statistics() {
    assert_model_golden(
        BenchmarkId::Mix,
        (204_996_876, 657_418, 0x5cd1_a4f7_138d_5d5d),
        0x2973_7d26_4490_5fb5,
        0x07c1_a3c3_3c77_9dcf,
    );
}

#[test]
fn explosions_matches_the_pinned_simulated_statistics() {
    assert_model_golden(
        BenchmarkId::Explosions,
        (228_102_987, 272_882, 0x8a8b_8a69_c901_7eff),
        0x8cad_f219_eabd_6e5d,
        0x6781_ab98_97a4_6aec,
    );
}

// ---------------------------------------------------------------------
// Flight-recorder goldens: the per-phase digests, the chunk digests and
// the snapshot bytes.
//
// The world digests above fold the end state only, with sleeping off.
// These pin what the divergence bisector reads — every step's five phase
// digests and the body-chunk digests — and the PXSN bytes, with sleeping
// off and on, so a change to how state is walked must reproduce them.

fn recorder_scene(id: BenchmarkId, sleeping: bool, digests: bool) -> parallax_workloads::Scene {
    id.build(&SceneParams {
        scale: 0.2,
        threads: 1,
        warm_starting: true,
        sleeping,
        digests,
        simd: SimdMode::Scalar,
        ..SceneParams::default()
    })
}

/// FNV of every step's phase digests over 60 steps, then of the chunk
/// digests (64 bodies a chunk) of the end state.
fn phase_and_chunk_golden(id: BenchmarkId) -> u64 {
    let mut scene = recorder_scene(id, false, true);
    let mut h = Fnv::new();
    for _ in 0..STEPS {
        let digests = scene.step().digests.expect("digests are on");
        for d in digests {
            h.word(d);
        }
    }
    for (lo, hi, d) in chunk_digests(&scene.world, 64) {
        h.word(lo as u64);
        h.word(hi as u64);
        h.word(d);
    }
    h.0
}

fn bytes_golden(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.word(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(word));
    }
    h.0
}

#[test]
fn mix_phase_and_chunk_digests_match_the_pinned_values() {
    assert_eq!(
        phase_and_chunk_golden(BenchmarkId::Mix),
        0x95e8_4cf1_9e7c_da29
    );
}

#[test]
fn explosions_phase_and_chunk_digests_match_the_pinned_values() {
    assert_eq!(
        phase_and_chunk_golden(BenchmarkId::Explosions),
        0x6d61_9917_54ca_22e5
    );
}

#[test]
fn mix_snapshot_bytes_match_the_pinned_values() {
    let mut scene = recorder_scene(BenchmarkId::Mix, false, false);
    for _ in 0..STEPS {
        scene.step();
    }
    assert_eq!(bytes_golden(&scene.world.snapshot()), 0x8c1a_bb50_6a75_34d7);
}

#[test]
fn sleeping_resting_snapshot_and_digest_match_the_pinned_values() {
    let mut scene = recorder_scene(BenchmarkId::Resting, true, false);
    let mut steps = 0;
    while scene.world.sleeping_body_count() == 0 {
        assert!(steps < 2000, "Resting never fell asleep");
        scene.step();
        steps += 1;
    }
    assert_eq!(
        (
            steps,
            bytes_golden(&scene.world.snapshot()),
            world_digest(&scene.world)
        ),
        (36, 0x609f_5161_d8a8_96e5, 0xbc6f_c24c_7e56_0d55)
    );
}
