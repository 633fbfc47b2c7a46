//! Measures the per-step cost of the flight recorder's per-phase state
//! digests on Mix (the heaviest scene): records digests-off and
//! digests-on interleaved ([`parallax_bench::harness::record_sides`],
//! so host drift cancels) and gates on the *absolute* cost.
//!
//! Both sides walk the same trajectory, so the cost is the median over
//! the steps of `on − off` ([`paired_step_cost`]). It is printed as µs
//! per step, as ns per byte the five digests hashed
//! (`physics::digest::phase_bytes_hashed`) and — for orientation only —
//! as a share of the step, next to what the same hash and a plain
//! `copy_from_slice` cost per byte over lanes of the same size in this
//! process. The share is no longer the gate: the digests hash the same
//! state whatever the step around them costs, and every engine speed-up
//! used to "regress" it.
//!
//! The budget is [`BUDGET_NS_PER_BODY_STEP`] per body slot per step; a
//! failure requires the *entire* bootstrap confidence interval of the
//! cost to clear it in each of [`ATTEMPTS`] recordings. Exit 0 within
//! budget, 1 over it.
//!
//! `--quick` shrinks the sample count for CI smoke runs (the budget does
//! not widen — unlike `bench_gate --quick`, the budget is the point).

use std::hint::black_box;
use std::time::Instant;

use parallax_bench::cli::parse_or_exit;
use parallax_bench::harness::{compare_baselines, paired_step_cost, record_sides, GateConfig};
use parallax_physics::digest::{hash_f32s, phase_bytes_hashed};
use parallax_workloads::{BenchmarkId, RunConfig};

/// The digest budget: nanoseconds per body slot per step, all five phase
/// digests together.
///
/// Derivation (DESIGN.md §12, measured on Mix at scale 0.2, 2105 body
/// slots): a step's five digests hash ≈380 bytes per body slot — five
/// times the 64-byte body state, plus the candidate list, the manifolds
/// and the cloth — at ≈0.15 ns per byte in place, against ≈0.08 ns per
/// byte for the same hash over resident lanes and ≈0.025 for a plain lane
/// copy: 55–75 ns per body-step over 27 `--quick` recordings, the lower
/// end of the interval at most 68. With every digest computed twice the
/// lower end was at least 93 in 23 recordings. The budget sits between.
const BUDGET_NS_PER_BODY_STEP: f64 = 80.0;

/// Scene scale of the gate run.
const SCALE: f32 = 0.2;

/// f32 lanes of body state a phase digest folds (13 pose/velocity lanes
/// and three 4-byte bookkeeping lanes): the shape of the reference runs.
const REFERENCE_LANES: usize = 16;

/// Nanoseconds per byte of `f` applied to every lane, repeated until the
/// clock has something to read.
fn ns_per_byte(lanes: &[Vec<f32>], mut f: impl FnMut(usize, &[f32])) -> f64 {
    let bytes: usize = lanes.iter().map(|l| l.len() * 4).sum();
    let reps = (50_000_000 / bytes.max(1)).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for (i, lane) in lanes.iter().enumerate() {
            f(i, black_box(lane));
        }
    }
    t.elapsed().as_nanos() as f64 / (reps * bytes) as f64
}

/// Recordings a failure needs: host noise on a shared machine is
/// one-sided and bursty (one honest `--quick` recording in 28 read twice
/// the usual cost), a real regression is there every time.
const ATTEMPTS: usize = 3;

fn main() {
    let quick = parse_or_exit("usage: digest_overhead [--quick]", |flags| {
        let mut quick = false;
        while let Some(flag) = flags.next_flag() {
            match flag.as_str() {
                "--quick" => quick = true,
                _ => return Err(flags.unknown()),
            }
        }
        Ok(quick)
    });
    let (steps, warmup) = if quick { (240, 8) } else { (480, 8) };
    let mk = |digest: bool| GateConfig {
        steps,
        warmup,
        scale: SCALE,
        run: RunConfig {
            digest,
            ..RunConfig::default()
        },
        scenes: vec![BenchmarkId::Mix],
        ..GateConfig::default()
    };
    // Body slots: everything a digest folds, dormant debris included.
    let bodies = RunConfig::default()
        .build(BenchmarkId::Mix, SCALE)
        .world
        .bodies()
        .len();
    println!(
        "digest overhead on Mix: {steps} steps (+{warmup} warmup), {bodies} body slots, \
         budget {BUDGET_NS_PER_BODY_STEP:.0} ns per body-step"
    );

    // The same hash, and the cheapest possible touch of the same bytes.
    let lanes: Vec<Vec<f32>> = (0..REFERENCE_LANES)
        .map(|l| (0..bodies).map(|i| (i * (l + 1)) as f32 * 0.37).collect())
        .collect();
    let mut sink = 0u64;
    let hash_ref = ns_per_byte(&lanes, |i, lane| sink ^= hash_f32s(i as u64, lane));
    let mut copy = lanes.clone();
    let copy_ref = ns_per_byte(&lanes, |i, lane| {
        copy[i].copy_from_slice(lane);
        black_box(&mut copy[i]);
    });
    black_box(sink);
    println!(
        "  per byte over {REFERENCE_LANES} lanes of {bodies} in this process: \
         hash {hash_ref:.3} ns, plain copy {copy_ref:.3} ns"
    );

    for attempt in 1..=ATTEMPTS {
        let hashed_before = phase_bytes_hashed();
        let [off, on] = record_sides([&mk(false), &mk(true)]);
        // Only the on side hashes, warm-up steps included.
        let hashed_per_step =
            (phase_bytes_hashed() - hashed_before) as f64 / (steps + warmup) as f64;
        for r in &compare_baselines(&off, &on, 0.0) {
            println!(
                "  {:16} {:>10.3} ms -> {:>10.3} ms  {:+.1}%",
                r.phase,
                r.cmp.base_median / 1e6,
                r.cmp.cand_median / 1e6,
                r.cmp.rel_change * 100.0,
            );
        }
        let Some(cost) = paired_step_cost(&off.scenes[0], &on.scenes[0]) else {
            eprintln!("error: the paired recording produced no samples");
            std::process::exit(2);
        };
        println!(
            "  hashed: {:.0} B/step by the five phase digests ({:.0} B per body slot)",
            hashed_per_step,
            hashed_per_step / bodies as f64
        );
        println!(
            "  cost: {:+.1} us/step  CI [{:+.1}, {:+.1}]  = {:.3} ns per hashed byte",
            cost.median_ns / 1e3,
            cost.ci_ns.0 / 1e3,
            cost.ci_ns.1 / 1e3,
            cost.median_ns / hashed_per_step.max(1.0),
        );
        let per_body = |ns: f64| ns / bodies as f64;
        let verdict = format!(
            "{:.0} ns per body-step (CI [{:.0}, {:.0}])",
            per_body(cost.median_ns),
            per_body(cost.ci_ns.0),
            per_body(cost.ci_ns.1),
        );
        if per_body(cost.ci_ns.0) <= BUDGET_NS_PER_BODY_STEP {
            println!("digest overhead: within budget: {verdict}");
            return;
        }
        println!(
            "digest overhead: recording {attempt} of {ATTEMPTS} over budget: {verdict}, \
             entirely above {BUDGET_NS_PER_BODY_STEP:.0}"
        );
    }
    println!("digest overhead: OVER BUDGET in every recording");
    std::process::exit(1);
}
