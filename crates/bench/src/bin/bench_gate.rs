//! The regression gates: one binary, one exit-code table.
//!
//! ```text
//! bench_gate scenes record  [--baseline PATH] [--steps N] [--warmup N]
//!                           [--scale F] [--config SPEC] [--quick]
//! bench_gate scenes compare [--baseline PATH] [--steps N] [--warmup N]
//!                           [--config SPEC] [--quick] [--inject-delay PHASE:NANOS]
//! bench_gate server record|compare [--baseline PATH] [--quick]
//! bench_gate digest [--quick]
//! ```
//!
//! Exit codes: 0 pass; 1 slower than the baseline beyond the threshold,
//! over the digest budget, or below the fleet's sustain floor; 2 bad
//! usage, or a baseline that is missing, unreadable, of another schema
//! or gate, or recorded on a machine with another fingerprint (the
//! message names the field and the re-record command).
//!
//! `scenes` steps every paper scene and gates per-phase walls against
//! `BENCH_scenes.json`; `server` drives a live fleet and gates request
//! latency against `BENCH_server.json`; `digest` measures what the
//! flight recorder's digests cost on Mix against an absolute budget.
//! Every wall is stated at the reference speed (`gate` module docs).
//! A row fails only when the entire bootstrap confidence interval of the
//! relative median change clears the threshold — `--quick` fresh runs
//! use the gate's quick threshold, full runs its full one.
//!
//! `scenes --config SPEC` is a `RunConfig` spec (README, "Run
//! configuration"). `record` applies it on top of the default
//! configuration and stores the result in the baseline. `compare` runs
//! at the baseline's recorded configuration; a `--config` that changes
//! it turns the gate into an A/B of the two configurations, both
//! re-measured interleaved. `--inject-delay` plants a slowdown in one
//! phase (the gate's own acceptance test).

use std::time::Duration;

use parallax_bench::cli::{parse_or_exit, Flags, SPEC_USAGE};
use parallax_bench::gate::scenes::{self, paired_step_cost, SceneConfig, Scenes};
use parallax_bench::gate::server::{self, Fleet, ServerConfig};
use parallax_bench::gate::{report, Baseline, Gate, EXIT_PASS, EXIT_REFUSED, EXIT_SLOWER};
use parallax_bench::print_table;
use parallax_physics::digest::{phase_by_name, phase_bytes_hashed};
use parallax_physics::set_injected_phase_delay;
use parallax_workloads::RunConfig;

const USAGE: &str = "usage: bench_gate scenes record  [--baseline PATH] [--steps N] [--warmup N] \
                     [--scale F] [--config SPEC] [--quick]\n\
                     \x20      bench_gate scenes compare [--baseline PATH] [--steps N] \
                     [--warmup N] [--config SPEC] [--quick] [--inject-delay PHASE:NANOS]\n\
                     \x20      bench_gate server record|compare [--baseline PATH] [--quick]\n\
                     \x20      bench_gate digest [--quick]\n\
                     exit: 0 pass, 1 slower / over budget / below the sustain floor, \
                     2 bad usage or a baseline that cannot be compared";

enum Command {
    Scenes {
        record: bool,
        args: SceneArgs,
    },
    Server {
        record: bool,
        path: String,
        quick: bool,
    },
    Digest {
        quick: bool,
    },
}

struct SceneArgs {
    path: String,
    /// The default configuration with every `--config` applied (what
    /// `record` uses).
    run: RunConfig,
    /// The `--config` specs themselves: `compare` applies them on top of
    /// the baseline's recorded configuration instead.
    config: Vec<String>,
    /// `--steps`, or [`scenes::QUICK_STEPS`] under `--quick`.
    steps: Option<usize>,
    warmup: Option<usize>,
    scale: Option<f32>,
    quick: bool,
}

fn parse_args(flags: &mut Flags) -> Result<Command, String> {
    let gate = flags.next_flag();
    let mode = match gate.as_deref() {
        Some("scenes" | "server") => match flags.next_flag().as_deref() {
            Some("record") => Some(true),
            Some("compare") => Some(false),
            other => return Err(format!("expected record|compare, got {other:?}")),
        },
        Some("digest") => None,
        other => return Err(format!("expected scenes|server|digest, got {other:?}")),
    };
    let mut path = None;
    let mut quick = false;
    let mut run = RunConfig::default();
    let mut config = Vec::new();
    let (mut steps, mut warmup, mut scale) = (None, None, None);
    let scene_gate = gate.as_deref() == Some("scenes");
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--baseline" if mode.is_some() => path = Some(flags.value()?),
            "--steps" if scene_gate => steps = Some(flags.parse::<usize>()?.max(2)),
            "--warmup" if scene_gate => warmup = Some(flags.parse()?),
            "--scale" if scene_gate && mode == Some(true) => scale = Some(flags.parse()?),
            "--config" if scene_gate => {
                let spec = flags.value()?;
                run.apply(&spec).map_err(|e| format!("--config: {e}"))?;
                config.push(spec);
            }
            "--inject-delay" if scene_gate && mode == Some(false) => {
                let spec = flags.value()?;
                let (phase, delay) = spec
                    .split_once(':')
                    .and_then(|(phase, ns)| {
                        let ns = ns.trim().parse().ok()?;
                        Some((phase_by_name(phase.trim())?, Duration::from_nanos(ns)))
                    })
                    .ok_or_else(|| format!("--inject-delay: expected PHASE:NANOS, got {spec:?}"))?;
                set_injected_phase_delay(phase, delay);
            }
            _ => return Err(flags.unknown()),
        }
    }
    Ok(match (gate.as_deref(), mode) {
        (Some("scenes"), Some(record)) => {
            let args = SceneArgs {
                path: path.unwrap_or_else(|| Scenes::PATH.to_string()),
                run,
                config,
                steps: steps.or(quick.then_some(scenes::QUICK_STEPS)),
                warmup,
                scale,
                quick,
            };
            Command::Scenes { record, args }
        }
        (_, Some(record)) => Command::Server {
            record,
            path: path.unwrap_or_else(|| Fleet::PATH.to_string()),
            quick,
        },
        _ => Command::Digest { quick },
    })
}

fn main() {
    let command = parse_or_exit(&format!("{USAGE}\n{SPEC_USAGE}"), parse_args);
    let code = match command {
        Command::Scenes { record: true, args } => record_scenes(&args),
        Command::Scenes {
            record: false,
            args,
        } => compare_scenes(&args),
        Command::Server {
            record,
            path,
            quick,
        } => run_server(record, &path, quick),
        Command::Digest { quick } => run_digest(quick),
    };
    std::process::exit(code);
}

/// The baseline at `path`, or the refusal printed and `None`.
fn load<G: Gate>(path: &str) -> Option<Baseline<G>> {
    Baseline::load(path)
        .inspect_err(|e| eprintln!("error: {e}"))
        .ok()
}

/// Writes `baseline` to `path`: [`EXIT_PASS`], or the error printed and
/// [`EXIT_REFUSED`].
fn save<G: Gate>(baseline: &Baseline<G>, path: &str) -> i32 {
    match baseline.save(path) {
        Ok(()) => {
            println!("\nwrote baseline to {path}");
            EXIT_PASS
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_REFUSED
        }
    }
}

/// The reference speed of a run beside its baseline's.
fn print_speeds(base_probe_ns: f64, fresh_probe_ns: f64) {
    println!(
        "reference probe: {:.0} µs here, {:.0} µs when the baseline was recorded \
         (walls on both sides are stated at the reference speed)",
        fresh_probe_ns / 1e3,
        base_probe_ns / 1e3
    );
}

fn scene_medians(recording: &Scenes) -> Vec<Vec<String>> {
    recording
        .scenes
        .iter()
        .map(|sc| {
            let med = parallax_telemetry::median(&sc.step_totals()).unwrap_or(0.0);
            vec![
                sc.scene.clone(),
                sc.bodies.to_string(),
                format!("{:.3}", med / 1e6),
            ]
        })
        .collect()
}

fn record_scenes(args: &SceneArgs) -> i32 {
    let default = SceneConfig::default();
    let cfg = &SceneConfig {
        steps: args.steps.unwrap_or(default.steps),
        warmup: args.warmup.unwrap_or(default.warmup),
        scale: args.scale.unwrap_or(default.scale),
        run: args.run,
        scenes: default.scenes,
    };
    println!(
        "recording {} scene(s): {} steps (+{} warmup) @ scale {}, {}",
        cfg.scenes.len(),
        cfg.steps,
        cfg.warmup,
        cfg.scale,
        cfg.run
    );
    let baseline = scenes::record(cfg);
    print_table(
        "Recorded medians (reference speed)",
        &["Scene", "Bodies", "Step ms"],
        &scene_medians(&baseline.gate),
    );
    save(&baseline, &args.path)
}

fn compare_scenes(args: &SceneArgs) -> i32 {
    let Some(base) = load::<Scenes>(&args.path) else {
        return EXIT_REFUSED;
    };
    // The fresh run matches the baseline's workload and window start
    // exactly, so its steps are the baseline's first steps of the same
    // trajectory; how many, and an explicit --config, are the comparer's.
    let recorded = &base.gate.config;
    let mut run = recorded.run;
    for spec in &args.config {
        run.apply(spec).expect("validated by the flag parse");
    }
    let cfg = SceneConfig {
        steps: args.steps.unwrap_or(recorded.steps),
        warmup: args.warmup.unwrap_or(recorded.warmup),
        run,
        ..recorded.clone()
    };
    let threshold = if args.quick {
        scenes::QUICK_THRESHOLD
    } else {
        scenes::THRESHOLD
    };
    println!(
        "comparing against {} ({} scene(s), threshold +{:.0}%): {} steps (+{} warmup) \
         @ scale {}, {}",
        args.path,
        base.gate.scenes.len(),
        threshold * 100.0,
        cfg.steps,
        cfg.warmup,
        cfg.scale,
        cfg.run
    );
    // Same configuration: gate against the stored samples — comparing
    // with the past is the point. A changed one: both sides re-measured
    // interleaved within each scene, the baseline only contributing the
    // workload, so the verdicts measure the configuration change.
    let (base, fresh) = if run == recorded.run {
        let fresh = scenes::record(&cfg);
        (base, fresh)
    } else {
        println!(
            "A({}) vs B({run}): both re-measured interleaved; the verdicts measure the \
             configuration change, not a code change",
            recorded.run
        );
        let base_cfg = SceneConfig {
            run: recorded.run,
            ..cfg.clone()
        };
        scenes::record_sides([&base_cfg, &cfg]).into()
    };
    print_speeds(base.probe_ns, fresh.probe_ns);
    let rows = scenes::compare(&base.gate, &fresh.gate, threshold);
    report("Scene gate", &rows, threshold)
}

fn run_server(record: bool, path: &str, quick: bool) -> i32 {
    let base = if record {
        None
    } else {
        let Some(base) = load::<Fleet>(path) else {
            return EXIT_REFUSED;
        };
        Some(base)
    };
    // Compare measures the baseline's cells at its rate and floor; the
    // windows are the comparer's.
    let mut cfg = ServerConfig::default();
    if quick {
        cfg = cfg.quick();
    }
    if let Some(base) = &base {
        let recorded = &base.gate.config;
        cfg.cells = recorded.cells.clone();
        cfg.step_rate = recorded.step_rate;
        cfg.min_sustain = recorded.min_sustain;
    }
    let threshold = if quick {
        server::QUICK_THRESHOLD
    } else {
        server::THRESHOLD
    };
    println!(
        "{} {} cell(s) at {} Hz: warmup {} ms, measure {} ms, {} client(s)",
        if record { "recording" } else { "comparing" },
        cfg.cells.len(),
        cfg.step_rate,
        cfg.warmup_ms,
        cfg.measure_ms,
        cfg.clients
    );
    let fresh = server::record(&cfg);
    let mut code = match &base {
        None => save(&fresh, path),
        Some(base) => {
            print_speeds(base.probe_ns, fresh.probe_ns);
            let rows = server::compare(&base.gate, &fresh.gate, threshold);
            report("Server gate", &rows, threshold)
        }
    };
    for failure in fresh.gate.sustain_failures() {
        eprintln!("SUSTAIN FAILED: {failure}");
        code = code.max(EXIT_SLOWER);
    }
    code
}

fn run_digest(quick: bool) -> i32 {
    let sides = SceneConfig::digest_sides(quick);
    let (steps, warmup, scale) = (sides[1].steps, sides[1].warmup, sides[1].scale);
    // Body slots: everything a digest folds, dormant debris included.
    let bodies = sides[0]
        .run
        .build(sides[0].scenes[0], scale)
        .world
        .bodies()
        .len();
    let budget = scenes::DIGEST_BUDGET_NS_PER_BODY_STEP;
    println!(
        "digest overhead on Mix: {steps} steps (+{warmup} warmup), {bodies} body slots, \
         budget {budget:.0} ns per body-step at the reference speed"
    );
    for attempt in 1..=scenes::DIGEST_ATTEMPTS {
        let hashed_before = phase_bytes_hashed();
        let [off, on] = scenes::record_sides([&sides[0], &sides[1]]);
        // Only the on side hashes, warm-up steps included, in every pass.
        let stepped = scenes::RECORD_PASSES * (steps + warmup);
        let hashed = (phase_bytes_hashed() - hashed_before) as f64 / stepped as f64;
        let (off, on) = (&off.gate.scenes[0], &on.gate.scenes[0]);
        let Some(cost) = paired_step_cost(off, on) else {
            eprintln!("error: the paired recording produced no samples");
            return EXIT_REFUSED;
        };
        let step = parallax_telemetry::median(&off.step_totals()).unwrap_or(1.0);
        let per_body = |ns: f64| ns / bodies as f64;
        println!(
            "  cost {:+.1} µs/step, CI [{:+.1}, {:+.1}]: {:.1}% of a {:.2} ms step, \
             {:.3} ns per hashed byte ({hashed:.0} B/step)",
            cost.median_ns / 1e3,
            cost.ci_ns.0 / 1e3,
            cost.ci_ns.1 / 1e3,
            100.0 * cost.median_ns / step,
            step / 1e6,
            cost.median_ns / hashed.max(1.0),
        );
        let verdict = format!(
            "{:.0} ns per body-step (CI [{:.0}, {:.0}])",
            per_body(cost.median_ns),
            per_body(cost.ci_ns.0),
            per_body(cost.ci_ns.1),
        );
        if !cost.over_digest_budget(bodies) {
            println!("digest gate passed: within budget: {verdict}");
            return EXIT_PASS;
        }
        println!(
            "digest: recording {attempt} of {} over budget: {verdict}, entirely above \
             {budget:.0}",
            scenes::DIGEST_ATTEMPTS
        );
    }
    eprintln!("digest gate FAILED: over budget in every recording");
    EXIT_SLOWER
}
