//! Steps a single benchmark scene, optionally writing a per-step
//! telemetry JSONL stream (one [`parallax_telemetry::StepRecord`] per
//! step, covering physics, trace and archsim metric deltas plus the
//! executor span tracks).
//!
//! ```text
//! run_scene --scene Mix --steps 60 --scale 0.5 --config threads=4 --telemetry out.jsonl
//! ```
//!
//! `--config SPEC` is a `RunConfig` spec (README, "Run configuration"):
//! threads, SIMD width, sleeping, warm starting, digests, broad phase.
//!
//! Render the output with `telemetry_report out.jsonl` or convert it to
//! a Perfetto-loadable Chrome trace with
//! `telemetry_report out.jsonl --chrome trace.json`.
//!
//! With `--serve <addr>` the live telemetry plane (`parallax-observe`)
//! is attached: `/metrics`, `/trace`, `/steps`, `/health` and
//! `/blackbox` answer while the scene steps. `--serve` implies
//! `--monitor` (so `/health` has a verdict), and `--steps 0` then means
//! "step until killed" — the long-running mode `scripts/verify.sh` and
//! manual `curl` poking use.
//!
//! With `--monitor` (or `--serve`) a flight recorder runs alongside:
//! per-phase state digests are computed every step and retained in a
//! ring. On the first invariant violation — or a `GET /blackbox` — a
//! black box (world snapshot + digest ring + step-record tail) is dumped
//! under `--blackbox-dir` (default `blackbox/`) and its path printed.

use std::collections::VecDeque;
use std::path::PathBuf;

use parallax_bench::cli::{parse_or_exit, Flags, SPEC_USAGE};
use parallax_bench::{
    build_step_record, open_telemetry_sink, sink_step_record, telemetry_baseline, telemetry_sink,
};
use parallax_observe::{FlightEntry, FlightRing};
use parallax_physics::InvariantMonitor;
use parallax_telemetry::StepRecord;
use parallax_workloads::{BenchmarkId, RunConfig, Scene};

/// Flight-recorder depth: steps of digests retained for a black box.
const FLIGHT_STEPS: usize = 256;

/// Step records retained alongside (heavier than digests, so fewer).
const RECORD_TAIL: usize = 64;

struct Args {
    scene: BenchmarkId,
    steps: u64,
    scale: f32,
    run: RunConfig,
    monitor: bool,
    telemetry: Option<String>,
    serve: Option<String>,
    blackbox_dir: PathBuf,
}

const USAGE: &str = "usage: run_scene [--scene NAME] [--steps N] [--scale F] [--config SPEC] \
                     [--monitor] [--telemetry PATH] [--serve ADDR] [--blackbox-dir PATH]";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        scene: BenchmarkId::Mix,
        steps: 30,
        scale: 0.25,
        run: RunConfig::default(),
        monitor: false,
        telemetry: None,
        serve: None,
        blackbox_dir: PathBuf::from("blackbox"),
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scene" => args.scene = flags.scene()?,
            "--steps" => args.steps = flags.parse()?,
            "--scale" => args.scale = flags.parse()?,
            "--config" => flags.config(&mut args.run)?,
            "--monitor" => args.monitor = true,
            "--serve" => {
                args.serve = Some(flags.value()?);
                args.monitor = true; // /health needs the invariant verdict
            }
            "--blackbox-dir" => args.blackbox_dir = PathBuf::from(flags.value()?),
            "--telemetry" => args.telemetry = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
}

/// One flight-recorder entry from a step's profile: the per-phase
/// digests plus the non-zero discrete event counts.
fn flight_entry(step: u64, profile: &parallax_physics::StepProfile) -> FlightEntry {
    let mut events = Vec::new();
    let e = &profile.events;
    for (name, count) in [
        ("explosions", e.explosions),
        ("joints_broken", e.joints_broken),
        ("shattered", e.shattered),
        ("blasts_expired", e.blasts_expired),
    ] {
        if count > 0 {
            events.push((name.to_string(), count as u64));
        }
    }
    FlightEntry {
        step,
        digests: profile.digests.unwrap_or_default(),
        events,
    }
}

/// Dumps a black box (snapshot + digest ring + step-record tail) to
/// `<blackbox-dir>/<scene>-<step>/` and prints the path.
fn dump_box(
    args: &Args,
    scene: &Scene,
    flight: &Option<FlightRing>,
    record_tail: &VecDeque<StepRecord>,
    step: u64,
) {
    let Some(ring) = flight else {
        return;
    };
    let dir = args
        .blackbox_dir
        .join(format!("{}-{}", args.scene.name(), step));
    let records: Vec<StepRecord> = record_tail.iter().cloned().collect();
    match parallax_observe::dump_blackbox(&dir, &scene.world.snapshot(), &ring.entries(), &records)
    {
        Ok(path) => println!("black box dumped to {}", path.display()),
        Err(e) => eprintln!("error: black box dump to {} failed: {e}", dir.display()),
    }
}

fn main() {
    let args = parse_or_exit(&format!("{USAGE}\n{SPEC_USAGE}"), parse_args);
    if let Some(path) = &args.telemetry {
        open_telemetry_sink(path);
    }
    let recording = telemetry_sink().is_some();
    // Keep telemetry live for the solver-residual summary even without a
    // sink; the registry is cheap and the deltas below stay process-local.
    parallax_telemetry::set_enabled(true);
    // The flight recorder rides with the invariant monitor (and thus with
    // --serve): per-phase digests on, a ring of them retained, a black
    // box dumped on the first violation or a /blackbox request.
    let flight_on = args.monitor;
    let run = RunConfig {
        digest: args.run.digest || flight_on,
        ..args.run
    };
    println!(
        "run_scene: {} @ scale {}, {run}",
        args.scene.name(),
        args.scale
    );
    let mut scene = run.build(args.scene, args.scale);

    let observe = args.serve.as_deref().map(|addr| {
        match parallax_observe::serve(addr) {
            Ok(obs) => {
                // The bound address line is machine-read (verify.sh
                // resolves the ephemeral port from it) — keep the shape.
                println!("serving telemetry on http://{}/metrics", obs.addr());
                use std::io::Write as _;
                std::io::stdout().flush().ok();
                obs
            }
            Err(e) => {
                eprintln!("error: cannot serve on {addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    // With a live exporter, --steps 0 means "step until killed".
    let forever = observe.is_some() && args.steps == 0;

    let mut baseline = telemetry_baseline();
    let mut monitor = args.monitor.then(InvariantMonitor::default);
    let mut flight = flight_on.then(|| FlightRing::new(FLIGHT_STEPS));
    let mut record_tail: VecDeque<StepRecord> = VecDeque::with_capacity(RECORD_TAIL);
    let mut blackbox_dumped = false;
    let mut last = None;
    let mut steps_run: u64 = 0;
    while forever || steps_run < args.steps {
        let step = steps_run;
        let profile = scene.step();
        if let Some(ring) = &mut flight {
            ring.push(flight_entry(step, &profile));
        }
        if recording || observe.is_some() || flight.is_some() {
            scene.world.publish_heap_bytes();
            let record = build_step_record(
                "physics",
                args.scene.name(),
                step,
                Some(&profile),
                &mut baseline,
            );
            if let Some(obs) = &observe {
                obs.record_step(record.clone());
            }
            if recording {
                sink_step_record(&record);
            }
            if flight.is_some() {
                if record_tail.len() == RECORD_TAIL {
                    record_tail.pop_front();
                }
                record_tail.push_back(record);
            }
        }
        let mut violated = false;
        if let Some(mon) = &mut monitor {
            for v in mon.check_step(&scene.world, &profile) {
                eprintln!("violation at step {step}: {v}");
                violated = true;
            }
        }
        if violated && !blackbox_dumped {
            blackbox_dumped = true;
            dump_box(&args, &scene, &flight, &record_tail, step);
        }
        if let Some(obs) = &observe {
            if obs.take_blackbox_request() {
                dump_box(&args, &scene, &flight, &record_tail, step);
            }
        }
        last = Some(profile);
        steps_run += 1;
    }

    let Some(profile) = last else {
        println!("{}: 0 steps", args.scene.name());
        return;
    };
    let total: f64 = profile.wall.iter().map(|d| d.as_secs_f64()).sum();
    println!(
        "{}: {} steps, {} bodies, {} geoms, last step {:.3} ms{}",
        args.scene.name(),
        steps_run,
        profile.body_count,
        profile.geom_count,
        total * 1e3,
        if recording {
            " (telemetry recorded)"
        } else {
            ""
        }
    );
    let snap = parallax_telemetry::snapshot();
    if let Some(residual) = snap.histogram("physics.solver_residual_milli") {
        println!(
            "solver residual (milli-units/island): median<= {} mean {:.1} over {} islands, \
             warm starting {} ({} hits / {} misses)",
            residual.quantile_upper_bound(0.5).unwrap_or(0),
            residual.mean(),
            residual.count(),
            if run.warm { "on" } else { "off" },
            snap.counter("physics.solver.warm_hits"),
            snap.counter("physics.solver.warm_misses"),
        );
    }
    if let Some(mon) = &monitor {
        println!(
            "monitor: {} step(s) checked, {} violation(s)",
            mon.checked_steps(),
            mon.violations_total()
        );
        if mon.violations_total() > 0 {
            std::process::exit(1);
        }
    }
}
