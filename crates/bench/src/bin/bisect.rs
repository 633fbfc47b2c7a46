//! Divergence bisector CLI: runs one scene under two configurations and
//! localizes the first bit-level divergence to a step, phase, body range
//! and SoA lane in `O(log steps)` snapshot-restart re-runs.
//!
//! ```text
//! bisect --scene Mix --steps 200 --scale 0.25 \
//!        --a threads=1,simd=scalar --b threads=8,simd=avx2
//! ```
//!
//! Exit status: 0 when the sides are bit-identical, 3 when a divergence
//! was found (the report line starts with `divergence:`), 2 on usage
//! errors. `--a` and `--b` are `RunConfig` specs (README, "Run
//! configuration"). `--fault STEP:PHASE` injects a single-ULP
//! perturbation into side B at exactly that step and phase — the
//! self-test the acceptance suite uses.

use parallax_bench::bisect::{bisect, BisectConfig, BisectOutcome};
use parallax_bench::cli::{parse_or_exit, Flags, SPEC_USAGE};
use parallax_physics::DigestFault;

const USAGE: &str = "usage: bisect [--scene NAME] [--steps N] [--scale F] [--chunk N] \
                     [--a SPEC] [--b SPEC] [--fault STEP:PHASE]";

fn parse_args(flags: &mut Flags) -> Result<BisectConfig, String> {
    let mut cfg = BisectConfig::default();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scene" => cfg.scene = flags.scene()?,
            "--steps" => cfg.steps = flags.parse()?,
            "--scale" => cfg.scale = flags.parse()?,
            "--chunk" => cfg.chunk = flags.parse()?,
            "--a" => flags.config(&mut cfg.a)?,
            "--b" => flags.config(&mut cfg.b)?,
            "--fault" => {
                cfg.fault =
                    Some(DigestFault::parse(&flags.value()?).map_err(|e| format!("--fault: {e}"))?)
            }
            _ => return Err(flags.unknown()),
        }
    }
    // Either would only be noticed after the whole scan: a zero horizon
    // compares nothing, a zero chunk panics in the localization.
    if cfg.steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    if cfg.chunk == 0 {
        return Err("--chunk must be at least 1".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = parse_or_exit(&format!("{USAGE}\n{SPEC_USAGE}"), parse_args);

    println!(
        "bisect: {} for {} steps @ scale {}: A({}) vs B({}){}",
        cfg.scene.name(),
        cfg.steps,
        cfg.scale,
        cfg.a,
        cfg.b,
        match cfg.fault {
            Some(f) => format!(" with fault injected at step {} {}", f.step, f.phase.name()),
            None => String::new(),
        }
    );

    match bisect(&cfg, &mut |line| eprintln!("  {line}")) {
        BisectOutcome::Clean { steps, runs } => {
            println!("no divergence: {steps} steps bit-identical ({runs} full run)");
        }
        BisectOutcome::Diverged(report) => {
            println!("{}", report.summary());
            println!(
                "localized in {} run segments (horizon {} steps)",
                report.runs, cfg.steps
            );
            std::process::exit(3);
        }
    }
}
