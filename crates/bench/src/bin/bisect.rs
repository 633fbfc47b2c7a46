//! Divergence bisector CLI: runs one scene under two configurations and
//! localizes the first bit-level divergence to a step, phase, body range
//! and SoA lane in `O(log steps)` snapshot-restart re-runs.
//!
//! ```text
//! bisect --scene Mix --steps 200 --scale 0.25 \
//!        --a threads=1,simd=scalar --b threads=8,simd=avx2
//! ```
//!
//! `--a broadphase=sap --b broadphase=grid` holds the persistent grid to
//! the history-free sweep-and-prune rebuild; it must report no divergence.
//!
//! Exit status: 0 when the sides are bit-identical, 3 when a divergence
//! was found (the report line starts with `divergence:`), 2 on usage
//! errors. `--fault STEP:PHASE` (or `PARALLAX_DIGEST_FAULT`) injects a
//! single-ULP perturbation into side B at exactly that step and phase —
//! the self-test the acceptance suite uses.

use parallax_bench::bisect::{bisect, BisectConfig, BisectOutcome, SideSpec};
use parallax_bench::{benchmark_by_name, scene_names};
use parallax_physics::DigestFault;

fn parse_args() -> Result<BisectConfig, String> {
    let mut cfg = BisectConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--scene" => {
                let name = value_of("--scene")?;
                cfg.scene = benchmark_by_name(&name).ok_or_else(|| {
                    format!("unknown scene {name:?}; valid scenes: {}", scene_names())
                })?;
            }
            "--steps" => {
                cfg.steps = value_of("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
                if cfg.steps == 0 {
                    return Err("--steps must be at least 1".into());
                }
            }
            "--scale" => {
                cfg.scale = value_of("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
            }
            "--chunk" => {
                cfg.chunk = value_of("--chunk")?
                    .parse()
                    .map_err(|e| format!("--chunk: {e}"))?;
            }
            "--a" => cfg.a = SideSpec::parse(&value_of("--a")?).map_err(|e| format!("--a: {e}"))?,
            "--b" => cfg.b = SideSpec::parse(&value_of("--b")?).map_err(|e| format!("--b: {e}"))?,
            "--fault" => {
                cfg.fault = Some(
                    DigestFault::parse(&value_of("--fault")?)
                        .map_err(|e| format!("--fault: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.fault.is_none() {
        if let Ok(spec) = std::env::var("PARALLAX_DIGEST_FAULT") {
            cfg.fault =
                Some(DigestFault::parse(&spec).map_err(|e| format!("PARALLAX_DIGEST_FAULT: {e}"))?);
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bisect [--scene NAME] [--steps N] [--scale F] [--chunk N] \
                 [--a threads=N,simd=MODE,sleep=on|off,broadphase=grid|sap] \
                 [--b threads=N,simd=MODE,sleep=on|off,broadphase=grid|sap] \
                 [--fault STEP:PHASE]"
            );
            std::process::exit(2);
        }
    };

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
