//! The performance regression gate.
//!
//! ```text
//! bench_gate record  [--out BENCH_scenes.json] [--steps N] [--warmup N]
//!                    [--scale F] [--config SPEC] [--quick]
//! bench_gate compare [--baseline BENCH_scenes.json] [--threshold F]
//!                    [--steps N] [--warmup N] [--config SPEC] [--quick]
//!                    [--allow-missing-baseline] [--inject-delay PHASE:NANOS]
//! ```
//!
//! `record` steps every paper scene for a fixed window and writes the
//! raw per-phase wall-time samples (plus telemetry counter deltas) to a
//! schema-versioned JSON baseline. `compare` re-runs the same scenes at
//! the baseline's scale/threads and exits nonzero when any scene×phase
//! is statistically significantly slower than the baseline beyond the
//! threshold — "significantly" meaning the entire bootstrap confidence
//! interval of the relative median change clears it, so one noisy step
//! on a busy host cannot fail CI.
//!
//! `--quick` is the CI smoke shape: 10 steps and a +100% threshold, so
//! it only trips on catastrophic slowdowns but still exercises the full
//! record → parse → compare → verdict path on every run.
//!
//! `--config SPEC` is a `RunConfig` spec (README, "Run configuration").
//! `record` applies it on top of the default configuration and stores
//! the result in the envelope. `compare` runs at the baseline's recorded
//! configuration; a `--config` that changes it turns the gate into an
//! A/B of the two configurations, both re-measured interleaved — which is
//! how the SIMD, sleeping, warm-start, digest, thread and broad-phase
//! effects are measured. `--inject-delay` plants a slowdown in one phase
//! (the gate's own acceptance test).

use std::time::Duration;

use parallax_bench::cli::{parse_or_exit, Flags, SPEC_USAGE};
use parallax_bench::harness::{
    compare_baselines, record, record_sides, Baseline, GateConfig, PhaseComparison,
};
use parallax_bench::print_table;
use parallax_physics::digest::phase_by_name;
use parallax_physics::{set_injected_phase_delay, PhaseKind};

struct Args {
    mode: Mode,
    path: String,
    /// Window, scale and threshold as asked for; `run` is the default
    /// configuration with every `--config` applied (what `record` uses).
    cfg: GateConfig,
    /// The `--config` specs themselves: `compare` applies them on top of
    /// the baseline's recorded configuration instead.
    config: Vec<String>,
    threshold: Option<f64>,
    quick: bool,
    allow_missing: bool,
    inject_delay: Option<(PhaseKind, Duration)>,
}

#[derive(PartialEq)]
enum Mode {
    Record,
    Compare,
}

const USAGE: &str = "usage: bench_gate record  [--out PATH] [--steps N] [--warmup N] \
                     [--scale F] [--config SPEC] [--quick]\n\
                     \x20      bench_gate compare [--baseline PATH] [--threshold F] \
                     [--steps N] [--warmup N] [--config SPEC] [--quick] \
                     [--allow-missing-baseline] [--inject-delay PHASE:NANOS]\n\
                     compare runs at the baseline's recorded configuration; a --config \
                     that changes it measures A (recorded) against B (changed) instead";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mode = match flags.next_flag().as_deref() {
        Some("record") => Mode::Record,
        Some("compare") => Mode::Compare,
        other => return Err(format!("expected subcommand record|compare, got {other:?}")),
    };
    let mut args = Args {
        path: "BENCH_scenes.json".to_string(),
        mode,
        cfg: GateConfig::default(),
        config: Vec::new(),
        threshold: None,
        quick: false,
        allow_missing: false,
        inject_delay: None,
    };
    let mut steps: Option<usize> = None;
    let mut warmup = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--out" | "--baseline" => args.path = flags.value()?,
            "--steps" => steps = Some(flags.parse()?),
            "--warmup" => warmup = Some(flags.parse()?),
            "--scale" => args.cfg.scale = flags.parse()?,
            "--config" => {
                let spec = flags.value()?;
                args.cfg
                    .run
                    .apply(&spec)
                    .map_err(|e| format!("--config: {e}"))?;
                args.config.push(spec);
            }
            "--threshold" => args.threshold = Some(flags.parse()?),
            "--quick" => args.quick = true,
            "--allow-missing-baseline" => args.allow_missing = true,
            "--inject-delay" => {
                let spec = flags.value()?;
                let delay = spec.split_once(':').and_then(|(phase, ns)| {
                    let ns = ns.trim().parse().ok()?;
                    Some((phase_by_name(phase.trim())?, Duration::from_nanos(ns)))
                });
                args.inject_delay = Some(delay.ok_or_else(|| {
                    format!("--inject-delay: expected PHASE:NANOS, got {spec:?}")
                })?);
            }
            _ => return Err(flags.unknown()),
        }
    }
    if let Some(t) = args.threshold {
        args.cfg.threshold = t;
    }
    if args.quick {
        args.cfg = args.cfg.clone().quick();
    }
    if let Some(s) = steps {
        args.cfg.steps = s.max(2);
    }
    if let Some(w) = warmup {
        args.cfg.warmup = w;
    }
    Ok(args)
}

fn main() {
    let args = parse_or_exit(&format!("{USAGE}\n{SPEC_USAGE}"), parse_args);
    if let Some((phase, delay)) = args.inject_delay {
        set_injected_phase_delay(phase, delay);
    }
    match args.mode {
        Mode::Record => run_record(&args),
        Mode::Compare => run_compare(&args),
    }
}

fn run_record(args: &Args) {
    let cfg = &args.cfg;
    println!(
        "recording {} scene(s): {} steps (+{} warmup) @ scale {}, {}",
        cfg.scenes.len(),
        cfg.steps,
        cfg.warmup,
        cfg.scale,
        cfg.run
    );
    let baseline = record(cfg);
    let rows: Vec<Vec<String>> = baseline
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
        .collect();
    print_table("Recorded medians", &["Scene", "Bodies", "Step ms"], &rows);
    if let Err(e) = std::fs::write(&args.path, baseline.to_json()) {
        eprintln!("error: cannot write {}: {e}", args.path);
        std::process::exit(1);
    }
    println!("\nwrote baseline to {}", args.path);
}

fn run_compare(args: &Args) {
    let src = match std::fs::read_to_string(&args.path) {
        Ok(s) => s,
        Err(e) if args.allow_missing => {
            eprintln!(
                "warning: no baseline at {} ({e}); nothing to gate against, passing. \
                 Record one with `bench_gate record --out {}`.",
                args.path, args.path
            );
            return;
        }
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", args.path);
            std::process::exit(2);
        }
    };
    let base = match Baseline::from_json(&src) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {}: {e}", args.path);
            std::process::exit(2);
        }
    };
    base.fingerprint.warn_unless_current();

    // The fresh run matches the baseline's workload exactly; the sample
    // count, the threshold and an explicit --config are the comparer's.
    let mut run = base.config.run;
    for spec in &args.config {
        run.apply(spec).expect("validated by the flag parse");
    }
    let cfg = GateConfig {
        scale: base.config.scale,
        run,
        scenes: base.config.scenes.clone(),
        ..args.cfg.clone()
    };
    let threshold = if args.threshold.is_some() || args.quick {
        args.cfg.threshold
    } else {
        base.config.threshold
    };
    println!(
        "comparing against {} ({} scene(s), threshold +{:.0}%): {} steps (+{} warmup) \
         @ scale {}, {}",
        args.path,
        base.scenes.len(),
        threshold * 100.0,
        cfg.steps,
        cfg.warmup,
        cfg.scale,
        cfg.run
    );
    // Same configuration: gate against the stored samples — comparing
    // with the past is the point. A changed one: the stored samples were
    // taken minutes to months ago, and host drift since then easily
    // exceeds a configuration's effect, so both sides are re-measured
    // interleaved within each scene and the baseline only contributes the
    // workload.
    let (base, fresh) = if run == base.config.run {
        (base, record(&cfg))
    } else {
        println!(
            "A({}) vs B({run}): both re-measured interleaved; the verdicts measure the \
             configuration change, not a code change",
            base.config.run
        );
        let base_cfg = GateConfig {
            run: base.config.run,
            ..cfg.clone()
        };
        record_sides([&base_cfg, &cfg]).into()
    };
    let rows = compare_baselines(&base, &fresh, threshold);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scene.clone(),
                r.phase.to_string(),
                format!("{:.3}", r.cmp.base_median / 1e6),
                format!("{:.3}", r.cmp.cand_median / 1e6),
                format!("{:+.0}%", r.cmp.rel_change * 100.0),
                format!("[{:+.0}%, {:+.0}%]", r.cmp.ci.0 * 100.0, r.cmp.ci.1 * 100.0),
                r.cmp.verdict.label().to_string(),
            ]
        })
        .collect();
    print_table(
        "Scene gate",
        &[
            "Scene", "Phase", "Base ms", "Now ms", "Change", "95% CI", "Verdict",
        ],
        &table,
    );

    let regressions: Vec<&PhaseComparison> = rows.iter().filter(|r| r.is_regression()).collect();
    if regressions.is_empty() {
        println!(
            "\ngate passed: no scene/phase slower than baseline beyond +{:.0}%",
            threshold * 100.0
        );
        return;
    }
    for r in &regressions {
        eprintln!(
            "REGRESSION: {} / {}: median {:.3} ms -> {:.3} ms ({:+.0}%, 95% CI \
             [{:+.0}%, {:+.0}%] beyond +{:.0}%)",
            r.scene,
            r.phase,
            r.cmp.base_median / 1e6,
            r.cmp.cand_median / 1e6,
            r.cmp.rel_change * 100.0,
            r.cmp.ci.0 * 100.0,
            r.cmp.ci.1 * 100.0,
            threshold * 100.0
        );
    }
    eprintln!(
        "\ngate FAILED: {} regression(s) across {} scene/phase pair(s)",
        regressions.len(),
        rows.len()
    );
    std::process::exit(1);
}
