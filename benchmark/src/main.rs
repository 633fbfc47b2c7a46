//! `parallax-benchmark --workload W --seed S --seconds T --trace 0|1`
//!
//! Runs one workload, prints every declared metric as `name value unit`,
//! writes `benchmark/results/<workload>[.traced].json` (and
//! `<workload>.trace.json` when traced), and ends its standard output
//! with the one-line JSON object the benchmark contract asks for. Exits
//! nonzero when an output check failed or a declared metric is missing
//! or not finite.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use parallax_benchmark::report::{self, Fingerprint};
use parallax_benchmark::spec::Spec;
use parallax_benchmark::{run_workload, spans, RunOpts, Workload};

const USAGE: &str = "usage: parallax-benchmark --workload <name> [--seed N] [--seconds T] \
                     [--trace 0|1] [--serve-bin PATH] [--results DIR]";

struct Args {
    workload: Workload,
    opts: RunOpts,
    results: PathBuf,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: spec.run_seconds as f64,
        traced: false,
        size_div: 1,
        serve_bin: std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("serve")))
            .unwrap_or_else(|| PathBuf::from("serve")),
    };
    let mut results = PathBuf::from("benchmark/results");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list-workloads" {
            println!("{}", spec.workloads.join("\n"));
            std::process::exit(0);
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    format!("unknown workload {name:?}; declared: {:?}", spec.workloads)
                })?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--serve-bin" => opts.serve_bin = PathBuf::from(value()?),
            "--results" => results = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        opts,
        results,
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    // The configuration is pinned in code; no PARALLAX_* variable may
    // reach the engine defaults (`SimdMode::resolve`, sleeping, digests).
    // Nothing else is running yet, so editing the environment is safe.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PARALLAX_") {
            std::env::remove_var(name);
        }
    }
    let spec = Spec::load()?;
    let Args {
        workload,
        opts,
        results,
    } = parse_args(&spec)?;
    let (outcome, recorders) = run_workload(workload, &opts)?;

    let values = report::declared_values(&outcome, spec.metrics(opts.traced), opts.traced)?;
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let stem = if opts.traced {
        format!("{}.traced", workload.name())
    } else {
        workload.name().to_string()
    };
    let fingerprint = Fingerprint::collect(opts.seed);
    write(
        &results.join(format!("{stem}.json")),
        &report::result_file(
            workload.name(),
            opts.traced,
            opts.seconds,
            &fingerprint,
            &outcome,
            correct,
            &values,
        ),
    )?;
    if opts.traced {
        write(
            &results.join(format!("{}.trace.json", workload.name())),
            &spans::chrome_trace(&recorders),
        )?;
    }

    println!(
        "# {} seed={} seconds={} trace={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    for (decl, value) in &values {
        println!("{} {} {}", decl.name, value, decl.unit);
    }
    for problem in &outcome.problems {
        eprintln!("FAILED: {problem}");
    }
    println!("{}", report::final_line(&outcome, correct, &values));
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("parallax-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
