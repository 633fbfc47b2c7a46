//! Regenerates the tables and figures of the paper's evaluation, all in
//! this process so the experiments share their scene captures.
//!
//! ```text
//! cargo run --release -p parallax-bench --bin experiments -- list
//! cargo run --release -p parallax-bench --bin experiments -- all
//! cargo run --release -p parallax-bench --bin experiments -- --scale 0.1 fig2a_breakdown fig6a_breakdown4
//! ```
//!
//! `--scale F` (default 1.0) scales the scenes, `--frames N` (default 3,
//! at least 1) sets the measured window, `--telemetry PATH` records every
//! measured step. The engine always runs under `RunConfig::default()`;
//! the first line of a run says which configuration that is on this host.

use parallax_bench::cli::{parse_or_exit, Flags};
use parallax_bench::experiments::{find, Experiment, EXPERIMENTS};
use parallax_bench::{open_telemetry_sink, Ctx};
use parallax_workloads::RunConfig;

struct Args {
    ctx: Ctx,
    telemetry: Option<String>,
    /// `None` for `list`.
    selected: Option<Vec<&'static Experiment>>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut ctx = Ctx::default();
    let mut telemetry = None;
    let mut names = Vec::new();
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--scale" => ctx.scale = flags.parse()?,
            "--frames" => ctx.measure_frames = flags.parse::<usize>()?.max(1),
            "--telemetry" => telemetry = Some(flags.value()?),
            flag if flag.starts_with("--") => return Err(flags.unknown()),
            _ => names.push(arg),
        }
    }
    let selected = match names.as_slice() {
        [] => return Err("expected list, all or experiment names".into()),
        [list] if list == "list" => None,
        [all] if all == "all" => Some(EXPERIMENTS.iter().collect()),
        names => Some(
            names
                .iter()
                .map(|n| find(n).ok_or_else(|| format!("unknown experiment {n:?}")))
                .collect::<Result<_, _>>()?,
        ),
    };
    Ok(Args {
        ctx,
        telemetry,
        selected,
    })
}

fn main() {
    let mut usage = String::from(
        "usage: experiments [--scale F] [--frames N] [--telemetry PATH] list | all | <name>...\n\
         experiments:",
    );
    for e in EXPERIMENTS {
        usage.push_str("\n  ");
        usage.push_str(e.name);
    }
    let args = parse_or_exit(&usage, parse_args);
    let Some(selected) = args.selected else {
        for e in EXPERIMENTS {
            println!("{:<24}{}", e.name, e.title);
        }
        return;
    };
    if let Some(path) = &args.telemetry {
        open_telemetry_sink(path);
    }
    let ctx = args.ctx;

    println!(
        "experiments: scale {}, {} measured frame(s), engine {}",
        ctx.scale,
        ctx.measure_frames,
        RunConfig::default()
    );
    for e in &selected {
        if selected.len() > 1 {
            println!("\n##### {} #####", e.name);
        }
        (e.run)(&ctx);
    }
    if selected.len() > 1 {
        println!("\nAll experiments completed.");
    }
}
