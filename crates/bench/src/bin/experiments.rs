//! Regenerates the tables and figures of the paper's evaluation, all in
//! this process so the experiments share their scene captures.
//!
//! ```text
//! cargo run --release -p parallax-bench --bin experiments -- list
//! cargo run --release -p parallax-bench --bin experiments -- all
//! cargo run --release -p parallax-bench --bin experiments -- fig2a_breakdown fig6a_breakdown4
//! ```
//!
//! Inputs: `PARALLAX_SCALE`, `PARALLAX_FRAMES`, `--telemetry <path>`.

use parallax_bench::experiments::{find, Experiment, EXPERIMENTS};
use parallax_bench::Ctx;

fn usage() -> ! {
    eprintln!("usage: experiments list | all | <name>... [--telemetry <path>]");
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {}", e.name);
    }
    std::process::exit(2);
}

fn main() {
    // `--telemetry` is read off the command line by `telemetry_sink`.
    let mut args = std::env::args().skip(1);
    let mut names = Vec::new();
    while let Some(a) = args.next() {
        if a == "--telemetry" {
            args.next();
        } else if !a.starts_with("--telemetry=") {
            names.push(a);
        }
    }

    let selected: Vec<&Experiment> = match names.as_slice() {
        [] => usage(),
        [list] if list == "list" => {
            for e in EXPERIMENTS {
                println!("{:<24}{}", e.name, e.title);
            }
            return;
        }
        [all] if all == "all" => EXPERIMENTS.iter().collect(),
        names => names
            .iter()
            .map(|n| {
                find(n).unwrap_or_else(|| {
                    eprintln!("error: unknown experiment {n:?}");
                    usage()
                })
            })
            .collect(),
    };

    let ctx = Ctx::from_env();
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
