//! Renders a telemetry JSONL stream (written by the figure binaries or
//! `run_scene` via `--telemetry <path>`) as the paper's Fig-2a-style
//! per-phase breakdown table, plus counters, histograms and executor
//! worker utilization.
//!
//! ```text
//! telemetry_report out.jsonl                  # text report
//! telemetry_report out.jsonl --chrome t.json  # + Perfetto/chrome trace
//! telemetry_report out.jsonl --check-phases   # smoke-test validation
//! telemetry_report out.jsonl --critical-path  # Amdahl attribution table
//! ```
//!
//! `--check-phases` exits nonzero unless every physics step record
//! carries all five pipeline phases with a positive total and the world's
//! `physics.heap_bytes.*` gauges, whose components sum to their total,
//! and some record carries the stepping thread's scratch bytes — the
//! tier-1 smoke test in `scripts/verify.sh` relies on this.

use parallax_bench::cli::{parse_or_exit, Flags};
use parallax_physics::PhaseKind;
use parallax_telemetry::report::heap_bytes;
use parallax_telemetry::{chrome_trace, read_jsonl, render_critical_path, report, StepRecord};

fn check_phases(records: &[StepRecord]) -> Result<(), String> {
    let physics: Vec<&StepRecord> = records.iter().filter(|r| r.source == "physics").collect();
    if physics.is_empty() {
        return Err("no physics step records in file".to_string());
    }
    for r in &physics {
        for phase in PhaseKind::ALL {
            if !r.wall_ns.iter().any(|(name, _)| name == phase.name()) {
                return Err(format!(
                    "step {} of {:?} is missing phase {:?}",
                    r.step,
                    r.scene,
                    phase.name()
                ));
            }
        }
        if r.wall_total_ns() == 0 {
            return Err(format!(
                "step {} of {:?} has zero total wall time",
                r.step, r.scene
            ));
        }
        let Some(heap) = heap_bytes(r) else {
            return Err(format!(
                "step {} of {:?} carries no physics.heap_bytes gauges",
                r.step, r.scene
            ));
        };
        let sum: u64 = heap.components.iter().map(|&(_, b)| b).sum();
        if sum != heap.total {
            return Err(format!(
                "step {} of {:?}: the heap components sum to {sum} bytes, the total says {}",
                r.step, r.scene, heap.total
            ));
        }
    }
    if !(physics.iter()).any(|r| heap_bytes(r).is_some_and(|heap| heap.thread_scratch > 0)) {
        return Err("no record carries the thread's scratch bytes".to_string());
    }
    println!(
        "ok: {} physics record(s), all {} phases and the heap gauges present",
        physics.len(),
        PhaseKind::ALL.len()
    );
    Ok(())
}

struct Args {
    input: String,
    chrome_out: Option<String>,
    check: bool,
    critical_path: bool,
}

const USAGE: &str =
    "usage: telemetry_report <file.jsonl> [--chrome OUT] [--check-phases] [--critical-path]";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let (mut input, mut chrome_out, mut check, mut critical_path) = (None, None, false, false);
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--chrome" => chrome_out = Some(flags.value()?),
            "--check-phases" => check = true,
            "--critical-path" => critical_path = true,
            flag if flag.starts_with("--") => return Err(flags.unknown()),
            _ => input = Some(arg),
        }
    }
    Ok(Args {
        input: input.ok_or("expected a JSONL file")?,
        chrome_out,
        check,
        critical_path,
    })
}

fn main() {
    let Args {
        input,
        chrome_out,
        check,
        critical_path,
    } = parse_or_exit(USAGE, parse_args);

    let records = match read_jsonl(&input) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    if check {
        if let Err(e) = check_phases(&records) {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
        // Dropped spans don't fail the check (wall times and counters
        // are still sound) but the span tracks are incomplete — say so.
        let dropped = report::spans_dropped(&records);
        if dropped > 0 {
            eprintln!(
                "warning: {dropped} span(s) dropped during recording; worker-utilization \
                 and trace output are incomplete"
            );
        }
    }

    print!("{}", report::render(&records));

    if critical_path {
        print!("\n{}", render_critical_path(&records));
    }

    if let Some(path) = chrome_out {
        let trace = chrome_trace(&records);
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote chrome trace to {path} (load in Perfetto or chrome://tracing)");
    }
}
