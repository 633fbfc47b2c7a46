//! The simulation-service throughput/latency gate.
//!
//! ```text
//! server_bench record  [--out BENCH_server.json] [--sessions N] [--bodies N]
//!                      [--rate HZ] [--measure-ms N] [--clients N] [--quick]
//! server_bench compare [--baseline BENCH_server.json] [--threshold F] [--quick]
//!                      [--allow-missing-baseline]
//! ```
//!
//! `record` sweeps sessions×bodies cells (each against a fresh
//! `parallax-server` on an ephemeral port), writing achieved steps/s
//! samples and closed-loop request latencies to a schema-versioned
//! baseline. `compare` re-runs the baseline's cells and exits nonzero
//! when throughput or p99-relevant latency is statistically slower than
//! the baseline beyond the threshold.
//!
//! Both modes enforce the sustain floor on the flagship cell: the
//! ROADMAP's claim is ~1000 concurrent 100-body sessions at 60 Hz on
//! one process, so a run that cannot keep `achieved/ideal ≥ min_sustain`
//! fails regardless of how it compares to the baseline.

use parallax_bench::cli::{parse_or_exit, Flags};
use parallax_bench::print_table;
use parallax_bench::server_gate::{
    compare_server_baselines, record, CellComparison, ServerBaseline, ServerGateConfig,
};

struct Args {
    mode: Mode,
    path: String,
    cfg: ServerGateConfig,
    threshold: Option<f64>,
    quick: bool,
    allow_missing: bool,
}

#[derive(PartialEq)]
enum Mode {
    Record,
    Compare,
}

const USAGE: &str = "usage: server_bench record  [--out PATH] [--sessions N] [--bodies N] \
                     [--rate HZ] [--measure-ms N] [--clients N] [--quick]\n\
                     \x20      server_bench compare [--baseline PATH] [--threshold F] \
                     [--quick] [--allow-missing-baseline]\n\
                     --sessions/--bodies replace the sweep with a single cell";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mode = match flags.next_flag().as_deref() {
        Some("record") => Mode::Record,
        Some("compare") => Mode::Compare,
        other => return Err(format!("expected subcommand record|compare, got {other:?}")),
    };
    let mut args = Args {
        path: "BENCH_server.json".to_string(),
        mode,
        cfg: ServerGateConfig::default(),
        threshold: None,
        quick: false,
        allow_missing: false,
    };
    let mut sessions = None;
    let mut bodies = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--out" | "--baseline" => args.path = flags.value()?,
            "--sessions" => sessions = Some(flags.parse()?),
            "--bodies" => bodies = Some(flags.parse()?),
            "--rate" => args.cfg.step_rate = flags.parse()?,
            "--measure-ms" => args.cfg.measure_ms = flags.parse()?,
            "--clients" => args.cfg.clients = flags.parse()?,
            "--threshold" => args.threshold = Some(flags.parse()?),
            "--quick" => args.quick = true,
            "--allow-missing-baseline" => args.allow_missing = true,
            _ => return Err(flags.unknown()),
        }
    }
    if let Some(t) = args.threshold {
        args.cfg.threshold = t;
    }
    if args.quick {
        args.cfg = args.cfg.clone().quick();
    }
    if sessions.is_some() || bodies.is_some() {
        args.cfg.cells = vec![(sessions.unwrap_or(1000), bodies.unwrap_or(100))];
    }
    Ok(args)
}

fn main() {
    let args = parse_or_exit(USAGE, parse_args);
    match args.mode {
        Mode::Record => run_record(&args),
        Mode::Compare => run_compare(&args),
    }
}

fn cell_table(baseline: &ServerBaseline) -> Vec<Vec<String>> {
    baseline
        .cells
        .iter()
        .map(|c| {
            let ideal = c.sessions as f64 * baseline.config.step_rate;
            vec![
                c.sessions.to_string(),
                c.bodies.to_string(),
                format!(
                    "{:.0}",
                    parallax_telemetry::median(&c.steps_per_sec).unwrap_or(0.0)
                ),
                format!("{ideal:.0}"),
                format!("{:.2}", c.sustain),
                format!("{:.2}", c.latency_p99_ns / 1e6),
                c.requests.to_string(),
            ]
        })
        .collect()
}

const CELL_HEADER: [&str; 7] = [
    "Sessions", "Bodies", "Steps/s", "Ideal", "Sustain", "p99 ms", "Requests",
];

/// Applies the sustain floor; exits nonzero when any cell misses it.
fn enforce_sustain(baseline: &ServerBaseline) {
    let floor = baseline.config.min_sustain;
    let failing: Vec<String> = baseline
        .cells
        .iter()
        .filter(|c| c.sustain < floor)
        .map(|c| {
            format!(
                "{}x{} sustained only {:.0}% of {} Hz",
                c.sessions,
                c.bodies,
                c.sustain * 100.0,
                baseline.config.step_rate
            )
        })
        .collect();
    if !failing.is_empty() {
        for f in &failing {
            eprintln!("SUSTAIN FAILED: {f} (floor {:.0}%)", floor * 100.0);
        }
        std::process::exit(1);
    }
}

fn run_record(args: &Args) {
    let cfg = &args.cfg;
    println!(
        "recording {} cell(s) at {} Hz: warmup {} ms, measure {} ms, {} client(s)",
        cfg.cells.len(),
        cfg.step_rate,
        cfg.warmup_ms,
        cfg.measure_ms,
        cfg.clients
    );
    let baseline = record(cfg);
    print_table("Server gate", &CELL_HEADER, &cell_table(&baseline));
    if let Err(e) = std::fs::write(&args.path, baseline.to_json()) {
        eprintln!("error: cannot write {}: {e}", args.path);
        std::process::exit(1);
    }
    println!("\nwrote baseline to {}", args.path);
    enforce_sustain(&baseline);
}

fn run_compare(args: &Args) {
    let src = match std::fs::read_to_string(&args.path) {
        Ok(s) => s,
        Err(e) if args.allow_missing => {
            eprintln!(
                "warning: no server baseline at {} ({e}); measuring without a gate. \
                 Record one with `server_bench record --out {}`.",
                args.path, args.path
            );
            // Still measure and enforce the sustain floor: the service
            // claim holds on its own, baseline or not.
            let baseline = record(&args.cfg);
            print_table("Server gate", &CELL_HEADER, &cell_table(&baseline));
            enforce_sustain(&baseline);
            return;
        }
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", args.path);
            std::process::exit(2);
        }
    };
    let base = match ServerBaseline::from_json(&src) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {}: {e}", args.path);
            std::process::exit(2);
        }
    };
    base.fingerprint.warn_unless_current();
    // Measure the baseline's cells at the baseline's shape; sample
    // windows and threshold are the comparer's choice.
    let cfg = ServerGateConfig {
        cells: base.config.cells.clone(),
        step_rate: base.config.step_rate,
        min_sustain: base.config.min_sustain,
        ..args.cfg.clone()
    };
    let threshold = if args.threshold.is_some() || args.quick {
        args.cfg.threshold
    } else {
        base.config.threshold
    };
    println!(
        "comparing against {} ({} cell(s), threshold +{:.0}%)",
        args.path,
        base.cells.len(),
        threshold * 100.0
    );
    let fresh = record(&cfg);
    print_table("Fresh run", &CELL_HEADER, &cell_table(&fresh));
    let rows = compare_server_baselines(&base, &fresh, threshold);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.sessions, r.bodies),
                r.metric.to_string(),
                format!("{:.3}", r.cmp.base_median / 1e6),
                format!("{:.3}", r.cmp.cand_median / 1e6),
                format!("{:+.0}%", r.cmp.rel_change * 100.0),
                format!("[{:+.0}%, {:+.0}%]", r.cmp.ci.0 * 100.0, r.cmp.ci.1 * 100.0),
                r.cmp.verdict.label().to_string(),
            ]
        })
        .collect();
    print_table(
        "Server gate verdicts",
        &[
            "Cell", "Metric", "Base ms", "Now ms", "Change", "95% CI", "Verdict",
        ],
        &table,
    );
    let regressions: Vec<&CellComparison> = rows.iter().filter(|r| r.is_regression()).collect();
    if regressions.is_empty() {
        println!(
            "\ngate passed: no cell slower than baseline beyond +{:.0}%",
            threshold * 100.0
        );
        enforce_sustain(&fresh);
        return;
    }
    for r in &regressions {
        eprintln!(
            "REGRESSION: {}x{} {}: median {:.3} ms -> {:.3} ms ({:+.0}%)",
            r.sessions,
            r.bodies,
            r.metric,
            r.cmp.base_median / 1e6,
            r.cmp.cand_median / 1e6,
            r.cmp.rel_change * 100.0
        );
    }
    eprintln!("\ngate FAILED: {} regression(s)", regressions.len());
    std::process::exit(1);
}
