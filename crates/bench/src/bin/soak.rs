//! Long-run soak harness for the live telemetry plane.
//!
//! `bench_gate` answers "did this commit slow the step down?"; nothing
//! answered "does the exporter stay correct and cheap when a scene runs
//! for minutes with a scraper attached?". This binary does both:
//!
//! 1. **Overhead** — interleaved A/B batches of steps, scraping off vs
//!    a thread hammering `/metrics`, compared with the noise-aware
//!    bootstrap verdict ([`parallax_telemetry::compare`]). The exporter
//!    must stay within 3% (the ISSUE budget) on Mix.
//! 2. **Soak** — step the scene for `--seconds` while a second thread
//!    scrapes `/metrics` every 250 ms and `/health` alongside,
//!    asserting: every `# TYPE … counter` series is monotone across
//!    scrapes (no torn snapshots), `/health` stays `"ok"`, and RSS
//!    growth over the run stays under `--rss-budget-mb`.
//!
//! `--quick` shrinks both phases to ~15 s for the verify.sh smoke;
//! the default is a 120 s soak. Exit status 0 = all assertions held.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parallax_bench::cli::{parse_or_exit, Flags, SPEC_USAGE};
use parallax_bench::{build_step_record, telemetry_baseline};
use parallax_physics::InvariantMonitor;
use parallax_telemetry::{compare, http_get, BootstrapConfig, Verdict};
use parallax_workloads::{BenchmarkId, RunConfig};

const SCRAPE_PERIOD: Duration = Duration::from_millis(250);
const OVERHEAD_BUDGET: f64 = 0.03;

struct Args {
    scene: BenchmarkId,
    scale: f32,
    run: RunConfig,
    seconds: u64,
    rss_budget_mb: u64,
    quick: bool,
    skip_overhead: bool,
}

const USAGE: &str = "usage: soak [--scene NAME] [--scale F] [--config SPEC] [--seconds S] \
                     [--rss-budget-mb M] [--quick] [--no-overhead]";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        scene: BenchmarkId::Mix,
        scale: 0.25,
        run: RunConfig::default(),
        seconds: 120,
        rss_budget_mb: 128,
        quick: false,
        skip_overhead: false,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--scene" => args.scene = flags.scene()?,
            "--scale" => args.scale = flags.parse()?,
            "--config" => flags.config(&mut args.run)?,
            "--seconds" => args.seconds = flags.parse()?,
            "--rss-budget-mb" => args.rss_budget_mb = flags.parse()?,
            "--quick" => {
                args.quick = true;
                args.seconds = args.seconds.min(8);
            }
            "--no-overhead" => args.skip_overhead = true,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
}

/// Resident set size from `/proc/self/status`, in KiB (0 where the
/// proc filesystem is unavailable — the RSS assertion then passes
/// vacuously rather than failing the soak on exotic hosts).
fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Counter samples of one `/metrics` scrape: every series the exposition
/// declares `# TYPE <name> counter`.
fn parse_counters(text: &str) -> Vec<(String, u64)> {
    let counter_names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter"))
        .collect();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            if !counter_names.contains(&name) {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Shared scrape-side state: failures collected for the final verdict.
#[derive(Default)]
struct ScrapeLog {
    scrapes: u64,
    failures: Vec<String>,
}

/// One scrape: `/metrics` counters monotone vs `last`, `/health` ok.
fn scrape_once(addr: std::net::SocketAddr, last: &mut Vec<(String, u64)>, log: &Mutex<ScrapeLog>) {
    let fail = |msg: String| {
        let mut log = log.lock().expect("scrape log");
        if log.failures.len() < 20 {
            log.failures.push(msg);
        }
    };
    match http_get(addr, "/metrics") {
        Ok((200, body)) => {
            let counters = parse_counters(&body);
            for (name, v) in &counters {
                if let Some((_, prev)) = last.iter().find(|(n, _)| n == name) {
                    if v < prev {
                        fail(format!("counter {name} went backwards: {prev} -> {v}"));
                    }
                }
            }
            *last = counters;
        }
        Ok((status, _)) => fail(format!("/metrics answered {status}")),
        Err(e) => fail(format!("/metrics scrape failed: {e}")),
    }
    match http_get(addr, "/health") {
        Ok((200, body)) => {
            if !body.contains("\"status\":\"ok\"") {
                fail(format!("/health degraded: {body}"));
            }
        }
        Ok((status, _)) => fail(format!("/health answered {status}")),
        Err(e) => fail(format!("/health scrape failed: {e}")),
    }
    log.lock().expect("scrape log").scrapes += 1;
}

/// Interleaved scrape-off/scrape-on batches; returns the relative
/// overhead estimate, or `None` when the comparison is underpowered.
fn measure_overhead(
    scene: &mut parallax_workloads::Scene,
    addr: std::net::SocketAddr,
    batches: usize,
    steps_per_batch: usize,
) -> Option<f64> {
    let hammering = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let hammering = Arc::clone(&hammering);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if hammering.load(Ordering::Acquire) {
                    let _ = http_get(addr, "/metrics");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let mut off = Vec::with_capacity(batches / 2);
    let mut on = Vec::with_capacity(batches / 2);
    for batch in 0..batches {
        let scraped = batch % 2 == 1;
        hammering.store(scraped, Ordering::Release);
        let t0 = Instant::now();
        for _ in 0..steps_per_batch {
            scene.step();
        }
        let secs = t0.elapsed().as_secs_f64();
        if scraped { &mut on } else { &mut off }.push(secs);
    }
    stop.store(true, Ordering::Release);
    scraper.join().expect("scraper thread");

    let cmp = compare(&off, &on, OVERHEAD_BUDGET, &BootstrapConfig::default())?;
    println!(
        "overhead: scrape-off median {:.2} ms/batch, scrape-on {:.2} ms/batch, \
         change {:+.2}% (95% CI {:+.2}%..{:+.2}%) — {}",
        cmp.base_median * 1e3,
        cmp.cand_median * 1e3,
        cmp.rel_change * 100.0,
        cmp.ci.0 * 100.0,
        cmp.ci.1 * 100.0,
        match cmp.verdict {
            Verdict::Slower => "OVER BUDGET",
            _ => "within budget",
        }
    );
    Some(cmp.rel_change)
}

fn main() {
    let args = parse_or_exit(&format!("{USAGE}\n{SPEC_USAGE}"), parse_args);

    parallax_telemetry::set_enabled(true);
    let mut scene = args.run.build(args.scene, args.scale);
    let observe = match parallax_observe::serve("127.0.0.1:0") {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: cannot bind exporter: {e}");
            std::process::exit(1);
        }
    };
    let addr = observe.addr();
    println!(
        "soak: {} @ scale {}, {} on http://{addr}/metrics, {} s{}",
        args.scene.name(),
        args.scale,
        args.run,
        args.seconds,
        if args.quick { " (quick)" } else { "" }
    );

    let mut failed = false;
    if !args.skip_overhead {
        let (batches, steps) = if args.quick { (20, 8) } else { (40, 25) };
        match measure_overhead(&mut scene, addr, batches, steps) {
            Some(change) if change > OVERHEAD_BUDGET => failed = true,
            Some(_) => {}
            None => println!("overhead: not enough samples to compare"),
        }
    }

    // Soak phase: stepping thread here, scraper on its own thread.
    let log = Arc::new(Mutex::new(ScrapeLog::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let log = Arc::clone(&log);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = Vec::new();
            while !stop.load(Ordering::Acquire) {
                scrape_once(addr, &mut last, &log);
                std::thread::sleep(SCRAPE_PERIOD);
            }
        })
    };

    let rss_start_kb = rss_kb();
    let mut baseline = telemetry_baseline();
    let mut monitor = InvariantMonitor::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut steps: u64 = 0;
    while Instant::now() < deadline {
        let profile = scene.step();
        for v in monitor.check_step(&scene.world, &profile) {
            eprintln!("violation at step {steps}: {v}");
        }
        scene.world.publish_heap_bytes();
        let record = build_step_record(
            "physics",
            args.scene.name(),
            steps,
            Some(&profile),
            &mut baseline,
        );
        observe.record_step(record);
        steps += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    scraper.join().expect("scraper thread");

    let rss_end_kb = rss_kb();
    let rss_growth_mb = rss_end_kb.saturating_sub(rss_start_kb) / 1024;
    let log = log.lock().expect("scrape log");
    println!(
        "soak: {steps} steps in {elapsed:.1} s ({:.1} steps/s), {} scrape(s), \
         rss {} -> {} MiB (+{} MiB), {} violation(s)",
        steps as f64 / elapsed.max(1e-9),
        log.scrapes,
        rss_start_kb / 1024,
        rss_end_kb / 1024,
        rss_growth_mb,
        monitor.violations_total()
    );

    if log.scrapes == 0 {
        eprintln!("FAIL: scraper never completed a scrape");
        failed = true;
    }
    for f in &log.failures {
        eprintln!("FAIL: {f}");
        failed = true;
    }
    if monitor.violations_total() > 0 {
        eprintln!("FAIL: invariant violations during soak");
        failed = true;
    }
    if rss_growth_mb > args.rss_budget_mb {
        eprintln!(
            "FAIL: rss grew {rss_growth_mb} MiB (> {} MiB budget)",
            args.rss_budget_mb
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("soak: ok");
}
