//! Integration tests for the live telemetry plane: a real scene
//! stepping on one thread while a scraper hammers the exporter from
//! another, plus the protocol- and naming-robustness guarantees the
//! ISSUE demands (monotone counters across scrapes, 400/404 without
//! panics, Prometheus name lint).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parallax_bench::{build_step_record, telemetry_baseline};
use parallax_telemetry as telemetry;
use parallax_telemetry::net::{http_get, is_valid_metric_name, sanitize_metric_name};
use parallax_workloads::{BenchmarkId, SceneParams};

fn small_mix() -> parallax_workloads::Scene {
    BenchmarkId::Mix.build(&SceneParams {
        scale: 0.1,
        threads: 2,
        ..SceneParams::default()
    })
}

/// Counter samples from a Prometheus text body (`# TYPE … counter`).
fn counters_of(text: &str) -> Vec<(String, u64)> {
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter"))
        .collect();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            names
                .contains(&name)
                .then(|| value.parse().ok().map(|v| (name.to_string(), v)))
                .flatten()
        })
        .collect()
}

#[test]
fn hundred_concurrent_scrapes_stay_monotone_while_stepping() {
    telemetry::set_enabled(true);
    let obs = parallax_observe::serve("127.0.0.1:0").expect("bind exporter");
    let addr = obs.addr();
    let done = Arc::new(AtomicBool::new(false));

    // Prime the plane with one recorded step so even the first scrape
    // sees phase gauges and histogram buckets — the scraper can lap the
    // stepping thread many times over on a fast loopback.
    let mut scene = small_mix();
    let mut baseline = telemetry_baseline();
    let profile = scene.step();
    obs.record_step(build_step_record(
        "physics",
        "Mix",
        0,
        Some(&profile),
        &mut baseline,
    ));

    let scraper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last: Vec<(String, u64)> = Vec::new();
            let mut problems: Vec<String> = Vec::new();
            let mut saw_phase_gauge = false;
            let mut saw_bucket = false;
            for scrape in 0..100 {
                let (status, body) = match http_get(addr, "/metrics") {
                    Ok(r) => r,
                    Err(e) => {
                        problems.push(format!("scrape {scrape}: {e}"));
                        continue;
                    }
                };
                if status != 200 {
                    problems.push(format!("scrape {scrape}: status {status}"));
                    continue;
                }
                saw_phase_gauge |= body.contains("physics_phase_wall_ns_");
                saw_bucket |= body.contains("_bucket{le=");
                for (name, v) in counters_of(&body) {
                    if let Some((_, prev)) = last.iter().find(|(n, _)| *n == name) {
                        if v < *prev {
                            problems.push(format!(
                                "scrape {scrape}: counter {name} went backwards {prev} -> {v}"
                            ));
                        }
                    }
                    match last.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, slot)) => *slot = v,
                        None => last.push((name, v)),
                    }
                }
            }
            done.store(true, Ordering::Release);
            (problems, last, saw_phase_gauge, saw_bucket)
        })
    };

    let mut step = 1u64;
    while !done.load(Ordering::Acquire) {
        let profile = scene.step();
        let record = build_step_record("physics", "Mix", step, Some(&profile), &mut baseline);
        obs.record_step(record);
        step += 1;
    }

    let (problems, last, saw_phase_gauge, saw_bucket) = scraper.join().expect("scraper");
    assert!(problems.is_empty(), "scrape problems: {problems:?}");
    assert!(step > 0, "stepping thread never ran");
    assert!(!last.is_empty(), "scrapes never saw a counter");
    assert!(
        saw_phase_gauge,
        "per-phase wall gauges missing from /metrics"
    );
    assert!(saw_bucket, "histogram buckets missing from /metrics");
}

#[test]
fn malformed_and_unknown_requests_never_take_the_server_down() {
    let obs = parallax_observe::serve("127.0.0.1:0").expect("bind exporter");
    let addr = obs.addr();

    // Unknown path → 404.
    let (status, _) = http_get(addr, "/definitely-not-an-endpoint").unwrap();
    assert_eq!(status, 404);

    // Garbage request lines → 400; non-GET → 405.
    for raw in [
        "BOGUS\r\n\r\n",
        "GET missing-slash HTTP/1.1\r\n\r\n",
        "GET /metrics SPDY/9\r\n\r\n",
        "POST /metrics HTTP/1.1\r\n\r\n",
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(
            resp.starts_with("HTTP/1.1 400") || resp.starts_with("HTTP/1.1 405"),
            "{raw:?} -> {resp:?}"
        );
    }

    // The server still answers real requests afterwards.
    let (status, _) = http_get(addr, "/health").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn every_registered_metric_name_lints_after_a_real_run() {
    telemetry::set_enabled(true);
    let mut scene = small_mix();
    for _ in 0..5 {
        scene.step();
    }
    let snap = telemetry::snapshot();
    let names = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n));
    let mut seen = 0;
    for name in names {
        seen += 1;
        let sanitized = sanitize_metric_name(name);
        assert!(
            is_valid_metric_name(&sanitized),
            "{name:?} sanitizes to invalid {sanitized:?}"
        );
    }
    assert!(seen > 0, "a stepped Mix scene must register metrics");

    // And the full exposition lints line by line.
    let text = telemetry::prometheus_text(&snap);
    for expected in [
        "physics_broadphase_reinserts",
        "physics_broadphase_fat_pairs",
        "physics_solver_batches",
        "physics_solver_packed_rows",
    ] {
        assert!(text.contains(expected), "/metrics lacks {expected}");
    }
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let name = line.split([' ', '{']).next().unwrap();
        assert!(is_valid_metric_name(name), "{name:?} in {line:?}");
    }
}
