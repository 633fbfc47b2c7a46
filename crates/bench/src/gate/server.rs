//! The fleet gate (`bench_gate server`): the multi-world simulation
//! service (`parallax-server`) under the shape the ROADMAP targets — N
//! concurrent ~100-body sessions each scheduled at 60 Hz, with paced
//! closed-loop HTTP clients querying `/state` the whole time. Per sweep
//! cell it records the clients' request latencies (gated against the
//! baseline) and the fleet's sustain, achieved over ideal scheduled
//! steps (held to a floor: below it the run fails whatever the baseline
//! says).
//!
//! Each cell runs against a fresh server on an ephemeral port. The
//! sessions are generated settled-stack worlds: they are created with
//! `step_rate: 0`, manually stepped until their islands sleep (the
//! steady state a long-lived game level lives in), then switched to the
//! target rate with `POST /sessions/:id/rate` — which is also the
//! end-to-end exercise of the runtime rate knob.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parallax_telemetry::http_request;
use parallax_telemetry::json::Json;
use parallax_telemetry::stats::{at_reference_speed, median, smoothed_speeds, Probe};

use super::{field_f64, field_nums, field_u64, judge, whole_ns, Baseline, Gate, Row};

/// Relative median-change threshold of a full `compare`: service-level
/// numbers are noisier than kernel times, so it is wider than the scene
/// gate's.
pub const THRESHOLD: f64 = 0.5;

/// Threshold of `compare --quick` (the 1000×100 cell, 2.5 s window), set
/// from the A/A noise at the reference speed: over 42 ordered pairs of 7
/// recordings on a 2-core x86-64 VM, the lower CI bound of the latency
/// change read at most +16 % (+40 % unnormalised, same batch).
pub const QUICK_THRESHOLD: f64 = 0.4;

/// Steps each session is manually stepped before measurement so its
/// stacks reach their sleeping steady state (the slowest seeds settle
/// around step 210; past that the fully-asleep fast path engages).
const SETTLE_STEPS: u64 = 240;

/// Latency samples kept per cell in the baseline (evenly thinned; the
/// p99 is computed before thinning).
const MAX_STORED_LATENCIES: usize = 500;

/// How a fleet baseline is recorded: the gate's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Sweep cells: `(sessions, bodies_per_session)`.
    pub cells: Vec<(usize, usize)>,
    /// Scheduled rate per session, Hz.
    pub step_rate: f64,
    /// Settling-in time after the rate switch, before measurement.
    pub warmup_ms: u64,
    /// Measurement window.
    pub measure_ms: u64,
    /// Subwindows of the measurement window; the reference probe is
    /// timed at the start of each, and scales (smoothed) the latencies
    /// that end in it.
    pub subwindows: usize,
    /// Closed-loop client threads hitting `/state` during measurement.
    pub clients: usize,
    /// Per-request client think time, milliseconds. Real consumers poll a
    /// session at some frame rate; zero think time turns the clients into
    /// a CPU-saturating load generator that starves the scheduler on
    /// small hosts and measures contention, not service latency.
    pub think_ms: u64,
    /// Minimum achieved/ideal throughput ratio of every cell; below it
    /// the run itself fails (the ROADMAP's "thousands of worlds at 60 Hz"
    /// claim is load-bearing).
    pub min_sustain: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cells: vec![(100, 100), (500, 100), (1000, 100)],
            step_rate: 60.0,
            warmup_ms: 2000,
            measure_ms: 4000,
            subwindows: 8,
            clients: 2,
            think_ms: 5,
            min_sustain: 0.9,
        }
    }
}

impl ServerConfig {
    /// The CI smoke variant: only the flagship 1000×100 cell, shorter
    /// windows. The sustain floor stays at full strength — that is the
    /// claim CI exists to protect.
    pub fn quick(self) -> ServerConfig {
        ServerConfig {
            cells: vec![(1000, 100)],
            warmup_ms: 1500,
            measure_ms: 2500,
            subwindows: 5,
            ..self
        }
    }
}

/// Measured samples for one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSamples {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Bodies per session.
    pub bodies: usize,
    /// Whole-window achieved/ideal scheduled-step ratio.
    pub sustain: f64,
    /// Closed-loop request latencies, nanoseconds at the reference speed
    /// (thinned).
    pub latency_ns: Vec<f64>,
    /// p99 of the *full* (unthinned) latency set.
    pub latency_p99_ns: f64,
    /// Requests completed during the window.
    pub requests: usize,
}

impl CellSamples {
    /// `sessions×bodies`, the cell's name in tables.
    pub fn name(&self) -> String {
        format!("{}x{}", self.sessions, self.bodies)
    }
}

/// The fleet gate's baseline contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// Recording configuration.
    pub config: ServerConfig,
    /// One entry per sweep cell.
    pub cells: Vec<CellSamples>,
}

impl Gate for Fleet {
    const NAME: &'static str = "server";
    const PATH: &'static str = "BENCH_server.json";

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let c = &self.config;
        let cells = c
            .cells
            .iter()
            .map(|&(s, b)| Json::nums(&[s as f64, b as f64]));
        let config = Json::obj([
            ("step_rate", c.step_rate.into()),
            ("warmup_ms", (c.warmup_ms as usize).into()),
            ("measure_ms", (c.measure_ms as usize).into()),
            ("subwindows", c.subwindows.into()),
            ("clients", c.clients.into()),
            ("think_ms", (c.think_ms as usize).into()),
            ("min_sustain", c.min_sustain.into()),
            ("cells", Json::Arr(cells.collect())),
        ]);
        let samples = self.cells.iter().map(|cell| {
            Json::obj([
                ("sessions", cell.sessions.into()),
                ("bodies", cell.bodies.into()),
                ("sustain", ((cell.sustain * 1e4).round() / 1e4).into()),
                ("latency_p99_ns", cell.latency_p99_ns.round().into()),
                ("requests", cell.requests.into()),
                ("latency_ns", whole_ns(&cell.latency_ns)),
            ])
        });
        vec![("config", config), ("cells", Json::Arr(samples.collect()))]
    }

    fn from_json(doc: &Json) -> Result<Fleet, String> {
        let c = doc.get("config").ok_or("missing config")?;
        let pairs = c
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing config cells")?;
        let cells = pairs.iter().map(|pair| match pair.as_nums().as_deref() {
            Some(&[s, b]) => Ok((s as usize, b as usize)),
            _ => Err("config cell must be [sessions, bodies]".to_string()),
        });
        let config = ServerConfig {
            cells: cells.collect::<Result<_, _>>()?,
            step_rate: field_f64(c, "step_rate")?,
            warmup_ms: field_u64(c, "warmup_ms")?,
            measure_ms: field_u64(c, "measure_ms")?,
            subwindows: field_u64(c, "subwindows")? as usize,
            clients: field_u64(c, "clients")? as usize,
            think_ms: field_u64(c, "think_ms")?,
            min_sustain: field_f64(c, "min_sustain")?,
        };
        let samples = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells array")?;
        let cells = samples.iter().map(|cell| {
            Ok(CellSamples {
                sessions: field_u64(cell, "sessions")? as usize,
                bodies: field_u64(cell, "bodies")? as usize,
                sustain: field_f64(cell, "sustain")?,
                latency_ns: field_nums(cell, "latency_ns")?,
                latency_p99_ns: field_f64(cell, "latency_p99_ns")?,
                requests: field_u64(cell, "requests")? as usize,
            })
        });
        Ok(Fleet {
            config,
            cells: cells.collect::<Result<_, String>>()?,
        })
    }
}

impl Fleet {
    /// One line per cell below the sustain floor.
    pub fn sustain_failures(&self) -> Vec<String> {
        let c = &self.config;
        self.cells
            .iter()
            .filter(|cell| cell.sustain < c.min_sustain)
            .map(|cell| {
                format!(
                    "{} sustained only {:.0}% of {} Hz (floor {:.0}%)",
                    cell.name(),
                    cell.sustain * 100.0,
                    c.step_rate,
                    c.min_sustain * 100.0
                )
            })
            .collect()
    }
}

/// Records every cell in `cfg`, each against a fresh server on an
/// ephemeral port. Prints one progress line per cell.
pub fn record(cfg: &ServerConfig) -> Baseline<Fleet> {
    let mut probe = Probe::new();
    let mut probe_walls = Vec::new();
    let mut cells = Vec::with_capacity(cfg.cells.len());
    for &(sessions, bodies) in &cfg.cells {
        println!("cell {sessions} session(s) x {bodies} bodies: starting server...");
        let cell = record_cell(sessions, bodies, cfg, &mut probe, &mut probe_walls);
        println!(
            "  sustain {:.2} of {} Hz, median request latency {:.3} ms, p99 {:.2} ms over {} \
             request(s), at the reference speed",
            cell.sustain,
            cfg.step_rate,
            median(&cell.latency_ns).unwrap_or(0.0) / 1e6,
            cell.latency_p99_ns / 1e6,
            cell.requests
        );
        cells.push(cell);
    }
    let fleet = Fleet {
        config: cfg.clone(),
        cells,
    };
    Baseline::new(fleet, median(&probe_walls).unwrap_or(0.0))
}

/// Issues one request and returns its body; any status but 200 panics
/// with the response, which names what the server refused.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Vec<u8> {
    let (status, resp) = http_request(addr, method, path, "application/json", body.as_bytes())
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    assert_eq!(
        status,
        200,
        "{method} {path}: {}",
        String::from_utf8_lossy(&resp)
    );
    resp
}

fn record_cell(
    sessions: usize,
    bodies: usize,
    cfg: &ServerConfig,
    probe: &mut Probe,
    probe_walls: &mut Vec<f64>,
) -> CellSamples {
    let server = parallax_server::serve("127.0.0.1:0").expect("bind server");
    let addr = server.addr();

    // Create the fleet parked (rate 0), settle it to sleep on two
    // threads, then switch every session to the target rate through the
    // public rate knob.
    let ids: Vec<u64> = (0..sessions)
        .map(|seed| {
            let body = format!("{{\"bodies\":{bodies},\"seed\":{seed},\"step_rate\":0}}");
            let resp = request(addr, "POST", "/sessions", &body);
            Json::parse(std::str::from_utf8(&resp).expect("utf8"))
                .ok()
                .and_then(|v| v.get("id").and_then(Json::as_u64))
                .expect("create response carries an id")
        })
        .collect();
    std::thread::scope(|scope| {
        for chunk in ids.chunks(ids.len().div_ceil(2).max(1)) {
            scope.spawn(move || {
                for id in chunk {
                    request(
                        addr,
                        "POST",
                        &format!("/sessions/{id}/step?n={SETTLE_STEPS}"),
                        "",
                    );
                }
            });
        }
    });
    for id in &ids {
        request(
            addr,
            "POST",
            &format!("/sessions/{id}/rate?hz={}", cfg.step_rate),
            "",
        );
    }
    std::thread::sleep(Duration::from_millis(cfg.warmup_ms));

    // Closed-loop clients tag each latency with the subwindow it ended
    // in; the probe is timed at the start of every subwindow.
    let stop = AtomicBool::new(false);
    let window = AtomicUsize::new(0);
    let mut speeds = Vec::with_capacity(cfg.subwindows);
    let subwindow = Duration::from_millis(cfg.measure_ms / cfg.subwindows.max(1) as u64);
    // The table's own count, settled up to each read: the registry
    // counter misses the steps of sessions off the schedule until a
    // request settles them.
    let table = server.table();
    let begin = (Instant::now(), table.total_steps());
    let tagged: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.clients)
            .map(|worker| {
                let (ids, stop, window) = (&ids, &stop, &window);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for id in ids.iter().skip(worker).step_by(cfg.clients).cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let path = format!("/sessions/{id}/state?records=2&bodies=4");
                        let start = Instant::now();
                        request(addr, "GET", &path, "");
                        let ns = start.elapsed().as_nanos() as f64;
                        samples.push((window.load(Ordering::Relaxed), ns));
                        std::thread::sleep(Duration::from_millis(cfg.think_ms));
                    }
                    samples
                })
            })
            .collect();
        for w in 0..cfg.subwindows {
            speeds.push(probe.speed());
            window.store(w, Ordering::Relaxed);
            std::thread::sleep(subwindow);
        }
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let achieved = (table.total_steps() - begin.1) as f64;
    let ideal = sessions as f64 * cfg.step_rate * begin.0.elapsed().as_secs_f64();
    probe_walls.extend(&speeds);
    let speeds = smoothed_speeds(&speeds);
    let mut latencies: Vec<f64> = tagged
        .iter()
        .map(|&(w, ns)| at_reference_speed(ns, speeds[w]))
        .collect();
    let requests = latencies.len();
    let latency_ns = (0..MAX_STORED_LATENCIES.min(requests))
        .map(|i| latencies[i * requests / MAX_STORED_LATENCIES.min(requests)])
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = latencies.get((requests * 99 / 100).min(requests.saturating_sub(1)));
    CellSamples {
        sessions,
        bodies,
        sustain: achieved / ideal.max(1e-9),
        latency_ns,
        latency_p99_ns: p99.copied().unwrap_or(0.0),
        requests,
    }
}

/// Compares a fresh recording's request latencies against a baseline's,
/// cell by cell; cells present on only one side are skipped. Throughput
/// is held by the sustain floor instead: a period row at +50 % would
/// need the fleet below 67 % of its rate, which the 90 % floor fails
/// first.
pub fn compare(base: &Fleet, fresh: &Fleet, threshold: f64) -> Vec<Row> {
    base.cells
        .iter()
        .filter_map(|b| {
            let f = fresh
                .cells
                .iter()
                .find(|c| (c.sessions, c.bodies) == (b.sessions, b.bodies))?;
            let what = format!("{} / request latency", b.name());
            judge(what, &b.latency_ns, &f.latency_ns, threshold)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_telemetry::stats::Verdict;

    fn fake_fleet() -> Fleet {
        Fleet {
            config: ServerConfig {
                cells: vec![(10, 20)],
                ..ServerConfig::default()
            },
            cells: vec![CellSamples {
                sessions: 10,
                bodies: 20,
                sustain: 0.99,
                latency_ns: (0..60)
                    .map(|i| 100_000.0 + (i % 9) as f64 * 4_000.0)
                    .collect(),
                latency_p99_ns: 132_000.0,
                requests: 60,
            }],
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = Baseline::new(fake_fleet(), 412_345.0);
        let parsed = Baseline::<Fleet>::from_json(&b.to_json().render()).expect("parse");
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.probe_ns, 412_345.0);
        assert_eq!(parsed.gate, b.gate);
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let f = fake_fleet();
        let rows = compare(&f, &f, THRESHOLD);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    #[test]
    fn doubled_latencies_read_slower_and_a_starved_fleet_fails_its_floor() {
        let base = fake_fleet();
        let mut slow = base.clone();
        slow.cells[0].latency_ns.iter_mut().for_each(|x| *x *= 2.0);
        slow.cells[0].sustain = 0.5;
        let rows = compare(&base, &slow, QUICK_THRESHOLD);
        assert_eq!(rows[0].cmp.verdict, Verdict::Slower, "{rows:?}");
        assert_eq!(rows[0].what, "10x20 / request latency");
        assert!(base.sustain_failures().is_empty());
        let failures = slow.sustain_failures();
        assert!(
            failures[0].contains("10x20 sustained only 50%"),
            "{failures:?}"
        );
    }

    #[test]
    fn quick_keeps_the_flagship_cell() {
        let q = ServerConfig::default().quick();
        assert_eq!(q.cells, vec![(1000, 100)]);
        assert_eq!(q.min_sustain, ServerConfig::default().min_sustain);
    }

    #[test]
    fn small_cell_records_end_to_end() {
        // A miniature live recording: 3 sessions, tiny windows — this is
        // the whole record path (create, settle, rate switch, clients,
        // probe, step count) compressed to test scale.
        let cfg = ServerConfig {
            cells: vec![(3, 10)],
            step_rate: 120.0,
            warmup_ms: 100,
            measure_ms: 400,
            subwindows: 2,
            ..ServerConfig::default()
        };
        let b = record(&cfg);
        assert_eq!(b.gate.cells.len(), 1);
        let cell = &b.gate.cells[0];
        assert!(cell.requests > 0, "clients made no requests");
        assert!(
            cell.sustain > 0.2,
            "no scheduled stepping happened: {cell:?}"
        );
        assert!(b.probe_ns > 0.0);
        Baseline::<Fleet>::from_json(&b.to_json().render()).expect("round trip");
    }

    #[test]
    fn from_json_rejects_other_experiments() {
        assert!(Baseline::<Fleet>::from_json("not json").is_err());
        // The schema-1 fleet layout.
        let v1 = "{\"schema_version\": 1, \"experiment\": \"server_gate\"}";
        let err = Baseline::<Fleet>::from_json(v1).unwrap_err();
        assert!(err.contains("schema v1") && err.contains("v3"), "{err}");
        let other = "{\"schema_version\": 3, \"gate\": \"scenes\"}";
        let err = Baseline::<Fleet>::from_json(other).unwrap_err();
        assert!(err.contains("\"scenes\" baseline"), "{err}");
    }
}
