//! The `server_bench` harness: record and gate the multi-world
//! simulation service (`parallax-server`).
//!
//! Where `bench_gate` measures one world's step pipeline, this gate
//! measures the *fleet* shape the ROADMAP targets: N concurrent
//! ~100-body sessions each scheduled at a fixed step rate, with
//! closed-loop HTTP clients querying `/state` the whole time. Per
//! sweep cell it records
//!
//! * **throughput** — achieved scheduled steps/s across the fleet,
//!   sampled per subwindow (vs the ideal `sessions × step_rate`), and
//! * **request latency** — per-request wall times of the closed-loop
//!   clients, with the p99 reported.
//!
//! The baseline (`BENCH_server.json`) follows the `bench_gate`
//! envelope conventions: schema version, experiment tag, machine
//! fingerprint, config, raw samples. Comparison converts throughput to
//! per-step periods (so "bigger = slower" holds for both metrics) and
//! reuses the bootstrap statistics in `parallax_telemetry::stats`.
//!
//! Each cell runs against a fresh server on an ephemeral port. The
//! sessions are generated settled-stack worlds: they are created with
//! `step_rate: 0`, manually stepped until their islands sleep (the
//! steady state a long-lived game level lives in), then switched to
//! the target rate with `POST /sessions/:id/rate` — which is also the
//! end-to-end exercise of the runtime rate knob.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parallax_telemetry::json::Json;
use parallax_telemetry::stats::{compare, BootstrapConfig, Comparison, Verdict};

use crate::harness::{field_f64, field_str, field_u64, Fingerprint, MIN_REGRESSION_NS};

/// Version of the `BENCH_server.json` layout.
pub const SCHEMA_VERSION: u64 = 1;

/// The `"experiment"` tag of server-gate baselines.
pub const EXPERIMENT: &str = "server_gate";

/// Steps each session is manually stepped before measurement so its
/// stacks reach their sleeping steady state (the slowest seeds settle
/// around step 210; past that the fully-asleep fast path engages).
const SETTLE_STEPS: u64 = 240;

/// Latency samples kept per cell in the baseline (evenly thinned; the
/// p99 is computed before thinning).
const MAX_STORED_LATENCIES: usize = 500;

/// How a server baseline is recorded and compared.
#[derive(Debug, Clone)]
pub struct ServerGateConfig {
    /// Sweep cells: `(sessions, bodies_per_session)`.
    pub cells: Vec<(usize, usize)>,
    /// Scheduled rate per session, Hz.
    pub step_rate: f64,
    /// Settling-in time after the rate switch, before measurement.
    pub warmup_ms: u64,
    /// Measurement window.
    pub measure_ms: u64,
    /// Throughput samples taken across the window.
    pub subwindows: usize,
    /// Closed-loop client threads hitting `/state` during measurement.
    pub clients: usize,
    /// Per-request client think time, milliseconds. Real consumers poll a
    /// session at some frame rate; zero think time turns the clients into
    /// a CPU-saturating load generator that starves the scheduler on
    /// small hosts and measures contention, not service latency.
    pub think_ms: u64,
    /// Relative median-change threshold for regressions. Service-level
    /// numbers are noisier than kernel times, so the default is wider
    /// than the scene gate's.
    pub threshold: f64,
    /// Minimum achieved/ideal throughput ratio for the flagship cell;
    /// below it the run itself fails (the ROADMAP's "thousands of
    /// worlds at 60 Hz" claim is load-bearing).
    pub min_sustain: f64,
}

impl Default for ServerGateConfig {
    fn default() -> Self {
        ServerGateConfig {
            cells: vec![(100, 100), (500, 100), (1000, 100)],
            step_rate: 60.0,
            warmup_ms: 2000,
            measure_ms: 4000,
            subwindows: 8,
            clients: 2,
            think_ms: 5,
            threshold: 0.5,
            min_sustain: 0.9,
        }
    }
}

impl ServerGateConfig {
    /// The CI smoke variant: only the flagship 1000×100 cell, shorter
    /// windows, a threshold so wide only a catastrophe trips it. The
    /// sustain check stays at full strength — that is the claim CI
    /// exists to protect.
    pub fn quick(mut self) -> ServerGateConfig {
        self.cells = vec![(1000, 100)];
        self.warmup_ms = 1500;
        self.measure_ms = 2500;
        self.subwindows = 5;
        self.threshold = self.threshold.max(1.0);
        self
    }
}

/// Measured samples for one sweep cell.
#[derive(Debug, Clone)]
pub struct CellSamples {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Bodies per session.
    pub bodies: usize,
    /// Achieved fleet steps/s, one sample per subwindow.
    pub steps_per_sec: Vec<f64>,
    /// Whole-window achieved/ideal ratio.
    pub sustain: f64,
    /// Closed-loop request latencies, nanoseconds (thinned).
    pub latency_ns: Vec<f64>,
    /// p99 request latency over the *full* (unthinned) sample set.
    pub latency_p99_ns: f64,
    /// Requests completed during the window.
    pub requests: usize,
}

/// A recorded server baseline: envelope + per-cell samples.
#[derive(Debug, Clone)]
pub struct ServerBaseline {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Machine the samples were taken on.
    pub fingerprint: Fingerprint,
    /// Recording configuration.
    pub config: ServerGateConfig,
    /// One entry per sweep cell.
    pub cells: Vec<CellSamples>,
}

/// Percentile over a copy of `samples` (nearest-rank on the sorted set).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn thin(samples: &[f64], keep: usize) -> Vec<f64> {
    if samples.len() <= keep {
        return samples.to_vec();
    }
    (0..keep)
        .map(|i| samples[i * samples.len() / keep])
        .collect()
}

/// Records every cell in `cfg`, each against a fresh server on an
/// ephemeral port, and returns the baseline. Prints one progress line
/// per cell.
pub fn record(cfg: &ServerGateConfig) -> ServerBaseline {
    let mut cells = Vec::with_capacity(cfg.cells.len());
    for &(sessions, bodies) in &cfg.cells {
        println!("cell {sessions} session(s) x {bodies} bodies: starting server...");
        let cell = record_cell(sessions, bodies, cfg);
        println!(
            "  achieved {:.0} steps/s of {:.0} ideal (sustain {:.2}), \
             p99 request latency {:.2} ms over {} request(s)",
            parallax_telemetry::median(&cell.steps_per_sec).unwrap_or(0.0),
            sessions as f64 * cfg.step_rate,
            cell.sustain,
            cell.latency_p99_ns / 1e6,
            cell.requests
        );
        cells.push(cell);
    }
    ServerBaseline {
        schema_version: SCHEMA_VERSION,
        fingerprint: Fingerprint::current(),
        config: cfg.clone(),
        cells,
    }
}

/// Spawns `threads` workers over the session id range, each issuing
/// `POST /sessions/:id/step?n=SETTLE_STEPS` for its share.
fn settle_sessions(addr: SocketAddr, ids: &[u64], threads: usize) {
    std::thread::scope(|scope| {
        for chunk in ids.chunks(ids.len().div_ceil(threads.max(1))) {
            scope.spawn(move || {
                for id in chunk {
                    let path = format!("/sessions/{id}/step?n={SETTLE_STEPS}");
                    parallax_telemetry::http_request(addr, "POST", &path, "", b"")
                        .expect("settle step");
                }
            });
        }
    });
}

fn record_cell(sessions: usize, bodies: usize, cfg: &ServerGateConfig) -> CellSamples {
    let server = parallax_server::serve("127.0.0.1:0").expect("bind server");
    let addr = server.addr();

    // Create the fleet parked (rate 0), settle it to sleep, then switch
    // every session to the target rate through the public rate knob.
    let mut ids = Vec::with_capacity(sessions);
    for seed in 0..sessions {
        let body = format!("{{\"bodies\":{bodies},\"seed\":{seed},\"step_rate\":0}}");
        let (status, resp) = parallax_telemetry::http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            body.as_bytes(),
        )
        .expect("create session");
        assert_eq!(
            status,
            200,
            "create failed: {}",
            String::from_utf8_lossy(&resp)
        );
        let id = Json::parse(std::str::from_utf8(&resp).expect("utf8"))
            .expect("create response json")
            .get("id")
            .and_then(Json::as_u64)
            .expect("id");
        ids.push(id);
    }
    settle_sessions(addr, &ids, cfg.clients.max(2));
    for id in &ids {
        let path = format!("/sessions/{id}/rate?hz={}", cfg.step_rate);
        let (status, _) =
            parallax_telemetry::http_request(addr, "POST", &path, "", b"").expect("set rate");
        assert_eq!(status, 200, "rate switch failed for session {id}");
    }
    std::thread::sleep(Duration::from_millis(cfg.warmup_ms));

    // Closed-loop clients: hammer /state round-robin until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let mut latencies: Vec<f64> = Vec::new();
    let mut steps_per_sec = Vec::with_capacity(cfg.subwindows);
    let window = Duration::from_millis(cfg.measure_ms / cfg.subwindows.max(1) as u64);
    // The table's own count, settled up to each read: the registry
    // counter misses the steps of sessions off the schedule until a
    // request settles them.
    let table = server.table();
    let mut window_start = table.total_steps();
    let measure_begin = window_start;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..cfg.clients {
            let stop = Arc::clone(&stop);
            let ids = &ids;
            workers.push(scope.spawn(move || {
                let mut samples = Vec::new();
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let id = ids[i % ids.len()];
                    i += cfg.clients.max(1);
                    let path = format!("/sessions/{id}/state?records=2&bodies=4");
                    let begin = Instant::now();
                    let (status, _) = parallax_telemetry::http_request(addr, "GET", &path, "", b"")
                        .expect("state request");
                    samples.push(begin.elapsed().as_nanos() as f64);
                    assert_eq!(status, 200);
                    if cfg.think_ms > 0 {
                        std::thread::sleep(Duration::from_millis(cfg.think_ms));
                    }
                }
                samples
            }));
        }
        for _ in 0..cfg.subwindows {
            let begin = Instant::now();
            std::thread::sleep(window);
            let now = table.total_steps();
            let secs = begin.elapsed().as_secs_f64();
            steps_per_sec.push((now - window_start) as f64 / secs.max(1e-9));
            window_start = now;
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            latencies.extend(w.join().expect("client thread"));
        }
    });
    let achieved = (window_start - measure_begin) as f64;
    let ideal = sessions as f64 * cfg.step_rate * (cfg.measure_ms as f64 / 1e3);
    CellSamples {
        sessions,
        bodies,
        steps_per_sec,
        sustain: achieved / ideal.max(1e-9),
        latency_p99_ns: percentile(&latencies, 99.0),
        requests: latencies.len(),
        latency_ns: thin(&latencies, MAX_STORED_LATENCIES),
    }
}

impl ServerBaseline {
    /// Serializes the baseline (hand-rolled JSON; the workspace's serde
    /// is an API-only shim).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"experiment\": \"{EXPERIMENT}\",");
        let _ = writeln!(s, "  \"fingerprint\": {},", self.fingerprint.to_json());
        let _ = write!(
            s,
            "  \"config\": {{\"step_rate\": {}, \"warmup_ms\": {}, \"measure_ms\": {}, \
             \"subwindows\": {}, \"clients\": {}, \"think_ms\": {}, \"threshold\": {}, \
             \"min_sustain\": {}, \"cells\": [",
            self.config.step_rate,
            self.config.warmup_ms,
            self.config.measure_ms,
            self.config.subwindows,
            self.config.clients,
            self.config.think_ms,
            self.config.threshold,
            self.config.min_sustain
        );
        for (i, (sessions, bodies)) in self.config.cells.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{sessions}, {bodies}]");
        }
        s.push_str("]},\n  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"sessions\": {}, \"bodies\": {}, \"sustain\": {:.4}, \
                 \"latency_p99_ns\": {}, \"requests\": {},\n     \"steps_per_sec\": [",
                cell.sessions, cell.bodies, cell.sustain, cell.latency_p99_ns as u64, cell.requests
            );
            for (j, v) in cell.steps_per_sec.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", *v as u64);
            }
            s.push_str("],\n     \"latency_ns\": [");
            for (j, v) in cell.latency_ns.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", *v as u64);
            }
            s.push_str("]}");
            s.push_str(if i + 1 == self.cells.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a baseline document, validating the envelope.
    pub fn from_json(src: &str) -> Result<ServerBaseline, String> {
        let v = Json::parse(src)?;
        let schema_version = field_u64(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "server baseline schema v{schema_version} but this build reads \
                 v{SCHEMA_VERSION}; re-record with `server_bench record`"
            ));
        }
        let experiment = field_str(&v, "experiment")?;
        if experiment != EXPERIMENT {
            return Err(format!(
                "not a server-gate baseline (experiment {experiment:?})"
            ));
        }
        let fingerprint =
            Fingerprint::from_json(v.get("fingerprint").ok_or("missing fingerprint")?)?;
        let c = v.get("config").ok_or("missing config")?;
        let mut config = ServerGateConfig {
            step_rate: field_f64(c, "step_rate")?,
            warmup_ms: field_u64(c, "warmup_ms")?,
            measure_ms: field_u64(c, "measure_ms")?,
            subwindows: field_u64(c, "subwindows")? as usize,
            clients: field_u64(c, "clients")? as usize,
            think_ms: field_u64(c, "think_ms")?,
            threshold: field_f64(c, "threshold")?,
            min_sustain: field_f64(c, "min_sustain")?,
            cells: Vec::new(),
        };
        for cell in c
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells")?
        {
            let pair = cell
                .as_arr()
                .ok_or("config cell must be [sessions, bodies]")?;
            match pair {
                [s, b] => config.cells.push((
                    s.as_u64().ok_or("non-integer sessions")? as usize,
                    b.as_u64().ok_or("non-integer bodies")? as usize,
                )),
                _ => return Err("config cell must be [sessions, bodies]".to_string()),
            }
        }
        let mut cells = Vec::new();
        for cell in v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing cells array")?
        {
            cells.push(CellSamples {
                sessions: field_u64(cell, "sessions")? as usize,
                bodies: field_u64(cell, "bodies")? as usize,
                sustain: field_f64(cell, "sustain")?,
                latency_p99_ns: field_f64(cell, "latency_p99_ns")?,
                requests: field_u64(cell, "requests")? as usize,
                steps_per_sec: cell
                    .get("steps_per_sec")
                    .and_then(Json::as_arr)
                    .ok_or("cell missing steps_per_sec")?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
                latency_ns: cell
                    .get("latency_ns")
                    .and_then(Json::as_arr)
                    .ok_or("cell missing latency_ns")?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
            });
        }
        Ok(ServerBaseline {
            schema_version,
            fingerprint,
            config,
            cells,
        })
    }
}

/// One cell×metric comparison row.
#[derive(Debug, Clone)]
pub struct CellComparison {
    /// Concurrent sessions of the cell.
    pub sessions: usize,
    /// Bodies per session of the cell.
    pub bodies: usize,
    /// `"step period"` or `"request latency"`.
    pub metric: &'static str,
    /// The statistical comparison.
    pub cmp: Comparison,
}

impl CellComparison {
    /// `true` when this row is a regression at the gate's threshold.
    pub fn is_regression(&self) -> bool {
        self.cmp.verdict == Verdict::Slower
    }
}

/// Per-step periods (ns) from throughput samples, so that both gate
/// metrics are costs ("bigger = slower").
fn periods_ns(steps_per_sec: &[f64]) -> Vec<f64> {
    steps_per_sec
        .iter()
        .filter(|s| **s > 0.0)
        .map(|s| 1e9 / s)
        .collect()
}

/// Compares a fresh recording against a baseline, cell by cell. Cells
/// present on only one side are skipped. Latency slowdowns under
/// [`MIN_REGRESSION_NS`] absolute are downgraded, like the scene gate.
pub fn compare_server_baselines(
    base: &ServerBaseline,
    fresh: &ServerBaseline,
    threshold: f64,
) -> Vec<CellComparison> {
    let cfg = BootstrapConfig::default();
    let mut rows = Vec::new();
    for b in &base.cells {
        let Some(f) = fresh
            .cells
            .iter()
            .find(|c| c.sessions == b.sessions && c.bodies == b.bodies)
        else {
            continue;
        };
        let pairs: [(&'static str, Vec<f64>, Vec<f64>); 2] = [
            (
                "step period",
                periods_ns(&b.steps_per_sec),
                periods_ns(&f.steps_per_sec),
            ),
            (
                "request latency",
                b.latency_ns.clone(),
                f.latency_ns.clone(),
            ),
        ];
        for (metric, base_samples, fresh_samples) in pairs {
            let Some(mut cmp) = compare(&base_samples, &fresh_samples, threshold, &cfg) else {
                continue;
            };
            if cmp.verdict == Verdict::Slower
                && metric == "request latency"
                && cmp.cand_median - cmp.base_median < MIN_REGRESSION_NS
            {
                cmp.verdict = Verdict::Indistinguishable;
            }
            rows.push(CellComparison {
                sessions: b.sessions,
                bodies: b.bodies,
                metric,
                cmp,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_baseline() -> ServerBaseline {
        ServerBaseline {
            schema_version: SCHEMA_VERSION,
            fingerprint: Fingerprint::current(),
            config: ServerGateConfig {
                cells: vec![(10, 20)],
                ..ServerGateConfig::default()
            },
            cells: vec![CellSamples {
                sessions: 10,
                bodies: 20,
                steps_per_sec: vec![600.0, 590.0, 610.0, 605.0],
                sustain: 0.99,
                latency_ns: vec![100_000.0, 120_000.0, 110_000.0, 105_000.0],
                latency_p99_ns: 120_000.0,
                requests: 4,
            }],
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = fake_baseline();
        let parsed = ServerBaseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed.schema_version, b.schema_version);
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.config.cells, b.config.cells);
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.cells[0].sessions, 10);
        assert_eq!(parsed.cells[0].steps_per_sec.len(), 4);
        assert_eq!(parsed.cells[0].latency_ns.len(), 4);
        assert_eq!(parsed.cells[0].requests, 4);
    }

    #[test]
    fn from_json_rejects_other_experiments() {
        let wrong =
            format!("{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"scene_gate\"}}");
        assert!(ServerBaseline::from_json(&wrong)
            .unwrap_err()
            .contains("scene_gate"));
        assert!(ServerBaseline::from_json("{\"schema_version\": 99}").is_err());
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let b = fake_baseline();
        let rows = compare_server_baselines(&b, &b, 0.5);
        assert_eq!(rows.len(), 2, "{rows:?}");
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn quick_keeps_the_flagship_cell() {
        let q = ServerGateConfig::default().quick();
        assert_eq!(q.cells, vec![(1000, 100)]);
        assert_eq!(q.min_sustain, ServerGateConfig::default().min_sustain);
    }

    #[test]
    fn small_cell_records_end_to_end() {
        // A miniature live recording: 3 sessions, tiny windows — this is
        // the whole record path (create, settle, rate switch, clients,
        // counter sampling) compressed to test scale.
        let _flag = crate::telemetry_flag_lock();
        let cfg = ServerGateConfig {
            cells: vec![(3, 10)],
            step_rate: 120.0,
            warmup_ms: 100,
            measure_ms: 400,
            subwindows: 2,
            clients: 2,
            ..ServerGateConfig::default()
        };
        let b = record(&cfg);
        assert_eq!(b.cells.len(), 1);
        let cell = &b.cells[0];
        assert_eq!(cell.steps_per_sec.len(), 2);
        assert!(cell.requests > 0, "clients made no requests");
        assert!(
            cell.sustain > 0.2,
            "no scheduled stepping happened: {cell:?}"
        );
        ServerBaseline::from_json(&b.to_json()).expect("round trip");
    }
}
